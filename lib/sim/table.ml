type t = {
  id : string option;
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let id_ok id =
  id <> ""
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
       id

let create ?id ~title ~columns () =
  (match id with
  | Some id when not (id_ok id) ->
    invalid_arg
      (Printf.sprintf
         "Table.create: id %S must be non-empty [a-z0-9_-] (table %S)" id title)
  | _ -> ());
  { id; title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns in table %S"
         (List.length cells) (List.length t.columns) t.title);
  t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  let note_row cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  List.iter note_row all;
  let buffer = Buffer.create 256 in
  let render_row cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buffer "  ";
        Buffer.add_string buffer c;
        Buffer.add_string buffer (String.make (widths.(i) - String.length c) ' '))
      cells;
    Buffer.add_char buffer '\n'
  in
  let total_width = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buffer t.title;
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer (String.make total_width '=');
  Buffer.add_char buffer '\n';
  render_row t.columns;
  Buffer.add_string buffer (String.make total_width '-');
  Buffer.add_char buffer '\n';
  List.iter render_row rows;
  Buffer.contents buffer

let csv t =
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell
  in
  let line cells = String.concat "," (List.map escape cells) in
  String.concat "\n" (List.map line (t.columns :: List.rev t.rows)) ^ "\n"

(* The first 8 hex digits of the title digest keep filenames unique
   however long (or however alike in their first words) two titles are
   — truncating the title alone collided E14's loss-sweep tables. *)
let title_hash title = String.sub (Digest.to_hex (Digest.string title)) 0 8

let sanitize s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
    s

let slug t =
  let stem =
    match t.id with
    | Some id -> id
    | None -> sanitize (String.sub t.title 0 (min 24 (String.length t.title)))
  in
  stem ^ "_" ^ title_hash t.title

let print t = print_string (render t)

let cell_int = string_of_int

let cell_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let cell_ratio v = Printf.sprintf "%.1fx" v

let cell_percent v = Printf.sprintf "%.1f%%" (100. *. v)
