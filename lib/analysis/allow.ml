type entry = { rule : string; path : string; fingerprint : string; raw : string }

let ( let* ) = Result.bind

let is_fingerprint fp =
  String.length fp = 12 && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) fp

(* [s] split at its first space, the rest trimmed. *)
let cut s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.trim (String.sub s i (String.length s - i)))

(* [None] for a blank or comment line. *)
let parse_line number line =
  let error fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" number m)) fmt in
  let raw = String.trim line in
  if String.length raw = 0 || raw.[0] = '#' then Ok None
  else
    let rule, rest = cut raw in
    if rest = "" then error "rule %S names no path" rule
    else if not (List.mem rule Rule_info.ids) then
      error "unknown rule id %S (see --explain all)" rule
    else
      (* fp:<hex> [trailing comment ignored] *)
      let path, tail = cut rest in
      let token = fst (cut tail) in
      if not (String.starts_with ~prefix:"fp:" token) then
        error "%s %s names no fingerprint (want fp: and 12 lowercase hex digits)" rule path
      else
        let fingerprint = String.sub token 3 (String.length token - 3) in
        if is_fingerprint fingerprint then Ok (Some { rule; path; fingerprint; raw })
        else error "malformed fingerprint %S (want fp: and 12 lowercase hex digits)" token

let of_string text =
  let rec go number acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let* entry = parse_line number line in
      go (number + 1) (Option.fold entry ~none:acc ~some:(fun e -> e :: acc)) rest
  in
  go 1 [] (String.split_on_char '\n' text)

let load ~file =
  if not (Sys.file_exists file) then Ok []
  else begin
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    Result.map_error (fun msg -> Printf.sprintf "%s: %s" file msg) (of_string text)
  end

let path_matches ~entry_path ~file =
  String.equal entry_path file
  || begin
    let suffix = "/" ^ entry_path in
    let fl = String.length file and sl = String.length suffix in
    fl >= sl && String.equal (String.sub file (fl - sl) sl) suffix
  end

let entry_permits e (finding : Finding.t) =
  String.equal e.rule finding.Finding.rule
  && path_matches ~entry_path:e.path ~file:finding.Finding.file
  && String.equal e.fingerprint (Finding.fingerprint finding)

let permits entries finding = List.exists (fun e -> entry_permits e finding) entries

let unused entries findings =
  List.filter
    (fun e -> not (List.exists (fun f -> entry_permits e f) findings))
    entries
