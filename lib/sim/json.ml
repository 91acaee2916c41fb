type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ----------------------------------------------------------------- *)
(* Printing                                                          *)
(* ----------------------------------------------------------------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped buffer s =
  Buffer.add_char buffer '"';
  (* Fast path: trace labels and details almost never need escaping. *)
  if not (String.exists needs_escape s) then Buffer.add_string buffer s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buffer "\\\""
        | '\\' -> Buffer.add_string buffer "\\\\"
        | '\n' -> Buffer.add_string buffer "\\n"
        | '\r' -> Buffer.add_string buffer "\\r"
        | '\t' -> Buffer.add_string buffer "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buffer c)
      s;
  Buffer.add_char buffer '"'

let rec add_json buffer = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float v ->
    (* %.17g round-trips every float; trailing ".0" keeps the value a
       float on re-parse. *)
    let s = Printf.sprintf "%.17g" v in
    Buffer.add_string buffer s;
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buffer ".0"
  | String s -> add_escaped buffer s
  | List items ->
    Buffer.add_char buffer '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buffer ',';
        add_json buffer item)
      items;
    Buffer.add_char buffer ']'
  | Obj fields ->
    Buffer.add_char buffer '{';
    List.iteri
      (fun i (name, value) ->
        if i > 0 then Buffer.add_char buffer ',';
        add_escaped buffer name;
        Buffer.add_char buffer ':';
        add_json buffer value)
      fields;
    Buffer.add_char buffer '}'

let to_string json =
  let buffer = Buffer.create 128 in
  add_json buffer json;
  Buffer.contents buffer

(* ----------------------------------------------------------------- *)
(* Parsing                                                           *)
(* ----------------------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* A window [start, stop) of [text]; offsets in messages are relative to
   [start], so a line scanned in place reports the same offsets as the
   line parsed on its own. *)
type cursor = { text : string; mutable pos : int; start : int; stop : int }

let cursor text ~start ~stop = { text; pos = start; start; stop }

let offset c = c.pos - c.start

let peek c = if c.pos < c.stop then c.text.[c.pos] else '\000'

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    c.pos < c.stop
    && match c.text.[c.pos] with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    advance c
  done

let expect c ch =
  if c.pos >= c.stop then
    parse_error "expected %c at offset %d, got end of input" ch (offset c)
  else if c.text.[c.pos] = ch then advance c
  else parse_error "expected %c at offset %d, got %c" ch (offset c) c.text.[c.pos]

let parse_literal c word value =
  let len = String.length word in
  let rec matches i =
    i = len || (Char.equal c.text.[c.pos + i] word.[i] && matches (i + 1))
  in
  if c.pos + len <= c.stop && matches 0 then begin
    c.pos <- c.pos + len;
    value
  end
  else parse_error "invalid literal at offset %d" (offset c)

(* The escape-decoding tail of a string whose unescaped prefix is
   already in [buffer]; [c] is at the first backslash. *)
let rec string_escaped c buffer =
  if c.pos >= c.stop then parse_error "unterminated string at offset %d" (offset c);
  match c.text.[c.pos] with
  | '"' ->
    advance c;
    Buffer.contents buffer
  | '\\' ->
    advance c;
    if c.pos >= c.stop then parse_error "truncated escape at offset %d" (offset c);
    (match c.text.[c.pos] with
    | '"' -> Buffer.add_char buffer '"'
    | '\\' -> Buffer.add_char buffer '\\'
    | '/' -> Buffer.add_char buffer '/'
    | 'b' -> Buffer.add_char buffer '\b'
    | 'f' -> Buffer.add_char buffer '\012'
    | 'n' -> Buffer.add_char buffer '\n'
    | 'r' -> Buffer.add_char buffer '\r'
    | 't' -> Buffer.add_char buffer '\t'
    | 'u' ->
      if c.pos + 4 >= c.stop then
        parse_error "truncated \\u escape at offset %d" (offset c);
      let hex = String.sub c.text (c.pos + 1) 4 in
      (match int_of_string_opt ("0x" ^ hex) with
      | Some code when code < 0x80 -> Buffer.add_char buffer (Char.chr code)
      | Some code ->
        (* Minimal UTF-8 encoding for the BMP; traces only emit
           ASCII, this is for robustness on foreign input. *)
        if code < 0x800 then begin
          Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
        end
      | None -> parse_error "bad \\u escape at offset %d" (offset c));
      c.pos <- c.pos + 4
    | e -> parse_error "bad escape \\%c at offset %d" e (offset c));
    advance c;
    string_escaped c buffer
  | ch ->
    Buffer.add_char buffer ch;
    advance c;
    string_escaped c buffer

let string c =
  expect c '"';
  let first = c.pos in
  let i = ref first in
  while
    !i < c.stop
    && match c.text.[!i] with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  if !i < c.stop && Char.equal c.text.[!i] '"' then begin
    (* No escape: the literal is a plain slice of the text. *)
    c.pos <- !i + 1;
    String.sub c.text first (!i - first)
  end
  else begin
    let buffer = Buffer.create (max 16 (2 * (!i - first))) in
    Buffer.add_substring buffer c.text first (!i - first);
    c.pos <- !i;
    string_escaped c buffer
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let number c =
  let start = c.pos in
  while c.pos < c.stop && is_num_char (c.text.[c.pos]) do
    advance c
  done;
  let len = c.pos - start in
  (* Fast path: a plain decimal integer short enough not to overflow. *)
  let negative = len > 0 && Char.equal c.text.[start] '-' in
  let first = if negative then start + 1 else start in
  let rec digits i acc =
    if i = c.pos then Some acc
    else
      match c.text.[i] with
      | '0' .. '9' as d -> digits (i + 1) ((acc * 10) + Char.code d - 48)
      | _ -> None
  in
  match if c.pos > first && c.pos - first <= 18 then digits first 0 else None with
  | Some v -> Int (if negative then -v else v)
  | None -> (
    let s = String.sub c.text start len in
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some v -> Float v
      | None -> parse_error "bad number %S at offset %d" s (start - c.start)))

let fields c f =
  skip_ws c;
  expect c '{';
  skip_ws c;
  if Char.equal (peek c) '}' then advance c
  else begin
    let rec loop () =
      skip_ws c;
      let name = string c in
      skip_ws c;
      expect c ':';
      skip_ws c;
      f name;
      skip_ws c;
      if c.pos >= c.stop then parse_error "unterminated object at offset %d" (offset c);
      match c.text.[c.pos] with
      | ',' ->
        advance c;
        loop ()
      | '}' -> advance c
      | ch -> parse_error "expected , or } at offset %d, got %c" (offset c) ch
    in
    loop ()
  end

let rec value c =
  skip_ws c;
  if c.pos >= c.stop then parse_error "unexpected end of input at offset %d" (offset c);
  match c.text.[c.pos] with
  | '{' ->
    let acc = ref [] in
    fields c (fun name -> acc := (name, value c) :: !acc);
    Obj (List.rev !acc)
  | '[' ->
    advance c;
    skip_ws c;
    if Char.equal (peek c) ']' then begin
      advance c;
      List []
    end
    else begin
      let rec items acc =
        let v = value c in
        skip_ws c;
        if c.pos >= c.stop then parse_error "unterminated array at offset %d" (offset c);
        match c.text.[c.pos] with
        | ',' ->
          advance c;
          items (v :: acc)
        | ']' ->
          advance c;
          List.rev (v :: acc)
        | ch -> parse_error "expected , or ] at offset %d, got %c" (offset c) ch
      in
      List (items [])
    end
  | '"' -> String (string c)
  | 't' -> parse_literal c "true" (Bool true)
  | 'f' -> parse_literal c "false" (Bool false)
  | 'n' -> parse_literal c "null" Null
  | _ -> number c

let finish c =
  skip_ws c;
  if c.pos < c.stop then parse_error "trailing garbage at offset %d" (offset c)

let of_string text =
  let c = cursor text ~start:0 ~stop:(String.length text) in
  match
    let v = value c in
    finish c;
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ----------------------------------------------------------------- *)
(* Accessors                                                         *)
(* ----------------------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function Float v -> Some v | Int i -> Some (float_of_int i) | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_obj = function Obj fields -> Some fields | _ -> None

let int_member ?default name json =
  match member name json with
  | Some v -> to_int v
  | None -> default

let string_member ?default name json =
  match member name json with
  | Some v -> to_str v
  | None -> default

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
    List.equal
      (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && equal v1 v2)
      x y
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false
