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
   line parsed on its own.  [scanned] holds what {!skip} last found:
   an integer, or a string literal's offset. *)
type cursor = {
  text : string;
  mutable pos : int;
  mutable start : int;
  mutable stop : int;
  mutable scanned : int;
}

let cursor text ~start ~stop = { text; pos = start; start; stop; scanned = 0 }

let window c ~start ~stop =
  c.pos <- start;
  c.start <- start;
  c.stop <- stop

let[@inline] offset c = c.pos - c.start

let[@inline] peek c = if c.pos < c.stop then c.text.[c.pos] else '\000'

let[@inline] advance c = c.pos <- c.pos + 1

let[@inline] skip_ws c =
  let i = ref c.pos in
  while
    !i < c.stop
    && match c.text.[!i] with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    incr i
  done;
  c.pos <- !i

let[@inline] expect c ch =
  if c.pos >= c.stop then
    parse_error "expected %c at offset %d, got end of input" ch (offset c)
  else if c.text.[c.pos] = ch then advance c
  else parse_error "expected %c at offset %d, got %c" ch (offset c) c.text.[c.pos]

let parse_literal c word value =
  let len = String.length word in
  let i = ref 0 in
  while !i < len && c.pos + !i < c.stop && Char.equal c.text.[c.pos + !i] word.[!i] do
    incr i
  done;
  if !i = len then begin
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

(* The offset of the first quote or backslash in [text] from [i], or
   [stop]. *)
let[@inline] quote_or_backslash text i stop =
  let j = ref i in
  while !j < stop && match text.[!j] with '"' | '\\' -> false | _ -> true do
    incr j
  done;
  !j

(* Scans a string literal from its opening quote at [c] up to its
   closing quote or its first backslash, and returns the offset of its
   first byte.  [c] is left on the quote or backslash: the literal has
   no escape iff [c] is on a quote. *)
let literal_start c =
  expect c '"';
  let first = c.pos in
  c.pos <- quote_or_backslash c.text first c.stop;
  first

let[@inline] plain c = c.pos < c.stop && Char.equal c.text.[c.pos] '"'

(* The escaped tail of a literal whose first [first] bytes are plain;
   [c] is on the backslash. *)
let escaped_from c first =
  let buffer = Buffer.create (max 16 (2 * (c.pos - first))) in
  Buffer.add_substring buffer c.text first (c.pos - first);
  string_escaped c buffer

let string c =
  let first = literal_start c in
  if plain c then begin
    (* No escape: the literal is a plain slice of the text. *)
    advance c;
    String.sub c.text first (c.pos - 1 - first)
  end
  else escaped_from c first

(* Skips a string literal, checking its escapes. *)
let skip_string c =
  let first = literal_start c in
  if plain c then advance c else ignore (escaped_from c first)

(* Whether [s] equals [text]'s bytes [first, stop). *)
let same_bytes s text first stop =
  String.length s = stop - first
  &&
  let i = ref 0 in
  while !i < String.length s && Char.equal s.[!i] text.[first + !i] do
    incr i
  done;
  !i = String.length s

(* ---- names matched in place ---- *)

(* Open addressing over a power-of-two table of indices into [keys],
   -1 marking a free slot, at most a quarter full.  A name's slot
   comes from its length and end bytes alone, so finding it costs no
   pass over the name beyond the comparison. *)
type names = { keys : string array; slots : int array; mask : int }

let[@inline] name_hash text first stop =
  if stop = first then 0
  else ((stop - first) * 7) + (Char.code text.[first] * 3) + (Char.code text.[stop - 1] * 5)

let probe t text first stop =
  let i = ref (name_hash text first stop land t.mask) in
  while t.slots.(!i) >= 0 && not (same_bytes t.keys.(t.slots.(!i)) text first stop) do
    i := (!i + 1) land t.mask
  done;
  t.slots.(!i)

let names keys =
  let size = ref 4 in
  while !size < 4 * Array.length keys do
    size := 2 * !size
  done;
  let t = { keys; slots = Array.make !size (-1); mask = !size - 1 } in
  Array.iteri
    (fun k key ->
      let i = ref (name_hash key 0 (String.length key) land t.mask) in
      while t.slots.(!i) >= 0 do
        i := (!i + 1) land t.mask
      done;
      t.slots.(!i) <- k)
    keys;
  t

(* The index in [t] of the literal at [c], consumed; an escaped
   literal is decoded first. *)
let index c t =
  let first = literal_start c in
  if plain c then begin
    advance c;
    probe t c.text first (c.pos - 1)
  end
  else
    let name = escaped_from c first in
    probe t name 0 (String.length name)

let index_at c t at =
  c.pos <- at;
  index c t

(* ---- strings shared through a cache ---- *)

(* Direct-mapped: a slot holds the last string decoded there. *)
type string_cache = string array

let cache_slots = 256

let string_cache () = Array.make cache_slots ""

(* The slot of [text]'s bytes [first, stop): a hash of their length and
   of up to 24 of them, read eight at a time, which covers every byte
   of a label, an instance or a detail of up to 24 bytes. *)
let cache_slot text first stop =
  let len = stop - first in
  let h =
    if len < 8 then begin
      let h = ref len in
      for i = first to stop - 1 do
        h := (!h * 31) + Char.code text.[i]
      done;
      !h
    end
    else
      (Int64.to_int (String.get_int64_le text first) * 31)
      + (Int64.to_int (String.get_int64_le text (first + ((len - 8) / 2))) * 17)
      + Int64.to_int (String.get_int64_le text (stop - 8))
      + len
  in
  let h = h * 0x9e3779b1 in
  (h lxor (h lsr 29)) land (cache_slots - 1)

let string_at c cache at =
  c.pos <- at;
  let first = literal_start c in
  if plain c then begin
    let stop = c.pos in
    advance c;
    let slot = cache_slot c.text first stop in
    let s = cache.(slot) in
    if same_bytes s c.text first stop then s
    else begin
      let s = String.sub c.text first (stop - first) in
      cache.(slot) <- s;
      s
    end
  end
  else escaped_from c first

(* ---- numbers ---- *)

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* Scans a number's characters from [c]; [true] when they form an
   integer, left in [c.scanned].  A plain decimal of up to 18 digits is
   read in place; anything else is what [int_of_string] reads (a
   leading [+], leading zeros, up to [max_int]). *)
let scan_int c =
  let start = c.pos in
  let negative = start < c.stop && Char.equal c.text.[start] '-' in
  let first = if negative then start + 1 else start in
  let acc = ref 0 and i = ref first in
  while
    !i < c.stop && match c.text.[!i] with '0' .. '9' -> true | _ -> false
  do
    acc := (!acc * 10) + Char.code c.text.[!i] - 48;
    incr i
  done;
  if !i > first && !i - first <= 18 && not (!i < c.stop && is_num_char c.text.[!i])
  then begin
    c.pos <- !i;
    c.scanned <- (if negative then - !acc else !acc);
    true
  end
  else begin
    c.pos <- !i;
    while c.pos < c.stop && is_num_char c.text.[c.pos] do
      advance c
    done;
    match int_of_string_opt (String.sub c.text start (c.pos - start)) with
    | Some v ->
      c.scanned <- v;
      true
    | None -> false
  end

(* The number [c] has just scanned from [start], which is not an
   integer. *)
let float_from c start =
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some v -> v
  | None -> parse_error "bad number %S at offset %d" s (start - c.start)

(* ---- objects, arrays and values ---- *)

let first_field c =
  skip_ws c;
  expect c '{';
  skip_ws c;
  if Char.equal (peek c) '}' then begin
    advance c;
    false
  end
  else true

let next_field c =
  skip_ws c;
  if c.pos >= c.stop then parse_error "unterminated object at offset %d" (offset c);
  match c.text.[c.pos] with
  | ',' ->
    advance c;
    true
  | '}' ->
    advance c;
    false
  | ch -> parse_error "expected , or } at offset %d, got %c" (offset c) ch

(* The [:] after a name; the value's scan skips the whitespace after. *)
let[@inline] colon c =
  skip_ws c;
  expect c ':'

let key c t =
  skip_ws c;
  let k = index c t in
  colon c;
  k

(* Scans an array's items with [item], from its [[]. *)
let items c item =
  advance c;
  skip_ws c;
  if Char.equal (peek c) ']' then advance c
  else begin
    let more = ref true in
    while !more do
      item c;
      skip_ws c;
      if c.pos >= c.stop then parse_error "unterminated array at offset %d" (offset c);
      match c.text.[c.pos] with
      | ',' -> advance c
      | ']' ->
        advance c;
        more := false
      | ch -> parse_error "expected , or ] at offset %d, got %c" (offset c) ch
    done
  end

type slot = Absent | Int_slot | String_slot | Other_slot

(* Consumes one value of any type, checked as [value] checks it, and
   says what it was: for an int or a string, [c.scanned] holds the
   integer or the literal's offset. *)
let rec skip c =
  skip_ws c;
  if c.pos >= c.stop then parse_error "unexpected end of input at offset %d" (offset c);
  match c.text.[c.pos] with
  | '{' ->
    if first_field c then begin
      let more = ref true in
      while !more do
        skip_ws c;
        skip_string c;
        colon c;
        ignore (skip c);
        more := next_field c
      done
    end;
    Other_slot
  | '[' ->
    items c skip_item;
    Other_slot
  | '"' ->
    c.scanned <- c.pos;
    skip_string c;
    String_slot
  | 't' -> parse_literal c "true" Other_slot
  | 'f' -> parse_literal c "false" Other_slot
  | 'n' -> parse_literal c "null" Other_slot
  | _ ->
    let start = c.pos in
    if scan_int c then Int_slot
    else begin
      ignore (float_from c start);
      Other_slot
    end

and skip_item c = ignore (skip c)

(* The compact form the exporter writes is scanned token by token in
   place.  Anything else at a token (whitespace, an escape, a value
   that is not a plain string) goes through the general primitives
   from the same offset, which accept and reject exactly what they do
   everywhere else. *)
let fields c t ~slots ~values =
  Array.fill slots 0 (Array.length slots) Absent;
  if first_field c then begin
    let text = c.text and stop = c.stop in
    let more = ref true in
    while !more do
      (* a plain name right before its colon *)
      let i = c.pos in
      let j = if i < stop && Char.equal text.[i] '"' then quote_or_backslash text (i + 1) stop else stop in
      let k =
        if j + 1 < stop && Char.equal text.[j] '"' && Char.equal text.[j + 1] ':' then begin
          c.pos <- j + 2;
          probe t text (i + 1) j
        end
        else key c t
      in
      (* a plain string literal *)
      let at = c.pos in
      let j = if at < stop && Char.equal text.[at] '"' then quote_or_backslash text (at + 1) stop else stop in
      let found =
        if j < stop && Char.equal text.[j] '"' then begin
          c.pos <- j + 1;
          c.scanned <- at;
          String_slot
        end
        else skip c
      in
      (* the first of a repeated name wins *)
      (if k >= 0 then
         match slots.(k) with
         | Absent ->
           slots.(k) <- found;
           values.(k) <- c.scanned
         | Int_slot | String_slot | Other_slot -> ());
      (* the separator *)
      let i = c.pos in
      if i < stop && Char.equal text.[i] ',' then c.pos <- i + 1
      else if i < stop && Char.equal text.[i] '}' then begin
        c.pos <- i + 1;
        more := false
      end
      else more := next_field c
    done
  end

let rec value c =
  skip_ws c;
  if c.pos >= c.stop then parse_error "unexpected end of input at offset %d" (offset c);
  match c.text.[c.pos] with
  | '{' ->
    let acc = ref [] in
    if first_field c then begin
      let more = ref true in
      while !more do
        skip_ws c;
        let name = string c in
        colon c;
        acc := (name, value c) :: !acc;
        more := next_field c
      done
    end;
    Obj (List.rev !acc)
  | '[' ->
    let acc = ref [] in
    items c (fun c -> acc := value c :: !acc);
    List (List.rev !acc)
  | '"' -> String (string c)
  | 't' -> parse_literal c "true" (Bool true)
  | 'f' -> parse_literal c "false" (Bool false)
  | 'n' -> parse_literal c "null" Null
  | _ ->
    let start = c.pos in
    if scan_int c then Int c.scanned else Float (float_from c start)

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

let int_member name json = Option.bind (member name json) to_int

let string_member name json = Option.bind (member name json) to_str

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
