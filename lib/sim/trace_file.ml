type t = {
  version : int;
  recorded : int;
  dropped : int;
  meta : (string * Json.t) list;
  entries : Trace.entry list;
}

let ( let* ) = Result.bind

(* The header's counts are optional (the v3 literal in test/test_trace.ml
   has no [retained]), but each must be an int when present. *)
let count json name =
  match Json.member name json with
  | None -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "header: %S is not an int" name)

let parse_header line =
  let fail m = Error ("header: " ^ m) in
  match Json.of_string line with
  | Error m -> fail m
  | Ok json -> (
    match (Json.string_member "schema" json, Json.int_member "version" json) with
    | None, _ -> fail "not an abc.trace file (no schema field)"
    | Some schema, _ when not (String.equal schema "abc.trace") ->
      fail (Printf.sprintf "not an abc.trace file (schema %S)" schema)
    | Some _, None -> fail "missing version"
    | Some _, Some version when version > Trace.schema_version ->
      fail
        (Printf.sprintf "trace schema version %d is newer than supported %d"
           version Trace.schema_version)
    | Some _, Some version -> (
      let meta =
        match Option.bind (Json.member "meta" json) Json.to_obj with
        | Some fields -> fields
        | None -> []
      in
      let* recorded = count json "recorded" in
      let* retained = count json "retained" in
      let* dropped = count json "dropped" in
      match (recorded, retained, dropped) with
      | Some r, Some k, Some d when r <> k + d ->
        fail
          (Printf.sprintf "\"recorded\" %d is not \"retained\" %d + \"dropped\" %d" r
             k d)
      | _ ->
        Ok
          ( version,
            Option.value ~default:0 recorded,
            retained,
            Option.value ~default:0 dropped,
            meta )))

(* ----------------------------------------------------------------- *)
(* Entry lines, decoded in place                                     *)
(* ----------------------------------------------------------------- *)

(* Every key an entry of any kind may carry has a slot, its index in
   [Key.names].  A line's fields are scanned into the slots in whatever
   order they come, an int as its value and a string as its literal's
   offset, so that only the strings the entry's kind returns are ever
   built.  Unknown keys, and repeats of a key already seen, are skipped
   whatever their JSON type. *)
module Key = struct
  let names =
    [|
      "t"; "node"; "kind"; "instance"; "round"; "src"; "dst"; "label"; "detail"; "bytes";
      "quorum"; "count"; "threshold"; "value"; "tag"; "reason"; "id"; "due"; "seq";
      "epoch"; "txs"; "proposer"; "len"; "have";
    |]

  let table = Json.names names

  let slots = Array.length names

  (* Resolved once, when the module is initialised. *)
  let slot name =
    let rec find k = if String.equal names.(k) name then k else find (k + 1) in
    find 0

  let time = slot "t"
  let node = slot "node"
  let kind = slot "kind"
  let instance = slot "instance"
  let round = slot "round"
  let src = slot "src"
  let dst = slot "dst"
  let label = slot "label"
  let detail = slot "detail"
  let bytes = slot "bytes"
  let quorum = slot "quorum"
  let count = slot "count"
  let threshold = slot "threshold"
  let value = slot "value"
  let tag = slot "tag"
  let reason = slot "reason"
  let id = slot "id"
  let due = slot "due"
  let seq = slot "seq"
  let epoch = slot "epoch"
  let txs = slot "txs"
  let proposer = slot "proposer"
  let len = slot "len"
  let have = slot "have"
end

(* The ["kind"] string is matched in place too, by ordinal. *)
let kinds = Json.names (Array.init Event.kind_count Event.ord_label)

(* One decode's working state, made per call: a cursor moved from line
   to line, the slots, and the cache that lets equal strings share one
   copy. *)
type state = {
  c : Json.cursor;
  held : Json.slot array;
  ints : int array;  (* an int's value, or a string literal's offset *)
  strings : Json.string_cache;
  mutable line : int;  (* the line being decoded *)
}

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let int_field s k =
  match s.held.(k) with
  | Json.Int_slot -> s.ints.(k)
  | Json.Absent | Json.String_slot | Json.Other_slot ->
    bad "trace entry: missing or bad %S field" Key.names.(k)

let string_field s k =
  match s.held.(k) with
  | Json.String_slot -> Json.string_at s.c s.strings s.ints.(k)
  | Json.Absent | Json.Int_slot | Json.Other_slot ->
    bad "trace entry: missing or bad %S field" Key.names.(k)

(* Optional fields default when absent (e.g. [bytes], added in v3, so
   v2 files still load) but must have the right type when present. *)
let int_or s k ~default =
  match s.held.(k) with
  | Json.Absent -> default
  | Json.Int_slot -> s.ints.(k)
  | Json.String_slot | Json.Other_slot -> bad "trace entry: bad %S field" Key.names.(k)

let string_or s k ~default =
  match s.held.(k) with
  | Json.Absent -> default
  | Json.String_slot -> Json.string_at s.c s.strings s.ints.(k)
  | Json.Int_slot | Json.Other_slot -> bad "trace entry: bad %S field" Key.names.(k)

let decode_kind s = function
  | "send" ->
    let dst = int_field s Key.dst in
    let label = string_field s Key.label in
    let detail = string_or s Key.detail ~default:"" in
    let bytes = int_or s Key.bytes ~default:0 in
    Event.Send { dst; label; detail; bytes }
  | "deliver" ->
    let src = int_field s Key.src in
    let label = string_field s Key.label in
    let detail = string_or s Key.detail ~default:"" in
    let bytes = int_or s Key.bytes ~default:0 in
    Event.Deliver { src; label; detail; bytes }
  | "quorum" ->
    let quorum = string_field s Key.quorum in
    let count = int_field s Key.count in
    let threshold = int_field s Key.threshold in
    Event.Quorum { quorum; count; threshold }
  | "coin" -> Event.Coin_flip { value = int_field s Key.value }
  | "round" -> Event.Round_advance
  | "decide" -> Event.Decide { value = string_field s Key.value }
  | "output" -> Event.Output { label = string_field s Key.label }
  | "note" ->
    let tag = string_field s Key.tag in
    let detail = string_field s Key.detail in
    Event.Note { tag; detail }
  | "link-drop" ->
    let src = int_field s Key.src in
    let dst = int_field s Key.dst in
    let label = string_field s Key.label in
    let reason = string_field s Key.reason in
    Event.Link_drop { src; dst; label; reason }
  | "link-dup" ->
    let src = int_field s Key.src in
    let dst = int_field s Key.dst in
    let label = string_field s Key.label in
    Event.Link_dup { src; dst; label }
  | "timer-set" ->
    let id = int_field s Key.id in
    let due = int_field s Key.due in
    Event.Timer_set { id; due }
  | "timeout" -> Event.Timer_fire { id = int_field s Key.id }
  | "retransmit" ->
    let dst = int_field s Key.dst in
    let seq = int_field s Key.seq in
    Event.Retransmit { dst; seq }
  | "epoch-start" -> Event.Epoch_start { epoch = int_field s Key.epoch }
  | "batch-proposed" ->
    let epoch = int_field s Key.epoch in
    let txs = int_field s Key.txs in
    let bytes = int_or s Key.bytes ~default:0 in
    Event.Batch_proposed { epoch; txs; bytes }
  | "batch-committed" ->
    let epoch = int_field s Key.epoch in
    let proposer = int_field s Key.proposer in
    let txs = int_field s Key.txs in
    Event.Batch_committed { epoch; proposer; txs }
  | "tx-committed" ->
    let epoch = int_field s Key.epoch in
    let id = string_field s Key.id in
    Event.Tx_committed { epoch; id }
  | "node-crashed" -> Event.Node_crash
  | "node-recovered" -> Event.Node_recover
  | "checkpoint-stable" ->
    let epoch = int_field s Key.epoch in
    let len = int_field s Key.len in
    Event.Checkpoint_stable { epoch; len }
  | "state-transfer-start" -> Event.Transfer_start { have = int_field s Key.have }
  | "state-transfer-done" ->
    let epoch = int_field s Key.epoch in
    let len = int_field s Key.len in
    Event.Transfer_done { epoch; len }
  | other -> bad "trace entry: unknown kind %S" other

(* Decodes the entry object in the cursor's window; raises [Bad] or
   [Json.Parse_error]. *)
let decode_entry s =
  let c = s.c in
  Json.fields c Key.table ~slots:s.held ~values:s.ints;
  Json.finish c;
  let time = int_field s Key.time in
  let node = int_field s Key.node in
  let kind_at =
    match s.held.(Key.kind) with
    | Json.String_slot -> s.ints.(Key.kind)
    | Json.Absent | Json.Int_slot | Json.Other_slot ->
      bad "trace entry: missing or bad %S field" "kind"
  in
  let instance = string_or s Key.instance ~default:"" in
  let round = int_or s Key.round ~default:(-1) in
  let kind =
    match Json.index_at c kinds kind_at with
    | -1 -> decode_kind s (string_field s Key.kind)
    | ord -> decode_kind s (Event.ord_label ord)
  in
  { Trace.time; node; event = { Event.kind; instance; round } }

(* The next newline at or after [pos], or the end of [text], looked for
   eight bytes at a time: [x = w lxor 0x0a0a...] has a zero byte
   exactly where the word [w] holds a newline, and
   [(x - 0x0101...) land (lnot x) land 0x8080...] is non-zero iff [x]
   has a zero byte. *)
let line_end text pos =
  let len = String.length text in
  let i = ref pos in
  while
    !i + 8 <= len
    &&
    let x = Int64.logxor (String.get_int64_le text !i) 0x0a0a0a0a0a0a0a0aL in
    Int64.equal
      (Int64.logand (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
         0x8080808080808080L)
      0L
  do
    i := !i + 8
  done;
  while !i < len && not (Char.equal text.[!i] '\n') do
    incr i
  done;
  !i

let blank text ~start ~stop =
  let i = ref start in
  while
    !i < stop && match text.[!i] with ' ' | '\t' | '\r' | '\012' -> true | _ -> false
  do
    incr i
  done;
  !i >= stop

(* The entries of the lines from [pos] on, oldest first, built in
   order; [s.line] follows the line being decoded. *)
let[@tail_mod_cons] rec entries s text pos =
  if pos >= String.length text then []
  else begin
    let stop = line_end text pos in
    s.line <- s.line + 1;
    if blank text ~start:pos ~stop then entries s text (stop + 1)
    else begin
      Json.window s.c ~start:pos ~stop;
      let entry = decode_entry s in
      entry :: entries s text (stop + 1)
    end
  end

let of_string text =
  let len = String.length text in
  if len = 0 then Error "header: empty trace file"
  else
    let header_end = line_end text 0 in
    match parse_header (String.sub text 0 header_end) with
    | Error _ as e -> e
    | Ok (version, recorded, retained, dropped, meta) -> (
      let s =
        {
          c = Json.cursor text ~start:0 ~stop:0;
          held = Array.make Key.slots Json.Absent;
          ints = Array.make Key.slots 0;
          strings = Json.string_cache ();
          line = 1;
        }
      in
      match entries s text (header_end + 1) with
      | exception (Bad m | Json.Parse_error m) -> Error (Printf.sprintf "line %d: %s" s.line m)
      | entries -> (
        match retained with
        | Some k when k <> List.length entries ->
          (* a file cut at a line boundary still parses line by line *)
          Error
            (Printf.sprintf "header: \"retained\" is %d, but the file has %d entries" k
               (List.length entries))
        | _ -> Ok { version; recorded; dropped; meta; entries }))

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> of_string text

let meta_int t name = Option.bind (List.assoc_opt name t.meta) Json.to_int

let meta_string t name = Option.bind (List.assoc_opt name t.meta) Json.to_str

let nodes t =
  List.fold_left
    (fun acc (e : Trace.entry) -> if e.Trace.node >= acc then e.Trace.node + 1 else acc)
    (match meta_int t "n" with Some n -> n | None -> 0)
    t.entries
