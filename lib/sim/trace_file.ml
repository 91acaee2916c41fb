type t = {
  version : int;
  recorded : int;
  dropped : int;
  meta : (string * Json.t) list;
  entries : Trace.entry list;
}

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
    | Some _, Some version ->
      let meta =
        match Option.bind (Json.member "meta" json) Json.to_obj with
        | Some fields -> fields
        | None -> []
      in
      let field name =
        Option.value ~default:0 (Json.int_member ~default:0 name json)
      in
      Ok (version, field "recorded", field "dropped", meta))

(* ----------------------------------------------------------------- *)
(* Entry lines, decoded in place                                     *)
(* ----------------------------------------------------------------- *)

(* Every key an entry of any kind may carry has a slot.  A line's
   fields are scanned into the slots in whatever order they come; the
   kind then picks the slots it needs.  Unknown keys, and repeats of a
   key already seen, are skipped whatever their JSON type. *)
let slot_of_key = function
  | "t" -> 0
  | "node" -> 1
  | "kind" -> 2
  | "instance" -> 3
  | "round" -> 4
  | "src" -> 5
  | "dst" -> 6
  | "label" -> 7
  | "detail" -> 8
  | "bytes" -> 9
  | "quorum" -> 10
  | "count" -> 11
  | "threshold" -> 12
  | "value" -> 13
  | "tag" -> 14
  | "reason" -> 15
  | "id" -> 16
  | "due" -> 17
  | "seq" -> 18
  | "epoch" -> 19
  | "txs" -> 20
  | "proposer" -> 21
  | "len" -> 22
  | "have" -> 23
  | _ -> -1

let slot_count = 24

(* What a slot holds for the current line. *)
let absent = 0
let is_int = 1
let is_string = 2
let is_other = 3

type slots = { held : int array; ints : int array; strings : string array }

let slots () =
  {
    held = Array.make slot_count absent;
    ints = Array.make slot_count 0;
    strings = Array.make slot_count "";
  }

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let read_field s c name =
  let k = slot_of_key name in
  if k < 0 || s.held.(k) <> absent then ignore (Json.value c)
  else
    match Json.value c with
    | Json.Int i ->
      s.ints.(k) <- i;
      s.held.(k) <- is_int
    | Json.String v ->
      s.strings.(k) <- v;
      s.held.(k) <- is_string
    | _ -> s.held.(k) <- is_other

let int_field s name =
  let k = slot_of_key name in
  if s.held.(k) = is_int then s.ints.(k)
  else bad "trace entry: missing or bad %S field" name

let string_field s name =
  let k = slot_of_key name in
  if s.held.(k) = is_string then s.strings.(k)
  else bad "trace entry: missing or bad %S field" name

(* Optional fields default when absent (e.g. [bytes], added in v3, so
   v2 files still load) but must have the right type when present. *)
let int_or s name ~default =
  let k = slot_of_key name in
  let held = s.held.(k) in
  if held = absent then default
  else if held = is_int then s.ints.(k)
  else bad "trace entry: bad %S field" name

let string_or s name ~default =
  let k = slot_of_key name in
  let held = s.held.(k) in
  if held = absent then default
  else if held = is_string then s.strings.(k)
  else bad "trace entry: bad %S field" name

let decode_kind s = function
  | "send" ->
    let dst = int_field s "dst" in
    let label = string_field s "label" in
    let detail = string_or s "detail" ~default:"" in
    let bytes = int_or s "bytes" ~default:0 in
    Event.Send { dst; label; detail; bytes }
  | "deliver" ->
    let src = int_field s "src" in
    let label = string_field s "label" in
    let detail = string_or s "detail" ~default:"" in
    let bytes = int_or s "bytes" ~default:0 in
    Event.Deliver { src; label; detail; bytes }
  | "quorum" ->
    let quorum = string_field s "quorum" in
    let count = int_field s "count" in
    let threshold = int_field s "threshold" in
    Event.Quorum { quorum; count; threshold }
  | "coin" -> Event.Coin_flip { value = int_field s "value" }
  | "round" -> Event.Round_advance
  | "decide" -> Event.Decide { value = string_field s "value" }
  | "output" -> Event.Output { label = string_field s "label" }
  | "note" ->
    let tag = string_field s "tag" in
    let detail = string_field s "detail" in
    Event.Note { tag; detail }
  | "link-drop" ->
    let src = int_field s "src" in
    let dst = int_field s "dst" in
    let label = string_field s "label" in
    let reason = string_field s "reason" in
    Event.Link_drop { src; dst; label; reason }
  | "link-dup" ->
    let src = int_field s "src" in
    let dst = int_field s "dst" in
    let label = string_field s "label" in
    Event.Link_dup { src; dst; label }
  | "timer-set" ->
    let id = int_field s "id" in
    let due = int_field s "due" in
    Event.Timer_set { id; due }
  | "timeout" -> Event.Timer_fire { id = int_field s "id" }
  | "retransmit" ->
    let dst = int_field s "dst" in
    let seq = int_field s "seq" in
    Event.Retransmit { dst; seq }
  | "epoch-start" -> Event.Epoch_start { epoch = int_field s "epoch" }
  | "batch-proposed" ->
    let epoch = int_field s "epoch" in
    let txs = int_field s "txs" in
    let bytes = int_or s "bytes" ~default:0 in
    Event.Batch_proposed { epoch; txs; bytes }
  | "batch-committed" ->
    let epoch = int_field s "epoch" in
    let proposer = int_field s "proposer" in
    let txs = int_field s "txs" in
    Event.Batch_committed { epoch; proposer; txs }
  | "tx-committed" ->
    let epoch = int_field s "epoch" in
    let id = string_field s "id" in
    Event.Tx_committed { epoch; id }
  | "node-crashed" -> Event.Node_crash
  | "node-recovered" -> Event.Node_recover
  | "checkpoint-stable" ->
    let epoch = int_field s "epoch" in
    let len = int_field s "len" in
    Event.Checkpoint_stable { epoch; len }
  | "state-transfer-start" -> Event.Transfer_start { have = int_field s "have" }
  | "state-transfer-done" ->
    let epoch = int_field s "epoch" in
    let len = int_field s "len" in
    Event.Transfer_done { epoch; len }
  | other -> bad "trace entry: unknown kind %S" other

(* Decodes the entry object in [text] from [start] to [stop]; raises
   [Bad] or [Json.Parse_error]. *)
let decode_entry s text ~start ~stop =
  Array.fill s.held 0 slot_count absent;
  let c = Json.cursor text ~start ~stop in
  Json.fields c (read_field s c);
  Json.finish c;
  let time = int_field s "t" in
  let node = int_field s "node" in
  let kind_name = string_field s "kind" in
  let instance = string_or s "instance" ~default:"" in
  let round = int_or s "round" ~default:(-1) in
  let kind = decode_kind s kind_name in
  { Trace.time; node; event = { Event.kind; instance; round } }

let line_end text pos =
  match String.index_from_opt text pos '\n' with
  | Some i -> i
  | None -> String.length text

let blank text ~start ~stop =
  let rec go i =
    i >= stop
    || (match text.[i] with
       | ' ' | '\t' | '\r' | '\012' -> go (i + 1)
       | _ -> false)
  in
  go start

let of_string text =
  let len = String.length text in
  if len = 0 then Error "header: empty trace file"
  else
    let header_end = line_end text 0 in
    match parse_header (String.sub text 0 header_end) with
    | Error _ as e -> e
    | Ok (version, recorded, dropped, meta) ->
      let s = slots () in
      let rec lines pos lineno acc =
        if pos >= len then Ok (List.rev acc)
        else
          let stop = line_end text pos in
          if blank text ~start:pos ~stop then lines (stop + 1) (lineno + 1) acc
          else
            match decode_entry s text ~start:pos ~stop with
            | entry -> lines (stop + 1) (lineno + 1) (entry :: acc)
            | exception (Bad m | Json.Parse_error m) ->
              Error (Printf.sprintf "line %d: %s" lineno m)
      in
      Result.map
        (fun entries -> { version; recorded; dropped; meta; entries })
        (lines (header_end + 1) 2 [])

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
