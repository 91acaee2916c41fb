type entry = { time : int; node : int; event : Event.t }

type t = {
  capacity : int;
  counts : int array;  (* exact per-kind totals, indexed by Event.kind_ord *)
  mutable buffer : entry array;
      (* ring grown by doubling up to [capacity] slots, which it has
         once full, so indices modulo [capacity] hold throughout; slots
         never written hold [vacant] *)
  mutable start : int;
  mutable size : int;
  mutable recorded : int;
}

(* v5 added the crash-recovery event kinds (node-crashed,
   node-recovered, checkpoint-stable, state-transfer-start/done); the
   reader accepts any version <= this one (see OBSERVABILITY.md
   migration notes). *)
let schema_version = 5

let vacant = { time = 0; node = 0; event = Event.make Event.Round_advance }

(* A trace starts with this many slots, or [capacity] if fewer, so
   memory follows what is retained rather than what could be. *)
let initial_slots = 256

let create ?(capacity = 4096) () =
  assert (capacity > 0);
  {
    capacity;
    counts = Array.make Event.kind_count 0;
    buffer = Array.make (min capacity initial_slots) vacant;
    start = 0;
    size = 0;
    recorded = 0;
  }

(* Nothing is evicted before the ring reaches [capacity], so a ring
   that grows still starts at slot 0. *)
let grow t =
  let bigger = Array.make (min t.capacity (2 * t.size)) vacant in
  Array.blit t.buffer 0 bigger 0 t.size;
  t.buffer <- bigger

let record t ~time ~node event =
  let ord = Event.kind_ord event.Event.kind in
  t.counts.(ord) <- t.counts.(ord) + 1;
  t.recorded <- t.recorded + 1;
  let entry = { time; node; event } in
  if t.size = t.capacity then begin
    (* Overwrite the oldest slot. *)
    t.buffer.(t.start) <- entry;
    t.start <- (t.start + 1) mod t.capacity
  end
  else begin
    if t.size = Array.length t.buffer then grow t;
    t.buffer.(t.size) <- entry;
    t.size <- t.size + 1
  end

let note t ~time ~node ~tag detail =
  record t ~time ~node (Event.make (Event.Note { tag; detail }))

let length t = t.size

let recorded t = t.recorded

let dropped t = t.recorded - t.size

let count_kind t ~label =
  let total = ref 0 in
  Array.iteri
    (fun ord c -> if String.equal (Event.ord_label ord) label then total := !total + c)
    t.counts;
  !total

let to_list t =
  let rec collect i acc =
    if i < 0 then acc
    else
      collect (i - 1) (t.buffer.((t.start + i) mod t.capacity) :: acc)
  in
  collect (t.size - 1) []

let find_kind t ~label =
  List.filter
    (fun e -> String.equal (Event.kind_label e.event.Event.kind) label)
    (to_list t)

let pp_entry ppf e =
  Fmt.pf ppf "[t=%06d node=%02d] %a" e.time e.node Event.pp e.event

let dump ppf t =
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (to_list t)

(* ----------------------------------------------------------------- *)
(* JSONL (schema in OBSERVABILITY.md)                                *)
(* ----------------------------------------------------------------- *)

let header_json ?(meta = []) t =
  Json.Obj
    [
      ("schema", Json.String "abc.trace");
      ("version", Json.Int schema_version);
      ("recorded", Json.Int t.recorded);
      ("retained", Json.Int t.size);
      ("dropped", Json.Int (dropped t));
      ("meta", Json.Obj meta);
    ]

(* Decimal digits of [i], written without an intermediate string. *)
let rec add_int buffer i =
  if i < 0 then
    if i = min_int then Buffer.add_string buffer (string_of_int i)
    else begin
      Buffer.add_char buffer '-';
      add_int buffer (-i)
    end
  else begin
    if i >= 10 then add_int buffer (i / 10);
    Buffer.add_char buffer (Char.chr (48 + (i mod 10)))
  end

(* [name] is the field's separator, quoted key and colon, e.g.
   [,"dst":]. *)
let int_field buffer name i =
  Buffer.add_string buffer name;
  add_int buffer i

let string_field buffer name s =
  Buffer.add_string buffer name;
  Json.add_escaped buffer s

(* One entry as one line of the schema, fields in schema order.  Kind
   labels never need escaping. *)
let add_entry b e =
  int_field b "{\"t\":" e.time;
  int_field b ",\"node\":" e.node;
  Buffer.add_string b ",\"kind\":\"";
  Buffer.add_string b (Event.kind_label e.event.Event.kind);
  Buffer.add_char b '"';
  (match e.event.Event.kind with
  | Event.Send { dst; label; detail; bytes } ->
    int_field b ",\"dst\":" dst;
    string_field b ",\"label\":" label;
    int_field b ",\"bytes\":" bytes;
    if String.length detail > 0 then string_field b ",\"detail\":" detail
  | Event.Deliver { src; label; detail; bytes } ->
    int_field b ",\"src\":" src;
    string_field b ",\"label\":" label;
    int_field b ",\"bytes\":" bytes;
    if String.length detail > 0 then string_field b ",\"detail\":" detail
  | Event.Quorum { quorum; count; threshold } ->
    string_field b ",\"quorum\":" quorum;
    int_field b ",\"count\":" count;
    int_field b ",\"threshold\":" threshold
  | Event.Coin_flip { value } -> int_field b ",\"value\":" value
  | Event.Round_advance | Event.Node_crash | Event.Node_recover -> ()
  | Event.Decide { value } -> string_field b ",\"value\":" value
  | Event.Output { label } -> string_field b ",\"label\":" label
  | Event.Note { tag; detail } ->
    string_field b ",\"tag\":" tag;
    string_field b ",\"detail\":" detail
  | Event.Link_drop { src; dst; label; reason } ->
    int_field b ",\"src\":" src;
    int_field b ",\"dst\":" dst;
    string_field b ",\"label\":" label;
    string_field b ",\"reason\":" reason
  | Event.Link_dup { src; dst; label } ->
    int_field b ",\"src\":" src;
    int_field b ",\"dst\":" dst;
    string_field b ",\"label\":" label
  | Event.Timer_set { id; due } ->
    int_field b ",\"id\":" id;
    int_field b ",\"due\":" due
  | Event.Timer_fire { id } -> int_field b ",\"id\":" id
  | Event.Retransmit { dst; seq } ->
    int_field b ",\"dst\":" dst;
    int_field b ",\"seq\":" seq
  | Event.Epoch_start { epoch } -> int_field b ",\"epoch\":" epoch
  | Event.Batch_proposed { epoch; txs; bytes } ->
    int_field b ",\"epoch\":" epoch;
    int_field b ",\"txs\":" txs;
    int_field b ",\"bytes\":" bytes
  | Event.Batch_committed { epoch; proposer; txs } ->
    int_field b ",\"epoch\":" epoch;
    int_field b ",\"proposer\":" proposer;
    int_field b ",\"txs\":" txs
  | Event.Tx_committed { epoch; id } ->
    int_field b ",\"epoch\":" epoch;
    string_field b ",\"id\":" id
  | Event.Checkpoint_stable { epoch; len } | Event.Transfer_done { epoch; len } ->
    int_field b ",\"epoch\":" epoch;
    int_field b ",\"len\":" len
  | Event.Transfer_start { have } -> int_field b ",\"have\":" have);
  if String.length e.event.Event.instance > 0 then
    string_field b ",\"instance\":" e.event.Event.instance;
  if e.event.Event.round >= 0 then int_field b ",\"round\":" e.event.Event.round;
  Buffer.add_string b "}\n"

(* Presized for a typical entry line (~85 bytes), so a full export
   rarely grows the buffer. *)
let to_buffer ?meta t =
  let buffer = Buffer.create (256 + (96 * t.size)) in
  Buffer.add_string buffer (Json.to_string (header_json ?meta t));
  Buffer.add_char buffer '\n';
  for i = 0 to t.size - 1 do
    add_entry buffer t.buffer.((t.start + i) mod t.capacity)
  done;
  buffer

let to_jsonl_string ?meta t = Buffer.contents (to_buffer ?meta t)

let write_jsonl ?meta oc t = Buffer.output_buffer oc (to_buffer ?meta t)
