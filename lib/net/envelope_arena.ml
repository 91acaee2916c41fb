(* Int-indexed arena for in-flight messages.  Each slot is four words
   of one int column — seq, sent_at, priority and a packed word
   holding src, dst and the copy flag — beside a payload array, plus
   a flat seq -> slot table, so the engine's enqueue / schedule /
   swap-remove hot path allocates nothing.  Removal moves the last
   slot into the hole, so the slot order the adversary indexes into
   evolves as it always has: adversary choices, and therefore whole
   traces, stay as before (see PERFORMANCE.md). *)

let id_bits = 30

let id_mask = (1 lsl id_bits) - 1

(* Word offsets within a slot. *)
let width = 4
let seq_w = 0
let sent_at_w = 1
let priority_w = 2
let ends_w = 3  (* src lsl (id_bits + 1) lor dst lsl 1 lor copy *)

type view = {
  mutable ints : int array;  (* [width] words per slot *)
  mutable size : int;
  (* [slots.(seq)] is the live slot of sequence number [seq], or -1
     once delivered.  Seqs are assigned monotonically by the engine,
     so a flat array (8 bytes per message ever sent) replaces a
     per-message Hashtbl add/remove/replace cycle. *)
  mutable slots : int array;
  mutable seq_hi : int;  (* exclusive upper bound of assigned seqs *)
  mutable cursor : int;  (* amortized oldest-live-seq scan position *)
}

type 'a t = { view : view; mutable payloads : 'a array }

let create () =
  {
    view =
      { ints = [||]; size = 0; slots = Array.make 256 (-1); seq_hi = 0; cursor = 0 };
    payloads = [||];
  }

let view t = t.view

let length v = v.size

let is_empty v = v.size = 0

let capacity t = Array.length t.payloads

let grow t payload =
  let v = t.view in
  let cap = Array.length t.payloads in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let ints = Array.make (width * cap') 0 in
  Array.blit v.ints 0 ints 0 (width * v.size);
  v.ints <- ints;
  let ps = Array.make cap' payload in
  Array.blit t.payloads 0 ps 0 v.size;
  t.payloads <- ps

let grow_slots v seq =
  let cap = Array.length v.slots in
  if seq >= cap then begin
    let bigger = Array.make (max (2 * cap) (seq + 1)) (-1) in
    Array.blit v.slots 0 bigger 0 cap;
    v.slots <- bigger
  end

let push t ~seq ~src ~dst ~sent_at ~priority ~copy payload =
  let v = t.view in
  if v.size = Array.length t.payloads then grow t payload;
  let slot = v.size in
  let base = width * slot in
  v.ints.(base + seq_w) <- seq;
  v.ints.(base + sent_at_w) <- sent_at;
  v.ints.(base + priority_w) <- priority;
  v.ints.(base + ends_w) <-
    (Node_id.to_int src lsl (id_bits + 1))
    lor (Node_id.to_int dst lsl 1)
    lor Bool.to_int copy;
  t.payloads.(slot) <- payload;
  v.size <- slot + 1;
  assert (seq >= v.seq_hi);
  grow_slots v seq;
  v.slots.(seq) <- slot;
  v.seq_hi <- seq + 1

let out_of_bounds name =
  invalid_arg ("Envelope_arena." ^ name ^ ": slot out of bounds")

let[@inline] word v slot w name =
  if slot < 0 || slot >= v.size then out_of_bounds name;
  v.ints.((width * slot) + w)

let seq v slot = word v slot seq_w "seq"

let sent_at v slot = word v slot sent_at_w "sent_at"

let priority v slot = word v slot priority_w "priority"

let src v slot = Node_id.of_int (word v slot ends_w "src" lsr (id_bits + 1))

let dst v slot = Node_id.of_int ((word v slot ends_w "dst" lsr 1) land id_mask)

let copy v slot = word v slot ends_w "copy" land 1 = 1

let payload t slot =
  if slot < 0 || slot >= t.view.size then out_of_bounds "payload";
  t.payloads.(slot)

let remove t slot =
  let v = t.view in
  if slot < 0 || slot >= v.size then out_of_bounds "remove";
  let ints = v.ints in
  let base = width * slot in
  v.slots.(ints.(base + seq_w)) <- -1;
  let last = v.size - 1 in
  v.size <- last;
  if slot < last then begin
    (* Move the last entry into the hole and retarget its seq slot. *)
    let from = width * last in
    let moved = ints.(from + seq_w) in
    ints.(base + seq_w) <- moved;
    ints.(base + sent_at_w) <- ints.(from + sent_at_w);
    ints.(base + priority_w) <- ints.(from + priority_w);
    ints.(base + ends_w) <- ints.(from + ends_w);
    t.payloads.(slot) <- t.payloads.(last);
    v.slots.(moved) <- slot
  end

let slot_of_seq v seq =
  if seq < 0 || seq >= v.seq_hi then -1 else v.slots.(seq)

let oldest_slot v =
  while v.slots.(v.cursor) < 0 do
    v.cursor <- v.cursor + 1;
    assert (v.cursor < v.seq_hi)
  done;
  v.slots.(v.cursor)
