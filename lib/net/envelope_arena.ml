(* Int-indexed arena for in-flight messages: struct-of-arrays slots
   (meta / payload / duplicate flag) plus a flat seq -> slot table, so
   the engine's enqueue / schedule / swap-remove hot path allocates
   nothing beyond the one meta record the adversary interface needs.
   Removal moves the last slot into the hole, so the slot order the
   adversary indexes into evolves as it always has: adversary choices,
   and therefore whole traces, stay as before (see PERFORMANCE.md). *)

type 'a t = {
  mutable metas : Adversary.meta array;
  mutable payloads : 'a array;
  mutable copies : bool array;
  mutable size : int;
  (* [slots.(seq)] is the live slot of sequence number [seq], or -1
     once delivered.  Seqs are assigned monotonically by the engine,
     so a flat array (8 bytes per message ever sent) replaces a
     per-message Hashtbl add/remove/replace cycle. *)
  mutable slots : int array;
  mutable seq_hi : int;  (* exclusive upper bound of assigned seqs *)
  mutable cursor : int;  (* amortized oldest-live-seq scan position *)
}

let create () =
  {
    metas = [||];
    payloads = [||];
    copies = [||];
    size = 0;
    slots = Array.make 256 (-1);
    seq_hi = 0;
    cursor = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let capacity t = Array.length t.metas

let grow t meta payload =
  let cap = Array.length t.metas in
  if cap = 0 then begin
    t.metas <- Array.make 16 meta;
    t.payloads <- Array.make 16 payload;
    t.copies <- Array.make 16 false
  end
  else begin
    let ms = Array.make (2 * cap) meta in
    Array.blit t.metas 0 ms 0 t.size;
    t.metas <- ms;
    let ps = Array.make (2 * cap) payload in
    Array.blit t.payloads 0 ps 0 t.size;
    t.payloads <- ps;
    let cs = Array.make (2 * cap) false in
    Array.blit t.copies 0 cs 0 t.size;
    t.copies <- cs
  end

let grow_slots t seq =
  let cap = Array.length t.slots in
  if seq >= cap then begin
    let bigger = Array.make (max (2 * cap) (seq + 1)) (-1) in
    Array.blit t.slots 0 bigger 0 cap;
    t.slots <- bigger
  end

let push t ~meta ~payload ~copy =
  if t.size = Array.length t.metas then grow t meta payload;
  let slot = t.size in
  t.metas.(slot) <- meta;
  t.payloads.(slot) <- payload;
  t.copies.(slot) <- copy;
  t.size <- slot + 1;
  let seq = meta.Adversary.seq in
  assert (seq >= t.seq_hi);
  grow_slots t seq;
  t.slots.(seq) <- slot;
  t.seq_hi <- seq + 1

let meta t slot =
  if slot < 0 || slot >= t.size then
    invalid_arg "Envelope_arena.meta: slot out of bounds";
  t.metas.(slot)

let payload t slot =
  if slot < 0 || slot >= t.size then
    invalid_arg "Envelope_arena.payload: slot out of bounds";
  t.payloads.(slot)

let copy t slot =
  if slot < 0 || slot >= t.size then
    invalid_arg "Envelope_arena.copy: slot out of bounds";
  t.copies.(slot)

let remove t slot =
  if slot < 0 || slot >= t.size then
    invalid_arg "Envelope_arena.remove: slot out of bounds";
  t.slots.(t.metas.(slot).Adversary.seq) <- -1;
  let last = t.size - 1 in
  t.size <- last;
  if slot < last then begin
    (* Move the last entry into the hole and retarget its seq slot. *)
    let moved = t.metas.(last) in
    t.metas.(slot) <- moved;
    t.payloads.(slot) <- t.payloads.(last);
    t.copies.(slot) <- t.copies.(last);
    t.slots.(moved.Adversary.seq) <- slot
  end

let slot_of_seq t seq =
  if seq < 0 || seq >= t.seq_hi then -1 else t.slots.(seq)

let oldest_slot t =
  while t.slots.(t.cursor) < 0 do
    t.cursor <- t.cursor + 1;
    assert (t.cursor < t.seq_hi)
  done;
  t.slots.(t.cursor)
