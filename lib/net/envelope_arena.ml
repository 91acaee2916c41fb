(* Int-indexed arena for in-flight messages.  Each slot is four int
   words — seq, sent_at, priority and a packed word holding src, dst
   and the copy flag — beside a payload, plus a flat seq -> slot
   table, so the engine's enqueue / schedule / swap-remove hot path
   allocates nothing.  Slots live in fixed pages of [page_size]: a
   page is allocated when the pool first reaches it and is never
   copied or freed, so growing the pool allocates one page at a time
   instead of a doubled copy of everything.  Removal moves the last
   slot into the hole, so the slot order the adversary indexes into
   evolves as it always has: adversary choices, and therefore whole
   traces, stay as before (see PERFORMANCE.md). *)

let id_bits = 30

let id_mask = (1 lsl id_bits) - 1

(* 256 slots a page: a payload page is then a 256-word array, small
   enough to be allocated young (see PERFORMANCE.md). *)
let page_bits = 8
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Word offsets within a slot. *)
let width = 4
let seq_w = 0
let sent_at_w = 1
let priority_w = 2
let ends_w = 3  (* src lsl (id_bits + 1) lor dst lsl 1 lor copy *)

type view = {
  (* [pages.(p)] holds slots [p * page_size] onward, [width] words
     each; entries from [npages] on are unallocated. *)
  mutable pages : int array array;
  mutable npages : int;
  mutable size : int;
  (* [slots.(seq)] is the live slot of sequence number [seq], or -1
     once delivered.  Seqs are assigned monotonically by the engine,
     so a flat array (8 bytes per message ever sent) replaces a
     per-message Hashtbl add/remove/replace cycle. *)
  mutable slots : int array;
  mutable seq_hi : int;  (* exclusive upper bound of assigned seqs *)
  mutable cursor : int;  (* amortized oldest-live-seq scan position *)
}

(* [payloads.(p)] is the payload page beside [view.pages.(p)]. *)
type 'a t = { view : view; mutable payloads : 'a array array }

let create () =
  {
    view =
      {
        pages = [||];
        npages = 0;
        size = 0;
        slots = Array.make 256 (-1);
        seq_hi = 0;
        cursor = 0;
      };
    payloads = [||];
  }

let view t = t.view

let length v = v.size

let is_empty v = v.size = 0

let capacity t = t.view.npages * page_size

(* The page directories double; they hold one word per page. *)
let extend dir =
  let bigger = Array.make (max 8 (2 * Array.length dir)) [||] in
  Array.blit dir 0 bigger 0 (Array.length dir);
  bigger

let add_page t payload =
  let v = t.view in
  let p = v.npages in
  if p = Array.length v.pages then begin
    v.pages <- extend v.pages;
    t.payloads <- extend t.payloads
  end;
  v.pages.(p) <- Array.make (width * page_size) 0;
  t.payloads.(p) <- Array.make page_size payload;
  v.npages <- p + 1

let grow_slots v seq =
  let cap = Array.length v.slots in
  if seq >= cap then begin
    let bigger = Array.make (max (2 * cap) (seq + 1)) (-1) in
    Array.blit v.slots 0 bigger 0 cap;
    v.slots <- bigger
  end

let push t ~seq ~src ~dst ~sent_at ~priority ~copy payload =
  let v = t.view in
  let slot = v.size in
  let p = slot lsr page_bits in
  if p = v.npages then add_page t payload;
  let page = v.pages.(p) in
  let base = width * (slot land page_mask) in
  page.(base + seq_w) <- seq;
  page.(base + sent_at_w) <- sent_at;
  page.(base + priority_w) <- priority;
  page.(base + ends_w) <-
    (Node_id.to_int src lsl (id_bits + 1))
    lor (Node_id.to_int dst lsl 1)
    lor Bool.to_int copy;
  t.payloads.(p).(slot land page_mask) <- payload;
  v.size <- slot + 1;
  assert (seq >= v.seq_hi);
  grow_slots v seq;
  v.slots.(seq) <- slot;
  v.seq_hi <- seq + 1

let out_of_bounds name =
  invalid_arg ("Envelope_arena." ^ name ^ ": slot out of bounds")

let[@inline] word v slot w name =
  if slot < 0 || slot >= v.size then out_of_bounds name;
  v.pages.(slot lsr page_bits).((width * (slot land page_mask)) + w)

let seq v slot = word v slot seq_w "seq"

let sent_at v slot = word v slot sent_at_w "sent_at"

let priority v slot = word v slot priority_w "priority"

let src v slot = Node_id.of_int (word v slot ends_w "src" lsr (id_bits + 1))

let dst v slot = Node_id.of_int ((word v slot ends_w "dst" lsr 1) land id_mask)

let copy v slot = word v slot ends_w "copy" land 1 = 1

let payload t slot =
  if slot < 0 || slot >= t.view.size then out_of_bounds "payload";
  t.payloads.(slot lsr page_bits).(slot land page_mask)

let remove t slot =
  let v = t.view in
  if slot < 0 || slot >= v.size then out_of_bounds "remove";
  let page = v.pages.(slot lsr page_bits) in
  let base = width * (slot land page_mask) in
  v.slots.(page.(base + seq_w)) <- -1;
  let last = v.size - 1 in
  v.size <- last;
  if slot < last then begin
    (* Move the last entry into the hole, possibly across pages, and
       retarget its seq slot. *)
    let from_page = v.pages.(last lsr page_bits) in
    let from = width * (last land page_mask) in
    let moved = from_page.(from + seq_w) in
    page.(base + seq_w) <- moved;
    page.(base + sent_at_w) <- from_page.(from + sent_at_w);
    page.(base + priority_w) <- from_page.(from + priority_w);
    page.(base + ends_w) <- from_page.(from + ends_w);
    t.payloads.(slot lsr page_bits).(slot land page_mask) <-
      t.payloads.(last lsr page_bits).(last land page_mask);
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
