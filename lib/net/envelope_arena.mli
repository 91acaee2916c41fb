(** Int-indexed arena for in-flight messages.

    The engine's pending-message store.  Each in-flight envelope is
    one 4-word slot — seq, sent_at, priority, and one word packing
    src, dst and the copy flag — beside a payload, plus a flat seq →
    slot table replacing a per-message hashtable.  Slots are stored
    in fixed pages of 256: an [int array] of their words and an array
    of their payloads, allocated when the pool first reaches the page
    and never copied or freed.  Reading and removing allocate nothing;
    a push allocates only when the pool reaches a new page or the seq
    table doubles.  Removal moves the last slot into the hole, across
    pages if need be, so the slot order the adversary indexes into
    evolves as it always has, and adversary choices and traces stay
    as before.  Slots at or past the live length may hold stale
    entries; they are overwritten by later pushes (see
    PERFORMANCE.md).

    The arena has two parts: the int part ({!view}: the metadata
    columns, the seq table and the oldest cursor), which is all an
    adversary may read, and the payloads, which only the engine
    reads. *)

val id_bits : int
(** Width of a node id in the packed word: 30 bits, so src and dst
    must be below [1 lsl id_bits].  The engine checks [n] against it
    once, in [Engine.config]; {!push} does not. *)

type 'a t
(** An arena of in-flight messages with payloads of type ['a]. *)

type view
(** The arena's int part.  A view reads the arena live: it is the same
    value for the arena's whole life, and every accessor sees the
    current pool. *)

val create : unit -> 'a t
(** [create ()] is an empty arena. *)

val view : 'a t -> view
(** [view t] is [t]'s int part. *)

val capacity : 'a t -> int
(** Allocated slot count: a multiple of the page size, 256.  It grows
    a page at a time and never shrinks, so a steady-state run recycles
    slots instead of allocating (asserted by the reuse-after-recycle
    unit test). *)

val push :
  'a t ->
  seq:int ->
  src:Node_id.t ->
  dst:Node_id.t ->
  sent_at:int ->
  priority:int ->
  copy:bool ->
  'a ->
  unit
(** [push t ~seq ~src ~dst ~sent_at ~priority ~copy payload] appends a
    message at slot [length (view t)].  [seq] values must be assigned
    monotonically (the engine's global send counter); [src] and [dst]
    must fit {!id_bits}.  [copy] marks a link-fault duplicate (exempt
    from re-duplication). *)

val payload : 'a t -> int -> 'a
(** [payload t slot] is the message payload at [slot].  Raises
    [Invalid_argument] when out of bounds, as do the column accessors
    below. *)

val remove : 'a t -> int -> unit
(** [remove t slot] deletes the message at [slot] by moving the last
    live slot into the hole (O(1), order not preserved) and retires
    its seq from the lookup table. *)

(** {2 The int part} *)

val length : view -> int
(** Number of live (in-flight) messages. *)

val is_empty : view -> bool
(** [is_empty v] is [length v = 0]. *)

val seq : view -> int -> int
(** [seq v slot] is the global send sequence number at [slot]. *)

val src : view -> int -> Node_id.t
(** [src v slot] is the true sender at [slot]. *)

val dst : view -> int -> Node_id.t
(** [dst v slot] is the recipient at [slot]. *)

val sent_at : view -> int -> int
(** [sent_at v slot] is the virtual time of the send at [slot]. *)

val priority : view -> int -> int
(** [priority v slot] is the policy-private tag assigned at send
    time. *)

val copy : view -> int -> bool
(** [copy v slot] is whether the message is a link-fault duplicate. *)

val slot_of_seq : view -> int -> int
(** [slot_of_seq v seq] is the live slot currently holding sequence
    number [seq], or [-1] when that message is no longer in flight. *)

val oldest_slot : view -> int
(** [oldest_slot v] is the slot of the longest-in-flight message —
    the smallest live seq.  Amortized O(1) over a run: a monotonic
    cursor scans the seq table.  The arena must be non-empty. *)
