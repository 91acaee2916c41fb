(** Int-indexed arena for in-flight messages.

    The engine's pending-message store: struct-of-arrays slots (meta /
    payload / duplicate flag) plus a flat seq → slot table replacing a
    per-message hashtable.  Removal moves the last slot into the hole,
    so the slot order the adversary indexes into evolves as it always
    has, and adversary choices and traces stay as before.  Slots at or
    past [length] may hold stale entries; they are overwritten by later
    pushes (see PERFORMANCE.md). *)

type 'a t
(** An arena of in-flight messages with payloads of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is an empty arena. *)

val length : 'a t -> int
(** Number of live (in-flight) messages. *)

val is_empty : 'a t -> bool
(** [is_empty t] is [length t = 0]. *)

val capacity : 'a t -> int
(** Allocated slot count — grows by doubling and never shrinks, so a
    steady-state run recycles slots instead of allocating (asserted by
    the reuse-after-recycle unit test). *)

val push : 'a t -> meta:Adversary.meta -> payload:'a -> copy:bool -> unit
(** [push t ~meta ~payload ~copy] appends a message at slot
    [length t].  [meta.seq] values must be assigned monotonically
    (the engine's global send counter). *)

val meta : 'a t -> int -> Adversary.meta
(** [meta t slot] is the scheduling metadata at [slot].  Raises
    [Invalid_argument] when out of bounds. *)

val payload : 'a t -> int -> 'a
(** [payload t slot] is the message payload at [slot]. *)

val copy : 'a t -> int -> bool
(** [copy t slot] is whether the message is a link-fault duplicate
    (exempt from re-duplication). *)

val remove : 'a t -> int -> unit
(** [remove t slot] deletes the message at [slot] by moving the last
    live slot into the hole (O(1), order not preserved) and retires
    its seq from the lookup table. *)

val slot_of_seq : 'a t -> int -> int
(** [slot_of_seq t seq] is the live slot currently holding sequence
    number [seq], or [-1] when that message is no longer in flight. *)

val oldest_slot : 'a t -> int
(** [oldest_slot t] is the slot of the longest-in-flight message —
    the smallest live seq.  Amortized O(1) over a run: a monotonic
    cursor scans the seq table.  The arena must be non-empty. *)
