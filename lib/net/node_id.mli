(** Node identifiers.

    Nodes in a run of [n] processes are identified by the integers
    [0 .. n-1].  The type is kept abstract so that protocol code cannot
    accidentally do arithmetic on identifiers. *)

type t
(** A node identifier. *)

val of_int : int -> t
(** [of_int i] is the identifier of node [i].  Requires [i >= 0]. *)

val to_int : t -> int
(** [to_int id] is the integer value of [id]. *)

val equal : t -> t -> bool
(** Identifier equality. *)

val compare : t -> t -> int
(** Total order on identifiers. *)

val pp : t Fmt.t
(** Prints as ["n<i>"]. *)

val all : n:int -> t list
(** [all ~n] is [[0; ...; n-1]] as identifiers, in order. *)

(** Sets of identifiers, for counting distinct senders against a
    quorum.

    A set is a persistent bitset that carries its own cardinal: [mem]
    is one load, [cardinal] is O(1), and [add] copies
    [2 + max_id / 63] words.  A built set is never mutated, so states
    that hold one stay values.  Equal sets have equal bytes whatever
    order their ids were added in, which is what lets the model
    checker fingerprint states with [Marshal].  The size grows with
    the largest id, so keep ids small: every id that reaches a set in
    this codebase is below [n], a channel [src] or an origin, victim
    or island id already checked against [n]. *)
module Set : sig
  type id := t

  type t

  val empty : t

  val singleton : id -> t

  val add : id -> t -> t
  (** [add id s] is [s] itself, physically, when [id] is already in
      [s]. *)

  val mem : id -> t -> bool

  val cardinal : t -> int
  (** O(1). *)

  val of_list : id list -> t
end

module Map : Map.S with type key = t
