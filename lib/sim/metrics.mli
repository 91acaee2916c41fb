(** Named counters for instrumenting simulations.

    A [Metrics.t] is attached to each engine run.  Protocol code and
    the engine bump counters ([incr], or a pre-interned {!handle} on
    hot paths); experiment harnesses read them back as totals. *)

type t
(** A mutable metrics registry. *)

val create : unit -> t
(** [create ()] is an empty registry. *)

val incr : t -> string -> unit
(** [incr t name] adds 1 to counter [name], creating it at 0. *)

val add : t -> string -> int -> unit
(** [add t name k] adds [k] to counter [name], creating it at 0. *)

val counter : t -> string -> int
(** [counter t name] is the current value of counter [name] (0 when the
    counter was never touched). *)

type handle
(** A pre-interned counter: the string label is resolved once, after
    which every update is O(1) with no hashing.  See PERFORMANCE.md. *)

val handle : t -> string -> handle
(** [handle t name] interns counter [name].  Interning alone does not
    create the counter: until the first {!incr_handle}/{!add_handle},
    [name] stays absent from {!counters} — identical to the string
    API, where {!incr} creates the entry. *)

val incr_handle : handle -> unit
(** [incr_handle h] adds 1 to the interned counter without hashing its
    label.  Equivalent to [incr t name]. *)

val add_handle : handle -> int -> unit
(** [add_handle h k] adds [k] to the interned counter without hashing
    its label.  Equivalent to [add t name k]. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

