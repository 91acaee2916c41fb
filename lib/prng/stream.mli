(** Splittable random streams.

    Every random decision in the simulator draws from a [Stream.t].  A
    stream can be split into labelled child streams whose outputs are
    statistically independent of the parent and of each other, and —
    crucially — depend only on the root seed and the path of labels,
    not on how many values were drawn before the split.  This gives
    each node, each adversary and each experiment repetition its own
    reproducible source of randomness. *)

type t
(** A mutable stream of pseudo-random values.  Draws allocate
    nothing; an [int64] or [float] result is boxed only where a caller
    stores it. *)

val root : seed:int -> t
(** [root ~seed] is the stream at the root of the derivation tree. *)

val split : t -> label:int -> t
(** [split t ~label] derives the child stream of [t] named [label].
    Splitting is a pure function of [t]'s derivation key: it does not
    consume randomness from [t], and the same label always yields the
    same child. *)

val key : t -> int64
(** [key t] is the derivation key identifying [t]'s position in the
    derivation tree (for debugging and tracing). *)

val bits64 : t -> int64
(** [bits64 t] draws 64 uniformly distributed bits. *)

val int : t -> bound:int -> int
(** [int t ~bound] draws uniformly from [0 .. bound-1] using rejection
    sampling (no modulo bias).  Requires [bound > 0]. *)

val bool : t -> bool
(** [bool t] draws a fair coin. *)

val float : t -> float
(** [float t] draws uniformly from [[0, 1)] with 53 bits of
    precision. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] draws a uniform element of [arr].  Requires [arr]
    non-empty. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t arr] applies a uniform Fisher–Yates shuffle. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from the exponential distribution with
    the given mean; used for randomized message delays. *)
