(** Xoshiro256++ pseudo-random number generator.

    The project's workhorse generator (Blackman & Vigna).  256 bits of
    state, period [2^256 - 1], passes BigCrush.  All simulation
    randomness flows through instances of this generator so that every
    experiment is reproducible from a single integer seed. *)

type t
(** Mutable generator state: 256 bits held unboxed in one 32-byte
    buffer, so {!next} allocates nothing. *)

val create : int64 -> t
(** [create seed] seeds the 256-bit state from [seed] by running
    SplitMix64, per the authors' recommendation.  The state is never
    all-zero. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same
    future outputs as [t]. *)

val next : t -> int64
(** [next t] advances [t] and returns the next 64-bit output. *)
