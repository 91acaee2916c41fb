(** Byzantine fault behaviours.

    A faulty node runs the honest protocol logic underneath, and a
    behaviour corrupts its {e outgoing} traffic.  This covers the
    standard adversary repertoire: crashing, staying silent,
    consistently lying, equivocating (telling different nodes different
    things — the attack reliable broadcast exists to defeat), and
    message spam.  Mutation functions are supplied by the protocol
    layer because only it can forge well-typed messages.

    {!Crash_recover} is the one exception to the outgoing-traffic
    model: it is a benign crash-restart fault enforced by the engine at
    scheduled ticks (volatile state wiped, in-flight deliveries
    dropped, restart from the durable store), so its traffic transform
    is the identity. *)

type 'msg t =
  | Honest  (** behaves exactly like a correct node *)
  | Silent  (** receives everything, never sends anything *)
  | Crash_after of int
      (** behaves honestly for the first [k] activations (message
          deliveries it reacts to, init included), then goes silent
          for the rest of the run — a clean fail-stop fault with no
          recovery path (state is never restored); for a crash the node
          {e comes back from}, use {!Crash_recover} *)
  | Mutate of (Abc_prng.Stream.t -> 'msg -> 'msg)
      (** applies one corruption per outgoing message; every recipient
          of a broadcast sees the same lie, so the fault cannot be
          detected by cross-checking *)
  | Equivocate of (Abc_prng.Stream.t -> dst:Node_id.t -> 'msg -> 'msg)
      (** corrupts each broadcast per recipient: sends conflicting
          messages to different nodes *)
  | Replay of int
      (** sends every outgoing message [1 + k] times: duplication /
          spam pressure on the receivers' deduplication logic *)
  | Corrupt_after of int * 'msg t
      (** adaptive corruption: behaves honestly for the first [k]
          activations, then switches to the given behaviour — models
          an adversary that corrupts a node mid-protocol, which the
          asynchronous model explicitly allows *)
  | Crash_recover of (int * int) list
      (** benign crash-restart schedule: each [(crash, rejoin)] pair
          (strictly increasing virtual ticks, [crash < rejoin]) crashes
          the node at tick [crash] — losing all volatile protocol
          state, keeping only its simulated durable store — and
          restarts it at tick [rejoin].  Repeatable: a node may crash
          and rejoin several times in one run.  Enforced by the engine
          (see {!Engine.Make} recovery support), not by [apply], which
          is the identity for this variant. *)

val label : 'msg t -> string
(** Short name for reports ("honest", "silent", "crash", "mutate",
    "equivocate", "replay", "adaptive:<inner>", "crash-recover"). *)

val two_faced :
  n:int -> (Abc_prng.Stream.t -> 'msg -> 'msg) -> Abc_prng.Stream.t -> dst:Node_id.t -> 'msg -> 'msg
(** [two_faced ~n lie], an {!Equivocate} corruption, sends each message
    [m] as it is to the nodes below [n / 2] and as [lie rng m] to the
    rest: the split-brain attack reliable broadcast suppresses. *)

val apply :
  'msg t ->
  rng:Abc_prng.Stream.t ->
  n:int ->
  activation:int ->
  'msg Protocol.action list ->
  'msg Protocol.action list
(** [apply b ~rng ~n ~activation actions] transforms the actions
    produced by the honest logic during its [activation]-th activation
    (the initial actions are activation 0).  [n] is the number of nodes
    (needed to expand broadcasts when equivocating). *)

val crash_schedule : 'msg t -> (int * int) list option
(** [crash_schedule b] is the crash-restart schedule when [b] is
    {!Crash_recover}, [None] otherwise (the engine uses this to build
    its tick-driven transition table). *)

val validate_schedule : (int * int) list -> bool
(** [validate_schedule s] checks that [s] is non-empty, each pair has
    [crash < rejoin], and pairs are strictly increasing — the
    well-formedness contract of {!Crash_recover}. *)
