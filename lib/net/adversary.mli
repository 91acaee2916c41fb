(** Adversarial message schedulers.

    In the asynchronous model the adversary controls the delivery order
    of every message, subject only to the fairness requirement that
    each message is eventually delivered.  A policy sees the metadata
    of all in-flight messages (never the payloads — schedulers are
    protocol-agnostic) and picks the one to deliver next.

    The engine enforces fairness on top of any policy: once the oldest
    in-flight message exceeds the configured age bound, it is delivered
    regardless of the policy's preference.  Hence every policy yields
    an admissible asynchronous execution.

    A policy is a {e factory}: the engine instantiates it once per run,
    so policies may keep incremental internal state (queues, heaps)
    without leaking information between runs.  Instances use lazy
    deletion — entries removed by the engine (e.g. fairness overrides)
    are skipped when they surface. *)

module View : sig
  type t = Envelope_arena.view
  (** Read-only view of the in-flight message pool: the envelope
      arena's int part, read live.  Messages sit at indices
      [0 .. length - 1]; the accessors read one column at one index
      and allocate nothing. *)

  val length : t -> int

  val seq : t -> int -> int
  (** Global send sequence number (send order). *)

  val src : t -> int -> Node_id.t
  (** True sender. *)

  val dst : t -> int -> Node_id.t
  (** Recipient. *)

  val priority : t -> int -> int
  (** Policy-private tag assigned at send time. *)

  val find_seq : t -> int -> int
  (** [find_seq v seq] is the current index of the live entry with
      sequence number [seq], or [-1] once it has left the pool.
      Constant time. *)

  val oldest : t -> int
  (** Index of the entry with the smallest [seq] (the message that has
      been in flight the longest).  Amortized constant time. *)
end

type instance = {
  assign : rng:Abc_prng.Stream.t -> now:int -> src:Node_id.t -> dst:Node_id.t -> int;
      (** called at send time; the returned value is stored as the
          envelope's [priority] *)
  note : View.t -> unit;
      (** called after the envelope is enqueued, with the view: the new
          envelope sits at index [View.length v - 1], and the instance
          may index it *)
  choose : rng:Abc_prng.Stream.t -> now:int -> View.t -> int;
      (** called at delivery time on a non-empty view; returns the
          index of the message to deliver *)
}

type t = { name : string; instantiate : unit -> instance }

val fifo : t
(** Deliver messages in send order: the kindest network. *)

val uniform : t
(** Deliver a uniformly random in-flight message: the "random delays"
    network used for round-count distributions. *)

val latency : mean:float -> t
(** Exponentially distributed per-message delays with the given mean
    (in virtual ticks): models a heterogeneous wide-area network. *)

val targeted_delay : victims:Node_id.t list -> t
(** Starve all messages {e to} the victim nodes as long as fairness
    allows; everything else is FIFO.  Models an adversary isolating a
    minority. *)

val source_starve : victims:Node_id.t list -> t
(** Starve all messages {e from} the victim nodes: makes victims look
    crashed for as long as fairness allows. *)

val split : n:int -> t
(** Partition nodes into two halves (ids below / at-or-above [n/2]) and
    starve cross-half messages: the classic split-vote schedule that
    defeats deterministic protocols and stresses randomized ones. *)

val rotating_eclipse : n:int -> period:int -> t
(** Starve one node at a time, rotating the victim every [period]
    deliveries: models an adversary that eclipses each node in turn —
    harder to beat than a fixed victim because no node accumulates a
    backlog advantage.  Requires [period > 0]. *)

val starve :
  name:string -> disfavoured:(src:Node_id.t -> dst:Node_id.t -> bool) -> t
(** [starve ~name ~disfavoured] delays every message whose sender and
    recipient match the predicate as long as fairness allows,
    delivering the rest in send order — the building block of the
    targeted policies above. *)

val all_basic : n:int -> t list
(** The standard policy battery used by the experiments: fifo, uniform,
    latency (mean 8), targeted-delay on node 0, split, source-starve on
    node 0 and rotating-eclipse with period [2n] — all seven policies. *)
