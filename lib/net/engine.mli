(** The asynchronous execution engine.

    [Engine.Make (P)] runs [n] instances of protocol [P] over a
    reliable, authenticated, completely asynchronous network: the
    configured {!Adversary.t} picks the delivery order, a fairness
    bound guarantees every message is eventually delivered, and faulty
    nodes have their traffic corrupted by their {!Behaviour.t}.

    One virtual tick elapses per delivery.  Runs are deterministic
    functions of the configuration (including the seed). *)

type stop_reason =
  | All_terminal
      (** every honest node emitted a terminal output — success *)
  | Quiescent
      (** no messages in flight, no timers pending, but some honest
          node is not terminal: the protocol deadlocked (or was
          configured beyond its resilience, or its messages were
          killed by link faults with no transport layer to retry) *)
  | Delivery_limit  (** the configured delivery budget ran out *)

val pp_stop_reason : stop_reason Fmt.t

module Make (P : Protocol.S) : sig
  type recovery = {
    snapshot : P.state -> string;
        (** extract the durable subset of a node's state — what the
            protocol contracts to have written ahead to stable storage
            (e.g. a checkpoint record plus the committed-log prefix).
            Called at crash time; everything not captured here is lost. *)
    restore :
      Protocol.Context.t ->
      P.input ->
      durable:string ->
      P.state * P.msg Protocol.action list * P.output list;
        (** rebuild a freshly-rejoined node from its durable store
            (the last [snapshot], or [""] on a pre-first-crash rejoin
            path).  Returns the restart state plus the actions and
            outputs to emit immediately — typically a catch-up request
            and a retry timer. *)
  }
  (** How {!Behaviour.Crash_recover} nodes come back.  When [None] in
      the config, a rejoining node restarts from [P.initial] with total
      amnesia. *)

  type config = {
    n : int;  (** number of nodes *)
    f : int;  (** resilience parameter handed to the protocol *)
    inputs : P.input array;  (** one input per node; length [n] *)
    faulty : (Node_id.t * P.msg Behaviour.t) list;
        (** faulty nodes and their behaviours; all other nodes are
            honest *)
    adversary : Adversary.t;  (** message scheduling policy *)
    seed : int;  (** root seed: equal seeds give equal runs *)
    max_deliveries : int;
        (** hard stop for non-terminating setups; counts engine steps
            (deliveries, link-fault drops and timer firings) *)
    trace : Abc_sim.Trace.t option;
        (** optional execution trace; when set, every send, delivery,
            output and protocol event (quorums, coin flips, round
            advances, decisions) is recorded as a typed
            {!Abc_sim.Event.t} stamped with node and virtual time *)
    topology : Topology.t option;
        (** communication graph; [None] means complete.  Messages along
            non-edges are dropped (counted as ["dropped.topology"]);
            the self-channel always exists *)
    link_faults : Link_faults.t option;
        (** per-link fault plan applied at delivery time; [None] (or an
            inactive plan) is the paper's reliable network.  Drops are
            counted as ["dropped.link"] (plus ["dropped.link.loss"] /
            ["dropped.link.partition"]), duplicates as
            ["duplicated.link"], and both are traced as typed events.
            Fault decisions draw from a dedicated PRNG stream, so runs
            without faults are unaffected by the feature existing *)
    recovery : recovery option;
        (** durable-store support for {!Behaviour.Crash_recover} nodes.
            A crash wipes the node's volatile state, drops every
            delivery scheduled while it is down (counted as
            ["dropped.crashed"], traced as a link-drop with reason
            ["crashed"]) and invalidates its armed timers (counted as
            ["timer.stale"]); the rejoin rebuilds it via [restore].
            Crash-recover nodes are {e correct} — they count towards
            the all-terminal stop condition, unlike Byzantine nodes *)
  }

  type result = {
    outputs : (int * P.output) list array;
        (** per node: (virtual time, output) pairs in emission order *)
    stop : stop_reason;
    deliveries : int;
        (** messages actually delivered to protocol code (link-fault
            drops and timer firings consume the delivery budget but are
            not counted here) *)
    duration : int;  (** final virtual time *)
    metrics : Abc_sim.Metrics.t;
        (** counters: ["sent"] and ["sent.<label>"] count point-to-point
            messages (a broadcast counts [n] times), ["delivered"]
            counts deliveries, ["dropped.faulty"] counts logical
            actions suppressed by fault behaviours,
            ["max_delivery_age"] is the oldest any delivered message
            got (ticks in flight) — the fairness audit *)
  }

  val config :
    ?faulty:(Node_id.t * P.msg Behaviour.t) list ->
    ?adversary:Adversary.t ->
    ?seed:int ->
    ?max_deliveries:int ->
    ?trace:Abc_sim.Trace.t ->
    ?topology:Topology.t ->
    ?link_faults:Link_faults.t ->
    ?recovery:recovery ->
    n:int ->
    f:int ->
    inputs:P.input array ->
    unit ->
    config
  (** Build a configuration with sensible defaults: no faults, fifo
      adversary, seed 0, delivery budget [200_000 * n].  Raises
      [Invalid_argument] on an inconsistent configuration, including
      [n > 2^30]: node ids must fit {!Envelope_arena.id_bits}. *)

  val run : config -> result
  (** Execute the configured run to completion.  A message older than
      [32 * n * n] ticks is delivered next, overriding the adversary:
      the eventual-delivery bound, long enough that starvation
      policies bite, short enough that runs finish. *)

  val honest : config -> Node_id.t list
  (** The nodes of the run that are not in the faulty list. *)
end
