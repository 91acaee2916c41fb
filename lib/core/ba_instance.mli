open Import

(** One complete binary-agreement instance: reliable-broadcast
    multiplexer + validation + consensus core, wired together.

    This is Bracha's full PODC 1984 stack for a single agreement, in a
    transport-neutral form: the caller moves {!Rbc_mux.wire} messages
    between nodes (standalone protocol, ACS component, replicated log
    slot, ...).

    An instance can receive wire traffic {e before} it is given an
    input — in compositions like ACS, other nodes may start first.
    Validated messages are buffered and replayed into the core the
    moment {!start} provides the input. *)

type t
(** Immutable instance state for one node. *)

type event = Decided of Decision.t
(** Externally visible result. *)

val create : n:int -> f:int -> me:Node_id.t -> coin:Coin.t -> validation:bool -> t
(** [create ~n ~f ~me ~coin ~validation] is an idle instance (no input
    yet).  [validation:false] disables justification (ablation E7). *)

val start :
  ?sink:Event.sink ->
  t ->
  rng:Stream.t ->
  input:Value.t ->
  t * Rbc_mux.wire list * event list
(** [start t ~rng ~input] feeds this node's proposal.  Returns the wire
    broadcasts to emit (the round-1 step-1 reliable broadcast, plus
    anything unlocked by replaying messages buffered while idle) and
    any events the replay produced.  No-op when already started.
    [?sink] observes protocol events from the replayed messages. *)

val started : t -> bool
(** Whether {!start} has been called. *)

val on_wire :
  ?sink:Event.sink ->
  t ->
  rng:Stream.t ->
  src:Node_id.t ->
  Rbc_mux.wire ->
  t * Rbc_mux.wire list * event list
(** [on_wire t ~rng ~src wire] processes one delivered wire message:
    routes it through the RBC multiplexer, pushes resulting deliveries
    through validation, and drives the consensus core with everything
    validated.  Returns outgoing wire broadcasts and the decision event
    (at most once per instance).  [?sink] observes both the RBC
    instances' quorum events (scoped by instance key) and the core's
    round/coin/decide events.

    When the wire changed nothing ({!Rbc_mux.handle} returned its own
    state), returns [t] itself with no wires and no events, so a
    caller can test [==] and keep its own state too. *)

val decided : t -> Decision.t option
(** The decision, once taken. *)

val round : t -> int
(** The core's current round (1 before {!start}). *)
