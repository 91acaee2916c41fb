open Import

(** Multiplexer for many concurrent reliable-broadcast instances.

    Bracha's consensus runs one RBC instance per (originator, round,
    step).  The multiplexer routes each wire message to its instance —
    creating instances lazily — and reports at most one delivery per
    instance.  The instance key travels on the wire, so a Byzantine
    node cannot fold two instances together or claim someone else's
    slot as sender (the engine attributes the true source, and
    [Initial] events from non-originators are dropped by the
    instance).  A key whose origin lies outside [\[0, n)] names no
    node's slot and is dropped whole. *)

module Rbc : module type of Rbc_core.Make (Consensus_msg.Payload)
(** The underlying reliable-broadcast instances, specialized to
    consensus payloads. *)

type wire = { key : Consensus_msg.Key.t; event : Rbc.event }
(** One consensus wire message: an RBC event within instance [key]. *)

type t
(** Immutable multiplexer state for one node. *)

val create : n:int -> f:int -> t
(** [create ~n ~f] has no live instances yet. *)

val broadcast_own : Consensus_msg.Key.t -> Consensus_msg.Payload.t -> wire
(** [broadcast_own key payload] is the [Initial] wire message a node
    broadcasts to start its own instance [key]. *)

val handle :
  ?sink:Event.sink ->
  t ->
  src:Node_id.t ->
  wire ->
  t * wire list * (Consensus_msg.Key.t * Consensus_msg.Payload.t) option
(** [handle t ~src wire] routes [wire] into its instance.  Returns the
    new state, wire messages to broadcast (echoes/readies of the same
    instance), and the instance's delivery when it completes.  Quorum
    events from the instance flow to [?sink], scoped by the rendered
    instance key.

    Returns [t] itself, with no wires and no delivery, when the wire
    changes nothing the instances will act on: a wire whose key names
    an origin outside [\[0, n)] (no honest node sends one, and [f]
    Byzantine nodes alone cannot bring an honest node to ready on
    it), an event {!Rbc_core.Make.settled} by its instance, and one
    its instance returns physically unchanged.  Callers compare
    states with [==] to skip their own bookkeeping. *)

val instances : t -> int
(** Number of instances created so far, one per key whose first wire
    named an origin in [\[0, n)]; instances are never dropped (for
    resource accounting/tests). *)

val pp_wire : wire Fmt.t
val wire_label : wire -> string

val ba_wire_label : wire -> string
(** ["ba."] and {!wire_label}, the label under which {!Acs} and
    {!Turpin_coan} carry their binary agreement's wires, as a shared
    literal. *)

val wire_bytes : wire -> int
(** Wire size of a multiplexed message: instance key plus event. *)
