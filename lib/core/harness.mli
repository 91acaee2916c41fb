open Import

(** Experiment harness for binary consensus protocols.

    Wraps an engine around any protocol that decides a {!Decision.t}
    and evaluates the three properties of the consensus problem over
    the honest nodes of a run:

    - {b Termination}: the run stopped because every honest node
      decided (and each decided exactly once);
    - {b Agreement}: all honest decisions carry the same value;
    - {b Validity}: if all honest inputs were equal, the decision is
      that value (the non-unanimous case is vacuous for binary
      consensus).

    {!judge} is the consensus verdict of the scenario registry, which
    runs every example, matrix cell and benchmark table; {!Make} runs
    an engine itself, for driving a protocol module directly, as the
    tests and abc_perf do. *)

module type CONSENSUS = sig
  include Protocol.S with type output = Decision.t

  val value_of_input : input -> Value.t
end

type verdict = {
  terminated : bool;
  agreement : bool;
  validity : bool;
  decisions : (Node_id.t * int * Decision.t) list;
      (** honest decisions: node, virtual decision time, decision *)
  rounds : int list;  (** decision round of each deciding honest node *)
  max_round : int;  (** slowest honest decision round (0 when none) *)
  messages : int;  (** point-to-point messages sent in the run *)
  deliveries : int;  (** messages delivered before the run stopped *)
  duration : int;  (** final virtual time *)
}

val ok : verdict -> bool
(** Termination, agreement and validity all hold. *)

val pp_verdict : verdict Fmt.t

val judge :
  value_of_input:('input -> Value.t) ->
  inputs:'input array ->
  honest:Node_id.t list ->
  stop:Engine.stop_reason ->
  outputs:(int * Decision.t) list array ->
  messages:int ->
  deliveries:int ->
  duration:int ->
  verdict
(** The verdict on a finished run given its parts: the inputs, the
    honest nodes, the stop reason and every node's outputs.  For
    callers that run the engine themselves (the scenario registry);
    {!Make} judges its own runs with it. *)

module Make (P : CONSENSUS) : sig
  module E : module type of Engine.Make (P)

  val run : E.config -> E.result * verdict
  (** Execute and judge. *)
end
