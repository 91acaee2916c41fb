open Import

(** Asynchronous Common Subset — multivalued agreement from Bracha's
    primitives.

    The construction that modern asynchronous BFT systems
    (HoneyBadgerBFT's core) build from exactly the two tools of the
    1984 paper: every node reliable-broadcasts its proposal, and [n]
    binary-agreement instances decide {e whose} proposals count:

    + on delivering node [j]'s proposal, input 1 into [BA_j];
    + once [n - f] instances have decided 1, input 0 into every
      instance not yet started;
    + when all [n] instances have decided, output the proposals of
      every index that decided 1 (reliable-broadcast totality
      guarantees the accepted payloads arrive everywhere).

    All honest nodes output the {e same} set of (node, proposal) pairs
    containing at least [n - 2f] honest proposals.  {!Make.decide_value}
    collapses the set deterministically, yielding multivalued
    consensus.

    The agreement rules do not depend on how proposals travel, so the
    construction is one functor, {!Over}, over the proposal broadcast:
    {!Make} runs it over Bracha's RBC, {!Batch_acs} over the
    erasure-coded {!Coded_rbc}. *)

(** A reliable broadcast that can carry one proposal: a protocol whose
    nodes all name the same sender and whose output is the delivered
    payload. *)
module type BROADCAST = sig
  type payload

  type output = Delivered of payload

  include Protocol.S with type output := output

  val input : sender:Node_id.t -> payload option -> input
  (** Node input for the instance disseminating [sender]'s proposal:
      [Some p] at the sender, [None] elsewhere. *)

  val pp_payload : payload Fmt.t
  (** How {!Over}'s [pp_output] prints an accepted proposal. *)
end

(** The ACS over broadcast [B], under protocol name [Id.name].  All [n]
    proposal broadcasts open at init; a proposal naming an origin
    outside [0..n-1] is dropped.  The broadcast of node [j]'s proposal
    emits its events under instance ["prop@nJ"], the BA on it under
    ["baJ"].  [Prop] wraps a broadcast message with the proposer it
    disseminates for; [Ba] wraps a binary-agreement wire message with
    the proposer index it votes on. *)
module Over (B : BROADCAST) (Id : sig
  val name : string
end) : sig
  type input = { proposal : B.payload; coin : Coin.t }

  type output = Accepted of (Node_id.t * B.payload) list
      (** the common subset, sorted by node id — identical at every
          honest node *)

  type msg

  include
    Protocol.S
      with type input := input
       and type output := output
       and type msg := msg
end

(** The ACS over {!Bracha_rbc}, named ["acs"]. *)
module Make (V : Value.PAYLOAD) : sig
  type input = { proposal : V.t; coin : Coin.t }

  type output = Accepted of (Node_id.t * V.t) list
      (** the common subset, sorted by node id — identical at every
          honest node *)

  type msg

  include
    Protocol.S
      with type input := input
       and type output := output
       and type msg := msg

  val inputs : n:int -> coin:Coin.t -> V.t array -> input array
  (** One proposal per node, shared coin configuration. *)

  val decide_value : output -> V.t
  (** Deterministic collapse of the common subset to a single value
      (the smallest payload in the set).  Requires a non-empty subset,
      which the protocol guarantees. *)
end
