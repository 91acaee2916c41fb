open Import

(** Bracha's asynchronous Byzantine consensus as a runnable protocol.

    The paper's headline system, assembled from its parts:
    reliable-broadcast transport ({!Rbc_mux}), message justification
    ({!Validation}) and the randomized three-step round machine
    ({!Consensus_core}).  Tolerates [f ≤ ⌊(n-1)/3⌋] Byzantine nodes in
    a fully asynchronous network and terminates with probability 1.

    {!Options} select the coin (the paper's local coin, or the perfect
    common coin extension), and switch off validation or reliable
    broadcast for the ablation experiments (E6, E7): with [transport =
    Plain], step messages travel as ordinary broadcasts and Byzantine
    nodes can equivocate; with [validation = false], unjustifiable
    values are accepted. *)

module Options : sig
  type transport =
    | Reliable  (** every step message goes through Bracha RBC *)
    | Plain  (** raw broadcasts: the ablation without RBC *)

  type t = { coin : Coin.t; validation : bool; transport : transport }

  val default : t
  (** The paper's protocol: local coin, validation on, reliable
      transport. *)

  val with_common_coin : seed:int -> t
  (** The modern-extension configuration: perfect common coin. *)

  val pp : t Fmt.t
end

type input = { value : Value.t; options : Options.t }
(** Per-node input.  All nodes of a run must share the same
    [options]. *)

type msg =
  | Wire of Rbc_mux.wire  (** reliable transport traffic *)
  | Direct of Consensus_msg.vmsg  (** plain-transport step message *)

include
  Protocol.S
    with type input := input
     and type output = Decision.t
     and type msg := msg

val inputs : n:int -> options:Options.t -> Value.t array -> input array
(** [inputs ~n ~options values] pairs each node's value with the shared
    options.  Requires [Array.length values = n]. *)

val value_of_input : input -> Value.t
(** Project the proposed bit back out (used by the harness's validity
    check). *)

(** Forged messages for Byzantine behaviours. *)
module Fault : sig
  val flip_value : Stream.t -> msg -> msg
  (** Negate the payload bit of any message. *)

  val force_decide : Stream.t -> msg -> msg
  (** Set the decide flag on step-3 payloads: claims support that does
      not exist — stopped by validation, harmful without it. *)

  val random_value : Stream.t -> msg -> msg
  (** Replace the payload bit with a fresh random one. *)
end
