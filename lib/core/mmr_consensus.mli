open Import

(** MMR binary Byzantine agreement (Mostéfaoui–Moumen–Raynal, 2014) —
    the modern descendant of Bracha's protocol.

    Thirty years after PODC 1984, the signature-free asynchronous BFT
    revival (HoneyBadgerBFT and successors) settled on this round
    structure, which keeps Bracha's resilience [f ≤ ⌊(n-1)/3⌋] but
    replaces the three reliable broadcasts per round with one
    {e binary-value broadcast} and one auxiliary vote — O(n²) messages
    per round instead of O(n³):

    + {b BV-broadcast}: broadcast [BVAL(r, est)]; re-broadcast a value
      heard from [f+1] distinct nodes (so a Byzantine minority cannot
      forge it); a value heard from [2f+1] distinct nodes enters
      [bin_values] — every value in [bin_values] was proposed by an
      honest node, and all honest [bin_values] eventually converge.
    + {b AUX}: once [bin_values] is non-empty, broadcast one of its
      values; await [n-f] AUX messages whose values lie in
      [bin_values]; let [vals] be the set of values among them.
    + If [vals = {v}]: adopt [v], and {b decide} when [v] equals the
      round coin.  Otherwise adopt the coin.

    {b The common coin is a safety requirement here, not an
    optimization.}  A node decides a singleton [v] exactly when the
    round coin equals [v]; the nodes that saw both values adopt that
    same coin, so a decision forces unanimity.  With {e local} coins
    this mechanism collapses and agreement itself is violated — unlike
    Bracha's protocol, whose local-coin variant is safe and merely
    slow.  A [Coin.Local] configuration is accepted only to demonstrate
    this in the E10 ablation.

    With the common coin the expected round count is constant.  Unlike
    Bracha's protocol a decided node cannot quiesce early — all honest
    nodes decide in the same round (the first coin match after
    convergence), so nodes participate until the run ends.

    {b Cost per vote.}  [on_message] counts a vote first and runs the
    rules only for a vote that makes one of their threshold tests hold
    (f+1 or 2f+1 BVALs for a value, n-f supported AUX votes in the
    current round), and for every [Share].  A vote that changes
    nothing a rule reads returns the state argument itself, with no
    action and no output: a sender's second BVAL for one value or
    second AUX, a BVAL whose value this node has already sent and
    delivered into [bin_values], or an AUX of a completed round.  A
    vote below every test is stored and answers nothing, with a sink
    enabled or not: a round's AUX quorum is reported to the sink once,
    when the round first holds it, even while the round then waits
    for Rabin coin shares.

    {b Each value once.}  As in MMR's BV-broadcast, which echoes a
    value only "if not yet broadcast", a node sends [BVAL(r, v)] at
    most once per round: the vote it sends on entering round [r] marks
    [est] as sent, so the f+1 rule does not repeat it, and a node that
    enters [r] with a value the f+1 rule already echoed there sends
    nothing new. *)

type coin_source =
  | Flip of Coin.t  (** local (ablation) or idealized common coin *)
  | Shares of Rabin_coin.t
      (** Rabin's dealer coin: shares are revealed through [Share]
          messages and reconstructed from [f+1] verified shares *)

type input = { value : Value.t; coin : coin_source }

type msg =
  | Bval of { round : int; value : Value.t }
  | Aux of { round : int; value : Value.t }
  | Share of { round : int; share : Shamir.share }
      (** this node's predistributed coin share for the round *)

include
  Protocol.S
    with type input := input
     and type output = Decision.t
     and type msg := msg

val inputs : n:int -> coin:Coin.t -> Value.t array -> input array
(** Pair each node's value with a [Flip] coin. *)

val inputs_with_shared_coin : n:int -> f:int -> seed:int -> Value.t array -> input array
(** Configure the Rabin dealer coin: every node holds its
    predistributed Shamir shares and the coin is agreed by exchanging
    them on the wire — the implemented (rather than idealized) common
    coin. *)

val value_of_input : input -> Value.t

(** Forged messages for Byzantine behaviours. *)
module Fault : sig
  val flip_value : Stream.t -> msg -> msg
  (** Negate the payload bit. *)
end
