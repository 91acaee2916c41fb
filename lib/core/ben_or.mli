open Import

(** Ben-Or's randomized consensus (1983) — the baseline Bracha improves
    on.

    Two phases per round over {e plain} broadcasts (no reliable
    broadcast, no validation):

    + {b Report}: broadcast the current value; await [q = n - f]
      reports; if one value has a large majority, propose it, otherwise
      propose "?".
    + {b Proposal}: await [q] proposals; with [p(w)] the number of
      proposals for [w]: decide at the decide threshold, adopt at the
      adopt threshold, otherwise flip the coin.

    Thresholds per fault {!Mode}:

    - {b Byzantine} (requires [n > 5f]): majority [> (n+f)/2], adopt
      [≥ f+1], decide [≥ 3f+1].  Resilience [⌊(n-1)/5⌋] versus
      Bracha's [⌊(n-1)/3⌋] — experiment E2's comparison.
    - {b Crash} (requires [n > 2f]): majority [> n/2], adopt [≥ 1],
      decide [≥ f+1].  The classic crash-fault protocol. *)

module Mode : sig
  type t = Byzantine | Crash

  val max_faults : t -> n:int -> int
  (** Largest [f] the protocol is designed for: [⌊(n-1)/5⌋] Byzantine,
      [⌊(n-1)/2⌋] crash. *)

  val label : t -> string
  val pp : t Fmt.t
end

type input = { value : Value.t; mode : Mode.t; coin : Coin.t }

type msg =
  | Report of { round : int; value : Value.t }
  | Proposal of { round : int; value : Value.t option }
      (** [None] is the paper's "?" proposal *)

include
  Protocol.S
    with type input := input
     and type output = Decision.t
     and type msg := msg

val inputs : n:int -> mode:Mode.t -> coin:Coin.t -> Value.t array -> input array
(** Pair each node's value with the shared mode and coin. *)

val value_of_input : input -> Value.t

(** Forged messages for Byzantine behaviours. *)
module Fault : sig
  val flip_value : Stream.t -> msg -> msg
  (** Negate report values and proposal values. *)
end
