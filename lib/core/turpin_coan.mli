open Import

(** The Turpin–Coan reduction: multivalued consensus from one binary
    agreement.

    The classical lightweight alternative to the common-subset
    construction: two voting steps narrow the candidate set to at most
    one value, a single binary agreement ({!Ba_instance}, i.e. Bracha's
    protocol) decides whether that value won, and a recovery rule lets
    nodes that missed the winner learn it.

    + {b Step 1} — broadcast your value; await [n-f]; if [n-2f] of them
      agree on [w], adopt [w] as candidate, else candidate [⊥].  (At
      most one [w] can reach [n-2f] inside any [(n-f)]-subset when
      [n > 3f].)
    + {b Step 2} — broadcast the candidate; await [n-f]; if [n-2f]
      non-[⊥] candidates agree on [w], set [z := w] and vote 1, else
      vote 0.
    + {b Binary BA} on the vote.  Decide [Agreed z] on 1 — nodes
      without [z] wait for [f+1] step-2 messages carrying the same [w]
      (the recovery rule), which is where the asynchronous variant
      needs the stronger bound [n > 4f].  Decide [Fallback] on 0.

    Guarantees ([n > 4f]): all honest nodes output the same outcome; if
    all honest inputs are equal, that value is agreed; any agreed value
    was some node's input.  Compare with {!Acs} plus
    {!Acs.Make.decide_value} ([n > 3f], never falls back, but [n] binary
    agreements instead of one) — experiment E13. *)

module Make (V : Value.PAYLOAD) : sig
  type input = { value : V.t; coin : Coin.t }

  type outcome =
    | Agreed of V.t  (** consensus on a proposed value *)
    | Fallback
        (** the honest inputs were too split for this reduction; all
            honest nodes fall back together *)

  type output = outcome

  type msg

  include
    Protocol.S
      with type input := input
       and type output := output
       and type msg := msg

  val inputs : n:int -> coin:Coin.t -> V.t array -> input array

  val max_faults : n:int -> int
  (** [⌊(n-1)/4⌋]: the asynchronous variant's resilience. *)
end
