(** Bounded model checking by exhaustive schedule exploration.

    Randomized testing samples delivery schedules; this module
    {e enumerates} them.  For a small configuration it performs a
    breadth-first search over every reachable system state — each
    branch delivers one of the distinct in-flight messages — checking a
    safety invariant at every state.  Duplicate in-flight messages and
    already-visited system states are merged, which keeps single-digit
    node counts tractable (a four-node reliable broadcast with an
    equivocating sender is a few hundred thousand states).

    The checked protocol must be deterministic: exploration fixes each
    node's random stream, so protocols whose control flow draws
    randomness (coin flips) are explored for a single coin sequence
    only — exhaustive over schedules, not over coins.  Reliable
    broadcast, the primary target, draws no randomness at all.

    The result distinguishes a verified bound ([exhausted = true]: the
    invariant holds on {e every} reachable state) from a budgeted
    search ([exhausted = false]: no violation found within
    [max_states]).  [Abc_matrix.Registry.explore] runs it on a
    registry scenario, with the faults and the verdict a run of that
    scenario has; [Make] is for protocols and transports outside the
    registry. *)

type violation = {
  schedule : (Abc_net.Node_id.t * Abc_net.Node_id.t * string) list;
      (** the step sequence (src, dst, printed message) leading to the
          bad state, oldest first; a timer firing appears as (node,
          node, ["timeout#<id>"]) *)
}

type outcome = {
  explored : int;  (** distinct states visited *)
  exhausted : bool;  (** whole reachable space covered *)
  deadlocks : int;
      (** states with no in-flight messages and no pending timers (not
          violations per se — liveness is out of scope for safety
          checking — but reported for diagnostics) *)
  depth_reached : int;  (** longest schedule prefix explored *)
  violation : violation option;  (** a counterexample, if found *)
}

module Make (P : Abc_net.Protocol.S) : sig
  type config = {
    n : int;
    f : int;
    inputs : P.input array;
    faulty : (Abc_net.Node_id.t * P.msg Abc_net.Behaviour.t) list;
        (** behaviours must be deterministic (ignore their rng) for the
            exploration to be meaningful *)
    invariant : P.output list array -> bool;
        (** checked at every reachable state; receives the outputs each
            node has produced so far (oldest first) *)
    max_states : int;  (** exploration budget *)
    max_depth : int option;
        (** bound on schedule length (deliveries and timer firings);
            [None] explores to quiescence.  A bounded run that finds no
            violation verifies safety for {e every} schedule prefix up
            to that depth. *)
    drop_plan :
      (src:Abc_net.Node_id.t -> dst:Abc_net.Node_id.t -> nth:int -> bool)
      option;
        (** deterministic link-fault plan, applied at {e send} time:
            the [nth] (0-based) message sent on the [src -> dst] link
            is discarded when the predicate says so.  Exploration then
            covers every schedule of the surviving messages — this is
            how transport-layer protocols ([Reliable_link]) are checked
            against lossy links.  [None] keeps the reliable network
            (and the exact state space of previous versions). *)
  }

  val run : config -> outcome
end
