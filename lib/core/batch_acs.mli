open Import

(** Asynchronous Common Subset over erasure-coded dissemination — the
    batch-agreement core of the atomic-broadcast pipeline.

    {b Paper source:} the agreement skeleton is the ACS of Ben-Or,
    Kelmer & Rabin (1994) as deployed by HoneyBadgerBFT (Miller et al.
    2016, §4.2), built from exactly the two tools of Bracha's 1984
    paper; the dissemination layer swaps Bracha's echo-the-payload RBC
    for the Cachin–Tessaro AVID-style coded broadcast ({!Coded_rbc}),
    so a batch of [B] bytes costs each link [O(B/n + lambda log n)]
    instead of [O(B)].

    {b Resilience:} [n > 3f] ([assert_resilience] at input time).

    {b Message type:} [Prop] wraps a coded-RBC message ([val]/[echo]/
    [ready], Merkle-authenticated fragments) tagged with the proposer
    it disseminates for; [Ba] wraps a binary-agreement wire message
    tagged with the proposer index it votes on.

    It is {!Acs.Over} applied to {!Coded_rbc}: the agreement rules are
    {!Acs}'s (vote 1 on delivery, vote 0 everywhere once [n - f]
    accepted, emit when all [n] BAs are decided and the accepted
    batches have arrived); only the proposal transport differs.
    Payloads are opaque strings — the atomic broadcast layer encodes
    transaction batches into them ({!Abc_smr.Atomic_broadcast}) — and
    [pp_output] prints each accepted batch as its size. *)

type input = { proposal : string; coin : Coin.t }

type output = Accepted of (Node_id.t * string) list
    (** the common subset of batches, sorted by proposer id —
        identical at every honest node *)

type msg

include
  Protocol.S
    with type input := input
     and type output := output
     and type msg := msg

val inputs : n:int -> coin:Coin.t -> string array -> input array
(** One batch per node, shared coin configuration.  Raises
    [Invalid_argument] when the array length differs from [n]. *)
