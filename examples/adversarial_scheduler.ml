(* The adversary owns the network — and loses anyway.

   FLP says no deterministic protocol can reach consensus in an
   asynchronous system with even one fault: the scheduler can always
   keep a deterministic protocol undecided.  Bracha's answer is
   randomization: whatever the scheduler does, every coin-flip round
   gives the honest nodes a chance to align, so termination comes with
   probability 1 — only the round count varies.

   This example runs the same n=8, f=2 consensus — honest nodes split
   4-vs-4 on their inputs, two Byzantine nodes flipping every value
   they relay — under increasingly hostile schedulers, and prints the
   distribution of rounds-to-decision over 40 seeds, for both the
   paper's local coin and the common-coin extension.  Each scheduler
   and coin is a registry token, as a .matrix spec spells it.

   Run with: dune exec examples/adversarial_scheduler.exe *)

module Registry = Abc_matrix.Registry
module Summary = Abc_sim.Summary

let seeds = 40

(* The registry's default [split] inputs (nodes below n/2 vote 0) give
   the scheduler the most room to keep the honest nodes disagreeing. *)
let rounds_under ~adversary ~coin =
  let scenario =
    Result.get_ok
      (Registry.of_tokens
         [ ("protocol", "bracha"); ("n", "8"); ("f", "2"); ("fault", "flip@0,7");
           ("adversary", adversary); ("coin", coin) ])
  in
  let one_run seed =
    let r = Result.get_ok (Registry.run scenario ~seed) in
    assert (Registry.decides r.outcome);
    r.outcome.rounds
  in
  List.init seeds one_run

let describe label samples =
  match Summary.of_int_list samples with
  | Some s ->
    Fmt.pr "  %-18s rounds: mean %.2f  median %.0f  p95 %.0f  worst %.0f@." label
      (Summary.mean s) (Summary.median s) (Summary.percentile s 95.)
      (Summary.max_value s)
  | None -> ()

(* Each scheduler's label, and its registry token. *)
let schedulers =
  [ ("fifo", "fifo"); ("uniform", "uniform"); ("latency", "latency:8");
    ("targeted-delay", "target:0"); ("split", "split") ]

let () =
  Fmt.pr
    "n=8, f=2, honest inputs split 4-vs-4, two bit-flipping Byzantine nodes, %d seeds.@."
    seeds;
  let table coin =
    List.iter (fun (label, adversary) -> describe label (rounds_under ~adversary ~coin)) schedulers
  in
  Fmt.pr "@.Local coin (the 1984 protocol):@.";
  table "local";
  Fmt.pr "@.Common coin (the modern extension):@.";
  table "common";
  Fmt.pr
    "@.Every run terminated — the scheduler can stretch the race but@.\
     cannot win it.  The common coin caps the stretching, which is why@.\
     modern asynchronous BFT systems pay for one.@."
