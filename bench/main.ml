(* Experiment harness: regenerates every table/figure of the
   reproduction (EXPERIMENTS.md records paper-vs-measured).

     dune exec bench/main.exe              # all experiment tables + microbench
     dune exec bench/main.exe -- E3 E6     # selected experiments
     dune exec bench/main.exe -- quick     # reduced seed counts (CI)
     dune exec bench/main.exe -- csv       # also write bench_results/*.csv

   The 1984 paper proves theorems rather than reporting measurements;
   each experiment operationalizes one theorem-level claim (see
   DESIGN.md for the mapping). *)

open Helpers

let seeds_scale = ref 1.

let scaled k = max 2 (int_of_float (float_of_int k *. !seeds_scale))

(* ----------------------------------------------------------------- *)
(* E1: reliable broadcast correctness (validity/agreement/totality)  *)
(* ----------------------------------------------------------------- *)

module Rbc = Abc.Bracha_rbc.Binary
module RbcE = Abc_net.Engine.Make (Rbc)
module Matrix_spec = Abc_matrix.Spec
module Matrix_runner = Abc_matrix.Runner

(* E1 and E14 are driven by their committed scenario specs — the same
   files `abc-bench run` executes, so the harness and the CI bench
   gate cannot drift apart.  Spec seed counts are the quick-tier
   baseline and are NOT scaled by the `quick` arg: the committed
   BENCH_MATRIX baselines are a function of the spec file alone.
   Expected verdicts play the role the inline assertions play in
   E16-E18: any cell missing its verdict aborts the harness. *)
let matrix_spec path =
  match Matrix_spec.load path with
  | Ok spec -> spec
  | Error e -> failwith (Abc_matrix.Sexp.error_to_string e)

let run_matrix_spec pool path =
  let spec = matrix_spec path in
  let result = Matrix_runner.run ~pool spec in
  Table.print (Matrix_runner.table result);
  if not (Matrix_runner.passed result) then
    failwith
      (Printf.sprintf "%s: %d matrix cell(s) missed their expected verdict"
         (Matrix_spec.id spec)
         (List.length (Matrix_runner.failures result)));
  print_newline ()

let experiment_e1 pool = run_matrix_spec pool "bench/specs/e1.matrix"

(* ----------------------------------------------------------------- *)
(* E2: resilience boundary — Bracha (n>3f) vs Ben-Or (n>5f)          *)
(* ----------------------------------------------------------------- *)

let experiment_e2 pool =
  let n = 16 in
  let seeds = scaled 12 in
  let table =
    Table.create ~id:"e2"
      ~title:
        (Printf.sprintf
           "E2. Resilience sweep at n=%d, flip-value Byzantine faults (ok%% over %d \
            seeds; Bracha bound f<=%d, Ben-Or bound f<=%d)"
           n seeds (bracha_max_f n) (benor_max_f n))
      ~columns:[ "f (actual faults)"; "bracha ok"; "ben-or ok" ]
      ()
  in
  (* Cap deliveries so liveness failures beyond the bound return fast. *)
  let cap = 400_000 in
  List.iter
    (fun f ->
      let values = split_inputs n in
      let bracha =
        sample_bracha
          ~faulty:(bracha_faults ~n ~count:f Flip)
          ~max_deliveries:cap ~pool ~n ~f ~seeds values
      in
      let benor =
        sample_benor
          ~faulty:(benor_faults ~n ~count:f Flip)
          ~max_deliveries:cap ~pool ~n ~f ~seeds values
      in
      Table.add_row table
        [
          Table.cell_int f;
          Table.cell_percent bracha.ok_rate;
          Table.cell_percent benor.ok_rate;
        ])
    [ 0; 1; 2; 3; 4; 5 ];
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E3: rounds to decide vs n at maximum resilience (local coin)      *)
(* ----------------------------------------------------------------- *)

let experiment_e3 pool =
  let seeds = scaled 30 in
  let table =
    Table.create ~id:"e3"
      ~title:
        (Printf.sprintf
           "E3. Rounds to decide, f=max, split inputs, balanced flip liars, split \
            scheduler (local coin, %d seeds)"
           seeds)
      ~columns:[ "n"; "f"; "mean rounds"; "p95"; "max"; "mean msgs" ]
      ()
  in
  List.iter
    (fun n ->
      let f = bracha_max_f n in
      let s =
        sample_bracha
          ~adversary:(Adversary.split ~n)
          ~faulty:(balanced_flip_liars ~n ~count:f)
          ~pool ~n ~f ~seeds (split_inputs n)
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_float (mean_or s.rounds 0.);
          Table.cell_float ~decimals:0 (p95_or s.rounds 0.);
          Table.cell_float ~decimals:0 (max_or s.rounds 0.);
          Table.cell_float ~decimals:0 (mean_or s.messages 0.);
        ])
    [ 4; 8; 12; 16 ];
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E4: constant expected rounds when f = O(sqrt n)                   *)
(* ----------------------------------------------------------------- *)

let experiment_e4 pool =
  let seeds = scaled 20 in
  let table =
    Table.create ~id:"e4"
      ~title:
        (Printf.sprintf
           "E4. Rounds with f=floor(sqrt n) — same faults/scheduler as E3 but fewer \
            liars (local coin, %d seeds)"
           seeds)
      ~columns:[ "n"; "f=sqrt(n)"; "f_max"; "mean rounds"; "p95"; "max" ]
      ()
  in
  List.iter
    (fun n ->
      let f = int_of_float (sqrt (float_of_int n)) in
      assert (n > 3 * f);
      let s =
        sample_bracha
          ~adversary:(Adversary.split ~n)
          ~faulty:(balanced_flip_liars ~n ~count:f)
          ~pool ~n ~f ~seeds (split_inputs n)
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_int (bracha_max_f n);
          Table.cell_float (mean_or s.rounds 0.);
          Table.cell_float ~decimals:0 (p95_or s.rounds 0.);
          Table.cell_float ~decimals:0 (max_or s.rounds 0.);
        ])
    [ 16; 25; 36 ];
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E5: message complexity — O(n^2) per RBC, O(n^3) per round         *)
(* ----------------------------------------------------------------- *)

let experiment_e5 _pool =
  let table =
    Table.create ~id:"e5"
      ~title:
        "E5. Message complexity (honest runs, fifo scheduler; consensus msgs \
         normalized per round)"
      ~columns:
        [ "n"; "rbc msgs"; "rbc/n^2"; "consensus msgs/round"; "consensus/(n^3)" ]
      ()
  in
  let rbc_points = ref [] and cons_points = ref [] in
  List.iter
    (fun n ->
      let f = bracha_max_f n in
      (* one RBC *)
      let config =
        RbcE.config ~n ~f
          ~inputs:(Rbc.inputs ~n ~sender:(node 0) Abc.Value.One)
          ~adversary:Adversary.fifo ~seed:0 ()
      in
      let rbc_result = RbcE.run config in
      let rbc_msgs = Abc_sim.Metrics.counter rbc_result.RbcE.metrics "sent" in
      (* one consensus, unanimous so it ends in one round *)
      let v = run_bracha ~adversary:Adversary.fifo ~n ~f ~seed:0 (unanimous n Abc.Value.One) in
      let per_round =
        float_of_int v.Abc.Harness.messages
        /. float_of_int (max 1 v.Abc.Harness.max_round + 1)
      in
      rbc_points := (n, float_of_int rbc_msgs) :: !rbc_points;
      cons_points := (n, per_round) :: !cons_points;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int rbc_msgs;
          Table.cell_float (float_of_int rbc_msgs /. float_of_int (n * n));
          Table.cell_float ~decimals:0 per_round;
          Table.cell_float (per_round /. float_of_int (n * n * n));
        ])
    [ 4; 7; 10; 13; 16; 22 ];
  Table.print table;
  Printf.printf "fitted exponents: rbc %.2f (theory 2), consensus %.2f (theory 3)\n\n"
    (fitted_exponent !rbc_points)
    (fitted_exponent !cons_points)

(* ----------------------------------------------------------------- *)
(* E6: local coin vs common coin                                     *)
(* ----------------------------------------------------------------- *)

let experiment_e6 pool =
  let seeds = scaled 40 in
  let table =
    Table.create ~id:"e6"
      ~title:
        (Printf.sprintf
           "E6. Coin comparison: rounds to decide (split inputs, flip faults, split \
            scheduler, %d seeds)"
           seeds)
      ~columns:
        [ "n"; "f"; "local mean"; "local p95"; "local max"; "common mean";
          "common p95"; "common max" ]
      ()
  in
  List.iter
    (fun n ->
      let f = bracha_max_f n in
      let faulty = balanced_flip_liars ~n ~count:f in
      let adversary = Adversary.split ~n in
      let local =
        sample_bracha ~adversary ~faulty ~pool ~n ~f ~seeds (split_inputs n)
      in
      let common =
        sample_bracha
          ~options:(B.Options.with_common_coin ~seed:7)
          ~adversary ~faulty ~pool ~n ~f ~seeds (split_inputs n)
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_float (mean_or local.rounds 0.);
          Table.cell_float ~decimals:0 (p95_or local.rounds 0.);
          Table.cell_float ~decimals:0 (max_or local.rounds 0.);
          Table.cell_float (mean_or common.rounds 0.);
          Table.cell_float ~decimals:0 (p95_or common.rounds 0.);
          Table.cell_float ~decimals:0 (max_or common.rounds 0.);
        ])
    [ 4; 8; 13; 16 ];
  Table.print table;
  (* Full distributions at n=16: the tail is the story. *)
  let n = 16 in
  let f = bracha_max_f n in
  let faulty = balanced_flip_liars ~n ~count:f in
  let adversary = Adversary.split ~n in
  let rounds options =
    (* Runs fan out over the pool; the histogram is filled from the
       merged seed-ordered list so buckets never depend on scheduling. *)
    let h = Abc_sim.Histogram.create () in
    sweep_seeds pool ~seeds (fun seed ->
        run_bracha ~options ~adversary ~faulty ~n ~f ~seed (split_inputs n))
    |> List.iter (fun v ->
           if Abc.Harness.ok v then Abc_sim.Histogram.add h v.Abc.Harness.max_round);
    h
  in
  Printf.printf "rounds-to-decide distribution at n=16 (local coin):\n%s"
    (Abc_sim.Histogram.render (rounds B.Options.default));
  Printf.printf "rounds-to-decide distribution at n=16 (common coin):\n%s\n"
    (Abc_sim.Histogram.render (rounds (B.Options.with_common_coin ~seed:7)));
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E7: validation / reliable-broadcast ablation                      *)
(* ----------------------------------------------------------------- *)

let experiment_e7 pool =
  let n = 7 and f = 2 in
  let seeds = scaled 30 in
  let table =
    Table.create ~id:"e7"
      ~title:
        (Printf.sprintf
           "E7. Ablation at n=%d f=%d under force-decide + flip liars (ok%% over %d \
            seeds)"
           n f seeds)
      ~columns:[ "transport"; "validation"; "ok"; "mean rounds (ok runs)" ]
      ()
  in
  let faulty =
    [
      (node (n - 1), Behaviour.Mutate B.Fault.force_decide);
      (node (n - 2), Behaviour.Mutate B.Fault.flip_value);
    ]
  in
  let cap = 300_000 in
  List.iter
    (fun (transport, transport_label) ->
      List.iter
        (fun validation ->
          let options = { B.Options.default with B.Options.transport; validation } in
          let s =
            sample_bracha ~options ~faulty ~max_deliveries:cap ~pool ~n ~f ~seeds
              (unanimous n Abc.Value.Zero)
          in
          Table.add_row table
            [
              transport_label;
              (if validation then "on" else "off");
              Table.cell_percent s.ok_rate;
              Table.cell_float (mean_or s.rounds 0.);
            ])
        [ true; false ])
    [ (B.Options.Reliable, "rbc"); (B.Options.Plain, "plain") ];
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E9: replicated-log throughput                                     *)
(* ----------------------------------------------------------------- *)

module Log = Abc_smr.Replicated_log
module LogE = Abc_net.Engine.Make (Log)

let experiment_e9 pool =
  let seeds = scaled 5 in
  let slots = 3 in
  let table =
    Table.create ~id:"e9"
      ~title:
        (Printf.sprintf
           "E9. Replicated log: %d slots, one silent Byzantine replica (%d seeds)"
           slots seeds)
      ~columns:
        [ "n"; "f"; "commands"; "messages"; "virtual time"; "msgs/command";
          "time/command" ]
      ()
  in
  List.iter
    (fun n ->
      let f = bracha_max_f n in
      let commands = ref 0 and msgs = ref 0 and time = ref 0 in
      sweep_seeds pool ~seeds (fun seed ->
          let config =
            LogE.config ~n ~f
              ~inputs:
                (Log.inputs ~n ~slots ~coin:Abc.Coin.local (fun i k ->
                     Printf.sprintf "cmd-%d.%d" i k))
              ~faulty:[ (node (n - 1), Behaviour.Silent) ]
              ~adversary:Adversary.uniform ~seed ()
          in
          let result = LogE.run config in
          let cmds =
            match Log.log_of_outputs result.LogE.outputs.(0) with
            | Some log -> List.length log
            | None -> 0
          in
          (cmds, Abc_sim.Metrics.counter result.LogE.metrics "sent",
           result.LogE.duration))
      |> List.iter (fun (cmds, sent, duration) ->
             commands := !commands + cmds;
             msgs := !msgs + sent;
             time := !time + duration);
      let per_cmd v = float_of_int v /. float_of_int (max 1 !commands) in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_int !commands;
          Table.cell_int !msgs;
          Table.cell_int !time;
          Table.cell_float (per_cmd !msgs);
          Table.cell_float (per_cmd !time);
        ])
    [ 4; 7 ];
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E8: wall-clock microbenchmarks (Bechamel)                         *)
(* ----------------------------------------------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let rbc_handle =
    (* cost of processing one echo in a warm instance *)
    let state = ref (Rbc.Core.create ~n:7 ~f:2 ~sender:(node 0)) in
    let s0, _, _ = Rbc.Core.handle !state ~src:(node 1) (Rbc.Core.Echo Abc.Value.One) in
    state := s0;
    Test.make ~name:"rbc_core.handle(echo)"
      (Staged.stage (fun () ->
           ignore (Rbc.Core.handle !state ~src:(node 2) (Rbc.Core.Echo Abc.Value.One))))
  in
  let validation_submit =
    Test.make ~name:"validation.submit(r1s1)"
      (Staged.stage (fun () ->
           let v = Abc.Validation.create ~n:7 ~f:2 ~enabled:true in
           ignore
             (Abc.Validation.submit v
                {
                  Abc.Consensus_msg.origin = node 1;
                  round = 1;
                  step = Abc.Consensus_msg.Step.S1;
                  value = Abc.Value.One;
                  decide = false;
                })))
  in
  let full_rbc_run =
    Test.make ~name:"full rbc run (n=7, f=2)"
      (Staged.stage (fun () ->
           let config =
             RbcE.config ~n:7 ~f:2
               ~inputs:(Rbc.inputs ~n:7 ~sender:(node 0) Abc.Value.One)
               ~seed:1 ()
           in
           ignore (RbcE.run config)))
  in
  let full_consensus_run =
    Test.make ~name:"full consensus run (n=4, f=1)"
      (Staged.stage (fun () ->
           ignore (run_bracha ~n:4 ~f:1 ~seed:1 (split_inputs 4))))
  in
  let full_benor_run =
    Test.make ~name:"full ben-or run (n=6, f=1)"
      (Staged.stage (fun () ->
           ignore (run_benor ~n:6 ~f:1 ~seed:1 (split_inputs 6))))
  in
  Test.make_grouped ~name:"abc"
    [ rbc_handle; validation_submit; full_rbc_run; full_consensus_run; full_benor_run ]

let experiment_e8 _pool =
  let open Bechamel in
  let open Toolkit in
  print_endline "E8. Wall-clock microbenchmarks (ns/run, OLS fit)";
  print_endline "================================================";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-36s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-36s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E10: 1984 vs 2014 — Bracha vs MMR, and what the common coin buys   *)
(* ----------------------------------------------------------------- *)

module Mmr = Abc.Mmr_consensus

module MmrH = Abc.Harness.Make (struct
  include Mmr

  let value_of_input = Mmr.value_of_input
end)

let run_mmr ?(coin = Abc.Coin.common ~seed:7) ?(adversary = Adversary.uniform)
    ?(faulty = []) ~n ~f ~seed values =
  let inputs = Mmr.inputs ~n ~coin values in
  snd (MmrH.run (MmrH.E.config ~n ~f ~inputs ~faulty ~adversary ~seed ()))

let experiment_e10 pool =
  let seeds = scaled 25 in
  let table =
    Table.create ~id:"e10"
      ~title:
        (Printf.sprintf
           "E10. Bracha (1984, local coin) vs MMR (2014, common coin): split inputs, \
            f flip liars, split scheduler (%d seeds)"
           seeds)
      ~columns:
        [ "n"; "f"; "bracha rounds"; "bracha msgs"; "mmr rounds"; "mmr msgs";
          "msg ratio" ]
      ()
  in
  List.iter
    (fun n ->
      let f = bracha_max_f n in
      let adversary = Adversary.split ~n in
      let bracha =
        sample_bracha ~adversary
          ~faulty:(balanced_flip_liars ~n ~count:f)
          ~pool ~n ~f ~seeds (split_inputs n)
      in
      let mmr_faulty =
        List.init f (fun k ->
            let id = if k mod 2 = 0 then k / 2 else n - 1 - (k / 2) in
            (node id, Behaviour.Mutate Mmr.Fault.flip_value))
      in
      let mmr =
        collect
          (sweep_seeds pool ~seeds (fun seed ->
               run_mmr ~adversary ~faulty:mmr_faulty ~n ~f ~seed (split_inputs n)))
      in
      let ratio = mean_or bracha.messages 0. /. mean_or mmr.messages 1. in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_float (mean_or bracha.rounds 0.);
          Table.cell_float ~decimals:0 (mean_or bracha.messages 0.);
          Table.cell_float (mean_or mmr.rounds 0.);
          Table.cell_float ~decimals:0 (mean_or mmr.messages 0.);
          Table.cell_ratio ratio;
        ])
    [ 4; 8; 16 ];
  Table.print table;
  (* The safety ablation: MMR with a local coin loses agreement. *)
  let seeds = scaled 40 in
  let violations coin =
    sweep_seeds pool ~seeds (fun seed ->
        let v = run_mmr ~coin ~n:7 ~f:2 ~seed (split_inputs 7) in
        not (v.Abc.Harness.agreement && v.Abc.Harness.validity))
    |> List.filter (fun violated -> violated)
    |> List.length
  in
  Printf.printf
    "coin safety ablation (n=7, f=2, split inputs, %d seeds):\n\
    \  common coin: %d agreement/validity violations\n\
    \  local coin:  %d agreement/validity violations  <- the common coin is a\n\
    \               safety requirement in MMR, unlike in Bracha's protocol\n\n"
    seeds
    (violations (Abc.Coin.common ~seed:7))
    (violations Abc.Coin.local)

(* ----------------------------------------------------------------- *)
(* E11: the price of implementing the coin — idealized vs Rabin      *)
(* ----------------------------------------------------------------- *)

let experiment_e11 pool =
  let seeds = scaled 25 in
  let table =
    Table.create ~id:"e11"
      ~title:
        (Printf.sprintf
           "E11. MMR with idealized common coin vs implemented Rabin coin (share \
            exchange on the wire): split inputs, two silent faults (%d seeds)"
           seeds)
      ~columns:
        [ "n"; "f"; "ideal rounds"; "ideal msgs"; "rabin rounds"; "rabin msgs";
          "share msgs"; "overhead" ]
      ()
  in
  List.iter
    (fun n ->
      let f = bracha_max_f n in
      let faulty =
        if f = 0 then []
        else if f = 1 then [ (node (n - 1), Behaviour.Silent) ]
        else [ (node (n - 1), Behaviour.Silent); (node (n - 2), Behaviour.Silent) ]
      in
      let sample inputs =
        let runs =
          sweep_seeds pool ~seeds (fun seed ->
              let cfg =
                MmrH.E.config ~n ~f ~inputs ~faulty ~adversary:Adversary.uniform
                  ~seed ()
              in
              MmrH.run cfg)
        in
        let verdicts = List.map snd runs in
        let share_msgs =
          List.fold_left
            (fun acc (result, _) ->
              acc + Abc_sim.Metrics.counter result.MmrH.E.metrics "sent.share")
            0 runs
        in
        (collect verdicts, float_of_int share_msgs /. float_of_int seeds)
      in
      let ideal, _ =
        sample (Mmr.inputs ~n ~coin:(Abc.Coin.common ~seed:7) (split_inputs n))
      in
      let rabin, share_msgs =
        sample (Mmr.inputs_with_shared_coin ~n ~f ~seed:7 (split_inputs n))
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_float (mean_or ideal.rounds 0.);
          Table.cell_float ~decimals:0 (mean_or ideal.messages 0.);
          Table.cell_float (mean_or rabin.rounds 0.);
          Table.cell_float ~decimals:0 (mean_or rabin.messages 0.);
          Table.cell_float ~decimals:0 share_msgs;
          Table.cell_ratio (mean_or rabin.messages 1. /. mean_or ideal.messages 1.);
        ])
    [ 4; 7; 16 ];
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E12: connectivity threshold for agreement over flooding            *)
(* ----------------------------------------------------------------- *)

module Topology = Abc_net.Topology
module Relayed_mmr = Abc_net.Relay.Make (Mmr)

module RMH = Abc.Harness.Make (struct
  include Relayed_mmr

  let value_of_input = Mmr.value_of_input
end)

let experiment_e12 pool =
  let n = 8 in
  let f = 2 in
  let seeds = scaled 10 in
  let table =
    Table.create ~id:"e12"
      ~title:
        (Printf.sprintf
           "E12. Agreement over flood relaying vs vertex connectivity (n=%d, f=%d \
            crash faults at a worst-case cut, common coin, %d seeds; survival needs \
            κ > f at the cut)"
           n f seeds)
      ~columns:
        [ "graph"; "κ"; "crashes"; "survivors connected"; "ok"; "mean msgs" ]
      ()
  in
  let cut = [ 1; 5 ] in
  let graphs =
    [
      ("ring C8(1)", Topology.circulant ~n ~offsets:[ 1 ]);
      ("C8(1,2)", Topology.circulant ~n ~offsets:[ 1; 2 ]);
      ("C8(1,2,3)", Topology.circulant ~n ~offsets:[ 1; 2; 3 ]);
      ("complete K8", Topology.complete ~n);
    ]
  in
  List.iter
    (fun (label, g) ->
      let faulty =
        List.map (fun i -> (node i, Behaviour.Crash_after 0)) cut
      in
      let verdicts =
        sweep_seeds pool ~seeds (fun seed ->
            let values = split_inputs n in
            let inputs = Mmr.inputs ~n ~coin:(Abc.Coin.common ~seed:7) values in
            let cfg =
              RMH.E.config ~n ~f ~inputs ~faulty ~topology:g
                ~adversary:Adversary.uniform ~seed ~max_deliveries:400_000 ()
            in
            snd (RMH.run cfg))
      in
      let s = collect verdicts in
      Table.add_row table
        [
          label;
          Table.cell_int (Topology.vertex_connectivity g);
          String.concat "," (List.map string_of_int cut);
          (if Topology.connected_after_removing g (List.map node cut) then "yes"
           else "no");
          Table.cell_percent s.ok_rate;
          Table.cell_float ~decimals:0 (mean_or s.messages 0.);
        ])
    graphs;
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E13: two roads to multivalued consensus — Turpin-Coan vs ACS       *)
(* ----------------------------------------------------------------- *)

module Tc = Abc.Turpin_coan.Make (Abc.Payloads.Int_payload)
module TcE = Abc_net.Engine.Make (Tc)
module Mv = Abc.Multivalued.Make (Abc.Payloads.Int_payload)
module MvE = Abc_net.Engine.Make (Mv)

let experiment_e13 pool =
  let seeds = scaled 10 in
  let table =
    Table.create ~id:"e13"
      ~title:
        (Printf.sprintf
           "E13. Multivalued consensus: Turpin-Coan reduction (1 BA, n>4f) vs \
            ACS (n BAs, n>3f); near-unanimous inputs, one silent fault (%d seeds)"
           seeds)
      ~columns:
        [ "n"; "tc f"; "acs f"; "tc msgs"; "acs msgs"; "acs/tc"; "tc agreed";
          "acs agreed" ]
      ()
  in
  List.iter
    (fun n ->
      let tc_f = (n - 1) / 4 in
      let acs_f = bracha_max_f n in
      let proposals = Array.init n (fun i -> if i = 0 then 9 else 5) in
      let tc_faulty = [ (node (n - 1), Behaviour.Silent) ] in
      let acs_faulty = [ (node (n - 1), Behaviour.Silent) ] in
      let tc_msgs = ref 0 and tc_agreed = ref 0 in
      let acs_msgs = ref 0 and acs_agreed = ref 0 in
      sweep_seeds pool ~seeds (fun seed ->
          let tc_result =
            TcE.run
              (TcE.config ~n ~f:tc_f
                 ~inputs:(Tc.inputs ~n ~coin:Abc.Coin.local proposals)
                 ~faulty:tc_faulty ~adversary:Adversary.uniform ~seed ())
          in
          let tc_ok =
            match tc_result.TcE.outputs.(0) with
            | [ (_, Tc.Agreed _) ] -> true
            | _ -> false
          in
          let acs_result =
            MvE.run
              (MvE.config ~n ~f:acs_f
                 ~inputs:(Mv.inputs ~n ~coin:Abc.Coin.local proposals)
                 ~faulty:acs_faulty ~adversary:Adversary.uniform ~seed ())
          in
          let acs_ok =
            match acs_result.MvE.outputs.(0) with [ (_, _) ] -> true | _ -> false
          in
          ( Abc_sim.Metrics.counter tc_result.TcE.metrics "sent", tc_ok,
            Abc_sim.Metrics.counter acs_result.MvE.metrics "sent", acs_ok ))
      |> List.iter (fun (tc_sent, tc_ok, acs_sent, acs_ok) ->
             tc_msgs := !tc_msgs + tc_sent;
             if tc_ok then incr tc_agreed;
             acs_msgs := !acs_msgs + acs_sent;
             if acs_ok then incr acs_agreed);
      let per_seed v = float_of_int v /. float_of_int seeds in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int tc_f;
          Table.cell_int acs_f;
          Table.cell_float ~decimals:0 (per_seed !tc_msgs);
          Table.cell_float ~decimals:0 (per_seed !acs_msgs);
          Table.cell_ratio (float_of_int !acs_msgs /. float_of_int (max 1 !tc_msgs));
          Table.cell_percent (per_seed !tc_agreed);
          Table.cell_percent (per_seed !acs_agreed);
        ])
    [ 5; 9; 13 ];
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E14: lossy links — raw Bracha vs the reliable-channel transport    *)
(* ----------------------------------------------------------------- *)

(* The paper's network is reliable by assumption; this experiment
   measures what that assumption is worth.  Raw Bracha over a lossy
   network goes quiescent once a quorum message is dropped (no node
   ever re-sends), while the same protocol behind [Reliable_link]
   masks loss with acks and timer-driven retransmission and keeps
   deciding — at a bounded retransmission cost.  Expressed as the
   committed scenario spec: raw cells at positive loss are annotated
   expect-fail, reliable-link cells must decide at every loss rate. *)
let experiment_e14 pool = run_matrix_spec pool "bench/specs/e14.matrix"

(* ----------------------------------------------------------------- *)
(* E15: sweep throughput vs worker count, with a determinism check    *)
(* ----------------------------------------------------------------- *)

(* The sweep scaling experiment: expand the committed E1 scenario spec
   at jobs ∈ {1, 2, 4, 8} and report seeds/sec.  The rendered CSV must
   be byte-identical to the jobs=1 output at every worker count — that
   is the pool's determinism contract, asserted here over the matrix
   runner and again by the CI jobs-matrix on abc-bench's JSON output.
   Wall-clock speedup tracks the host's core count; on a single-core
   runner every row measures ~1x, which is itself the jobs=1 fallback
   working. *)
let experiment_e15 _pool =
  let spec = matrix_spec "bench/specs/e1.matrix" in
  let cells = Matrix_spec.expand spec in
  let total_seeds =
    List.fold_left
      (fun acc cell -> acc + Matrix_spec.find_int cell "seeds" ~default:10)
      0 cells
  in
  let slice jobs =
    let pool = Abc_exec.Pool.create ~jobs () in
    Table.csv (Matrix_runner.table (Matrix_runner.run ~pool spec))
  in
  let table =
    Table.create ~id:"e15"
      ~title:
        (Printf.sprintf
           "E15. Parallel sweep throughput over the E1 matrix spec (%d cells, \
            %d runs; host reports %d recommended domains)"
           (List.length cells) total_seeds
           (Domain.recommended_domain_count ()))
      ~columns:[ "jobs"; "seconds"; "seeds/sec"; "speedup"; "csv = jobs1" ]
      ()
  in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let csv = slice jobs in
    let dt = Unix.gettimeofday () -. t0 in
    (csv, dt)
  in
  let reference_csv, t1 = timed 1 in
  let row jobs (csv, dt) =
    Table.add_row table
      [
        Table.cell_int jobs;
        Table.cell_float ~decimals:3 dt;
        Table.cell_float ~decimals:0 (float_of_int total_seeds /. dt);
        Table.cell_ratio (t1 /. dt);
        (if String.equal csv reference_csv then "yes" else "DIVERGED");
      ]
  in
  row 1 (reference_csv, t1);
  List.iter (fun jobs -> row jobs (timed jobs)) [ 2; 4; 8 ];
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E16: bandwidth — per-node bytes vs payload size per broadcast      *)
(* ----------------------------------------------------------------- *)

(* Byte-level bandwidth of the three reliable broadcasts, from the
   engine's bytes.sent counters (trace schema v3).  Bracha floods the
   full payload in all three phases: O(n |m|) bytes per node.  The
   erasure-coded dispersal carries one |m|/(n-2f) Reed-Solomon
   fragment plus a Merkle branch per message: O(|m| + n log n) per
   node.  Imbs-Raynal still floods the full payload but drops one of
   the three phases (and tolerates only f < n/5, so it runs at its own
   maximal f).  Acceptance claim asserted here: coded per-node bytes
   strictly below Bracha at every payload >= 16 KiB for every n. *)

module Bracha_str = Abc.Bracha_rbc.Make (Abc.Payloads.String_payload)
module Ir_str = Abc.Ir_rbc.Make (Abc.Payloads.String_payload)
module BrsE = Abc_net.Engine.Make (Bracha_str)
module CodE = Abc_net.Engine.Make (Abc.Coded_rbc)
module IrsE = Abc_net.Engine.Make (Ir_str)

let e16_payload ~bytes ~seed =
  String.init bytes (fun i -> Char.chr ((seed + (131 * i)) land 0xFF))

let e16_bracha ~n ~f ~seed payload =
  let config =
    BrsE.config ~n ~f
      ~inputs:(Bracha_str.inputs ~n ~sender:(node 0) payload)
      ~adversary:Adversary.uniform ~seed ()
  in
  Abc_sim.Metrics.counter (BrsE.run config).BrsE.metrics "bytes.sent"

let e16_coded ~n ~f ~seed payload =
  let config =
    CodE.config ~n ~f
      ~inputs:(Abc.Coded_rbc.inputs ~n ~sender:(node 0) payload)
      ~adversary:Adversary.uniform ~seed ()
  in
  Abc_sim.Metrics.counter (CodE.run config).CodE.metrics "bytes.sent"

let e16_ir ~n ~f ~seed payload =
  let config =
    IrsE.config ~n ~f
      ~inputs:(Ir_str.inputs ~n ~sender:(node 0) payload)
      ~adversary:Adversary.uniform ~seed ()
  in
  Abc_sim.Metrics.counter (IrsE.run config).IrsE.metrics "bytes.sent"

let experiment_e16 pool =
  let seeds = scaled 5 in
  let table =
    Table.create ~id:"e16"
      ~title:"E16 bandwidth per node bracha vs coded vs ir"
      ~columns:
        [ "payload B"; "n"; "f"; "bracha B/node"; "coded B/node"; "ir f";
          "ir B/node"; "coded/bracha"; "coded < bracha" ]
      ()
  in
  Printf.printf
    "E16. Per-node sent bytes, fault-free uniform scheduler, %d seeds per cell\n"
    seeds;
  List.iter
    (fun bytes ->
      List.iter
        (fun n ->
          let f = bracha_max_f n in
          let f_ir = benor_max_f n in
          let runs =
            sweep_seeds pool ~seeds (fun seed ->
                let payload = e16_payload ~bytes ~seed in
                ( e16_bracha ~n ~f ~seed payload,
                  e16_coded ~n ~f ~seed payload,
                  e16_ir ~n ~f:f_ir ~seed payload ))
          in
          let per_node total = float_of_int total /. float_of_int (n * seeds) in
          let bracha_b = per_node (List.fold_left (fun a (b, _, _) -> a + b) 0 runs) in
          let coded_b = per_node (List.fold_left (fun a (_, c, _) -> a + c) 0 runs) in
          let ir_b = per_node (List.fold_left (fun a (_, _, i) -> a + i) 0 runs) in
          (* strict per-seed comparison, not just on the means *)
          let coded_wins = List.for_all (fun (b, c, _) -> c < b) runs in
          if bytes >= 16384 && not coded_wins then
            failwith
              (Printf.sprintf
                 "E16: coded RBC not below Bracha at payload=%d n=%d" bytes n);
          Table.add_row table
            [
              Table.cell_int bytes;
              Table.cell_int n;
              Table.cell_int f;
              Table.cell_float ~decimals:0 bracha_b;
              Table.cell_float ~decimals:0 coded_b;
              Table.cell_int f_ir;
              Table.cell_float ~decimals:0 ir_b;
              Table.cell_ratio (coded_b /. bracha_b);
              (if coded_wins then "yes" else "NO");
            ])
        [ 7; 10; 13 ])
    [ 1024; 4096; 16384; 65536 ];
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E17: atomic broadcast — committed tx/sec vs batch size and n      *)
(* ----------------------------------------------------------------- *)

(* Throughput of the batched, pipelined atomic broadcast (epoch = one
   ACS over coded-RBC; see PROTOCOLS.md).  Virtual-time metrics keep
   every cell deterministic at any worker count: committed tx per
   kilotick rather than wall-clock tx/sec.  Acceptance claims asserted
   here, mirroring E16's per-seed guards: (1) committed tx/ktick at
   batch=1024 strictly above batch=16 for every n and every seed
   (agreement cost amortizes over the batch); (2) per-node per-tx
   bytes at the largest batch strictly lower at n=13 than at n=4 for
   every seed (the coded dispersal spreads each batch across more
   links).

   The sweep holds f = 1 fixed as n grows: that isolates the
   O(|batch|/n) dispersal term, since Reed-Solomon fragments shrink as
   |batch|/(n - 2f).  At maximal resilience (f growing with n) the
   coding rate n/(n - 2f) climbs from 2 toward 3 and per-tx bytes
   plateau instead of falling — measured in the E17 notes in
   EXPERIMENTS.md. *)

module Atomic = Abc_smr.Atomic_broadcast
module AtomE = Abc_net.Engine.Make (Atomic)

let e17_epochs = 2

let e17_run ~n ~f ~batch ~seed =
  let mempools =
    Array.init n (fun i ->
        Abc_smr.Workload.txs
          (Abc_smr.Workload.generate ~seed ~node:(node i)
             ~count:(batch * e17_epochs) ~rate:1.0 ~tx_bytes:64))
  in
  let config =
    AtomE.config ~n ~f
      ~inputs:
        (Atomic.inputs ~n ~window:2 ~batch_size:batch ~epochs:e17_epochs
           ~coin_seed:(seed + 7919) mempools)
      ~adversary:Adversary.uniform ~seed ()
  in
  let result = AtomE.run config in
  let committed =
    match Atomic.log_of_outputs result.AtomE.outputs.(0) with
    | Some log -> List.length log
    | None -> 0
  in
  let duration = max 1 result.AtomE.duration in
  let bytes = Abc_sim.Metrics.counter result.AtomE.metrics "bytes.sent" in
  ( 1000. *. float_of_int committed /. float_of_int duration,
    float_of_int bytes /. float_of_int (n * max 1 committed),
    committed,
    duration )

let experiment_e17 pool =
  let seeds = scaled 3 in
  let batches = [ 16; 64; 256; 1024 ] in
  let small_batch = List.hd batches in
  let large_batch = List.nth batches (List.length batches - 1) in
  let table =
    Table.create ~id:"e17" ~title:"E17 atomic broadcast throughput"
      ~columns:
        [ "n"; "f"; "batch"; "committed"; "ticks/epoch"; "tx/ktick";
          "B/tx per node"; "batch amortizes" ]
      ()
  in
  Printf.printf
    "E17. Committed throughput, %d epochs, window 2, 64 B txs, f=1, \
     fault-free uniform scheduler, %d seeds per cell\n"
    e17_epochs seeds;
  (* per-seed per-tx bytes at the largest batch, per n (guard 2) *)
  let per_tx_at_large = ref [] in
  List.iter
    (fun n ->
      (* fixed fault budget — see the header comment *)
      let f = 1 in
      let cells =
        List.map
          (fun batch ->
            (batch, sweep_seeds pool ~seeds (fun seed -> e17_run ~n ~f ~batch ~seed)))
          batches
      in
      let runs_of batch = List.assoc batch cells in
      List.iter
        (fun (batch, runs) ->
          let mean field =
            List.fold_left (fun a r -> a +. field r) 0. runs
            /. float_of_int seeds
          in
          let txktick (t, _, _, _) = t in
          let per_tx (_, b, _, _) = b in
          (* guard 1: strict per-seed amortization, not just on means *)
          let amortizes =
            List.for_all2
              (fun big small -> txktick big > txktick small)
              (runs_of large_batch) (runs_of small_batch)
          in
          if batch = large_batch && not amortizes then
            failwith
              (Printf.sprintf
                 "E17: tx/ktick at batch=%d not above batch=%d at n=%d"
                 large_batch small_batch n);
          if batch = large_batch then
            per_tx_at_large := (n, List.map per_tx runs) :: !per_tx_at_large;
          Table.add_row table
            [
              Table.cell_int n;
              Table.cell_int f;
              Table.cell_int batch;
              Table.cell_int
                (List.fold_left (fun a (_, _, c, _) -> a + c) 0 runs / seeds);
              Table.cell_float ~decimals:0
                (mean (fun (_, _, _, d) ->
                     float_of_int d /. float_of_int e17_epochs));
              Table.cell_float (mean txktick);
              Table.cell_float ~decimals:0 (mean per_tx);
              (if amortizes then "yes" else "NO");
            ])
        cells)
    [ 4; 7; 10; 13 ];
  (* guard 2: coded dissemination gets cheaper per tx as n grows *)
  (match
     (List.assoc_opt 4 !per_tx_at_large, List.assoc_opt 13 !per_tx_at_large)
   with
  | Some at4, Some at13 ->
    if not (List.for_all2 (fun b4 b13 -> b13 < b4) at4 at13) then
      failwith
        (Printf.sprintf
           "E17: per-tx bytes at n=13 not below n=4 at batch=%d" large_batch)
  | _ -> ());
  Table.print table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E18: crash recovery — checkpoint GC bound and catch-up latency    *)
(* ----------------------------------------------------------------- *)

(* Two claims from the recovery layer (PROTOCOLS.md, PBFT §4.4 style):
   (1) with checkpoints every C epochs the high-water mark of
   concurrently live epoch agreements stays bounded near window + C
   while the GC-off control grows linearly with run length — asserted
   per seed as strictly below the control, whose high-water mark must
   equal the epoch count exactly; (2) a replica that crashes and
   rejoins resumes committing shortly after its rejoin tick, with
   denser checkpoints buying cheaper catch-up (fresher stable point,
   shorter suffix).  The GC-off control sets C = epochs + 1: no
   boundary below the final epoch is ever crossed early enough to
   prune, but Gc_stats is still emitted, so both arms are measured
   identically. *)

let e18_epochs = 12
let e18_batch = 4

let e18_run ~n ~f ~interval ~crash ~seed =
  let mempools =
    Array.init n (fun i ->
        Abc_smr.Workload.txs
          (Abc_smr.Workload.generate ~seed ~node:(node i)
             ~count:(e18_batch * e18_epochs) ~rate:0.5 ~tx_bytes:32))
  in
  let inputs =
    Atomic.inputs ~n ~window:2 ~checkpoint_interval:interval
      ~batch_size:e18_batch ~epochs:e18_epochs ~coin_seed:(seed + 7919)
      mempools
  in
  let faulty =
    List.map (fun (i, plan) -> (node i, Behaviour.Crash_recover plan)) crash
  in
  let recovery = { AtomE.snapshot = Atomic.snapshot; restore = Atomic.restore } in
  let result =
    AtomE.run
      (AtomE.config ~n ~f ~inputs ~faulty ~adversary:Adversary.uniform ~seed
         ~recovery ())
  in
  if result.AtomE.stop <> Abc_net.Engine.All_terminal then
    failwith "E18: run did not reach all-terminal";
  result

let e18_stats result i =
  match Atomic.stats_of_outputs result.AtomE.outputs.(i) with
  | Some s -> s
  | None -> failwith "E18: Gc_stats missing from outputs"

let experiment_e18 pool =
  let seeds = scaled 3 in
  let n = 4 and f = 1 in
  let off = e18_epochs + 1 in
  let meani field runs =
    List.fold_left (fun a r -> a +. float_of_int (field r)) 0. runs
    /. float_of_int seeds
  in
  Printf.printf
    "E18. Crash recovery: GC bound and catch-up latency, n=%d f=%d, %d \
     epochs, batch %d, window 2, uniform scheduler, %d seeds per cell\n"
    n f e18_epochs e18_batch seeds;
  (* part A: fault-free, live-instance high-water mark vs interval *)
  let gc_table =
    Table.create ~id:"e18-gc" ~title:"E18 checkpoint GC bound"
      ~columns:[ "C"; "max live"; "checkpoints"; "transfers"; "bounded" ]
      ()
  in
  let gc_runs interval =
    sweep_seeds pool ~seeds (fun seed ->
        e18_stats (e18_run ~n ~f ~interval ~crash:[] ~seed) 0)
  in
  let off_runs = gc_runs off in
  List.iter
    (fun (ml, _, _) ->
      if ml <> e18_epochs then
        failwith "E18: GC-off high-water mark should equal the epoch count")
    off_runs;
  let add_gc_row label runs bounded =
    Table.add_row gc_table
      [
        label;
        Table.cell_float ~decimals:1 (meani (fun (ml, _, _) -> ml) runs);
        Table.cell_float ~decimals:1 (meani (fun (_, cp, _) -> cp) runs);
        Table.cell_float ~decimals:1 (meani (fun (_, _, tr) -> tr) runs);
        bounded;
      ]
  in
  List.iter
    (fun interval ->
      let runs = gc_runs interval in
      let bounded =
        List.for_all2
          (fun (on, _, _) (off, _, _) -> on < off)
          runs off_runs
      in
      if not bounded then
        failwith
          (Printf.sprintf "E18: max live with C=%d not below the GC-off run"
             interval);
      add_gc_row (Table.cell_int interval) runs "yes")
    [ 2; 3; 6 ];
  add_gc_row "off" off_runs "-";
  Table.print gc_table;
  print_newline ();
  (* part B: crash one replica mid-run, measure rejoin-to-first-commit *)
  let victim = n - 1 in
  let rejoin = 2500 in
  let latency_table =
    Table.create ~id:"e18-latency" ~title:"E18 recovery latency"
      ~columns:[ "C"; "latency ticks"; "transfers"; "max live" ]
      ()
  in
  List.iter
    (fun interval ->
      let runs =
        sweep_seeds pool ~seeds (fun seed ->
            let result =
              e18_run ~n ~f ~interval
                ~crash:[ (victim, [ (400, rejoin) ]) ]
                ~seed
            in
            let log i = Atomic.log_of_outputs result.AtomE.outputs.(i) in
            (match (log 0, log victim) with
            | Some a, Some b when a = b -> ()
            | _ -> failwith "E18: recovered replica's log diverged");
            (* first commit progress at the victim after its rejoin:
               Epoch_committed for live epochs, or Log_complete when the
               tail arrived wholesale via state transfer *)
            let first =
              List.fold_left
                (fun acc (t, out) ->
                  match out with
                  | (Atomic.Epoch_committed _ | Atomic.Log_complete _)
                    when t >= rejoin ->
                    Some (match acc with None -> t | Some x -> min x t)
                  | _ -> acc)
                None
                result.AtomE.outputs.(victim)
            in
            let latency =
              match first with
              | Some t -> t - rejoin
              | None -> failwith "E18: no commit after rejoin"
            in
            let ml, _, transfers = e18_stats result victim in
            (latency, transfers, ml))
      in
      Table.add_row latency_table
        [
          Table.cell_int interval;
          Table.cell_float ~decimals:0 (meani (fun (l, _, _) -> l) runs);
          Table.cell_float ~decimals:1 (meani (fun (_, tr, _) -> tr) runs);
          Table.cell_float ~decimals:1 (meani (fun (_, _, ml) -> ml) runs);
        ])
    [ 1; 2; 3; 6 ];
  Table.print latency_table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E19: engine hot path — wall-clock and events/sec up to n=256      *)
(* ----------------------------------------------------------------- *)

(* The wall-clock side of bench/specs/e19_engine.matrix: one Bracha
   broadcast and one full MMR consensus per n at maximal resilience,
   timed end to end on one domain.  "Events" are engine deliveries —
   the unit of hot-path work (one arena removal, one protocol step,
   one metrics/trace update) that PERFORMANCE.md budgets against.
   Message/byte/tick counts and verdicts for the same cells are
   pinned by the matrix spec and the CI bench gate; this table
   reports the wall-clock the --no-wall exports deliberately zero
   out.  Runs sequentially (never on the pool): overlapping runs
   would time each other. *)
let experiment_e19 _pool =
  let seeds = scaled 2 in
  let table =
    Table.create ~id:"e19"
      ~title:
        (Printf.sprintf
           "E19. Engine scale at max resilience, uniform scheduler (%d seeds \
            per cell, sequential)"
           seeds)
      ~columns:
        [ "protocol"; "n"; "f"; "msgs/run"; "ticks/run"; "wall s"; "events/sec" ]
      ()
  in
  (* Every run goes through the registry, the matrix cells' own path:
     bracha-rbc broadcasts 16 bytes, mmr decides on split inputs. *)
  let row protocol (n, f) =
    let sc = { (Abc_matrix.Registry.scenario ~protocol ~n ~f) with payload = 16 } in
    let t0 = Unix.gettimeofday () in
    let events = ref 0 and msgs = ref 0 and ticks = ref 0 in
    for seed = 1 to seeds do
      match Abc_matrix.Registry.run sc ~seed with
      | Error msg -> failwith msg
      | Ok r ->
        if protocol = "mmr" && not r.outcome.decided then
          failwith (Printf.sprintf "E19: mmr n=%d seed=%d did not decide" n seed);
        events := !events + Abc_sim.Metrics.counter r.metrics "delivered";
        msgs := !msgs + r.outcome.messages;
        ticks := !ticks + r.outcome.ticks
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Table.add_row table
      [ protocol; Table.cell_int n; Table.cell_int f; Table.cell_int (!msgs / seeds);
        Table.cell_int (!ticks / seeds); Table.cell_float ~decimals:3 dt;
        Table.cell_float ~decimals:0 (float_of_int !events /. dt) ]
  in
  let arms = [ (16, 5); (64, 21); (128, 42); (256, 85) ] in
  List.iter (row "bracha-rbc") arms;
  List.iter (row "mmr") arms;
  Table.print table;
  print_newline ()

let experiments =
  [
    ("E1", "reliable broadcast correctness", experiment_e1);
    ("E2", "resilience boundary sweep", experiment_e2);
    ("E3", "rounds vs n at max resilience", experiment_e3);
    ("E4", "rounds with f = sqrt(n)", experiment_e4);
    ("E5", "message complexity", experiment_e5);
    ("E6", "local vs common coin", experiment_e6);
    ("E7", "validation/transport ablation", experiment_e7);
    ("E8", "wall-clock microbenchmarks", experiment_e8);
    ("E9", "replicated log throughput", experiment_e9);
    ("E10", "bracha 1984 vs mmr 2014", experiment_e10);
    ("E11", "idealized vs implemented common coin", experiment_e11);
    ("E12", "connectivity threshold over flooding", experiment_e12);
    ("E13", "turpin-coan vs acs multivalued", experiment_e13);
    ("E14", "lossy links vs reliable transport", experiment_e14);
    ("E15", "parallel sweep throughput + determinism", experiment_e15);
    ("E16", "per-node bandwidth: bracha vs coded vs ir", experiment_e16);
    ("E17", "atomic broadcast: committed tx throughput", experiment_e17);
    ("E18", "crash recovery: GC bound and catch-up latency", experiment_e18);
    ("E19", "engine scale: wall-clock and events/sec to n=256", experiment_e19);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    if List.mem "quick" args then begin
      seeds_scale := 0.25;
      List.filter (fun a -> a <> "quick") args
    end
    else args
  in
  let args =
    if List.mem "csv" args then begin
      Abc_sim.Table.set_csv_directory (Some "bench_results");
      List.filter (fun a -> a <> "csv") args
    end
    else args
  in
  (* --jobs N overrides the worker count (ABC_JOBS, else cores - 1). *)
  let jobs, args =
    let rec extract acc = function
      | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 -> (Some j, List.rev_append acc rest)
        | Some _ | None ->
          prerr_endline "bench: --jobs expects a positive integer";
          exit 2)
      | a :: rest -> extract (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    extract [] args
  in
  let pool = Abc_exec.Pool.create ?jobs () in
  (* Every mode emits the machine-readable BENCH_*.json run summaries
     (see OBSERVABILITY.md); CSVs remain opt-in via the csv arg. *)
  Abc_sim.Table.set_json_directory (Some "bench_results");
  Abc_sim.Table.set_run_meta
    [
      ("harness", Abc_sim.Json.String "abc-bench");
      ("seeds_scale", Abc_sim.Json.Float !seeds_scale);
      ("jobs", Abc_sim.Json.Int (Abc_exec.Pool.jobs pool));
    ];
  let selected =
    match args with
    | [] -> experiments
    | names -> List.filter (fun (id, _, _) -> List.mem id names) experiments
  in
  Printf.printf
    "Asynchronous Byzantine Consensus (PODC 1984) — experiment harness\n\
     Deterministic: every cell is a function of its seeds (at any --jobs).\n\n";
  List.iter
    (fun (id, label, run) ->
      Printf.printf "--- %s: %s ---\n" id label;
      run pool)
    selected
