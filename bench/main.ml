(* Experiment harness: regenerates every table/figure of the
   reproduction (EXPERIMENTS.md records paper-vs-measured).

     dune exec bench/main.exe              # all experiment tables + microbench
     dune exec bench/main.exe -- E3 E6     # selected experiments
     dune exec bench/main.exe -- csv       # also write bench_results/*.csv

   The 1984 paper proves theorems rather than reporting measurements;
   each experiment operationalizes one theorem-level claim (see
   DESIGN.md for the mapping).

   Every run is an Abc_matrix.Registry scenario, the same path as
   `abc-bench` and `abc-run`.  E1-E7 and E9-E18 run their committed
   bench/specs/*.matrix through the matrix runner, the code `abc-bench
   run` runs; E5, E6, E10, E11 and E16-E18 print lines or tables of
   their own as views over the cells' metrics and seed-ordered
   outcomes.  E8, E15 and E19 (over e19_engine.matrix's cells) time.
   A word that is neither `csv`, `--jobs N` nor an experiment id is
   bad input: one line, exit 2. *)

module Registry = Abc_matrix.Registry
module Table = Abc_sim.Table
module Summary = Abc_sim.Summary
module Matrix_spec = Abc_matrix.Spec
module Matrix_runner = Abc_matrix.Runner

(* With [csv] among the arguments, every table printed is also written
   to bench_results/<slug>.csv, relative to the working directory. *)
let csv = Array.exists (String.equal "csv") Sys.argv

let print_table t =
  Table.print t;
  if csv then begin
    (try Unix.mkdir "bench_results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Out_channel.with_open_bin
      (Filename.concat "bench_results" (Table.slug t ^ ".csv"))
      (fun oc -> Out_channel.output_string oc (Table.csv t))
  end

(* The spec-driven tables run the committed scenario specs, relative to
   the working directory — the same files `abc-bench run` executes, so
   the harness and the CI bench gate cannot drift apart.  Any cell
   missing its expected verdict aborts the harness, naming the cell. *)
let matrix_spec path =
  match Matrix_spec.load path with
  | Ok spec -> spec
  | Error e -> failwith (Abc_matrix.Sexp.error_to_string e)

let cell_seeds cell = Matrix_spec.find_int cell "seeds" ~default:10

let run_matrix_spec ?(table = true) pool id =
  let result = Matrix_runner.run ~pool (matrix_spec (Printf.sprintf "bench/specs/%s.matrix" id)) in
  if table then print_table (Matrix_runner.table result);
  let key (c : Matrix_runner.cell_result) =
    String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (Matrix_spec.cell_key c.cell))
  in
  match Matrix_runner.failures result with
  | [] -> result
  | failed ->
    failwith
      (Printf.sprintf "%s: %d matrix cell(s) missed their expected verdict: %s" id
         (List.length failed) (String.concat "; " (List.map key failed)))

let spec_table id pool =
  ignore (run_matrix_spec pool id);
  print_newline ()

(* A result's cells for one protocol, in cell order, and the one cell
   whose scenario [p] selects. *)
let cells_of (r : Matrix_runner.t) protocol =
  List.filter (fun (c : Matrix_runner.cell_result) -> c.scenario.protocol = protocol) r.cells

let cell_where (r : Matrix_runner.t) p =
  match List.filter (fun (c : Matrix_runner.cell_result) -> p c.scenario) r.cells with
  | [ c ] -> c
  | cells ->
    failwith (Printf.sprintf "%s: %d cells match, not one" (Matrix_spec.id r.spec) (List.length cells))

(* E1: reliable broadcast correctness; E2: the resilience boundary;
   E3, E4: rounds to decide at f = max and f = sqrt n. *)
let experiment_e1 = spec_table "e1"
let experiment_e2 = spec_table "e2"
let experiment_e3 = spec_table "e3"
let experiment_e4 = spec_table "e4"

(* Log-log slope fit for complexity experiments: least squares on
   (log n, log y). *)
let fitted_exponent points =
  let logs = List.map (fun (n, y) -> (log (float_of_int n), log y)) points in
  let k = float_of_int (List.length logs) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. logs in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. logs in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. logs in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. logs in
  ((k *. sxy) -. (sx *. sy)) /. ((k *. sxx) -. (sx *. sx))

(* E5: O(n^2) messages per RBC, O(n^3) per consensus round, as the
   log-log slope over the spec's one-seed cells. *)
let experiment_e5 pool =
  let r = run_matrix_spec pool "e5" in
  let fit protocol per_run =
    fitted_exponent
      (List.map
         (fun (c : Matrix_runner.cell_result) -> (c.scenario.n, per_run (List.hd c.outcomes)))
         (cells_of r protocol))
  in
  let per_round (o : Registry.outcome) = float_of_int o.messages /. float_of_int (max 1 o.rounds + 1) in
  Printf.printf "fitted exponents: rbc %.2f (theory 2), consensus %.2f (theory 3)\n\n"
    (fit "bracha-rbc-bit" (fun o -> float_of_int o.messages))
    (fit "bracha" per_round)

(* E6: local vs common coin, and the full rounds distributions of the
   n=16 cells, from their seed-ordered outcomes: the tail is the story. *)
let experiment_e6 pool =
  let r = run_matrix_spec pool "e6" in
  let rounds protocol =
    let h = Abc_sim.Histogram.create () in
    List.iter
      (fun (c : Matrix_runner.cell_result) ->
        if c.scenario.n = 16 then
          List.iter
            (fun o -> if Registry.decides o then Abc_sim.Histogram.add h o.Registry.rounds)
            c.outcomes)
      (cells_of r protocol);
    Abc_sim.Histogram.render h
  in
  Printf.printf "rounds-to-decide distribution at n=16 (local coin):\n%s" (rounds "bracha");
  Printf.printf "rounds-to-decide distribution at n=16 (common coin):\n%s\n" (rounds "bracha-cc");
  print_newline ()

(* E7: the validation and transport ablation. *)
let experiment_e7 = spec_table "e7"

(* ----------------------------------------------------------------- *)
(* E8: wall-clock microbenchmarks (Bechamel)                         *)
(* ----------------------------------------------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let module Rbc = Abc.Bracha_rbc.Binary in
  let node = Abc_net.Node_id.of_int in
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
  (* One seed of a scenario, named by its registry tokens. *)
  let full_run name tokens =
    let sc = Result.fold (Registry.of_tokens tokens) ~ok:Fun.id ~error:(fun (_, msg) -> failwith msg) in
    Test.make ~name (Staged.stage (fun () -> ignore (Registry.run sc ~seed:1)))
  in
  let full_rbc_run =
    full_run "full rbc run (n=7, f=2)"
      [ ("protocol", "bracha-rbc-bit"); ("n", "7"); ("f", "2"); ("adversary", "fifo") ]
  in
  let full_consensus_run =
    full_run "full consensus run (n=4, f=1)" [ ("protocol", "bracha"); ("n", "4"); ("f", "1") ]
  in
  let full_benor_run =
    full_run "full ben-or run (n=6, f=1)" [ ("protocol", "ben-or"); ("n", "6"); ("f", "1") ]
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

(* E9: replicated-log throughput. *)
let experiment_e9 = spec_table "e9"

(* E10: Bracha 1984 vs MMR 2014, then the safety ablation: MMR with a
   local coin loses agreement.  The ablation's spec prints its table,
   and its violations come from each cell's outcomes. *)
let experiment_e10 pool =
  spec_table "e10" pool;
  let r = run_matrix_spec pool "e10_coin" in
  let common = cell_where r (fun sc -> sc.coin = Some Registry.Common)
  and local = cell_where r (fun sc -> sc.coin = Some Registry.Local) in
  let violations (c : Matrix_runner.cell_result) =
    List.length (List.filter (fun (o : Registry.outcome) -> not (o.agreement && o.validity)) c.outcomes)
  in
  let { Registry.n; f; _ } = common.scenario in
  Printf.printf
    "coin safety ablation (n=%d, f=%d, split inputs, %d seeds):\n\
    \  common coin: %d agreement/validity violations\n\
    \  local coin:  %d agreement/validity violations  <- the common coin is a\n\
    \               safety requirement in MMR, unlike in Bracha's protocol\n\n"
    n f (List.length common.outcomes) (violations common) (violations local)

(* ----------------------------------------------------------------- *)
(* E11: the price of implementing the coin — idealized vs Rabin      *)
(* ----------------------------------------------------------------- *)

(* e11.matrix's cells, a row per n: rounds and messages are each
   cell's means over its seeds, share messages the mean of the Rabin
   cell's sent.share counts.  The title names each row's fault token. *)
let experiment_e11 pool =
  let r = run_matrix_spec ~table:false pool "e11" in
  let ideals = cells_of r "mmr" in
  let fault (c : Matrix_runner.cell_result) =
    Printf.sprintf "%s at n=%d" (Option.get (Registry.token ~axis:"fault" c.scenario)) c.scenario.n
  in
  let table =
    Table.create ~id:"e11"
      ~title:
        (Printf.sprintf
           "E11. MMR with idealized common coin vs implemented Rabin coin (share \
            exchange on the wire): split inputs, faults %s (%d seeds)"
           (String.concat ", " (List.map fault ideals))
           (List.length (List.hd ideals).outcomes))
      ~columns:
        [ "n"; "f"; "ideal rounds"; "ideal msgs"; "rabin rounds"; "rabin msgs";
          "share msgs"; "overhead" ]
      ()
  in
  List.iter
    (fun (ideal : Matrix_runner.cell_result) ->
      let { Registry.n; f; _ } = ideal.scenario in
      let rabin = cell_where r (fun sc -> sc.protocol = "mmr-rabin" && sc.n = n) in
      let shares = List.fold_left (fun a (o : Registry.outcome) -> a + o.shares) 0 rabin.outcomes in
      Table.add_row table
        [ Table.cell_int n; Table.cell_int f; Table.cell_float ideal.metrics.rounds;
          Table.cell_float ~decimals:0 ideal.metrics.messages; Table.cell_float rabin.metrics.rounds;
          Table.cell_float ~decimals:0 rabin.metrics.messages;
          Table.cell_float ~decimals:0 (float_of_int shares /. float_of_int (List.length rabin.outcomes));
          Table.cell_ratio (rabin.metrics.messages /. ideal.metrics.messages) ])
    ideals;
  print_table table;
  print_newline ()

(* E12: agreement over flood relaying vs vertex connectivity; E13:
   Turpin-Coan vs ACS; E14: lossy links vs the reliable-link
   transport. *)
let experiment_e12 = spec_table "e12"
let experiment_e13 = spec_table "e13"
let experiment_e14 = spec_table "e14"

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
      (fun acc cell -> acc + cell_seeds cell)
      0 cells
  in
  let slice jobs =
    let pool = Abc_exec.Pool.create ~jobs () in
    Table.csv (Matrix_runner.table (Matrix_runner.run ~pool spec))
  in
  let table =
    Table.create ~id:"e15"
      ~title:
        (Printf.sprintf "E15. Parallel sweep throughput over the E1 matrix spec (%d cells, %d runs)"
           (List.length cells) total_seeds)
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
  print_table table;
  (* Below the table, not in its title: the title names the CSV. *)
  Printf.printf "host reports %d recommended domains\n\n" (Domain.recommended_domain_count ())

(* ----------------------------------------------------------------- *)
(* E16: bandwidth — per-node bytes vs payload size per broadcast      *)
(* ----------------------------------------------------------------- *)

(* Byte-level bandwidth of the three reliable broadcasts, from the
   engine's bytes.sent counters (trace schema v3), over e16.matrix's
   cells.  Bracha floods the full payload in all three phases:
   O(n |m|) bytes per node.  The erasure-coded dispersal carries one
   |m|/(n-2f) Reed-Solomon fragment plus a Merkle branch per message:
   O(|m| + n log n) per node.  Imbs-Raynal still floods the full
   payload but drops one of the three phases (and tolerates only
   f < n/5, so it runs at its own maximal f).  Acceptance claim
   asserted here: coded per-node bytes strictly below Bracha on every
   seed at every payload >= 16 KiB for every n. *)

let experiment_e16 pool =
  let r = run_matrix_spec ~table:false pool "e16" in
  (* Bracha's cells payload by payload, n within each: the table's rows *)
  let rows =
    List.stable_sort
      (fun (a : Matrix_runner.cell_result) b -> Int.compare a.scenario.payload b.scenario.payload)
      (cells_of r "bracha-rbc")
  in
  Printf.printf "E16. Per-node sent bytes, fault-free uniform scheduler, %d seeds per cell\n"
    (List.length (List.hd rows).outcomes);
  let table =
    Table.create ~id:"e16" ~title:"E16 bandwidth per node bracha vs coded vs ir"
      ~columns:
        [ "payload B"; "n"; "f"; "bracha B/node"; "coded B/node"; "ir f";
          "ir B/node"; "coded/bracha"; "coded < bracha" ]
      ()
  in
  List.iter
    (fun (bracha : Matrix_runner.cell_result) ->
      let { Registry.n; f; payload; _ } = bracha.scenario in
      let at protocol = cell_where r (fun sc -> sc.protocol = protocol && sc.n = n && sc.payload = payload) in
      let coded = at "coded-rbc" and ir = at "ir-rbc" in
      let bytes (c : Matrix_runner.cell_result) = List.map (fun o -> o.Registry.bytes) c.outcomes in
      let per_node c =
        float_of_int (List.fold_left ( + ) 0 (bytes c)) /. float_of_int (n * List.length c.outcomes)
      in
      (* strict per-seed comparison, not just on the means *)
      let coded_wins = List.for_all2 (fun b c -> c < b) (bytes bracha) (bytes coded) in
      if payload >= 16384 && not coded_wins then
        failwith (Printf.sprintf "E16: coded RBC not below Bracha at payload=%d n=%d" payload n);
      Table.add_row table
        [ Table.cell_int payload; Table.cell_int n; Table.cell_int f;
          Table.cell_float ~decimals:0 (per_node bracha); Table.cell_float ~decimals:0 (per_node coded);
          Table.cell_int ir.scenario.f; Table.cell_float ~decimals:0 (per_node ir);
          Table.cell_ratio (per_node coded /. per_node bracha); (if coded_wins then "yes" else "NO") ])
    rows;
  print_table table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E17: atomic broadcast — committed tx/sec vs batch size and n      *)
(* ----------------------------------------------------------------- *)

(* Throughput of the batched, pipelined atomic broadcast (epoch = one
   ACS over coded-RBC; see PROTOCOLS.md), over e17.matrix's cells.
   Virtual-time metrics keep every cell deterministic at any worker
   count: committed tx per kilotick rather than wall-clock tx/sec.
   Acceptance claims asserted here, mirroring E16's per-seed guard:
   (1) committed tx/ktick at the largest batch strictly above the
   smallest for every n and every seed (agreement cost amortizes over
   the batch); (2) per-node per-tx bytes at the largest batch strictly
   lower at the largest n than at the smallest for every seed (the
   coded dispersal spreads each batch across more links).

   The sweep holds f = 1 fixed as n grows: that isolates the
   O(|batch|/n) dispersal term, since Reed-Solomon fragments shrink as
   |batch|/(n - 2f).  At maximal resilience (f growing with n) the
   coding rate n/(n - 2f) climbs from 2 toward 3 and per-tx bytes
   plateau instead of falling — measured in the E17 notes in
   EXPERIMENTS.md. *)

let experiment_e17 pool =
  let r = run_matrix_spec ~table:false pool "e17" in
  let { Registry.epochs; window; payload; f; _ } = (List.hd r.cells).scenario in
  let seeds = List.length (List.hd r.cells).outcomes in
  Printf.printf
    "E17. Committed throughput, %d epochs, window %d, %d B txs, f=%d, \
     fault-free uniform scheduler, %d seeds per cell\n"
    epochs window payload f seeds;
  let values field =
    List.sort_uniq Int.compare (List.map (fun (c : Matrix_runner.cell_result) -> field c.scenario) r.cells)
  in
  let ns = values (fun sc -> sc.n) and batches = values (fun sc -> sc.batch) in
  let last l = List.nth l (List.length l - 1) in
  let small_n, large_n, small, large = (List.hd ns, last ns, List.hd batches, last batches) in
  let runs n batch = (cell_where r (fun sc -> sc.n = n && sc.batch = batch)).outcomes in
  let duration (o : Registry.outcome) = max 1 o.ticks in
  let txktick (o : Registry.outcome) = 1000. *. float_of_int o.committed /. float_of_int (duration o) in
  let per_tx n (o : Registry.outcome) = float_of_int o.bytes /. float_of_int (n * max 1 o.committed) in
  (* guard 1: strict per-seed amortization, not just on means *)
  List.iter
    (fun n ->
      if not (List.for_all2 (fun big small -> txktick big > txktick small) (runs n large) (runs n small)) then
        failwith (Printf.sprintf "E17: tx/ktick at batch=%d not above batch=%d at n=%d" large small n))
    ns;
  (* guard 2: coded dissemination gets cheaper per tx as n grows *)
  let per_tx_at n = List.map (per_tx n) (runs n large) in
  if not (List.for_all2 (fun small big -> big < small) (per_tx_at small_n) (per_tx_at large_n)) then
    failwith (Printf.sprintf "E17: per-tx bytes at n=%d not below n=%d at batch=%d" large_n small_n large);
  let table =
    Table.create ~id:"e17" ~title:"E17 atomic broadcast throughput"
      ~columns:
        [ "n"; "f"; "batch"; "committed"; "ticks/epoch"; "tx/ktick";
          "B/tx per node"; "batch amortizes" ]
      ()
  in
  List.iter
    (fun (c : Matrix_runner.cell_result) ->
      let { Registry.n; f; batch; _ } = c.scenario and runs = c.outcomes in
      let mean field = List.fold_left (fun a o -> a +. field o) 0. runs /. float_of_int seeds in
      Table.add_row table
        [ Table.cell_int n; Table.cell_int f; Table.cell_int batch;
          Table.cell_int (List.fold_left (fun a (o : Registry.outcome) -> a + o.committed) 0 runs / seeds);
          Table.cell_float ~decimals:0 (mean (fun o -> float_of_int (duration o) /. float_of_int epochs));
          Table.cell_float (mean txktick); Table.cell_float ~decimals:0 (mean (per_tx n)); "yes" ])
    r.cells;
  print_table table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E18: crash recovery — checkpoint GC bound and catch-up latency    *)
(* ----------------------------------------------------------------- *)

(* Two claims from the recovery layer (PROTOCOLS.md, PBFT §4.4 style),
   over e18.matrix's cells: (1) with checkpoints every C epochs the
   high-water mark of concurrently live epoch agreements stays bounded
   near window + C while the GC-off control grows linearly with run
   length — asserted per seed as strictly below the control, whose
   high-water mark must equal the epoch count exactly; (2) a replica
   that crashes and rejoins resumes committing shortly after its
   rejoin tick, with denser checkpoints buying cheaper catch-up
   (fresher stable point, shorter suffix).  The GC-off control sets
   C = epochs + 1: no boundary below the final epoch is ever crossed
   early enough to prune, but Gc_stats is still emitted, so both arms
   are measured identically.  The spec's decide oracle makes every run
   commit one agreeing log at every replica, a recovered one included,
   which also puts a Gc_stats in every replica's outputs. *)

let experiment_e18 pool =
  let r = run_matrix_spec ~table:false pool "e18" in
  let { Registry.n; f; epochs; batch; window; _ } = (List.hd r.cells).scenario in
  let seeds = List.length (List.hd r.cells).outcomes in
  Printf.printf
    "E18. Crash recovery: GC bound and catch-up latency, n=%d f=%d, %d \
     epochs, batch %d, window %d, uniform scheduler, %d seeds per cell\n"
    n f epochs batch window seeds;
  let meani field runs =
    List.fold_left (fun a r -> a +. float_of_int (field r)) 0. runs /. float_of_int seeds
  in
  let replica i (c : Matrix_runner.cell_result) = List.map (fun o -> o.Registry.replicas.(i)) c.outcomes in
  let fault_free, crashed =
    List.partition (fun (c : Matrix_runner.cell_result) -> c.scenario.crash = []) r.cells
  in
  (* part A: fault-free, node 0's live-instance high-water mark vs interval *)
  let gc_table =
    Table.create ~id:"e18-gc" ~title:"E18 checkpoint GC bound"
      ~columns:[ "C"; "max live"; "checkpoints"; "transfers"; "bounded" ]
      ()
  in
  let add_gc_row label runs bounded =
    Table.add_row gc_table
      [ label; Table.cell_float ~decimals:1 (meani (fun r -> r.Registry.max_live) runs);
        Table.cell_float ~decimals:1 (meani (fun r -> r.Registry.checkpoints) runs);
        Table.cell_float ~decimals:1 (meani (fun r -> r.Registry.transfers) runs); bounded ]
  in
  let off = cell_where r (fun sc -> sc.crash = [] && sc.checkpoint > sc.epochs) in
  let off_runs = replica 0 off in
  if List.exists (fun r -> r.Registry.max_live <> epochs) off_runs then
    failwith "E18: GC-off high-water mark should equal the epoch count";
  List.iter
    (fun (c : Matrix_runner.cell_result) ->
      let runs = replica 0 c in
      if not (List.for_all2 (fun on off -> on.Registry.max_live < off.Registry.max_live) runs off_runs) then
        failwith (Printf.sprintf "E18: max live with C=%d not below the GC-off run" c.scenario.checkpoint);
      add_gc_row (Table.cell_int c.scenario.checkpoint) runs "yes")
    (List.filter (fun c -> c != off) fault_free);
  add_gc_row "off" off_runs "-";
  print_table gc_table;
  print_newline ();
  (* part B: crash one replica mid-run, measure rejoin-to-first-commit *)
  let latency_table =
    Table.create ~id:"e18-latency" ~title:"E18 recovery latency"
      ~columns:[ "C"; "latency ticks"; "transfers"; "max live" ]
      ()
  in
  List.iter
    (fun (c : Matrix_runner.cell_result) ->
      let runs = replica (fst (List.hd c.scenario.crash)) c in
      if List.exists (fun r -> r.Registry.catch_up <= 0) runs then failwith "E18: no commit after rejoin";
      Table.add_row latency_table
        [ Table.cell_int c.scenario.checkpoint;
          Table.cell_float ~decimals:0 (meani (fun r -> r.Registry.catch_up) runs);
          Table.cell_float ~decimals:1 (meani (fun r -> r.Registry.transfers) runs);
          Table.cell_float ~decimals:1 (meani (fun r -> r.Registry.max_live) runs) ])
    crashed;
  print_table latency_table;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* E19: engine hot path — wall-clock and events/sec up to n=256      *)
(* ----------------------------------------------------------------- *)

(* The wall-clock side of bench/specs/e19_engine.matrix: each cell (a
   Bracha broadcast or an MMR consensus at maximal resilience) timed
   end to end over its seeds on one domain, every seed held to the
   cell's oracle.  "Events" are engine deliveries, the unit of hot-path
   work PERFORMANCE.md budgets against; the spec's baseline pins the
   counts and verdicts, and this table adds the wall-clock the
   --no-wall exports zero out.  Runs sequentially (never on the pool):
   overlapping runs would time each other.  A cell's wall time is the
   median of five passes over its seeds, each after a full major
   collection, so one pass's collections or a slow millisecond at n=16
   do not set it. *)
let e19_passes = 5

let experiment_e19 _pool =
  let cells =
    Result.fold (Matrix_runner.scenarios (matrix_spec "bench/specs/e19_engine.matrix")) ~ok:Fun.id
      ~error:(fun e -> failwith (Abc_matrix.Sexp.error_to_string e))
  in
  let table =
    Table.create ~id:"e19"
      ~title:
        (Printf.sprintf
           "E19. Engine scale at max resilience, uniform scheduler (%d seeds \
            per cell, sequential, median of %d passes)"
           (cell_seeds (fst (List.hd cells))) e19_passes)
      ~columns:
        [ "protocol"; "n"; "f"; "msgs/run"; "ticks/run"; "wall s"; "events/sec" ]
      ()
  in
  let row ((cell : Matrix_spec.cell), (sc : Registry.scenario)) =
    let seeds = cell_seeds cell and first = Matrix_spec.find_int cell "seed" ~default:0 in
    let pass () =
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let counts =
        List.init seeds (fun k ->
            match Registry.run sc ~seed:(first + k) with
            | Error msg -> failwith msg
            | Ok r ->
              if not (Matrix_runner.satisfies cell.oracle r.outcome) then
                failwith
                  (Printf.sprintf "E19: %s n=%d seed=%d missed %s" sc.protocol sc.n (first + k)
                     (Matrix_spec.oracle_label cell.oracle));
              (Abc_sim.Metrics.counter r.metrics "delivered", r.outcome.messages, r.outcome.ticks))
      in
      (Unix.gettimeofday () -. t0, counts)
    in
    let passes = List.init e19_passes (fun _ -> pass ()) in
    let dt = Summary.median (Option.get (Summary.of_list (List.map fst passes))) in
    let total field = List.fold_left (fun a c -> a + field c) 0 (snd (List.hd passes)) in
    Table.add_row table
      [ sc.protocol; Table.cell_int sc.n; Table.cell_int sc.f;
        Table.cell_int (total (fun (_, m, _) -> m) / seeds);
        Table.cell_int (total (fun (_, _, t) -> t) / seeds); Table.cell_float ~decimals:3 dt;
        Table.cell_float ~decimals:0 (float_of_int (total (fun (e, _, _) -> e)) /. dt) ]
  in
  List.iter row cells;
  print_table table;
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
  let args = List.filter (fun a -> a <> "csv") args in
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
  let selected = List.filter (fun (id, _, _) -> args = [] || List.mem id args) experiments in
  Option.iter
    (fun a ->
      Printf.eprintf "bench: unknown argument %S (csv, --jobs N or an experiment id E1 .. E19)\n" a;
      exit 2)
    (List.find_opt (fun a -> not (List.exists (fun (id, _, _) -> id = a) experiments)) args);
  let pool = Abc_exec.Pool.create ?jobs () in
  Printf.printf
    "Asynchronous Byzantine Consensus (PODC 1984) — experiment harness\n\
     Deterministic: every cell is a function of its seeds (at any --jobs).\n\n";
  List.iter
    (fun (id, label, run) ->
      Printf.printf "--- %s: %s ---\n" id label;
      run pool)
    selected
