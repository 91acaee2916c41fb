(* Smoke test of abc_perf.

   Every workload runs at toy size (rbc and mmr at n=16, atomic at n=4
   over 2 epochs, traced at n=4, a 6-cell sweep with 1 seed) through
   the end-to-end pass and the layer pass: verdicts hold, the timed
   runs hash like the plain ones, and each unit's layer self times add
   up to its span.  The metric names the passes print must be exactly
   those BENCHMARK.json lists.  [compare] runs over two fixture
   directories of three sets each. *)

module W = Abc_perf_lib.Workloads
module M = Abc_perf_lib.Measure
module R = Abc_perf_lib.Report
module Stats = Abc_perf_lib.Stats
module Json = Abc_sim.Json

let benchmark = R.read_file "../../../BENCHMARK.json"

let toy name = W.make ~size:W.Toy ~seed:1 name

let check_pass what (r : M.result) =
  Alcotest.(check bool) (what ^ ": ran units") true (r.M.attempted > 0);
  Alcotest.(check int) (what ^ ": failed units") 0 r.M.failed

let test_workload name () =
  let e2e = M.e2e ~seconds:0. ~setup_s:1. ~rss_of_unit:(fun _ -> 1.) (toy name) in
  check_pass (name ^ " e2e") e2e;
  let layers = M.layers ~seconds:0. (toy name) in
  (* A layer-pass unit fails when its timed digest differs. *)
  check_pass (name ^ " layers") layers;
  List.iter2
    (fun (a : M.sample) (b : M.sample) ->
      Alcotest.(check string) (name ^ ": e2e and layer digests") a.M.digest b.M.digest)
    (List.filteri (fun i _ -> i < layers.M.attempted) e2e.M.samples)
    (List.filteri (fun i _ -> i < e2e.M.attempted) layers.M.samples);
  List.iter
    (fun (sp : M.span) ->
      Alcotest.(check (float 1e-9))
        (name ^ ": self times sum to the span")
        sp.M.span_s
        (List.fold_left (fun acc (_, v) -> acc +. v) 0. sp.M.children))
    layers.M.spans;
  ignore (M.ordered M.e2e_metrics e2e);
  ignore (M.ordered M.layer_metrics layers);
  if String.equal name "atomic-crash" then
    Alcotest.(check bool) "the replica rejoins before the run ends" true
      (List.assoc "run.ticks" layers.M.metrics
      > float_of_int (snd (W.crash_window W.Toy)))

let listed key field =
  match Json.of_string benchmark with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Json.member key j with
    | Some (Json.List entries) ->
      List.map
        (fun e ->
          match Json.string_member field e with
          | Some v -> v
          | None -> Alcotest.failf "%s entry without %s" key field)
        entries
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key)

let test_names () =
  let check what expected key =
    Alcotest.(check (list string)) (what ^ " names") (List.map fst expected) (listed key "name");
    Alcotest.(check (list string)) (what ^ " units") (List.map snd expected) (listed key "unit")
  in
  check "end_to_end" M.e2e_metrics "end_to_end";
  check "per_layer" M.layer_metrics "per_layer";
  Alcotest.(check (list string)) "workloads" W.names (listed "workloads" "name")

let test_quantiles () =
  let ints = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (list (float 1e-12))) "quartiles of 1..10" [ 2.75; 5.5; 8.25 ]
    (Stats.quantiles ~n:4 ints);
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "p50/p90 of 1..10" (5.5, 9.9)
    (Stats.p50_p90 ints);
  Alcotest.(check (list (float 1e-12))) "three points" [ 1.; 2.; 3. ]
    (Stats.quantiles ~n:4 [ 3.; 1.; 2. ])

let compare a b =
  R.compare_sets ~bounds:(R.bounds_of_benchmark benchmark) ~a:(R.load_sets a)
    ~b:(R.load_sets b)

(* Fixture b against a: run_s_p50 is 30% slower (worse), events_per_s
   spreads 60% (unresolved), the rest stay inside their bounds, and b's
   third set counted one tick more. *)
let test_compare () =
  let c = compare "fixtures/a" "fixtures/b" in
  let verdict name =
    match List.find_opt (fun r -> String.equal r.R.metric.R.name name) c.R.rows with
    | Some r -> R.verdict_label r.R.result
    | None -> Alcotest.failf "no row for %s" name
  in
  List.iter
    (fun (name, expected) -> Alcotest.(check string) name expected (verdict name))
    [
      ("setup_s", "within");
      ("run_s_p50", "worse");
      ("run_s_p90", "within");
      ("events_per_s", "unresolved");
      ("peak_rss_mb", "within");
    ];
  Alcotest.(check (list string)) "counter mismatches"
    [ "rbc-n256 run.ticks differs between sets" ]
    c.R.counter_mismatches;
  Alcotest.(check bool) "b fails against a" true (R.failed c);
  let same = compare "fixtures/a" "fixtures/a" in
  Alcotest.(check bool) "a passes against itself" false (R.failed same);
  Alcotest.(check int) "one row per e2e metric" 5 (List.length same.R.rows)

let () =
  Alcotest.run "abc-perf"
    [
      ( "smoke",
        List.map (fun name -> Alcotest.test_case name `Quick (test_workload name)) W.names
      );
      ( "contract",
        [
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick test_names;
          Alcotest.test_case "quantiles match Python's" `Quick test_quantiles;
        ] );
      ("compare", [ Alcotest.test_case "verdicts over fixture sets" `Quick test_compare ]);
    ]
