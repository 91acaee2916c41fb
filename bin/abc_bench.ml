(* abc-bench: scenario-matrix benchmark driver.

     abc-bench run  bench/specs/e14.matrix --jobs 4 --out bench_results
     abc-bench list bench/specs/e1.matrix
     abc-bench diff bench_results fresh_results --threshold 10

   Specs are .matrix files (grammar in EXPERIMENTS.md); `run` executes
   every cell's seed sweep on the domain pool and writes one
   BENCH_MATRIX_<id>.json per spec (schema in OBSERVABILITY.md).
   `diff` compares two result sets cell-by-cell and exits non-zero on
   regressions, which is what the CI bench-gate job runs.

   Exit codes: 0 ok; 1 verdict failures (run) or regressions (diff);
   2 spec/result-set errors. *)

module Spec = Abc_matrix.Spec
module Runner = Abc_matrix.Runner
module Diff = Abc_matrix.Diff
module Sexp = Abc_matrix.Sexp
module Table = Abc_sim.Table
module Json = Abc_sim.Json
module Pool = Abc_exec.Pool
open Cmdliner

(* A spec that does not elaborate, or whose cells the registry rejects,
   is a positioned error before any cell runs. *)
let load_spec path =
  match Result.bind (Spec.load path) (fun spec -> Result.map (fun () -> spec) (Runner.check spec)) with
  | Ok spec -> spec
  | Error e ->
    Fmt.epr "abc-bench: %s@." (Sexp.error_to_string e);
    exit 2
  | exception Sys_error msg ->
    Fmt.epr "abc-bench: %s@." msg;
    exit 2

let write_file path contents =
  let dir = Filename.dirname path in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* run *)

let run_run specs jobs seeds_scale out no_wall tier =
  let pool = Pool.create ~jobs () in
  let clock = if no_wall then None else Some Unix.gettimeofday in
  let all_ok =
    List.fold_left
      (fun all_ok spec ->
        let spec_tier = Spec.tier_label (Spec.tier spec) in
        match tier with
        | Some t when t <> spec_tier ->
          (* A tier filter lets CI pass a whole specs/ glob and run only
             the cheap slice; skipped specs are named so a mistyped
             filter is visible, not a silent no-op. *)
          Fmt.epr "abc-bench: skipping %s (tier %s, filter %s)@."
            (Spec.id spec) spec_tier t;
          all_ok
        | Some _ | None ->
        let result = Runner.run ?clock ~seeds_scale ~pool spec in
        print_string (Table.render (Runner.table result));
        (match out with
        | None -> ()
        | Some dir ->
          let json = Runner.to_json ~seeds_scale result in
          write_file
            (Filename.concat dir ("BENCH_MATRIX_" ^ Spec.id spec ^ ".json"))
            (Json.to_string json ^ "\n"));
        List.iter
          (fun (c : Runner.cell_result) ->
            Fmt.epr "abc-bench: %s: verdict %s failed for [%s]@." (Spec.id spec)
              (Spec.oracle_label c.cell.Spec.oracle)
              (String.concat " "
                 (List.map (fun (k, v) -> k ^ "=" ^ v) (Spec.cell_key c.cell))))
          (Runner.failures result);
        all_ok && Runner.passed result)
      true (List.map load_spec specs)
  in
  if not all_ok then exit 1

(* list *)

let run_list specs =
  List.iter
    (fun path ->
      let spec = load_spec path in
      Fmt.pr "%s: %s (%s tier, %d cells)@." (Spec.id spec) (Spec.title spec)
        (Spec.tier_label (Spec.tier spec))
        (Spec.cell_count spec);
      List.iter
        (fun (cell : Spec.cell) ->
          Fmt.pr "  [%s] expect %s@."
            (String.concat " "
               (List.map (fun (k, v) -> k ^ "=" ^ v) (Spec.cell_key cell)))
            (Spec.oracle_label cell.Spec.oracle))
        (Spec.expand spec))
    specs

(* diff *)

let load_set path =
  match Diff.load_file path with
  | Ok set -> set
  | Error e ->
    Fmt.epr "abc-bench: %s@." e;
    exit 2

let matrix_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 13
         && String.sub f 0 13 = "BENCH_MATRIX_"
         && Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

(* Pair the two sides by set id.  Sets present on only one side are a
   hard error: a silently vanishing baseline would let a regression
   through the gate.  A tier filter restricts that universe on both
   sides first — the one-sided check then applies within the tier. *)
let pair_sets base cur tier =
  let load_side path =
    if not (Sys.file_exists path) then begin
      Fmt.epr "abc-bench: %s: no such file or directory@." path;
      exit 2
    end;
    if Sys.is_directory path then begin
      match matrix_files path with
      | [] ->
        Fmt.epr "abc-bench: %s: no BENCH_MATRIX_*.json files@." path;
        exit 2
      | files -> List.map load_set files
    end
    else [ load_set path ]
  in
  let filter_tier side path sets =
    match tier with
    | None -> sets
    | Some t ->
      let kept = List.filter (fun s -> Diff.set_tier s = t) sets in
      if kept = [] then begin
        Fmt.epr "abc-bench: %s: no result sets with tier %s in %s@." side t
          path;
        exit 2
      end;
      kept
  in
  let bases = filter_tier "base" base (load_side base)
  and curs = filter_tier "current" cur (load_side cur) in
  let find_id sets id = List.find_opt (fun s -> Diff.set_id s = id) sets in
  let missing =
    List.filter_map
      (fun b ->
        match find_id curs (Diff.set_id b) with
        | Some _ -> None
        | None -> Some (Diff.set_id b))
      bases
    @ List.filter_map
        (fun c ->
          match find_id bases (Diff.set_id c) with
          | Some _ -> None
          | None -> Some (Diff.set_id c))
        curs
  in
  if missing <> [] then begin
    Fmt.epr "abc-bench: result sets present on only one side: %s@."
      (String.concat ", " (List.sort_uniq String.compare missing));
    exit 2
  end;
  List.map
    (fun c -> (Option.get (find_id bases (Diff.set_id c)), c))
    curs

let run_diff base cur threshold gate_wall as_json tier =
  let options = { Diff.threshold; gate_wall } in
  let pairs = pair_sets base cur tier in
  let reports =
    List.map (fun (b, c) -> Diff.compare ~options ~base:b ~cur:c) pairs
  in
  if as_json then
    print_endline
      (Json.to_string (Json.List (List.map Diff.to_json reports)))
  else
    List.iter (fun r -> print_string (Diff.to_text r)) reports;
  let total = List.fold_left (fun acc r -> acc + Diff.regressions r) 0 reports in
  if total > 0 then begin
    Fmt.epr "abc-bench: %d regression%s beyond %.1f%%@." total
      (if total = 1 then "" else "s")
      threshold;
    exit 1
  end

(* command line *)

let specs_arg =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"SPEC" ~doc:"Scenario spec (.matrix file).")

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the seed sweeps.  Results are \
           byte-identical at any value.")

let seeds_scale_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "seeds-scale" ] ~docv:"X"
        ~doc:"Multiply every cell's seed count (floored at 1).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Write BENCH_MATRIX_<id>.json result sets into $(docv).")

let no_wall_arg =
  Arg.(
    value & flag
    & info [ "no-wall" ]
        ~doc:
          "Skip wall-clock measurement: every wall field is exactly 0, \
           making the result set byte-identical across hosts and runs \
           (what the CI determinism diff uses).")

let tier_arg =
  Arg.(
    value
    & opt (some (enum [ ("quick", "quick"); ("full", "full") ])) None
    & info [ "tier" ] ~docv:"TIER"
        ~doc:
          "Only consider specs (run) or result sets (diff) of this \
           tier: quick or full.  Lets CI pass the whole specs \
           directory and exercise just the cheap slice.")

let run_cmd =
  let term =
    Term.(
      const run_run $ specs_arg $ jobs_arg $ seeds_scale_arg $ out_arg
      $ no_wall_arg $ tier_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run scenario specs on the domain pool and print one table per \
          spec; exits 1 when any cell misses its expected verdict.")
    term

let list_cmd =
  let term = Term.(const run_list $ specs_arg) in
  Cmd.v
    (Cmd.info "list"
       ~doc:"Expand scenario specs and print every cell with its verdict.")
    term

let base_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASE"
        ~doc:"Baseline result set: a BENCH_MATRIX_*.json file or a \
              directory of them.")

let cur_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CURRENT" ~doc:"Result set to judge against BASE.")

let threshold_arg =
  Arg.(
    value
    & opt float Diff.default_options.Diff.threshold
    & info [ "threshold" ] ~docv:"PCT"
        ~doc:"Relative change (percent) beyond which a gated metric \
              counts as a regression or improvement.")

let gate_wall_arg =
  Arg.(
    value & flag
    & info [ "gate-wall" ]
        ~doc:"Also gate on wall-clock growth (advisory by default).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the abc.bench.matrix.diff report as JSON.")

let diff_cmd =
  let term =
    Term.(
      const run_diff $ base_arg $ cur_arg $ threshold_arg $ gate_wall_arg
      $ json_arg $ tier_arg)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two result sets cell-by-cell; exits 1 when any gated \
          metric regressed beyond the threshold or a cell flipped to \
          failing.")
    term

let () =
  let doc = "scenario-matrix benchmarks: run specs, diff result sets" in
  let info = Cmd.info "abc-bench" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; list_cmd; diff_cmd ]))
