(* abc_perf: the benchmark's command line.  See README.md here. *)

module W = Abc_perf_lib.Workloads
module M = Abc_perf_lib.Measure
module R = Abc_perf_lib.Report
module Layers = Abc_perf_lib.Layers
module Stats = Abc_perf_lib.Stats
module Calibrate = Abc_perf_lib.Calibrate
module Json = Abc_sim.Json
module Table = Abc_sim.Table

let usage =
  {|usage:
  abc_perf --workload W --seed N --seconds S --trace 0|1 [--out DIR]
      one pass over one workload in this process: the end-to-end pass
      (--trace 0) or the layer pass (--trace 1).  The last line of
      standard output is the result as one JSON object.
  abc_perf run --seed N --out DIR [--layers] [--seconds S]
      every workload, each in its own child process, one at a time;
      --layers adds the layer pass
  abc_perf compare A B
      each end-to-end metric of result directory B against A, with the
      bounds of ./BENCHMARK.json
workloads: |}
  ^ String.concat " " W.names

let default_seconds = 16.

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("abc_perf: " ^ msg);
      exit 2)
    fmt

(* [--key value] pairs in order; [--layers] takes no value. *)
let parse_flags args =
  let rec go acc = function
    | [] -> List.rev acc
    | "--layers" :: rest -> go (("layers", "") :: acc) rest
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | arg :: _ -> die "unexpected argument %S\n%s" arg usage
  in
  go [] args

let flag flags key = List.assoc_opt key flags

let required flags key =
  match flag flags key with Some v -> v | None -> die "missing --%s\n%s" key usage

let int_flag flags key =
  match int_of_string_opt (required flags key) with
  | Some v -> v
  | None -> die "--%s wants an integer" key

let seconds_flag flags =
  match flag flags "seconds" with
  | None -> default_seconds
  | Some s -> (
    match float_of_string_opt s with
    | Some v when v > 0. -> v
    | _ -> die "--seconds wants a positive number, got %S" s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Runs this executable with [args] and waits for it; its standard
   output goes to [stdout] (default: our standard error). *)
let spawn ?(stdout = Unix.stderr) args =
  flush_all ();
  let pid = Unix.create_process Sys.executable_name args Unix.stdin stdout Unix.stderr in
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false

(* ----------------------------------------------------------------- *)
(* One pass                                                           *)
(* ----------------------------------------------------------------- *)

(* What a child does before its first measured unit: build the
   workload and the first unit's inputs. *)
let setup_only ~workload ~seed =
  match W.make ~size:W.Full ~seed workload with
  | W.Runs r ->
    let (_ : W.mode -> W.outcome) = r.W.prepare 0 in
    ()
  | W.Sweep _ -> ()

(* [setup_s]: from child start to the first measured unit — process
   start, module initialisation, input generation, spec parse and
   expansion — as the median of 21 fresh processes, each calibrated
   like a unit. *)
let probe_setup ~workload ~seed =
  let args =
    [| Sys.executable_name; "setup"; "--workload"; workload; "--seed"; string_of_int seed |]
  in
  let once () =
    let kernel_s = Calibrate.measure () in
    let t0 = Layers.now_ns () in
    if not (spawn args) then die "set-up probe for %s failed" workload;
    Calibrate.scale ~wall_s:(Layers.elapsed_s t0) ~kernel_s
  in
  Stats.median (List.init 21 (fun _ -> once ()))

(* What an RSS probe does: set up, run unit [i], print the peak RSS. *)
let rss_only ~workload ~seed i =
  match W.make ~size:W.Full ~seed workload with
  | W.Runs r ->
    ignore (r.W.prepare i W.Plain);
    Printf.printf "%.17g\n" (M.peak_rss_mb ())
  | W.Sweep _ -> die "rss probes run single units only"

let probe_rss ~workload ~seed i =
  let read_end, write_end = Unix.pipe ~cloexec:true () in
  let ok =
    Fun.protect
      ~finally:(fun () -> Unix.close write_end)
      (fun () ->
        spawn ~stdout:write_end
          [|
            Sys.executable_name; "rss"; "--workload"; workload; "--seed"; string_of_int seed;
            "--unit"; string_of_int i;
          |])
  in
  let ic = Unix.in_channel_of_descr read_end in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match float_of_string_opt line with
  | Some mb when ok -> mb
  | _ -> die "RSS probe for %s unit %d failed" workload i

let pass ~workload ~seed ~seconds ~layers ~out =
  let w = W.make ~size:W.Full ~seed workload in
  let r =
    if layers then M.layers ~seconds w
    else
      M.e2e ~seconds ~setup_s:(probe_setup ~workload ~seed)
        ~rss_of_unit:(probe_rss ~workload ~seed) w
  in
  let metrics = M.ordered (if layers then M.layer_metrics else M.e2e_metrics) r in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s %.6g %s\n" workload name v unit)
    metrics;
  Printf.printf "%s units %d failed %d\n" workload r.M.attempted r.M.failed;
  Option.iter
    (fun dir ->
      mkdir_p dir;
      R.write_file
        (Filename.concat dir (R.file_name ~workload ~layers))
        (Json.to_string (R.to_json ~workload ~seed ~seconds ~layers r metrics) ^ "\n"))
    out;
  print_endline (R.line r metrics);
  if r.M.failed > 0 then exit 1

(* ----------------------------------------------------------------- *)
(* run: every workload, one child each                                *)
(* ----------------------------------------------------------------- *)

let print_table ~title ~workloads ~metrics value =
  let t = Table.create ~title ~columns:("metric" :: "unit" :: workloads) () in
  List.iter
    (fun (name, unit) ->
      Table.add_row t
        (name :: unit
        :: List.map
             (fun w ->
               match value w name with Some v -> Printf.sprintf "%.4g" v | None -> "-")
             workloads))
    metrics;
  Table.print t;
  print_newline ()

let run_all ~seed ~out ~seconds ~layers =
  let workloads = W.names in
  mkdir_p out;
  let child ~trace w =
    spawn
      [|
        Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
        Printf.sprintf "%g" seconds; "--trace"; trace; "--out"; out;
      |]
  in
  let e2e_ok = List.map (child ~trace:"0") workloads in
  let layers_ok = if layers then List.map (child ~trace:"1") workloads else [] in
  let set = R.load_set out in
  print_table
    ~title:(Printf.sprintf "abc_perf end-to-end, seed %d, %gs per workload" seed seconds)
    ~workloads
    ~metrics:(M.e2e_metrics @ [ ("attempted", "units"); ("failed", "units") ])
    (fun w name ->
      Option.bind (List.assoc_opt w set.R.e2e) (fun j ->
          match name with
          | "attempted" | "failed" -> Option.map float_of_int (Json.int_member name j)
          | _ -> R.metric j name));
  let digest_failures =
    if not layers then []
    else begin
      print_table
        ~title:(Printf.sprintf "abc_perf layer pass, seed %d" seed)
        ~workloads ~metrics:M.layer_metrics
        (fun w name -> Option.bind (List.assoc_opt w set.R.layer) (fun j -> R.metric j name));
      List.filter
        (fun w ->
          match (List.assoc_opt w set.R.e2e, List.assoc_opt w set.R.layer) with
          | Some e, Some l ->
            let rec agree = function
              | a :: xs, b :: ys -> String.equal a b && agree (xs, ys)
              | [], _ | _, [] -> true
            in
            not (agree (R.digests e, R.digests l))
          | _ -> true)
        workloads
    end
  in
  List.iter
    (fun w -> Printf.printf "determinism: %s layer-pass digests differ from the e2e pass\n" w)
    digest_failures;
  let all_ok = List.for_all Fun.id (e2e_ok @ layers_ok) && List.is_empty digest_failures in
  Printf.printf "verdicts: %s\n" (if all_ok then "all passed" else "FAILED");
  if not all_ok then exit 1

(* ----------------------------------------------------------------- *)
(* Entry                                                              *)
(* ----------------------------------------------------------------- *)

let workload_flag flags =
  let w = required flags "workload" in
  if not (List.mem w W.names) then die "unknown workload %S\n%s" w usage;
  w

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "setup" :: args ->
    let flags = parse_flags args in
    setup_only ~workload:(workload_flag flags) ~seed:(int_flag flags "seed")
  | "rss" :: args ->
    let flags = parse_flags args in
    rss_only ~workload:(workload_flag flags) ~seed:(int_flag flags "seed")
      (int_flag flags "unit")
  | "run" :: args ->
    let flags = parse_flags args in
    run_all ~seed:(int_flag flags "seed") ~out:(required flags "out")
      ~seconds:(seconds_flag flags) ~layers:(Option.is_some (flag flags "layers"))
  | [ "compare"; a; b ] ->
    let bounds = R.bounds_of_benchmark (R.read_file "BENCHMARK.json") in
    let sets dir =
      match R.load_sets dir with [] -> die "%s holds no abc_perf results" dir | s -> s
    in
    let c = R.compare_sets ~bounds ~a:(sets a) ~b:(sets b) in
    print_string (R.render c);
    if R.failed c then exit 1
  | args ->
    let flags = parse_flags args in
    let layers =
      match required flags "trace" with
      | "0" -> false
      | "1" -> true
      | t -> die "--trace wants 0 or 1, got %S" t
    in
    pass ~workload:(workload_flag flags) ~seed:(int_flag flags "seed")
      ~seconds:(seconds_flag flags) ~layers ~out:(flag flags "out")
