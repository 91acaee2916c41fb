(* The two passes over one workload.

   The end-to-end pass times each unit with nothing wrapped, calibrated
   for machine speed (see Calibrate).  The layer pass runs each unit
   twice — plain, then with the protocol and adversary timed — and
   checks the two digests agree, so the wrappers provably change
   nothing but the clock.  Both passes run units until [seconds] have
   elapsed, with a floor: [min_units] for the end-to-end pass, the
   workload's prefix for the layer pass.  The deterministic counters
   ([run.*], [gc.*]) cover exactly that prefix, so they repeat exactly
   from set to set. *)

module Runner = Abc_matrix.Runner
module Spec = Abc_matrix.Spec
module Pool = Abc_exec.Pool
module W = Workloads

(* Names and units, in print order.  BENCHMARK.json lists the same
   names; the smoke test holds the two together. *)
let e2e_metrics =
  [
    ("setup_s", "s");
    ("run_s_p50", "s");
    ("run_s_p90", "s");
    ("events_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let layer_metrics =
  [
    ("protocol.calls", "count");
    ("protocol.self_s", "s");
    ("protocol.ns_per_call", "ns");
    ("protocol.actions_per_call", "count");
    ("protocol.share", "ratio");
    ("adversary.choose_calls", "count");
    ("adversary.self_s", "s");
    ("adversary.ns_per_choose", "ns");
    ("adversary.override_frac", "ratio");
    ("engine.self_s", "s");
    ("engine.ns_per_event", "ns");
    ("engine.share", "ratio");
    ("trace.events_per_delivery", "count");
    ("trace.record_s", "s");
    ("trace.export_s", "s");
    ("trace.parse_s", "s");
    ("trace.summary_s", "s");
    ("trace.bytes_per_event", "B");
    ("pool.jobs", "count");
    ("pool.busy_s", "s");
    ("pool.utilisation", "ratio");
    ("matrix.expand_s", "s");
    ("matrix.export_s", "s");
    ("gc.minor_words_per_event", "words");
    ("gc.promoted_words_per_event", "words");
    ("gc.major_collections", "count");
    ("run.deliveries", "count");
    ("run.messages", "count");
    ("run.bytes", "B");
    ("run.ticks", "ticks");
    ("layers.overhead_frac", "ratio");
  ]

(* One measured unit: a protocol run, or one matrix cell.  [kernel_s]
   is the calibration kernel's time next to it; the layer pass does not
   calibrate and leaves it at [Calibrate.nominal_s]. *)
type sample = { wall_s : float; kernel_s : float; ok : bool; events : int; digest : string }

let scaled s = Calibrate.scale ~wall_s:s.wall_s ~kernel_s:s.kernel_s

type span = {
  unit_index : int;
  span_s : float;
  children : (string * float) list;  (** layer self times, summing to [span_s] *)
}

type result = {
  attempted : int;
  failed : int;
  samples : sample list;  (** in unit order *)
  metrics : (string * float) list;  (** by name; units from the tables above *)
  spans : span list;  (** layer pass only *)
}

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let ratio a b = if b = 0. then 0. else a /. b

(* The process's peak RSS so far. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

let clock () = Layers.seconds_of_ns (Layers.now_ns ())

(* [until_spent ~seconds ~at_least step] calls [step i] for i = 0, 1, ...
   while [i < at_least] or less than [seconds] have elapsed, and returns
   the results in order. *)
let until_spent ~seconds ~at_least step =
  let t0 = Layers.now_ns () in
  let rec loop i acc =
    if i >= at_least && Layers.elapsed_s t0 >= seconds then List.rev acc
    else loop (i + 1) (step i :: acc)
  in
  loop 0 []

(* Each unit starts from a collected heap, as a fresh abc-run process
   would: garbage left by earlier units (a traced run leaves an 8 MB
   ring behind) does not add its collection to the next unit's time.
   Not timed. *)
let fresh_heap () = Gc.full_major ()

let result_of samples ~metrics ~spans =
  {
    attempted = List.length samples;
    failed = List.length (List.filter (fun s -> not s.ok) samples);
    samples;
    metrics;
    spans;
  }

(* [phase_s] is the calibrated time of the measured phase. *)
let e2e_metrics_of ~setup_s ~phase_s ~peak_mb samples =
  let p50, p90 = Stats.p50_p90 (List.map scaled samples) in
  [
    ("setup_s", setup_s);
    ("run_s_p50", p50);
    ("run_s_p90", p90);
    ("events_per_s", float_of_int (sumi (fun s -> s.events) samples) /. phase_s);
    ("peak_rss_mb", peak_mb);
  ]

(* ----------------------------------------------------------------- *)
(* Protocol-run workloads                                             *)
(* ----------------------------------------------------------------- *)

(* [rss_of_unit i] is the peak RSS of a fresh process that sets the
   workload up and runs unit [i] alone — what a one-shot abc-run needs.
   The median over the first [rss_probes] units is reported.  Within
   one long process the heap OCaml 5.1 frees but keeps (it cannot
   compact) creeps with however many units the time budget allowed, so
   a lifetime peak is the largest unit plus that creep.  And a traced
   run's peak moves in ~10 MB steps with its length (buffers double),
   so fewer probes let the median jump between steps. *)
let rss_probes = 15

let e2e_runs ~seconds ~setup_s ~rss_of_unit (r : W.runs) =
  let peak_mb = Stats.median (List.init rss_probes rss_of_unit) in
  (* Warm-up: lazy initialisation and the first heap growth stay out of
     the measured phase. *)
  ignore (r.W.prepare 0 W.Plain);
  let samples =
    until_spent ~seconds ~at_least:r.W.min_units (fun i ->
        let go = r.W.prepare i in
        fresh_heap ();
        let kernel_s = Calibrate.measure () in
        let o, ns = Layers.timed (fun () -> go W.Plain) in
        {
          wall_s = Layers.seconds_of_ns ns;
          kernel_s;
          ok = o.W.ok;
          events = o.W.deliveries;
          digest = W.digest o;
        })
  in
  result_of samples
    ~metrics:
      (e2e_metrics_of ~setup_s ~phase_s:(sum scaled samples) ~peak_mb samples)
    ~spans:[]

type layer_unit = {
  sample : sample;
  plain_ns : int;
  span_ns : int;
  layers : Layers.acc;  (** the timed run's accumulator *)
  twin_run_ns : int;  (** the untraced twin's engine run, when traced *)
  counts : W.outcome;  (** the plain run's counters *)
  minor : float;
  promoted : float;
  majors : int;
}

let copy_acc (a : Layers.acc) = { a with Layers.run_ns = a.Layers.run_ns }

let layer_step (r : W.runs) i =
  let go = r.W.prepare i in
  fresh_heap ();
  let q0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let o, plain_ns = Layers.timed (fun () -> go W.Plain) in
  let m1 = Gc.minor_words () in
  let q1 = Gc.quick_stat () in
  let plain_digest = W.digest o in
  Layers.reset ();
  let t, span_ns = Layers.timed (fun () -> go W.Timed) in
  let layers = copy_acc Layers.acc in
  let twin_run_ns =
    if r.W.traced then begin
      Layers.reset ();
      ignore (go W.Untraced);
      Layers.acc.Layers.run_ns
    end
    else 0
  in
  let timed_digest = W.digest t in
  {
    sample =
      {
        wall_s = Layers.seconds_of_ns span_ns;
        kernel_s = Calibrate.nominal_s;
        ok = o.W.ok && t.W.ok && String.equal plain_digest timed_digest;
        events = o.W.deliveries;
        digest = plain_digest;
      };
    plain_ns;
    span_ns;
    layers;
    twin_run_ns;
    counts = { o with W.detail = (fun () -> "") };
    minor = m1 -. m0;
    promoted = q1.Gc.promoted_words -. q0.Gc.promoted_words;
    majors = q1.Gc.major_collections - q0.Gc.major_collections;
  }

let engine_ns u =
  let l = u.layers in
  u.span_ns - l.Layers.protocol_ns - l.Layers.adversary_ns - l.Layers.export_ns
  - l.Layers.parse_ns - l.Layers.summary_ns

let span_of i u =
  let s = Layers.seconds_of_ns and l = u.layers in
  {
    unit_index = i;
    span_s = s u.span_ns;
    children =
      [
        ("protocol", s l.Layers.protocol_ns);
        ("adversary", s l.Layers.adversary_ns);
        ("engine", s (engine_ns u));
        ("export", s l.Layers.export_ns);
        ("parse", s l.Layers.parse_ns);
        ("summary", s l.Layers.summary_ns);
      ];
  }

let layers_runs ~seconds (r : W.runs) =
  ignore (r.W.prepare 0 W.Plain);
  let units = until_spent ~seconds ~at_least:r.W.prefix (layer_step r) in
  let prefix = List.filteri (fun i _ -> i < r.W.prefix) units in
  let n = float_of_int (List.length units) in
  let k = float_of_int (List.length prefix) in
  let tot f = float_of_int (sumi f units) in
  let l f u = f u.layers in
  let span = tot (fun u -> u.span_ns) in
  let deliveries = tot (fun u -> u.counts.W.deliveries) in
  let protocol = tot (l (fun a -> a.Layers.protocol_ns)) in
  let calls = tot (l (fun a -> a.Layers.protocol_calls)) in
  let adversary = tot (l (fun a -> a.Layers.adversary_ns)) in
  let chooses = tot (l (fun a -> a.Layers.choose_calls)) in
  let engine = tot engine_ns in
  let trace_events = tot (l (fun a -> a.Layers.trace_events)) in
  let mean_s f = Layers.seconds_of_ns (sumi f units) /. n in
  let traced x = if r.W.traced then x else 0. in
  let prefix_deliveries = float_of_int (sumi (fun u -> u.counts.W.deliveries) prefix) in
  let per_unit f = float_of_int (sumi (fun u -> f u.counts) prefix) /. k in
  let metrics =
    [
      ("protocol.calls", calls /. n);
      ("protocol.self_s", mean_s (l (fun a -> a.Layers.protocol_ns)));
      ("protocol.ns_per_call", ratio protocol calls);
      ("protocol.actions_per_call", ratio (tot (l (fun a -> a.Layers.protocol_actions))) calls);
      ("protocol.share", ratio protocol span);
      ("adversary.choose_calls", chooses /. n);
      ("adversary.self_s", mean_s (l (fun a -> a.Layers.adversary_ns)));
      ("adversary.ns_per_choose", ratio adversary chooses);
      ("adversary.override_frac", 1. -. ratio chooses deliveries);
      ("engine.self_s", mean_s engine_ns);
      ("engine.ns_per_event", ratio engine deliveries);
      ("engine.share", ratio engine span);
      ("trace.events_per_delivery", ratio trace_events deliveries);
      ( "trace.record_s",
        traced (mean_s (l (fun a -> a.Layers.run_ns)) -. mean_s (fun u -> u.twin_run_ns)) );
      ("trace.export_s", mean_s (l (fun a -> a.Layers.export_ns)));
      ("trace.parse_s", mean_s (l (fun a -> a.Layers.parse_ns)));
      ("trace.summary_s", mean_s (l (fun a -> a.Layers.summary_ns)));
      ("trace.bytes_per_event", ratio (tot (l (fun a -> a.Layers.trace_bytes))) trace_events);
      ("pool.jobs", 0.);
      ("pool.busy_s", 0.);
      ("pool.utilisation", 0.);
      ("matrix.expand_s", 0.);
      ("matrix.export_s", 0.);
      ("gc.minor_words_per_event", sum (fun u -> u.minor) prefix /. prefix_deliveries);
      ("gc.promoted_words_per_event", sum (fun u -> u.promoted) prefix /. prefix_deliveries);
      ("gc.major_collections", float_of_int (sumi (fun u -> u.majors) prefix) /. k);
      ("run.deliveries", per_unit (fun o -> o.W.deliveries));
      ("run.messages", per_unit (fun o -> o.W.messages));
      ("run.bytes", per_unit (fun o -> o.W.bytes));
      ("run.ticks", per_unit (fun o -> o.W.ticks));
      ("layers.overhead_frac", (span /. tot (fun u -> u.plain_ns)) -. 1.);
    ]
  in
  result_of
    (List.map (fun u -> u.sample) units)
    ~metrics
    ~spans:(List.mapi span_of units)

(* ----------------------------------------------------------------- *)
(* The sweep                                                          *)
(* ----------------------------------------------------------------- *)

let cell_seeds (c : Runner.cell_result) = Spec.find_int c.Runner.cell "seeds" ~default:10

(* Totals over the cell's runs.  Runner reports per-run means and no
   delivery counter; ticks stand in for deliveries because none of the
   sweep's protocols arms a timer, so each tick is one delivery. *)
let cell_total field (c : Runner.cell_result) =
  Float.round (field c.Runner.metrics *. float_of_int (cell_seeds c))

let cell_ticks = cell_total (fun m -> m.Runner.ticks)

(* Digest of everything a cell reports except its wall time. *)
let cell_digest (c : Runner.cell_result) =
  let m = c.Runner.metrics in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%b|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g"
          (String.concat ","
             (List.map (fun (k, v) -> k ^ "=" ^ v) (Spec.cell_key c.Runner.cell)))
          c.Runner.pass m.Runner.ok_rate m.Runner.rounds m.Runner.messages
          m.Runner.bytes m.Runner.ticks m.Runner.committed))

let cell_sample (c : Runner.cell_result) =
  {
    wall_s = c.Runner.metrics.Runner.wall_s;
    kernel_s = Calibrate.nominal_s;
    ok = c.Runner.pass;
    events = int_of_float (cell_ticks c);
    digest = cell_digest c;
  }

(* One pass: every group once, in order, each with its wall time and
   what [between ()] returned after it ([between] also runs once before
   the first group). *)
let sweep_pass ?clock ~pool ~between (s : W.sweep) =
  ignore (between ());
  List.map
    (fun (_, spec) ->
      let r, ns = Layers.timed (fun () -> Runner.run ?clock ~pool spec) in
      let k = between () in
      (r, ns, k))
    s.W.groups

let cells_of pass = List.concat_map (fun (r, _, _) -> r.Runner.cells) pass

let pass_ns pass = sumi (fun (_, ns, _) -> ns) pass

let e2e_sweep ~seconds ~setup_s (s : W.sweep) =
  let pool = Pool.create ~jobs:s.W.jobs () in
  (* Cells run on both domains at once, so no kernel can sit next to
     one.  The kernel runs on both domains together between groups, and
     a group is calibrated by the kernel times just before and after it. *)
  let last = ref 0. in
  let between () =
    let k = Stats.median (Array.to_list (Pool.map pool s.W.jobs (fun _ -> Calibrate.measure ()))) in
    let around = (!last +. k) /. 2. in
    last := k;
    around
  in
  (* A pass takes seconds, too long to repeat in fresh processes: the
     peak RSS is this process's after its first pass, which depends on
     the seed alone. *)
  let peak_mb = ref 0. in
  let groups =
    until_spent ~seconds ~at_least:1 (fun i ->
        fresh_heap ();
        let pass = sweep_pass ~clock ~pool ~between s in
        if i = 0 then peak_mb := peak_rss_mb ();
        pass)
    |> List.concat
  in
  let samples =
    List.concat_map
      (fun (r, _, kernel_s) ->
        List.map (fun c -> { (cell_sample c) with kernel_s }) r.Runner.cells)
      groups
  in
  let phase_s =
    sum
      (fun (_, ns, kernel_s) -> Calibrate.scale ~wall_s:(Layers.seconds_of_ns ns) ~kernel_s)
      groups
  in
  result_of samples
    ~metrics:(e2e_metrics_of ~setup_s ~phase_s ~peak_mb:!peak_mb samples)
    ~spans:[]

(* Median of five timings of [f]: the calls are milliseconds long. *)
let median_ns f =
  Stats.median (List.init 5 (fun _ -> float_of_int (snd (Layers.timed f))))

(* The layer pass of the sweep: one pass without a clock and one with
   it on the 2-worker pool (Pool busy time and the clock's overhead),
   then one sequential pass for the GC counters — [Gc.minor_words]
   counts only the calling domain.  All three must agree cell by cell.
   Runner has no hook for the protocol/adversary/engine split. *)
let layers_sweep (s : W.sweep) =
  let pool = Pool.create ~jobs:s.W.jobs () in
  fresh_heap ();
  let between = Fun.id in
  let plain = sweep_pass ~pool ~between s in
  let clocked = sweep_pass ~clock ~pool ~between s in
  let q0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let sequential = sweep_pass ~pool:Pool.sequential ~between s in
  let m1 = Gc.minor_words () in
  let q1 = Gc.quick_stat () in
  let digests pass = List.map cell_digest (cells_of pass) in
  let agree =
    List.equal String.equal (digests plain) (digests clocked)
    && List.equal String.equal (digests plain) (digests sequential)
  in
  let cells = cells_of clocked in
  let samples =
    List.map (fun c -> { (cell_sample c) with ok = c.Runner.pass && agree }) cells
  in
  let n = float_of_int (List.length cells) in
  let ticks = sum cell_ticks cells in
  let busy_s = sum (fun c -> c.Runner.metrics.Runner.wall_s) cells in
  let expand_ns =
    median_ns (fun () ->
        List.iter (fun (text, _) -> ignore (Spec.expand (W.parse_spec text))) s.W.groups)
  in
  let export_ns =
    median_ns (fun () ->
        List.iter
          (fun (r, _, ()) ->
            ignore (Abc_sim.Json.to_string (Runner.to_json ~seeds_scale:1. r)))
          clocked)
  in
  let zero names = List.map (fun name -> (name, 0.)) names in
  let metrics =
    zero
      [
        "protocol.calls"; "protocol.self_s"; "protocol.ns_per_call";
        "protocol.actions_per_call"; "protocol.share"; "adversary.choose_calls";
        "adversary.self_s"; "adversary.ns_per_choose"; "adversary.override_frac";
        "engine.self_s"; "engine.ns_per_event"; "engine.share";
        "trace.events_per_delivery"; "trace.record_s"; "trace.export_s";
        "trace.parse_s"; "trace.summary_s"; "trace.bytes_per_event";
      ]
    @ [
        ("pool.jobs", float_of_int s.W.jobs);
        ("pool.busy_s", busy_s);
        ( "pool.utilisation",
          busy_s /. (float_of_int s.W.jobs *. Layers.seconds_of_ns (pass_ns clocked)) );
        ("matrix.expand_s", expand_ns *. 1e-9);
        ("matrix.export_s", export_ns *. 1e-9);
        ("gc.minor_words_per_event", (m1 -. m0) /. ticks);
        ( "gc.promoted_words_per_event",
          (q1.Gc.promoted_words -. q0.Gc.promoted_words) /. ticks );
        ( "gc.major_collections",
          float_of_int (q1.Gc.major_collections - q0.Gc.major_collections) /. n );
        ("run.deliveries", ticks /. n);
        ("run.messages", sum (cell_total (fun m -> m.Runner.messages)) cells /. n);
        ("run.bytes", sum (cell_total (fun m -> m.Runner.bytes)) cells /. n);
        ("run.ticks", ticks /. n);
        ( "layers.overhead_frac",
          (float_of_int (pass_ns clocked) /. float_of_int (pass_ns plain)) -. 1. );
      ]
  in
  result_of samples ~metrics
    ~spans:
      (List.mapi
         (fun i c ->
           let w = c.Runner.metrics.Runner.wall_s in
           { unit_index = i; span_s = w; children = [ ("cell", w) ] })
         cells)

(* ----------------------------------------------------------------- *)
(* Entry points                                                       *)
(* ----------------------------------------------------------------- *)

let e2e ~seconds ~setup_s ~rss_of_unit (w : W.t) =
  match w with
  | W.Runs r -> e2e_runs ~seconds ~setup_s ~rss_of_unit r
  | W.Sweep s -> e2e_sweep ~seconds ~setup_s s

let layers ~seconds (w : W.t) =
  match w with
  | W.Runs r -> layers_runs ~seconds r
  | W.Sweep s -> layers_sweep s

(* The metrics of [table], in its order; a name the pass did not
   produce is a bug. *)
let ordered table (r : result) =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name r.metrics with
      | Some v -> (name, v, unit)
      | None -> failwith ("abc_perf: metric not produced: " ^ name))
    table
