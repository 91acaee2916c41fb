(* The five workloads of abc_perf.

   Every input comes from the workload seed [S]: unit [i] runs with
   engine seed [S * 10007 + i] and its payload bytes or mempools are
   drawn from that seed; the sweep's adversary parameters are functions
   of [S].  The library only ever receives the generated inputs.  Each
   workload is a closed loop: the next unit starts when the previous
   one has finished.  Time inside a run is virtual (one tick per engine
   step, no injected delay) and the adversary picks the delivery
   order. *)

module Node_id = Abc_net.Node_id
module Adversary = Abc_net.Adversary
module Behaviour = Abc_net.Behaviour
module Engine = Abc_net.Engine
module Protocol = Abc_net.Protocol
module Metrics = Abc_sim.Metrics
module Trace = Abc_sim.Trace
module Json = Abc_sim.Json
module Stream = Abc_prng.Stream
module Spec = Abc_matrix.Spec
module Harness = Abc.Harness
module Value = Abc.Value
module Mmr = Abc.Mmr_consensus
module Bracha = Abc.Bracha_consensus
module Atomic = Abc_smr.Atomic_broadcast
module Bracha_str = Abc.Bracha_rbc.Make (Abc.Payloads.String_payload)

type size = Full | Toy

(** How a unit runs.  [Plain] is the end-to-end unit.  [Timed] is the
    same run with the protocol wrapped in {!Layers.Timed} and the
    adversary in {!Layers.adversary}.  [Untraced] is [Timed] with
    [trace = None]; only [paper-traced] distinguishes it. *)
type mode = Plain | Timed | Untraced

type outcome = {
  ok : bool;  (** the unit's verdict held *)
  deliveries : int;
  messages : int;
  bytes : int;
  ticks : int;
  detail : unit -> string;
      (** decisions or logs; hashed into the digest after the clock
          has stopped *)
}

let digest o =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d %d %d %d\n%s" o.deliveries o.messages o.bytes o.ticks
          (o.detail ())))

let unit_seed ~seed i = (seed * 10007) + i

let payload_bytes ~seed i len =
  let rng = Stream.split (Stream.root ~seed) ~label:i in
  String.init len (fun _ -> Char.chr (Stream.int rng ~bound:256))

let split_values n = Array.init n (fun i -> if i < n / 2 then Value.Zero else Value.One)

let stopped_all_terminal = function
  | Engine.All_terminal -> true
  | Engine.Quiescent | Engine.Delivery_limit -> false

(* ----------------------------------------------------------------- *)
(* One run of each protocol, for a plain and a timed module           *)
(* ----------------------------------------------------------------- *)

module Rbc_run
    (P : Protocol.S
           with type input = Bracha_str.input
            and type output = Bracha_str.output) =
struct
  module E = Engine.Make (P)

  let run ~n ~f ~adversary ~seed ~payload =
    let config =
      E.config ~n ~f
        ~inputs:(Bracha_str.inputs ~n ~sender:(Node_id.of_int 0) payload)
        ~adversary ~seed ()
    in
    let r = E.run config in
    let delivered = function
      | [ (_, Bracha_str.Delivered v) ] -> String.equal v payload
      | _ -> false
    in
    let counter = Metrics.counter r.E.metrics in
    {
      ok = stopped_all_terminal r.E.stop && Array.for_all delivered r.E.outputs;
      deliveries = r.E.deliveries;
      messages = counter "sent";
      bytes = counter "bytes.sent";
      ticks = r.E.duration;
      detail =
        (fun () ->
          String.concat ";"
            (Array.to_list
               (Array.map
                  (fun outs ->
                    String.concat ","
                      (List.map
                         (fun (t, Bracha_str.Delivered v) ->
                           Printf.sprintf "%d:%s" t (Digest.to_hex (Digest.string v)))
                         outs))
                  r.E.outputs)));
    }
end

module Consensus_run (P : Harness.CONSENSUS) = struct
  module H = Harness.Make (P)

  (* Also returns the [sent] counter, which [paper-traced] checks
     against the trace's [send] events. *)
  let run ?trace ~n ~f ~inputs ~adversary ~seed () =
    let config = H.E.config ?trace ~n ~f ~inputs ~adversary ~seed () in
    let (result, verdict), run_ns = Layers.timed (fun () -> H.run config) in
    Layers.acc.Layers.run_ns <- run_ns;
    let counter = Metrics.counter result.H.E.metrics in
    {
      ok = Harness.ok verdict;
      deliveries = result.H.E.deliveries;
      messages = counter "sent";
      bytes = counter "bytes.sent";
      ticks = result.H.E.duration;
      detail =
        (fun () ->
          String.concat ";"
            (List.map
               (fun (id, t, d) ->
                 Fmt.str "%d@%d:%a" (Node_id.to_int id) t Abc.Decision.pp d)
               verdict.Harness.decisions));
    }
end

module Timed_consensus (P : Harness.CONSENSUS) = struct
  include Layers.Timed (P)

  let value_of_input = P.value_of_input
end

module Atomic_run
    (P : Protocol.S
           with type input = Atomic.input
            and type output = Atomic.output
            and type state = Atomic.state
            and type msg = Atomic.msg) =
struct
  module E = Engine.Make (P)

  let run ~n ~f ~inputs ~crash ~adversary ~seed =
    let recovery = { E.snapshot = Atomic.snapshot; restore = Atomic.restore } in
    let config =
      E.config ~n ~f ~inputs ~adversary ~recovery ~seed
        ~faulty:[ (Node_id.of_int (n - 1), Behaviour.Crash_recover [ crash ]) ]
        ()
    in
    let r = E.run config in
    let logs = Array.map Atomic.log_of_outputs r.E.outputs in
    (* Every replica is correct, the recovered one included: each must
       complete the same log. *)
    let identical =
      match logs.(0) with
      | None -> false
      | Some first ->
        Array.for_all
          (function Some l -> List.equal String.equal l first | None -> false)
          logs
    in
    let counter = Metrics.counter r.E.metrics in
    {
      ok = stopped_all_terminal r.E.stop && identical;
      deliveries = r.E.deliveries;
      messages = counter "sent";
      bytes = counter "bytes.sent";
      ticks = r.E.duration;
      detail =
        (fun () ->
          String.concat ";"
            (Array.to_list
               (Array.map
                  (function
                    | Some l -> Digest.to_hex (Digest.string (String.concat "\n" l))
                    | None -> "-")
                  logs)));
    }
end

module Rbc_plain = Rbc_run (Bracha_str)
module Rbc_timed = Rbc_run (Layers.Timed (Bracha_str))
module Mmr_plain = Consensus_run (Mmr)
module Mmr_timed = Consensus_run (Timed_consensus (Mmr))
module Bracha_plain = Consensus_run (Bracha)
module Bracha_timed = Consensus_run (Timed_consensus (Bracha))
module Atomic_plain = Atomic_run (Atomic)
module Atomic_timed = Atomic_run (Layers.Timed (Atomic))

(* ----------------------------------------------------------------- *)
(* paper-traced: run, export, reload, summarise                       *)
(* ----------------------------------------------------------------- *)

(* The [--trace-out] plus [abc-trace summary] loop, in memory.  The
   verdict adds two checks to the harness's: the reloaded entry count
   equals the trace's length, and the trace's [send] count equals the
   engine's [sent] counter. *)
let export_and_check ~n ~f ~seed trace (o : outcome) =
  let meta =
    [
      ("protocol", Json.String "bracha");
      ("n", Json.Int n);
      ("f", Json.Int f);
      ("seed", Json.Int seed);
    ]
  in
  let jsonl, export_ns = Layers.timed (fun () -> Trace.to_jsonl_string ~meta trace) in
  let parsed, parse_ns = Layers.timed (fun () -> Abc_sim.Trace_file.of_string jsonl) in
  let a = Layers.acc in
  a.Layers.export_ns <- export_ns;
  a.Layers.parse_ns <- parse_ns;
  a.Layers.trace_events <- Trace.recorded trace;
  a.Layers.trace_bytes <- String.length jsonl;
  match parsed with
  | Error _ -> { o with ok = false }
  | Ok file ->
    let summary, summary_ns =
      Layers.timed (fun () -> Abc_sim.Trace_report.summary file)
    in
    a.Layers.summary_ns <- summary_ns;
    let reloaded = List.length file.Abc_sim.Trace_file.entries = Trace.length trace in
    let sends = Trace.count_kind trace ~label:"send" = o.messages in
    {
      o with
      ok = o.ok && reloaded && sends;
      detail =
        (fun () -> o.detail () ^ "\n" ^ Digest.to_hex (Digest.string summary));
    }

(* ----------------------------------------------------------------- *)
(* Workload table                                                     *)
(* ----------------------------------------------------------------- *)

type runs = {
  min_units : int;
      (** the end-to-end pass runs at least this many units, so at
          least ten lie beyond its p90 *)
  prefix : int;
      (** the layer pass runs at least this many units; its
          deterministic counters ([run.*], [gc.*]) cover exactly these *)
  traced : bool;  (** has an [Untraced] twin *)
  prepare : int -> mode -> outcome;
      (** [prepare i] generates unit [i]'s inputs (untimed) and returns
          the unit *)
}

(* The sweep is one matrix split into groups, one spec per (protocol,
   n, f), run one after another on the pool; the calibration kernel runs
   between groups. *)
type sweep = { groups : (string * Spec.t) list;  (** spec text, spec *) jobs : int }

type t = Runs of runs | Sweep of sweep

let names = [ "rbc-n256"; "mmr-n128"; "atomic-crash"; "paper-traced"; "sweep-battery" ]

let prefix = function Full -> 10 | Toy -> 2

let min_units = function Full -> 100 | Toy -> 2

let rbc ~size ~seed =
  let n, f = match size with Full -> (256, 85) | Toy -> (16, 5) in
  let prepare i =
    let payload = payload_bytes ~seed i 16 in
    let seed = unit_seed ~seed i in
    function
    | Plain -> Rbc_plain.run ~n ~f ~adversary:Adversary.uniform ~seed ~payload
    | Timed | Untraced ->
      Rbc_timed.run ~n ~f ~adversary:(Layers.adversary Adversary.uniform) ~seed
        ~payload
  in
  Runs { min_units = min_units size; prefix = prefix size; traced = false; prepare }

let mmr ~size ~seed =
  let n, f = match size with Full -> (128, 42) | Toy -> (16, 5) in
  let inputs = Mmr.inputs ~n ~coin:(Abc.Coin.common ~seed:7) (split_values n) in
  let prepare i =
    let seed = unit_seed ~seed i in
    function
    | Plain -> Mmr_plain.run ~n ~f ~inputs ~adversary:Adversary.uniform ~seed ()
    | Timed | Untraced ->
      Mmr_timed.run ~n ~f ~inputs ~adversary:(Layers.adversary Adversary.uniform)
        ~seed ()
  in
  Runs { min_units = min_units size; prefix = prefix size; traced = false; prepare }

(* The last replica of [atomic-crash] is down over this window of
   virtual ticks, inside the run, and recovers from its snapshot plus a
   state transfer. *)
let crash_window = function Full -> (2000, 9000) | Toy -> (200, 900)

let atomic ~size ~seed =
  let n, f, batch, epochs =
    match size with Full -> (7, 2, 32, 4) | Toy -> (4, 1, 4, 2)
  in
  let crash = crash_window size in
  let prepare i =
    let seed = unit_seed ~seed i in
    let mempools =
      Array.init n (fun node ->
          Abc_smr.Workload.txs
            (Abc_smr.Workload.generate ~seed ~node:(Node_id.of_int node)
               ~count:(batch * epochs) ~rate:1.0 ~tx_bytes:64))
    in
    let inputs =
      Atomic.inputs ~n ~window:2 ~checkpoint_interval:2 ~batch_size:batch ~epochs
        ~coin_seed:(seed + 7919) mempools
    in
    function
    | Plain ->
      Atomic_plain.run ~n ~f ~inputs ~crash ~adversary:Adversary.uniform ~seed
    | Timed | Untraced ->
      Atomic_timed.run ~n ~f ~inputs ~crash
        ~adversary:(Layers.adversary Adversary.uniform) ~seed
  in
  Runs { min_units = min_units size; prefix = prefix size; traced = false; prepare }

let paper_traced ~size ~seed =
  let n, f = match size with Full -> (10, 3) | Toy -> (4, 1) in
  let inputs = Bracha.inputs ~n ~options:Bracha.Options.default (split_values n) in
  let prepare i =
    let seed = unit_seed ~seed i in
    function
    | Plain ->
      let trace = Trace.create ~capacity:1_000_000 () in
      Bracha_plain.run ~trace ~n ~f ~inputs ~adversary:Adversary.uniform ~seed ()
      |> export_and_check ~n ~f ~seed trace
    | Timed ->
      let trace = Trace.create ~capacity:1_000_000 () in
      Bracha_timed.run ~trace ~n ~f ~inputs
        ~adversary:(Layers.adversary Adversary.uniform) ~seed ()
      |> export_and_check ~n ~f ~seed trace
    | Untraced ->
      Bracha_timed.run ~n ~f ~inputs ~adversary:(Layers.adversary Adversary.uniform)
        ~seed ()
  in
  Runs { min_units = min_units size; prefix = prefix size; traced = true; prepare }

(* The sweep's cells, generated from [S]: protocol × (n, f) × 7
   adversaries × 2 faults × 8 seeds, as one spec per (protocol, n, f)
   group, in the row-major order of the whole matrix.  Runner fixes the
   per-cell run seeds at 0..seeds-1.  The starved node [victim] is never
   node 0, the liar of [balanced-flip]: starving the liar makes those
   cells markedly faster, and the sweep's median would move with [S]. *)
let sweep_texts ~size ~seed =
  let latency = 4 + (seed mod 9)
  and victim = 1 + (seed mod 3)
  and period = 32 + (16 * (seed mod 3)) in
  let nfs, adversaries, faults, seeds =
    match size with
    | Full ->
      ( [ (4, 1); (7, 2); (10, 3); (13, 4); (16, 5) ],
        Printf.sprintf "fifo uniform latency:%d split target:%d source:%d eclipse:%d"
          latency victim victim period,
        "none balanced-flip",
        8 )
    | Toy -> ([ (4, 1) ], Printf.sprintf "fifo latency:%d" latency, "none", 1)
  in
  List.concat_map
    (fun protocol ->
      List.map
        (fun (n, f) ->
          Printf.sprintf
            "(matrix\n\
            \  (id sweep_battery)\n\
            \  (title \"abc_perf sweep-battery, seed %d\")\n\
            \  (tier full)\n\
            \  (axes\n\
            \    (protocol %s)\n\
            \    (n %d)\n\
            \    (f %d)\n\
            \    (adversary %s)\n\
            \    (fault %s)\n\
            \    (seeds %d))\n\
            \  (expect (default decide)))\n"
            seed protocol n f adversaries faults seeds)
        nfs)
    [ "bracha"; "bracha-cc"; "mmr" ]

let parse_spec text =
  match Spec.of_string ~file:"sweep-battery.matrix" text with
  | Ok spec -> spec
  | Error e -> failwith ("sweep-battery spec: " ^ Abc_matrix.Sexp.error_to_string e)

let sweep ~size ~seed =
  let groups =
    List.map
      (fun text ->
        let spec = parse_spec text in
        ignore (Spec.expand spec);
        (text, spec))
      (sweep_texts ~size ~seed)
  in
  Sweep { groups; jobs = 2 }

let make ~size ~seed name =
  match name with
  | "rbc-n256" -> rbc ~size ~seed
  | "mmr-n128" -> mmr ~size ~seed
  | "atomic-crash" -> atomic ~size ~seed
  | "paper-traced" -> paper_traced ~size ~seed
  | "sweep-battery" -> sweep ~size ~seed
  | other -> invalid_arg (Printf.sprintf "unknown workload %S" other)
