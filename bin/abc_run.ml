(* abc-run: command-line driver for the asynchronous Byzantine
   consensus library.

   One subcommand per protocol:

     abc-run rbc        --n 4 --f 1 --fault equivocate
     abc-run consensus  --n 7 --f 2 --inputs split --adversary split --seeds 20
     abc-run benor      --n 11 --f 2 --mode byzantine
     abc-run acs        --n 4 --f 1
     abc-run smr        --n 4 --f 1 --slots 3 --fault silent

   rbc, consensus, benor, mmr and smr --atomic translate their flags into
   an Abc_matrix.Registry scenario; tracing and reports stay here.  Every
   run is deterministic in --seed; bad input is one line and exit 2. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Registry = Abc_matrix.Registry
module B = Abc.Bracha_consensus
module BO = Abc.Ben_or
open Cmdliner

(* ---- shared argument vocabulary ---- *)

let n_arg =
  Arg.(value & opt int 4 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let f_arg =
  Arg.(
    value
    & opt int 1
    & info [ "f"; "max-faults" ] ~docv:"F" ~doc:"Resilience parameter handed to the protocol.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Root random seed.")

let seeds_arg =
  Arg.(
    value
    & opt int 1
    & info [ "seeds" ] ~docv:"K"
        ~doc:"Run $(docv) seeds (seed, seed+1, ...) and summarize.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Dump the tail of the execution trace after the run.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the full execution trace as JSON Lines (schema abc.trace, see            OBSERVABILITY.md) to $(docv), for analysis with $(b,abc-trace).")

let adversary_arg =
  let choices =
    [ ("fifo", Registry.Fifo); ("uniform", Registry.Uniform); ("latency", Registry.Latency 8.);
      ("targeted", Registry.Target 0); ("split", Registry.Split) ]
  in
  Arg.(
    value
    & opt (enum choices) Registry.Uniform
    & info [ "adversary" ] ~docv:"POLICY"
        ~doc:"Message scheduler: $(b,fifo), $(b,uniform), $(b,latency), \
              $(b,targeted) or $(b,split).")

let fault_kind_arg =
  let choices =
    [ ("none", None); ("silent", Some Registry.Silent); ("crash", Some Registry.Crash);
      ("flip", Some Registry.Flip); ("equivocate", Some Registry.Equivocate);
      ("force-decide", Some Registry.Force_decide); ("replay", Some Registry.Replay) ]
  in
  Arg.(
    value
    & opt (enum choices) None
    & info [ "fault" ] ~docv:"KIND"
        ~doc:"Behaviour of the faulty nodes: $(b,none), $(b,silent), $(b,crash), \
              $(b,flip), $(b,equivocate), $(b,force-decide) or $(b,replay).")

let faulty_count_arg =
  Arg.(
    value
    & opt int 1
    & info [ "faulty" ] ~docv:"K"
        ~doc:"How many nodes misbehave (the highest-numbered $(docv) nodes).")

let inputs_arg =
  let choices =
    [ ("zero", Registry.Unanimous Abc.Value.Zero); ("one", Registry.Unanimous Abc.Value.One);
      ("split", Registry.Halves); ("alternate", Registry.Alternating) ]
  in
  Arg.(
    value
    & opt (enum choices) Registry.Halves
    & info [ "inputs" ] ~docv:"PATTERN"
        ~doc:"Input pattern: $(b,zero), $(b,one), $(b,split) (low half 0, high \
              half 1) or $(b,alternate).")

let coin_arg =
  let choices = [ ("local", Abc.Coin.local); ("common", Abc.Coin.common ~seed:7) ] in
  Arg.(
    value
    & opt (enum choices) Abc.Coin.local
    & info [ "coin" ] ~docv:"COIN" ~doc:"Round coin: $(b,local) or $(b,common).")

(* ---- link faults and the reliable transport ---- *)

let loss_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:"Drop each point-to-point message independently with probability \
              $(docv) (deterministic in --seed).")

let dup_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "dup" ] ~docv:"P"
        ~doc:"Duplicate each delivered message with probability $(docv); the \
              copy is re-enqueued and never re-duplicated.")

let partition_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "partition" ] ~docv:"SPEC"
        ~doc:
          "Sever all links crossing an island boundary during a tick window.          $(docv) is $(i,FROM:UNTIL:id,id,...) — e.g. $(b,10:80:0,1) cuts          nodes 0,1 off from the rest while 10 <= t < 80.")

let reliable_arg =
  Arg.(
    value & flag
    & info [ "reliable" ]
        ~doc:
          "Wrap the protocol in the reliable-channel transport          (sequencing, acks, timer-driven retransmission with backoff).          Restricts --fault to message-agnostic kinds: none, silent,          crash, replay.")

(* ---- flags to registry scenarios ---- *)

(* Bad input: one "abc-run: ..." line, exit 2. *)
let fail fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "abc-run: %s@." msg;
      exit 2)
    fmt

let or_exit = function Ok x -> x | Error msg -> fail "%s" msg

let partition_of ~n =
  Option.map (fun spec ->
      match Registry.partition spec with
      | Ok p when List.for_all (fun i -> i < n) p.Registry.island -> p
      | Ok _ | Error _ -> fail "bad --partition %S (want FROM:UNTIL:id,id,...)" spec)

let scenario protocol ~n ~f ~adversary ~fault ~faulty_count =
  let fault = match fault with None -> Registry.No_fault | Some k -> Registry.Faulty (k, faulty_count) in
  { (Registry.scenario ~protocol ~n ~f) with Registry.adversary; fault }

let with_links sc ~loss ~dup ~partition ~reliable =
  if loss < 0.0 || loss > 1.0 || dup < 0.0 || dup > 1.0 then
    fail "--loss and --dup must lie in [0,1]";
  { sc with Registry.loss; dup; partition = partition_of ~n:sc.Registry.n partition; reliable }

let pp_verdict ppf (o : Registry.outcome) =
  Fmt.pf ppf "terminated=%b agreement=%b validity=%b max_round=%d messages=%d duration=%d"
    o.decided o.agreement o.validity o.rounds o.messages o.ticks

let print_link_stats metrics =
  let c = Abc_sim.Metrics.counter metrics in
  Fmt.pr "  links: dropped=%d (loss %d, partition %d) duplicated=%d retx=%d acks=%d timeouts=%d@."
    (c "dropped.link") (c "dropped.link.loss") (c "dropped.link.partition")
    (c "duplicated.link") (c "sent.rl.retx") (c "sent.rl.ack") (c "timer.fired")

(* A deep buffer when exporting: analysis wants the whole run, not the
   tail. *)
let trace_capacity = 1_000_000

let make_trace ~trace ~trace_out =
  if trace || trace_out <> None then
    Some (Abc_sim.Trace.create ~capacity:trace_capacity ())
  else None

let write_trace_out ~protocol ~n ~f ~seed trace_out tr =
  match (trace_out, tr) with
  | Some file, Some trace ->
    let meta =
      [
        ("protocol", Abc_sim.Json.String protocol);
        ("n", Abc_sim.Json.Int n);
        ("f", Abc_sim.Json.Int f);
        ("seed", Abc_sim.Json.Int seed);
      ]
    in
    let oc = open_out file in
    Abc_sim.Trace.write_jsonl ~meta oc trace;
    close_out oc;
    Fmt.pr "trace: %d events written to %s@." (Abc_sim.Trace.length trace) file
  | None, _ | _, None -> ()

let print_trace ?n trace =
  Fmt.pr "@.--- execution trace (tail) ---@.";
  match n with
  | Some n -> print_string (Abc_net.Sequence_diagram.render trace ~n)
  | None -> Abc_sim.Trace.dump Fmt.stdout trace

let summarize_rounds label rounds =
  match Abc_sim.Summary.of_int_list rounds with
  | Some s ->
    Fmt.pr "%s rounds: mean %.2f median %.0f p95 %.0f max %.0f (over %d seeds)@."
      label (Abc_sim.Summary.mean s) (Abc_sim.Summary.median s)
      (Abc_sim.Summary.percentile s 95.) (Abc_sim.Summary.max_value s)
      (Abc_sim.Summary.count s)
  | None -> ()

(* ---- rbc ---- *)

let protocol_arg =
  let choices = [ ("bracha", `Bracha); ("coded", `Coded); ("ir", `Ir) ] in
  Arg.(
    value
    & opt (enum choices) `Bracha
    & info [ "protocol" ] ~docv:"P"
        ~doc:
          "Broadcast protocol: $(b,bracha) (3-phase, f < n/3), $(b,coded) \
           (erasure-coded AVID-style dispersal, f < n/3, O(|m|/n) bytes per \
           link) or $(b,ir) (Imbs-Raynal 2-phase, f < n/5, n2+n messages).")

let payload_bytes_arg =
  Arg.(
    value
    & opt int 0
    & info [ "payload-bytes" ] ~docv:"BYTES"
        ~doc:
          "Broadcast a synthetic payload of $(docv) bytes and report the \
           byte-level bandwidth counters.  0 (the default) keeps the \
           classic single-bit payload for $(b,bracha).")

(* Engine throughput for the closing report: deliveries are the
   hot-path unit of work (one arena removal, one protocol step), so
   deliveries over host wall-clock is the same events/sec measure the
   E19 bench table reports (see PERFORMANCE.md).  Skipped for runs too
   fast to time meaningfully. *)
let print_events_rate ~deliveries t0 =
  let dt = Unix.gettimeofday () -. t0 in
  if dt >= 0.001 && deliveries > 0 then
    Fmt.pr "  events/sec=%.0f (%d deliveries in %.3fs)@."
      (float_of_int deliveries /. dt)
      deliveries dt

let print_byte_counters ~n metrics =
  let c = Abc_sim.Metrics.counter metrics in
  Fmt.pr "  bytes: sent=%d delivered=%d per-node=%d@." (c "bytes.sent")
    (c "bytes.delivered")
    (c "bytes.sent" / n);
  let prefix = "bytes.sent." in
  let pl = String.length prefix in
  match
    List.filter
      (fun (name, _) -> String.length name > pl && String.starts_with ~prefix name)
      (Abc_sim.Metrics.counters metrics)
  with
  | [] -> ()
  | labelled ->
    Fmt.pr "  bytes by label:%a@."
      Fmt.(list ~sep:nop (fun ppf (l, v) -> pf ppf " %s=%d" (String.sub l pl (String.length l - pl)) v))
      labelled

(* One registry run and, given a [header], its closing report: the
   header, events/sec, byte counters, link statistics and the
   registry's per-node lines.  The trace is exported either way. *)
let report_run (sc : Registry.scenario) ~label ~seed ~trace ~trace_out ?(traced = true)
    ?header ?(bytes = false) ?(lines = true) ?diagram () =
  let tr = if traced then make_trace ~trace ~trace_out else None in
  let t0 = Unix.gettimeofday () in
  let r = or_exit (Registry.run ?trace:tr sc ~seed) in
  Option.iter
    (fun header ->
      header r;
      print_events_rate ~deliveries:r.deliveries t0;
      if bytes then print_byte_counters ~n:sc.n r.metrics;
      if Option.is_some (Registry.link_faults sc) then print_link_stats r.metrics;
      if lines then List.iter (Fmt.pr "%s@.") (Lazy.force r.lines))
    header;
  write_trace_out ~protocol:label ~n:sc.n ~f:sc.f ~seed trace_out tr;
  if trace then Option.iter (print_trace ?n:diagram) tr;
  r.outcome

let run_rbc n f seed adversary fault faulty_count loss dup partition reliable
    protocol payload_bytes trace trace_out =
  (* Without --payload-bytes, bracha broadcasts the classic single bit;
     every other broadcast carries a synthetic string payload. *)
  let bit = protocol = `Bracha && payload_bytes = 0 in
  let name = match protocol with `Bracha -> "bracha-rbc" | `Coded -> "coded-rbc" | `Ir -> "ir-rbc" in
  let label = if reliable then name ^ "+rl" else name in
  let sc =
    with_links ~loss ~dup ~partition ~reliable
      (scenario (if bit then "bracha-rbc-bit" else name) ~n ~f ~adversary ~fault ~faulty_count)
  in
  let sc = { sc with payload = (if payload_bytes > 0 then payload_bytes else 32) } in
  let header (r : Registry.run) =
    Fmt.pr "%s n=%d f=%d%s seed=%d stop=%a messages=%d time=%d@." label n f
      (if bit then "" else Printf.sprintf " payload=%dB" sc.payload)
      seed Abc_net.Engine.pp_stop_reason r.stop r.outcome.messages r.outcome.ticks
  in
  ignore (report_run sc ~label ~seed ~trace ~trace_out ~header ~bytes:(not bit) ~diagram:n ())

(* ---- consensus, benor and mmr ---- *)

(* Seeds seed, seed+1, ...: one seed gets [header] and the closing
   report, several get [summary] of how many decided and the rounds
   those took.  Only the first seed is traced. *)
let run_seeds sc ~label ~seed ~seeds ~trace ~trace_out ?lines ~header summary =
  let rounds, failures =
    List.fold_left
      (fun (rounds, failures) k ->
        let header = if seeds = 1 then Some (header ~seed:(seed + k)) else None in
        let o =
          report_run sc ~label ~seed:(seed + k) ~trace ~trace_out ~traced:(k = 0) ?header ?lines ()
        in
        if Registry.decides o then (o.rounds :: rounds, failures) else (rounds, failures + 1))
      ([], 0) (List.init (max seeds 0) Fun.id)
  in
  if seeds > 1 then begin
    summary ~last:(seed + seeds - 1) ~ok:(List.length rounds) ~failures;
    summarize_rounds "  " rounds
  end

let run_consensus n f seed seeds adversary fault faulty_count inputs coin
    no_validation plain loss dup partition reliable trace trace_out =
  let transport = if plain then B.Options.Plain else B.Options.Reliable in
  let options = { B.Options.coin; validation = not no_validation; transport } in
  let sc =
    with_links ~loss ~dup ~partition ~reliable
      (scenario "bracha" ~n ~f ~adversary ~fault ~faulty_count)
  in
  let sc = { sc with inputs; coin = Some coin; validation = options.validation; plain } in
  let label = if reliable then "bracha-consensus+rl" else "bracha-consensus" in
  run_seeds sc ~label ~seed ~seeds ~trace ~trace_out
    ~header:(fun ~seed (r : Registry.run) ->
      Fmt.pr "%s n=%d f=%d seed=%d (%a)@.  %a@." label n f seed B.Options.pp options pp_verdict
        r.outcome)
    (fun ~last ~ok ~failures ->
      Fmt.pr "%s n=%d f=%d seeds=%d..%d (%a)@.  ok %d/%d, failures %d@." label n f seed last
        B.Options.pp options ok seeds failures)

(* Ben-Or and MMR report one line per run. *)
let run_binary sc ~label ~seed ~seeds =
  let n = sc.Registry.n and f = sc.Registry.f in
  run_seeds sc ~label ~seed ~seeds ~trace:false ~trace_out:None ~lines:false
    ~header:(fun ~seed (r : Registry.run) ->
      Fmt.pr "%s n=%d f=%d seed=%d: %a@." label n f seed pp_verdict r.outcome)
    (fun ~last ~ok ~failures ->
      Fmt.pr "%s n=%d f=%d seeds=%d..%d: ok %d/%d failures %d@." label n f seed last ok seeds
        failures)

let run_benor n f seed seeds adversary fault faulty_count inputs coin mode =
  let sc = scenario "ben-or" ~n ~f ~adversary ~fault ~faulty_count in
  run_binary
    { sc with inputs; coin = Some coin; crash_mode = mode = BO.Mode.Crash }
    ~label:(Fmt.str "ben-or(%a)" BO.Mode.pp mode) ~seed ~seeds

(* MMR's safety needs the common coin; local is for the ablation. *)
let run_mmr n f seed seeds adversary fault faulty_count inputs coin =
  let sc = scenario "mmr" ~n ~f ~adversary ~fault ~faulty_count in
  run_binary { sc with inputs; coin = Some coin } ~label:"mmr-consensus" ~seed ~seeds

(* ---- acs ---- *)

let run_acs n f seed adversary fault faulty_count =
  let module Acs = Abc.Acs.Make (Abc.Payloads.Int_payload) in
  let module E = Abc_net.Engine.Make (Acs) in
  let sc = scenario "acs" ~n ~f ~adversary ~fault ~faulty_count in
  let config =
    E.config ~n ~f
      ~inputs:(Acs.inputs ~n ~coin:Abc.Coin.local (Array.init n (fun i -> 100 + i)))
      ~faulty:(or_exit (Registry.faulty ~n ~reliable:false sc.fault))
      ~adversary:(Registry.policy ~n adversary)
      ~seed ()
  in
  let result = or_exit (Registry.guard (fun () -> E.run config)) in
  Fmt.pr "acs n=%d f=%d seed=%d stop=%a messages=%d@." n f seed
    Abc_net.Engine.pp_stop_reason result.E.stop
    (Abc_sim.Metrics.counter result.E.metrics "sent");
  Array.iteri
    (fun i outputs ->
      match outputs with
      | [ (_, output) ] -> Fmt.pr "  node %d: %a@." i Acs.pp_output output
      | [] -> Fmt.pr "  node %d: no output@." i
      | _ -> ())
    result.E.outputs

(* ---- smr ---- *)

module Smr_runner
    (P : Abc_net.Protocol.S
           with type input = Abc_smr.Replicated_log.input
            and type output = Abc_smr.Replicated_log.output) =
struct
  module Log = Abc_smr.Replicated_log

  let go ~label ~n ~f ~seed ~adversary ~faulty ~link_faults ~slots ~trace
      ~trace_out =
    let module E = Abc_net.Engine.Make (P) in
    let tr = make_trace ~trace ~trace_out in
    let config =
      E.config ~n ~f
        ~inputs:
          (Log.inputs ~n ~slots ~coin:Abc.Coin.local (fun i k ->
               Printf.sprintf "cmd-%d.%d" i k))
        ~faulty
        ~adversary:(Registry.policy ~n adversary)
        ~seed ?link_faults ?trace:tr ()
    in
    let t0 = Unix.gettimeofday () in
    let result = or_exit (Registry.guard (fun () -> E.run config)) in
    Fmt.pr "%s n=%d f=%d slots=%d seed=%d stop=%a messages=%d time=%d@." label n
      f slots seed Abc_net.Engine.pp_stop_reason result.E.stop
      (Abc_sim.Metrics.counter result.E.metrics "sent")
      result.E.duration;
    print_events_rate ~deliveries:result.E.deliveries t0;
    if Option.is_some link_faults then print_link_stats result.E.metrics;
    Array.iteri
      (fun i outputs ->
        match Log.log_of_outputs outputs with
        | Some log ->
          Fmt.pr "  replica %d: %a@." i Fmt.(list ~sep:(any " -> ") string) log
        | None -> Fmt.pr "  replica %d: incomplete@." i)
      result.E.outputs;
    write_trace_out ~protocol:label ~n ~f ~seed trace_out tr;
    if trace then Option.iter print_trace tr
end

(* ---- smr --atomic: batched, pipelined atomic broadcast ---- *)

let run_smr_atomic (sc : Registry.scenario) ~seed ~trace ~trace_out =
  (* Crash-recovery needs the raw protocol: under --reliable the
     transport's pre-crash acks would falsely cover sequence numbers a
     restarted node never saw, and without checkpoints a recovered
     node has no catch-up path (epoch agreements are never
     retransmitted). *)
  if sc.crash <> [] && sc.reliable then fail "--crash is incompatible with --reliable";
  if sc.crash <> [] && sc.checkpoint <= 0 then
    fail
      "--crash needs --checkpoint-interval > 0 (a recovered node catches up via stable \
       checkpoints)";
  let label = if sc.reliable then "smr-atomic+rl" else "smr-atomic" in
  let header (r : Registry.run) =
    Fmt.pr "%s n=%d f=%d epochs=%d batch=%d window=%d seed=%d stop=%a messages=%d time=%d@."
      label sc.n sc.f sc.epochs sc.batch sc.window seed Abc_net.Engine.pp_stop_reason r.stop
      r.outcome.messages r.outcome.ticks
  in
  ignore (report_run sc ~label ~seed ~trace ~trace_out ~header ())

let run_smr n f seed adversary fault faulty_count slots atomic batch_size
    tx_rate epochs window tx_bytes checkpoint_interval crash loss dup partition
    reliable trace trace_out =
  let module Log = Abc_smr.Replicated_log in
  let crash = List.concat crash in
  let sc =
    with_links ~loss ~dup ~partition ~reliable
      (scenario "atomic" ~n ~f ~adversary ~fault ~faulty_count)
  in
  if (crash <> [] || checkpoint_interval > 0) && not atomic then
    fail "--crash / --checkpoint-interval need --atomic";
  let faulty () = or_exit (Registry.faulty ~n ~reliable sc.fault) in
  let link_faults = Registry.link_faults sc in
  if atomic then
    run_smr_atomic
      { sc with batch = batch_size; tx_rate; epochs; window; payload = tx_bytes;
                checkpoint = checkpoint_interval; crash }
      ~seed ~trace ~trace_out
  else if reliable then begin
    let module RL = Abc_net.Reliable_link.Make (Log) in
    let module R = Smr_runner (RL) in
    R.go ~label:"smr+rl" ~n ~f ~seed ~adversary ~faulty:(faulty ()) ~link_faults ~slots
      ~trace ~trace_out
  end
  else begin
    let module R = Smr_runner (Log) in
    R.go ~label:"smr" ~n ~f ~seed ~adversary ~faulty:(faulty ()) ~link_faults ~slots
      ~trace ~trace_out
  end

(* ---- check (bounded model checking) ---- *)

let run_check n f seed depth max_states fault jobs =
  ignore seed;
  let module Rbc = Abc.Bracha_rbc.Binary in
  let module X = Abc_check.Explore.Make (Rbc) in
  let two_faced _rng ~dst v =
    if Node_id.to_int dst < n / 2 then v else Abc.Value.negate v
  in
  let faulty =
    match fault with
    | None -> []
    | Some Registry.Silent -> [ (Node_id.of_int 0, Behaviour.Silent) ]
    | Some Registry.Crash -> [ (Node_id.of_int 0, Behaviour.Crash_after 2) ]
    | Some Registry.Equivocate ->
      [ (Node_id.of_int 0, Behaviour.Equivocate (Rbc.Fault.equivocate two_faced)) ]
    | Some (Registry.Flip | Registry.Balanced_flip | Registry.Force_decide | Registry.Replay) ->
      [ (Node_id.of_int 1,
         Behaviour.Mutate (Rbc.Fault.substitute (fun _ v -> Abc.Value.negate v))) ]
  in
  let agreement outputs =
    let delivered =
      Array.to_list outputs
      |> List.concat_map (List.map (fun (Rbc.Delivered v) -> v))
    in
    match delivered with
    | [] -> true
    | v :: rest -> List.for_all (Abc.Value.equal v) rest
  in
  let cfg =
    {
      X.n;
      f;
      inputs = Rbc.inputs ~n ~sender:(Node_id.of_int 0) Abc.Value.One;
      faulty;
      invariant = agreement;
      max_states;
      max_depth = (if depth = 0 then None else Some depth);
      drop_plan = None;
    }
  in
  (* jobs = 1 keeps the historical sequential search (and its exact
     explored/deadlock counts); anything else fans the top-level
     branches out over a domain pool. *)
  let outcome =
    or_exit
      (Registry.guard (fun () ->
           match jobs with
           | Some 1 | None -> X.run cfg
           | Some j -> X.run_parallel ~pool:(Abc_exec.Pool.create ~jobs:j ()) cfg))
  in
  Fmt.pr
    "model-check rbc n=%d f=%d depth<=%s: explored=%d exhausted=%b deadlocks=%d \
     depth_reached=%d@."
    n f
    (if depth = 0 then "inf" else string_of_int depth)
    outcome.X.explored outcome.X.exhausted outcome.X.deadlocks
    outcome.X.depth_reached;
  match outcome.X.violation with
  | None -> Fmt.pr "  agreement holds on every explored schedule@."
  | Some v ->
    Fmt.pr "  VIOLATION after %d deliveries:@." (List.length v.X.schedule);
    List.iter
      (fun (src, dst, m) ->
        Fmt.pr "    %a -> %a : %s@." Node_id.pp src Node_id.pp dst m)
      v.X.schedule

(* ---- command wiring ---- *)

(* ---- command wiring ---- *)

let rbc_cmd =
  let term =
    Term.(
      const run_rbc $ n_arg $ f_arg $ seed_arg $ adversary_arg $ fault_kind_arg
      $ faulty_count_arg $ loss_arg $ dup_arg $ partition_arg $ reliable_arg
      $ protocol_arg $ payload_bytes_arg $ trace_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "rbc"
       ~doc:
         "Run one reliable broadcast (bracha, coded or ir; see --protocol and \
          --payload-bytes).")
    term

let consensus_cmd =
  let no_validation =
    Arg.(value & flag & info [ "no-validation" ] ~doc:"Disable message validation.")
  in
  let plain =
    Arg.(
      value & flag
      & info [ "plain" ] ~doc:"Plain broadcasts instead of reliable broadcast.")
  in
  let term =
    Term.(
      const run_consensus $ n_arg $ f_arg $ seed_arg $ seeds_arg $ adversary_arg
      $ fault_kind_arg $ faulty_count_arg $ inputs_arg $ coin_arg $ no_validation
      $ plain $ loss_arg $ dup_arg $ partition_arg $ reliable_arg $ trace_arg
      $ trace_out_arg)
  in
  Cmd.v (Cmd.info "consensus" ~doc:"Run Bracha's randomized Byzantine consensus.") term

let benor_cmd =
  let mode =
    Arg.(
      value
      & opt (enum [ ("byzantine", BO.Mode.Byzantine); ("crash", BO.Mode.Crash) ]) BO.Mode.Byzantine
      & info [ "mode" ] ~docv:"MODE" ~doc:"Fault mode: $(b,byzantine) or $(b,crash).")
  in
  let term =
    Term.(
      const run_benor $ n_arg $ f_arg $ seed_arg $ seeds_arg $ adversary_arg
      $ fault_kind_arg $ faulty_count_arg $ inputs_arg $ coin_arg $ mode)
  in
  Cmd.v (Cmd.info "benor" ~doc:"Run the Ben-Or baseline protocol.") term

let mmr_cmd =
  let coin_common =
    Arg.(
      value
      & opt (enum [ ("local", Abc.Coin.local); ("common", Abc.Coin.common ~seed:7) ])
          (Abc.Coin.common ~seed:7)
      & info [ "coin" ] ~docv:"COIN"
          ~doc:
            "Round coin: $(b,common) (default; required for safety) or $(b,local) \
             (ablation only — violates agreement).")
  in
  let term =
    Term.(
      const run_mmr $ n_arg $ f_arg $ seed_arg $ seeds_arg $ adversary_arg
      $ fault_kind_arg $ faulty_count_arg $ inputs_arg $ coin_common)
  in
  Cmd.v
    (Cmd.info "mmr" ~doc:"Run MMR (2014) binary agreement, Bracha's modern descendant.")
    term

let acs_cmd =
  let term =
    Term.(
      const run_acs $ n_arg $ f_arg $ seed_arg $ adversary_arg $ fault_kind_arg
      $ faulty_count_arg)
  in
  Cmd.v (Cmd.info "acs" ~doc:"Run an asynchronous common subset.") term

let check_cmd =
  let depth =
    Arg.(
      value & opt int 8
      & info [ "depth" ] ~docv:"D"
          ~doc:"Schedule-length bound (0 = unbounded, may be huge).")
  in
  let max_states =
    Arg.(
      value
      & opt int 500_000
      & info [ "states" ] ~docv:"K" ~doc:"Exploration budget in states.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Worker domains for the branch fan-out (default 1: the exact \
             sequential search).  Parallel runs explore the same space but \
             report per-branch state counts.")
  in
  let term =
    Term.(
      const run_check $ n_arg $ f_arg $ seed_arg $ depth $ max_states
      $ fault_kind_arg $ jobs)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Model-check reliable broadcast over every schedule prefix.")
    term

let smr_cmd =
  let slots =
    Arg.(value & opt int 3 & info [ "slots" ] ~docv:"K" ~doc:"Log length in slots.")
  in
  let atomic =
    Arg.(
      value & flag
      & info [ "atomic" ]
          ~doc:
            "Run the batched, pipelined atomic broadcast (HoneyBadger-style \
             epochs over coded-RBC ACS) instead of the slot-per-command \
             replicated log.  See --batch-size, --tx-rate, --epochs, \
             --window and --tx-bytes.")
  in
  let batch_size =
    Arg.(
      value & opt int 8
      & info [ "batch-size" ] ~docv:"B"
          ~doc:"Transactions each node proposes per epoch (with --atomic).")
  in
  let tx_rate =
    Arg.(
      value
      & opt float 0.5
      & info [ "tx-rate" ] ~docv:"R"
          ~doc:
            "Open-loop workload: mean client transactions arriving per \
             virtual tick per node (Poisson inter-arrivals, deterministic \
             in --seed; with --atomic).")
  in
  let epochs =
    Arg.(
      value & opt int 3
      & info [ "epochs" ] ~docv:"E" ~doc:"Epochs to run (with --atomic).")
  in
  let window =
    Arg.(
      value & opt int 2
      & info [ "window" ] ~docv:"W"
          ~doc:
            "Pipeline width: epochs allowed in flight above the last \
             committed one (with --atomic).")
  in
  let tx_bytes =
    Arg.(
      value & opt int 32
      & info [ "tx-bytes" ] ~docv:"BYTES"
          ~doc:"Wire size each transaction is padded to (with --atomic).")
  in
  let checkpoint_interval =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-interval" ] ~docv:"C"
          ~doc:
            "Broadcast a checkpoint digest vote every $(docv) epochs (with \
             --atomic): 2f+1 matching votes make the checkpoint stable, \
             garbage-collecting the epochs below it and enabling \
             state-transfer catch-up.  0 (default) disables checkpoints.")
  in
  let crash_plan_conv =
    let print ppf plans =
      Fmt.(list ~sep:(any ",") (fun ppf (node, schedule) ->
               pf ppf "%d%a" node (list ~sep:nop (fun ppf (c, r) -> pf ppf ":%d:%d" c r)) schedule))
        ppf plans
    in
    Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (Registry.crash s)), print)
  in
  let crash =
    Arg.(
      value
      & opt_all crash_plan_conv []
      & info [ "crash" ] ~docv:"PLAN"
          ~doc:
            "Crash-recovery schedule $(i,NODE:CRASH:REJOIN[:CRASH:REJOIN...]) \
             (with --atomic; repeatable, one plan per node): crash the node \
             at each CRASH tick — losing volatile state, keeping its durable \
             store — and restart it at the matching REJOIN tick.  Needs \
             --checkpoint-interval > 0 and is incompatible with --reliable.")
  in
  let term =
    Term.(
      const run_smr $ n_arg $ f_arg $ seed_arg $ adversary_arg $ fault_kind_arg
      $ faulty_count_arg $ slots $ atomic $ batch_size $ tx_rate $ epochs
      $ window $ tx_bytes $ checkpoint_interval $ crash $ loss_arg $ dup_arg
      $ partition_arg $ reliable_arg $ trace_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "smr"
       ~doc:"Run the replicated log, or the atomic broadcast with --atomic.")
    term

let () =
  let doc = "Asynchronous Byzantine consensus (Bracha, PODC 1984) simulator" in
  let info = Cmd.info "abc-run" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ rbc_cmd; consensus_cmd; benor_cmd; mmr_cmd; acs_cmd; smr_cmd; check_cmd ]))
