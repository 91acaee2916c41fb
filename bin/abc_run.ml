(* abc-run: command-line driver for the asynchronous Byzantine
   consensus library.

   One subcommand per protocol:

     abc-run rbc        -n 4 -f 1 --fault equivocate
     abc-run consensus  -n 7 -f 2 --inputs split --adversary split --seeds 20
     abc-run benor      -n 11 -f 2 --mode byzantine
     abc-run acs        -n 4 -f 1
     abc-run smr        -n 4 -f 1 --slots 3 --fault silent
     abc-run check      -n 4 -f 1 --depth 7 --fault flip@1

   Every subcommand spells its scenario as Abc_matrix.Registry tokens,
   one (axis, value) pair per flag, and decodes them in one place, as a
   matrix cell's bindings are; tracing and reports stay here.  Every
   run is deterministic in --seed; bad input is one line and exit 2,
   and a violation check finds exits 1 after its report. *)

module Node_id = Abc_net.Node_id
module Registry = Abc_matrix.Registry
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

(* A scenario flag takes its axis's registry token as written; the
   registry decodes and checks it with the rest. *)
let token name ~docv ~default ~doc = Arg.(value & opt string default & info [ name ] ~docv ~doc)

let adversary_arg =
  token "adversary" ~docv:"POLICY" ~default:"uniform"
    ~doc:"Message scheduler: $(b,fifo), $(b,uniform), $(b,split), $(b,latency:)$(i,MEAN), \
          $(b,target:)$(i,ID) (delay messages to the node), $(b,source:)$(i,ID) (delay its \
          messages) or $(b,eclipse:)$(i,PERIOD) (a rotating victim)."

let fault_arg =
  token "fault" ~docv:"FAULT" ~default:"none"
    ~doc:"Behaviour of the faulty nodes: $(b,none); a $(i,KIND) ($(b,silent), $(b,crash), \
          $(b,crash-after-)$(i,K), $(b,replay), $(b,flip), $(b,balanced-flip), $(b,equivocate), \
          $(b,force-decide) or $(b,corrupt)) on one node, $(i,KIND:COUNT) on the \
          highest-numbered nodes, $(i,KIND@ID,ID,...) on those nodes, or counted kinds joined \
          with $(b,+); or a broadcast's $(b,silent-sender), $(b,crash-sender), \
          $(b,flip-relay) or $(b,equivocate-sender)."

let faulty_arg =
  Arg.(value & opt (some int) None & info [ "faulty" ] ~docv:"K"
         ~doc:"How many nodes a bare $(i,KIND) makes faulty: $(b,--fault silent --faulty 2) is \
               $(b,--fault silent:2).")

let inputs_arg =
  token "inputs" ~docv:"PATTERN" ~default:"split"
    ~doc:"Input pattern: $(b,split) (low half 0, high half 1), $(b,unanimous0), \
          $(b,unanimous1) or $(b,alternate)."

let coin_arg ?(default = "local") ?(doc = "Round coin: $(b,local) or $(b,common).") () =
  token "coin" ~docv:"COIN" ~default ~doc

(* ---- link faults and the reliable transport ---- *)

let loss_arg =
  token "loss" ~docv:"P" ~default:"0"
    ~doc:"Drop each point-to-point message independently with probability \
          $(docv) (deterministic in --seed)."

let dup_arg =
  token "dup" ~docv:"P" ~default:"0"
    ~doc:"Duplicate each delivered message with probability $(docv); the \
          copy is re-enqueued and never re-duplicated."

let partition_arg =
  Arg.(value & opt (some string) None & info [ "partition" ] ~docv:"SPEC"
        ~doc:
          "Sever all links crossing an island boundary during a tick window.          $(docv) is $(i,FROM:UNTIL:id,id,...) — e.g. $(b,10:80:0,1) cuts          nodes 0,1 off from the rest while 10 <= t < 80.")

let reliable_arg =
  Arg.(value & flag & info [ "reliable" ]
        ~doc:
          "Wrap the protocol in the reliable-channel transport          (sequencing, acks, timer-driven retransmission with backoff).          Restricts --fault to message-agnostic kinds: none, silent,          crash, replay.")

(* The flags every subcommand shares, as (axis, token) pairs: n, f, the
   adversary and the fault, where --faulty K counts a bare KIND. *)
let base_term =
  let tokens n f adversary fault faulty =
    let bare = not (String.exists (fun c -> String.contains ":@+" c) fault) in
    let fault = match faulty with Some k when bare -> Printf.sprintf "%s:%d" fault k | _ -> fault in
    [ ("n", string_of_int n); ("f", string_of_int f); ("adversary", adversary); ("fault", fault) ]
  in
  Term.(const tokens $ n_arg $ f_arg $ adversary_arg $ fault_arg $ faulty_arg)

let links_term =
  let tokens loss dup partition reliable =
    [ ("loss", loss); ("dup", dup); ("reliable", string_of_bool reliable) ]
    @ Option.fold partition ~none:[] ~some:(fun p -> [ ("partition", p) ])
  in
  Term.(const tokens $ loss_arg $ dup_arg $ partition_arg $ reliable_arg)

(* ---- tokens to registry scenarios ---- *)

(* Bad input: one "abc-run: ..." line, exit 2. *)
let fail fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "abc-run: %s@." msg;
      exit 2)
    fmt

let or_exit = function Ok x -> x | Error msg -> fail "%s" msg

(* The one decoder behind every subcommand, the registry's, as for a
   matrix cell; Registry.run and Registry.explore check the scenario
   first. *)
let scenario protocol tokens =
  or_exit (Result.map_error snd (Registry.of_tokens (("protocol", protocol) :: tokens)))

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

let run_rbc base links protocol payload_bytes seed trace trace_out =
  (* Without --payload-bytes, bracha broadcasts the classic single bit;
     every other broadcast carries a synthetic string payload, 32 bytes
     unless given. *)
  let bit = protocol = `Bracha && payload_bytes = 0 in
  let name = match protocol with `Bracha -> "bracha-rbc" | `Coded -> "coded-rbc" | `Ir -> "ir-rbc" in
  let payload = if payload_bytes = 0 then 32 else payload_bytes in
  let sc =
    scenario (if bit then "bracha-rbc-bit" else name) (base @ links @ [ ("payload", string_of_int payload) ])
  in
  let label = if sc.reliable then name ^ "+rl" else name in
  let header (r : Registry.run) =
    Fmt.pr "%s n=%d f=%d%s seed=%d stop=%a messages=%d time=%d@." label sc.n sc.f
      (if bit then "" else Printf.sprintf " payload=%dB" sc.payload)
      seed Abc_net.Engine.pp_stop_reason r.stop r.outcome.messages r.outcome.ticks
  in
  ignore (report_run sc ~label ~seed ~trace ~trace_out ~header ~bytes:(not bit) ~diagram:sc.n ())

(* ---- consensus, benor and mmr ---- *)

(* Seeds seed, seed+1, ...: one seed gets [header] and the closing
   report, several get [summary] of how many decided and the rounds
   those took.  Only the first seed is traced. *)
let run_seeds sc ~label ~seed ~seeds ~trace ~trace_out ?lines ~header summary =
  if seeds < 1 then fail "--seeds must be >= 1, got %d" seeds;
  let rounds, failures =
    List.fold_left
      (fun (rounds, failures) k ->
        let header = if seeds = 1 then Some (header ~seed:(seed + k)) else None in
        let o =
          report_run sc ~label ~seed:(seed + k) ~trace ~trace_out ~traced:(k = 0) ?header ?lines ()
        in
        if Registry.decides o then (o.rounds :: rounds, failures) else (rounds, failures + 1))
      ([], 0) (List.init seeds Fun.id)
  in
  if seeds > 1 then begin
    summary ~last:(seed + seeds - 1) ~ok:(List.length rounds) ~failures;
    summarize_rounds "  " rounds
  end

let run_consensus base links inputs coin no_validation plain seed seeds trace trace_out =
  let sc =
    scenario "bracha"
      (base @ links
      @ [ ("inputs", inputs); ("coin", coin); ("validation", string_of_bool (not no_validation));
          ("transport", if plain then "plain" else "rbc") ])
  in
  (* The options in the registry's tokens: coin=… validation=… transport=… *)
  let options =
    String.concat " "
      (List.map
         (fun axis -> axis ^ "=" ^ Option.get (Registry.token ~axis sc))
         [ "coin"; "validation"; "transport" ])
  in
  let label = if sc.reliable then "bracha-consensus+rl" else "bracha-consensus" in
  run_seeds sc ~label ~seed ~seeds ~trace ~trace_out
    ~header:(fun ~seed (r : Registry.run) ->
      Fmt.pr "%s n=%d f=%d seed=%d (%s)@.  %a@." label sc.n sc.f seed options pp_verdict
        r.outcome)
    (fun ~last ~ok ~failures ->
      Fmt.pr "%s n=%d f=%d seeds=%d..%d (%s)@.  ok %d/%d, failures %d@." label sc.n sc.f seed last
        options ok seeds failures)

(* Ben-Or and MMR report one line per run. *)
let run_binary sc ~label ~seed ~seeds =
  let n = sc.Registry.n and f = sc.Registry.f in
  run_seeds sc ~label ~seed ~seeds ~trace:false ~trace_out:None ~lines:false
    ~header:(fun ~seed (r : Registry.run) ->
      Fmt.pr "%s n=%d f=%d seed=%d: %a@." label n f seed pp_verdict r.outcome)
    (fun ~last ~ok ~failures ->
      Fmt.pr "%s n=%d f=%d seeds=%d..%d: ok %d/%d failures %d@." label n f seed last ok seeds
        failures)

let run_benor base inputs coin mode seed seeds =
  let sc = scenario "ben-or" (base @ [ ("inputs", inputs); ("coin", coin); ("mode", mode) ]) in
  run_binary sc ~label:(Printf.sprintf "ben-or(%s)" mode) ~seed ~seeds

(* MMR's safety needs the common coin; local is for the ablation. *)
let run_mmr base inputs coin seed seeds =
  run_binary (scenario "mmr" (base @ [ ("inputs", inputs); ("coin", coin) ])) ~label:"mmr-consensus"
    ~seed ~seeds

(* ---- acs ---- *)

let run_acs base seed =
  let sc = scenario "acs" base in
  let header (r : Registry.run) =
    Fmt.pr "acs n=%d f=%d seed=%d stop=%a messages=%d@." sc.n sc.f seed
      Abc_net.Engine.pp_stop_reason r.stop r.outcome.messages
  in
  ignore (report_run sc ~label:"acs" ~seed ~trace:false ~trace_out:None ~header ())

(* ---- smr: the replicated log, or with --atomic the batched,
   pipelined atomic broadcast ---- *)

let run_smr base links slots atomic batch_size tx_rate epochs window tx_bytes
    checkpoint_interval crash seed trace trace_out =
  if (crash <> [] || checkpoint_interval > 0) && not atomic then
    fail "--crash / --checkpoint-interval need --atomic";
  if slots < 1 && not atomic then fail "--slots must be >= 1, got %d" slots;
  let int = string_of_int in
  let sc =
    if atomic then
      scenario "atomic"
        (base @ links
        @ [ ("batch", int batch_size); ("tx-rate", tx_rate); ("epochs", int epochs);
            ("window", int window); ("payload", int tx_bytes); ("checkpoint", int checkpoint_interval) ]
        @ if crash = [] then [] else [ ("crash", String.concat "," crash) ])
    else
      (* The replicated log runs one ACS per slot, as the atomic
         broadcast runs one per epoch. *)
      scenario "log" (base @ links @ [ ("epochs", int slots) ])
  in
  let label = (if atomic then "smr-atomic" else "smr") ^ if sc.reliable then "+rl" else "" in
  let header (r : Registry.run) =
    if atomic then
      Fmt.pr "%s n=%d f=%d epochs=%d batch=%d window=%d seed=%d" label sc.n sc.f sc.epochs sc.batch
        sc.window seed
    else Fmt.pr "%s n=%d f=%d slots=%d seed=%d" label sc.n sc.f sc.epochs seed;
    Fmt.pr " stop=%a messages=%d time=%d@." Abc_net.Engine.pp_stop_reason r.stop r.outcome.messages
      r.outcome.ticks
  in
  ignore (report_run sc ~label ~seed ~trace ~trace_out ~header ())

(* ---- check (bounded model checking) ---- *)

(* Every schedule of the one-bit broadcast, as the registry explores
   it: its faults and its verdict are a run's.  A violation is a
   verdict miss, exit 1, as in abc-bench run. *)
let run_check n f depth max_states fault =
  let sc =
    scenario "bracha-rbc-bit" [ ("n", string_of_int n); ("f", string_of_int f); ("fault", fault) ]
  in
  let max_depth = if depth = 0 then None else Some depth in
  let outcome = or_exit (Registry.explore sc ~max_depth ~max_states) in
  Fmt.pr "model-check rbc n=%d f=%d depth<=%s: explored=%d exhausted=%b deadlocks=%d depth_reached=%d@."
    n f
    (Option.fold max_depth ~none:"inf" ~some:string_of_int)
    outcome.explored outcome.exhausted outcome.deadlocks outcome.depth_reached;
  match outcome.violation with
  | None -> Fmt.pr "  agreement holds on every explored schedule@."
  | Some v ->
    Fmt.pr "  VIOLATION after %d deliveries:@." (List.length v.schedule);
    List.iter (fun (src, dst, m) -> Fmt.pr "    %a -> %a : %s@." Node_id.pp src Node_id.pp dst m) v.schedule;
    exit 1

(* ---- command wiring ---- *)

let rbc_cmd =
  let term =
    Term.(
      const run_rbc $ base_term $ links_term $ protocol_arg $ payload_bytes_arg $ seed_arg
      $ trace_arg $ trace_out_arg)
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
      const run_consensus $ base_term $ links_term $ inputs_arg $ coin_arg () $ no_validation $ plain
      $ seed_arg $ seeds_arg $ trace_arg $ trace_out_arg)
  in
  Cmd.v (Cmd.info "consensus" ~doc:"Run Bracha's randomized Byzantine consensus.") term

let benor_cmd =
  let mode =
    token "mode" ~docv:"MODE" ~default:"byzantine" ~doc:"Fault mode: $(b,byzantine) or $(b,crash)."
  in
  let term =
    Term.(const run_benor $ base_term $ inputs_arg $ coin_arg () $ mode $ seed_arg $ seeds_arg)
  in
  Cmd.v (Cmd.info "benor" ~doc:"Run the Ben-Or baseline protocol.") term

let mmr_cmd =
  let coin =
    coin_arg ~default:"common"
      ~doc:"Round coin: $(b,common) (default; required for safety) or $(b,local) (ablation only — \
            violates agreement)." ()
  in
  let term = Term.(const run_mmr $ base_term $ inputs_arg $ coin $ seed_arg $ seeds_arg) in
  Cmd.v
    (Cmd.info "mmr" ~doc:"Run MMR (2014) binary agreement, Bracha's modern descendant.")
    term

let acs_cmd =
  Cmd.v (Cmd.info "acs" ~doc:"Run an asynchronous common subset.") Term.(const run_acs $ base_term $ seed_arg)

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
  let term = Term.(const run_check $ n_arg $ f_arg $ depth $ max_states $ fault_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Model-check reliable broadcast over every schedule prefix; exits 1 on a violation.")
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
    token "tx-rate" ~docv:"R" ~default:"0.5"
      ~doc:
        "Open-loop workload: mean client transactions arriving per \
         virtual tick per node (Poisson inter-arrivals, deterministic \
         in --seed; with --atomic)."
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
  let crash =
    Arg.(
      value
      & opt_all string []
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
      const run_smr $ base_term $ links_term $ slots $ atomic $ batch_size $ tx_rate $ epochs
      $ window $ tx_bytes $ checkpoint_interval $ crash $ seed_arg $ trace_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "smr"
       ~doc:"Run the replicated log, or the atomic broadcast with --atomic.")
    term

let () =
  let doc = "Asynchronous Byzantine consensus (Bracha, PODC 1984) simulator" in
  let info = Cmd.info "abc-run" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ rbc_cmd; consensus_cmd; benor_cmd; mmr_cmd; acs_cmd; smr_cmd; check_cmd ]))
