(* Tests for the replicated log (state machine replication). *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module Log = Abc_smr.Replicated_log
module E = Abc_net.Engine.Make (Log)

let node = Node_id.of_int

let command i k = Printf.sprintf "cmd-%d.%d" i k

let run ?faulty ?(adversary = Adversary.uniform) ?(coin = Abc.Coin.local) ~n ~f
    ~slots ~seed () =
  let inputs = Log.inputs ~n ~slots ~coin command in
  E.run (E.config ?faulty ~n ~f ~inputs ~seed ~adversary ())

let check_terminal result =
  Alcotest.(check string) "all terminal" "all-terminal"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.E.stop)

let logs result honest =
  List.map
    (fun id ->
      match Log.log_of_outputs result.E.outputs.(Node_id.to_int id) with
      | Some log -> log
      | None -> Alcotest.fail (Fmt.str "replica %a has no complete log" Node_id.pp id))
    honest

let test_logs_identical () =
  let result = run ~n:4 ~f:1 ~slots:3 ~seed:1 () in
  check_terminal result;
  match logs result (Node_id.all ~n:4) with
  | first :: rest ->
    List.iter
      (fun log -> Alcotest.(check (list string)) "identical log" first log)
      rest;
    (* 4 replicas x 3 slots, nobody faulty: 12 commands expected. *)
    Alcotest.(check int) "log length" 12 (List.length first)
  | [] -> Alcotest.fail "no logs"

let test_commits_in_slot_order () =
  let result = run ~n:4 ~f:1 ~slots:3 ~seed:2 () in
  check_terminal result;
  Array.iter
    (fun outputs ->
      let slots =
        List.filter_map
          (fun (_, o) ->
            match o with
            | Log.Committed { slot; _ } -> Some slot
            | Log.Log_complete _ -> None)
          outputs
      in
      Alcotest.(check (list int)) "slots in order" [ 0; 1; 2 ] slots)
    result.E.outputs

let test_committed_contents_sorted_by_node () =
  let result = run ~n:4 ~f:1 ~slots:1 ~seed:3 () in
  check_terminal result;
  Array.iter
    (fun outputs ->
      List.iter
        (fun (_, o) ->
          match o with
          | Log.Committed { commands; _ } ->
            let ids = List.map (fun (id, _) -> Node_id.to_int id) commands in
            Alcotest.(check (list int)) "sorted ids" (List.sort Int.compare ids) ids
          | Log.Log_complete _ -> ())
        outputs)
    result.E.outputs

let test_faulty_replica_excluded_consistently () =
  let faulty = [ (node 1, Behaviour.Silent) ] in
  let result = run ~faulty ~n:4 ~f:1 ~slots:2 ~seed:4 () in
  check_terminal result;
  let honest = [ node 0; node 2; node 3 ] in
  match logs result honest with
  | first :: rest ->
    List.iter (fun log -> Alcotest.(check (list string)) "identical" first log) rest;
    Alcotest.(check bool) "no commands from silent replica" true
      (List.for_all (fun c -> not (String.length c > 5 && String.sub c 0 6 = "cmd-1.")) first)
  | [] -> Alcotest.fail "no logs"

let test_lying_replica_logs_still_agree () =
  (* Replica 3 lies as the registry's [log] entry tells [flip]: slot
     messages cannot be forged, so it keeps sending them unchanged
     through an identity [Mutate].  The honest replicas must complete
     one identical log. *)
  let faulty = [ (node 3, Behaviour.Mutate (fun _rng m -> m)) ] in
  let result = run ~faulty ~n:4 ~f:1 ~slots:2 ~seed:5 () in
  check_terminal result;
  match logs result [ node 0; node 1; node 2 ] with
  | first :: rest ->
    List.iter (fun log -> Alcotest.(check (list string)) "identical" first log) rest
  | [] -> Alcotest.fail "no logs"

let test_single_slot () =
  let result = run ~n:4 ~f:1 ~slots:1 ~seed:6 () in
  check_terminal result;
  match logs result (Node_id.all ~n:4) with
  | first :: _ -> Alcotest.(check int) "one slot of 4" 4 (List.length first)
  | [] -> Alcotest.fail "no logs"

let test_larger_cluster () =
  let result = run ~n:7 ~f:2 ~slots:2 ~seed:7 () in
  check_terminal result;
  match logs result (Node_id.all ~n:7) with
  | first :: rest ->
    List.iter (fun log -> Alcotest.(check (list string)) "identical" first log) rest
  | [] -> Alcotest.fail "no logs"

(* ---- atomic broadcast (batched, pipelined) ---- *)

module Atomic = Abc_smr.Atomic_broadcast
module Workload = Abc_smr.Workload
module EA = Abc_net.Engine.Make (Atomic)

let mempools ~n ~count ~seed =
  Array.init n (fun i ->
      Workload.txs
        (Workload.generate ~seed ~node:(node i) ~count ~rate:0.05 ~tx_bytes:32))

let run_atomic ?faulty ?(adversary = Adversary.uniform) ?(window = 2) ~n ~f
    ~epochs ~batch_size ~seed () =
  let mempools = mempools ~n ~count:(batch_size * epochs) ~seed in
  let inputs =
    Atomic.inputs ~n ~window ~batch_size ~epochs ~coin_seed:((seed * 1000) + 17)
      mempools
  in
  EA.run (EA.config ?faulty ~n ~f ~inputs ~seed ~adversary ())

let check_atomic_terminal result =
  Alcotest.(check string) "all terminal" "all-terminal"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.EA.stop)

let atomic_logs result honest =
  List.map
    (fun id ->
      match Atomic.log_of_outputs result.EA.outputs.(Node_id.to_int id) with
      | Some log -> log
      | None ->
        Alcotest.fail (Fmt.str "replica %a has no complete log" Node_id.pp id))
    honest

let test_atomic_total_order () =
  let result = run_atomic ~n:4 ~f:1 ~epochs:3 ~batch_size:4 ~seed:21 () in
  check_atomic_terminal result;
  match atomic_logs result (Node_id.all ~n:4) with
  | first :: rest ->
    List.iter
      (fun log -> Alcotest.(check (list string)) "identical log" first log)
      rest;
    Alcotest.(check bool) "log non-trivial" true (List.length first > 0)
  | [] -> Alcotest.fail "no logs"

let test_atomic_no_duplicates () =
  let result = run_atomic ~n:4 ~f:1 ~epochs:3 ~batch_size:4 ~seed:22 () in
  check_atomic_terminal result;
  Array.iter
    (fun outputs ->
      match Atomic.log_of_outputs outputs with
      | None -> Alcotest.fail "no complete log"
      | Some log ->
        let sorted = List.sort_uniq String.compare log in
        Alcotest.(check int) "no duplicate tx" (List.length log)
          (List.length sorted))
    result.EA.outputs

let test_atomic_commits_in_epoch_order () =
  let result = run_atomic ~n:4 ~f:1 ~epochs:3 ~batch_size:2 ~seed:23 () in
  check_atomic_terminal result;
  Array.iter
    (fun outputs ->
      let epochs =
        List.filter_map
          (fun (_, o) ->
            match o with
            | Atomic.Epoch_committed { epoch; _ } -> Some epoch
            | Atomic.Gc_stats _ | Atomic.Log_complete _ -> None)
          outputs
      in
      Alcotest.(check (list int)) "epochs in order" [ 0; 1; 2 ] epochs)
    result.EA.outputs

let test_atomic_crash_faulty_tolerated () =
  let faulty = [ (node 2, Behaviour.Silent) ] in
  let result = run_atomic ~faulty ~n:4 ~f:1 ~epochs:2 ~batch_size:4 ~seed:24 () in
  check_atomic_terminal result;
  let honest = [ node 0; node 1; node 3 ] in
  match atomic_logs result honest with
  | first :: rest ->
    List.iter
      (fun log -> Alcotest.(check (list string)) "identical" first log)
      rest
  | [] -> Alcotest.fail "no logs"

let test_atomic_deep_pipeline () =
  let result =
    run_atomic ~window:3 ~n:4 ~f:1 ~epochs:5 ~batch_size:2 ~seed:25 ()
  in
  check_atomic_terminal result;
  match atomic_logs result (Node_id.all ~n:4) with
  | first :: rest ->
    List.iter
      (fun log -> Alcotest.(check (list string)) "identical" first log)
      rest
  | [] -> Alcotest.fail "no logs"

(* ---- crash-recovery: checkpoints, GC, state transfer ---- *)

let atomic_recovery = { EA.snapshot = Atomic.snapshot; restore = Atomic.restore }

let run_recovery ?(adversary = Adversary.uniform) ?(window = 2)
    ?(checkpoint_interval = 2) ~crash ~n ~f ~epochs ~batch_size ~seed () =
  let mempools = mempools ~n ~count:(batch_size * epochs) ~seed in
  let inputs =
    Atomic.inputs ~n ~window ~checkpoint_interval ~batch_size ~epochs
      ~coin_seed:((seed * 1000) + 17)
      mempools
  in
  let faulty =
    List.map
      (fun (i, schedule) -> (node i, Behaviour.Crash_recover schedule))
      crash
  in
  EA.run (EA.config ~faulty ~n ~f ~inputs ~seed ~adversary ~recovery:atomic_recovery ())

let check_identical_complete_logs result ~n =
  match atomic_logs result (Node_id.all ~n) with
  | first :: rest ->
    List.iter
      (fun log -> Alcotest.(check (list string)) "identical log" first log)
      rest;
    Alcotest.(check bool) "log non-trivial" true (List.length first > 0);
    let sorted = List.sort_uniq String.compare first in
    Alcotest.(check int) "no duplicate tx" (List.length first)
      (List.length sorted)
  | [] -> Alcotest.fail "no logs"

let test_atomic_recovery_total_order () =
  (* Node 2 crashes mid-run and rejoins much later: it must catch up
     via state transfer (epoch traffic it slept through is never
     retransmitted) and land on the same log as everyone else. *)
  let result =
    run_recovery ~crash:[ (2, [ (800, 9000) ]) ] ~n:4 ~f:1 ~epochs:6
      ~batch_size:3 ~seed:31 ()
  in
  check_atomic_terminal result;
  check_identical_complete_logs result ~n:4;
  (match Atomic.stats_of_outputs result.EA.outputs.(2) with
  | Some (_, _, transfers) ->
    Alcotest.(check bool) "recovered via state transfer" true (transfers >= 1)
  | None -> Alcotest.fail "no gc stats on the recovered node");
  let c = Abc_sim.Metrics.counter result.EA.metrics in
  Alcotest.(check int) "one crash" 1 (c "node.crashed");
  Alcotest.(check int) "one recovery" 1 (c "node.recovered")

let test_atomic_gc_bounds_live_instances () =
  (* GC on (checkpoint every 2 epochs) vs off (interval past the run's
     end, so no boundary is ever crossed): with GC the high-water mark
     of live epoch agreements stays bounded by the pipeline window
     plus checkpoint lag; without it every epoch's instance is
     retained to the end. *)
  let epochs = 10 in
  let stats interval =
    let result =
      run_recovery ~checkpoint_interval:interval ~crash:[] ~n:4 ~f:1 ~epochs
        ~batch_size:2 ~seed:32 ()
    in
    check_atomic_terminal result;
    match Atomic.stats_of_outputs result.EA.outputs.(0) with
    | Some s -> s
    | None -> Alcotest.fail "no gc stats"
  in
  let live_on, checkpoints_on, _ = stats 2 in
  let live_off, _, _ = stats (epochs + 1) in
  Alcotest.(check bool) "checkpoints went stable" true (checkpoints_on >= 3);
  Alcotest.(check int) "no GC retains every epoch" epochs live_off;
  Alcotest.(check bool)
    (Fmt.str "GC bounds live instances (%d < %d)" live_on live_off)
    true
    (live_on < live_off);
  (* window 2 + interval 2 of checkpoint lag, plus one epoch of slack
     for traffic-driven lazy opens. *)
  Alcotest.(check bool) "bounded by window + interval + 1" true (live_on <= 5)

let test_atomic_checkpoint_at_window_boundary () =
  (* The checkpoint interval equals the pipeline window: every
     stability decision lands exactly where the window slides, the
     case where GC pruning and open_window race for the same epochs. *)
  let result =
    run_recovery ~window:2 ~checkpoint_interval:2
      ~crash:[ (1, [ (1200, 7000) ]) ]
      ~n:4 ~f:1 ~epochs:6 ~batch_size:2 ~seed:33 ()
  in
  check_atomic_terminal result;
  check_identical_complete_logs result ~n:4

let test_atomic_recovery_mid_dispersal () =
  (* Crash node 2 almost immediately — mid-dispersal of its own epoch-0
     batch.  Its RBC echoes for the batch may still complete at other
     nodes, and the restored incarnation requeues the same
     transactions: commit-time dedup must keep each tx single. *)
  let result =
    run_recovery ~crash:[ (2, [ (40, 5000) ]) ] ~n:4 ~f:1 ~epochs:5
      ~batch_size:3 ~seed:34 ()
  in
  check_atomic_terminal result;
  check_identical_complete_logs result ~n:4

let test_atomic_double_crash_before_stable () =
  (* Two back-to-back crashes, both before any checkpoint can go
     stable (the first epochs commit around tick ~2000 at this size):
     the node cold-starts twice from an empty durable store and must
     still converge. *)
  let result =
    run_recovery ~crash:[ (3, [ (30, 200); (260, 900) ]) ] ~n:4 ~f:1 ~epochs:5
      ~batch_size:2 ~seed:35 ()
  in
  check_atomic_terminal result;
  check_identical_complete_logs result ~n:4;
  let c = Abc_sim.Metrics.counter result.EA.metrics in
  Alcotest.(check int) "two crashes" 2 (c "node.crashed");
  Alcotest.(check int) "two recoveries" 2 (c "node.recovered")

let test_atomic_recovery_deterministic () =
  let go () =
    run_recovery ~crash:[ (0, [ (500, 4000) ]) ] ~n:4 ~f:1 ~epochs:4
      ~batch_size:2 ~seed:36 ()
  in
  let r1 = go () and r2 = go () in
  Alcotest.(check int) "same deliveries" r1.EA.deliveries r2.EA.deliveries;
  Alcotest.(check int) "same duration" r1.EA.duration r2.EA.duration;
  Alcotest.(check (list string)) "same log"
    (List.concat (atomic_logs r1 [ node 0 ]))
    (List.concat (atomic_logs r2 [ node 0 ]))

let test_batch_codec_roundtrip () =
  let roundtrip txs =
    Alcotest.(check (option (list string)))
      "roundtrip" (Some txs)
      (Atomic.decode_batch (Atomic.encode_batch txs))
  in
  roundtrip [];
  roundtrip [ "n0-t000000:abc" ];
  roundtrip [ "a"; "b:with:colons"; ""; String.make 300 'x' ];
  Alcotest.(check string) "empty batch non-empty wire" "0" (Atomic.encode_batch []);
  List.iter
    (fun junk ->
      Alcotest.(check (option (list string))) junk None (Atomic.decode_batch junk))
    [ ""; "x"; "2:1:a"; "1:5:ab"; "1:1:ab"; "-1"; "1:9999999999:a" ]

(* The durable store is outside input, and a cursor of -1 would index
   the mempool out of bounds inside [restore].  A number that is not
   plain decimal digits makes the store unreadable, which restores
   exactly like an empty store: cold restart plus catch-up. *)
let test_restore_rejects_non_decimal_fields () =
  let n = 4 in
  let inputs =
    Atomic.inputs ~n ~batch_size:2 ~epochs:3 ~coin_seed:17 (mempools ~n ~count:3 ~seed:1)
  in
  let restore durable =
    let ctx =
      {
        Abc_net.Protocol.Context.me = node 0;
        n;
        f = 1;
        rng = Abc_prng.Stream.root ~seed:1;
        sink = Abc_sim.Event.null_sink;
      }
    in
    Marshal.to_string (Atomic.restore ctx inputs.(0) ~durable) []
  in
  let cold = restore "" in
  let with_cursor cursor =
    Atomic.encode_batch [ "1"; "0"; cursor; "0"; "0"; "0"; "0"; "0"; "0" ]
  in
  Alcotest.(check string) "the blob" "9:1:1:1:0:2:-1:1:0:1:0:1:0:1:0:1:0:1:0" (with_cursor "-1");
  List.iter
    (fun cursor ->
      Alcotest.(check bool) (Fmt.str "cursor %S restores cold" cursor) true
        (String.equal cold (restore (with_cursor cursor))))
    [ "-1"; "+1"; "0x1"; "1_0"; " 1"; "" ];
  Alcotest.(check bool) "cursor 1 is read" false (String.equal cold (restore (with_cursor "1")))

let test_workload_deterministic () =
  let gen () =
    Workload.generate ~seed:42 ~node:(node 1) ~count:50 ~rate:0.1 ~tx_bytes:48
  in
  let a = gen () and b = gen () in
  Alcotest.(check (array string)) "same txs" (Workload.txs a) (Workload.txs b);
  let monotone = ref true and prev = ref 0.0 in
  for i = 0 to Workload.count a - 1 do
    if Workload.arrival a i < !prev then monotone := false;
    prev := Workload.arrival a i
  done;
  Alcotest.(check bool) "arrivals monotone" true !monotone;
  Array.iter
    (fun tx -> Alcotest.(check int) "padded to tx_bytes" 48 (String.length tx))
    (Workload.txs a);
  let other =
    Workload.generate ~seed:42 ~node:(node 2) ~count:50 ~rate:0.1 ~tx_bytes:48
  in
  let ids w =
    Array.to_list (Array.map Workload.tx_id (Workload.txs w))
  in
  List.iter
    (fun id -> Alcotest.(check bool) "ids disjoint across nodes" false
        (List.mem id (ids other)))
    (ids a)

(* ---- message labels ---- *)

(* A label is a shared string, never one built per call: the engine
   finds a label's counters by physical equality first.  Each test
   runs a scenario through a wrapper that records every delivered
   message; the check asks each message for its label twice. *)
let check_labels ~label ~expected msgs =
  List.iter
    (fun m ->
      if not (label m == label m) then
        Alcotest.failf "label %S is built per call" (label m))
    msgs;
  Alcotest.(check (list string)) "label set" expected
    (List.sort_uniq String.compare (List.map label msgs))

let test_log_labels_shared () =
  let seen = ref [] in
  let module Recorded = struct
    include Log

    let on_message ctx state ~src msg =
      seen := msg :: !seen;
      Log.on_message ctx state ~src msg
  end in
  let module R = Abc_net.Engine.Make (Recorded) in
  let inputs = Log.inputs ~n:4 ~slots:2 ~coin:Abc.Coin.local command in
  ignore (R.run (R.config ~n:4 ~f:1 ~inputs ~seed:1 ~adversary:Adversary.uniform ()));
  check_labels ~label:Log.msg_label
    ~expected:
      [
        "slot.ba.echo"; "slot.ba.initial"; "slot.ba.ready"; "slot.prop.echo";
        "slot.prop.initial"; "slot.prop.ready";
      ]
    !seen

(* The crash makes node 2 catch up by state transfer, so checkpoint
   and transfer messages are delivered too. *)
let test_atomic_labels_shared () =
  let seen = ref [] in
  let module Recorded = struct
    include Atomic

    let on_message ctx state ~src msg =
      seen := msg :: !seen;
      Atomic.on_message ctx state ~src msg
  end in
  let module R = Abc_net.Engine.Make (Recorded) in
  let seed = 31 in
  let inputs =
    Atomic.inputs ~n:4 ~checkpoint_interval:2 ~batch_size:3 ~epochs:6
      ~coin_seed:((seed * 1000) + 17)
      (mempools ~n:4 ~count:18 ~seed)
  in
  let faulty = [ (node 2, Behaviour.Crash_recover [ (800, 9000) ]) ] in
  let recovery = { R.snapshot = Atomic.snapshot; restore = Atomic.restore } in
  ignore
    (R.run
       (R.config ~faulty ~n:4 ~f:1 ~inputs ~seed ~adversary:Adversary.uniform
          ~recovery ()));
  check_labels ~label:Atomic.msg_label
    ~expected:
      [
        "checkpoint"; "epoch.ba.echo"; "epoch.ba.initial"; "epoch.ba.ready";
        "epoch.prop.echo"; "epoch.prop.ready"; "epoch.prop.val"; "transfer.req";
        "transfer.resp";
      ]
    !seen

(* A message that changes nothing returns the state it was given: most
   BA wires do, and each such delivery returns no action and no
   output.  A wrapper counts them over an honest run. *)
let test_atomic_unchanged_states () =
  let unchanged = ref 0 in
  let module Counted = struct
    include Atomic

    let on_message ctx state ~src msg =
      let ((state', actions, outputs) as result) = Atomic.on_message ctx state ~src msg in
      if state' == state then begin
        incr unchanged;
        if actions <> [] || outputs <> [] then
          Alcotest.fail "an unchanged state came back with actions or outputs"
      end;
      result
  end in
  let module R = Abc_net.Engine.Make (Counted) in
  let seed = 31 in
  let inputs =
    Atomic.inputs ~n:4 ~checkpoint_interval:2 ~batch_size:3 ~epochs:6
      ~coin_seed:((seed * 1000) + 17)
      (mempools ~n:4 ~count:18 ~seed)
  in
  ignore (R.run (R.config ~n:4 ~f:1 ~inputs ~seed ~adversary:Adversary.uniform ()));
  Alcotest.(check bool) "some deliveries return their state" true (!unchanged > 0)

let prop_identical_logs =
  QCheck.Test.make ~name:"all replicas build the same log" ~count:15
    QCheck.(small_int)
    (fun seed ->
      let result = run ~n:4 ~f:1 ~slots:2 ~seed () in
      result.E.stop = Abc_net.Engine.All_terminal
      &&
      match logs result (Node_id.all ~n:4) with
      | first :: rest -> List.for_all (fun log -> log = first) rest
      | [] -> false)

let () =
  Alcotest.run "replicated_log"
    [
      ( "agreement",
        [
          Alcotest.test_case "identical logs" `Quick test_logs_identical;
          Alcotest.test_case "commits in slot order" `Quick test_commits_in_slot_order;
          Alcotest.test_case "committed contents sorted" `Quick
            test_committed_contents_sorted_by_node;
          Alcotest.test_case "faulty replica excluded" `Quick
            test_faulty_replica_excluded_consistently;
          Alcotest.test_case "lying replica tolerated" `Quick
            test_lying_replica_logs_still_agree;
          Alcotest.test_case "single slot" `Quick test_single_slot;
          Alcotest.test_case "larger cluster" `Slow test_larger_cluster;
          Alcotest.test_case "labels are shared" `Quick test_log_labels_shared;
        ] );
      ( "atomic broadcast",
        [
          Alcotest.test_case "total order agreement" `Quick test_atomic_total_order;
          Alcotest.test_case "no duplicate tx" `Quick test_atomic_no_duplicates;
          Alcotest.test_case "commits in epoch order" `Quick
            test_atomic_commits_in_epoch_order;
          Alcotest.test_case "crash-faulty replica tolerated" `Quick
            test_atomic_crash_faulty_tolerated;
          Alcotest.test_case "deep pipeline" `Quick test_atomic_deep_pipeline;
          Alcotest.test_case "recovery: total order after crash" `Quick
            test_atomic_recovery_total_order;
          Alcotest.test_case "recovery: GC bounds live instances" `Quick
            test_atomic_gc_bounds_live_instances;
          Alcotest.test_case "recovery: checkpoint at window boundary" `Quick
            test_atomic_checkpoint_at_window_boundary;
          Alcotest.test_case "recovery: crash mid-dispersal" `Quick
            test_atomic_recovery_mid_dispersal;
          Alcotest.test_case "recovery: double crash before stable" `Quick
            test_atomic_double_crash_before_stable;
          Alcotest.test_case "recovery: deterministic" `Quick
            test_atomic_recovery_deterministic;
          Alcotest.test_case "batch codec roundtrip" `Quick test_batch_codec_roundtrip;
          Alcotest.test_case "unchanged states pass up" `Quick test_atomic_unchanged_states;
          Alcotest.test_case "restore rejects non-decimal fields" `Quick
            test_restore_rejects_non_decimal_fields;
          Alcotest.test_case "workload deterministic" `Quick
            test_workload_deterministic;
          Alcotest.test_case "labels are shared" `Quick test_atomic_labels_shared;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_identical_logs ]);
    ]
