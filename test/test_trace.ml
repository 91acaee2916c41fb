(* Tests for the structured observability layer: JSONL round-trips of
   typed events, exact trace eviction accounting, detailed metrics
   checked against a hand-computed Bracha RBC run, and the reload of
   one golden JSONL export byte for byte.  The golden summaries are
   replayed through the binaries themselves, by test/cli.t. *)

module Event = Abc_sim.Event
module Trace = Abc_sim.Trace
module Trace_file = Abc_sim.Trace_file
module Trace_report = Abc_sim.Trace_report
module Json = Abc_sim.Json
module Metrics = Abc_sim.Metrics
module Node_id = Abc_net.Node_id
module Adversary = Abc_net.Adversary

(* ---- JSONL round-trip ---- *)

(* One representative of every event kind, with and without the
   optional instance/round fields. *)
let sample_entries : Trace.entry list =
  let e ?instance ?round ~time ~node kind =
    { Trace.time; node; event = Event.make ?instance ?round kind }
  in
  [
    e ~time:0 ~node:0 (Event.Send { dst = 3; label = "echo"; detail = ""; bytes = 2 });
    e ~time:1 ~node:3
      (Event.Deliver { src = 0; label = "echo"; detail = "echo(1)"; bytes = 2 });
    e ~time:2 ~node:3 ~instance:"n0/r1/s1"
      (Event.Quorum { quorum = "echo"; count = 3; threshold = 3 });
    e ~time:3 ~node:1 ~round:2 (Event.Coin_flip { value = 1 });
    e ~time:4 ~node:1 ~round:3 Event.Round_advance;
    e ~time:5 ~node:2 ~round:3 (Event.Decide { value = "1" });
    e ~time:6 ~node:2 (Event.Output { label = "decided" });
    e ~time:7 ~node:(-1) (Event.Note { tag = "stop"; detail = "all terminal" });
    e ~time:8 ~node:2
      (Event.Link_drop { src = 0; dst = 2; label = "echo"; reason = "loss" });
    e ~time:9 ~node:1
      (Event.Link_drop { src = 1; dst = 3; label = "rl.data"; reason = "partition" });
    e ~time:10 ~node:0 (Event.Link_dup { src = 0; dst = 3; label = "ready" });
    e ~time:11 ~node:3 (Event.Timer_set { id = 2; due = 43 });
    e ~time:43 ~node:3 (Event.Timer_fire { id = 2 });
    e ~time:44 ~node:3 (Event.Retransmit { dst = 1; seq = 5 });
    e ~time:50 ~node:0 ~instance:"epoch0" (Event.Epoch_start { epoch = 0 });
    e ~time:51 ~node:0 ~instance:"epoch0"
      (Event.Batch_proposed { epoch = 0; txs = 8; bytes = 412 });
    e ~time:60 ~node:2 ~instance:"epoch0"
      (Event.Batch_committed { epoch = 0; proposer = 1; txs = 8 });
    e ~time:60 ~node:2 ~instance:"epoch0"
      (Event.Tx_committed { epoch = 0; id = "n1-t000003" });
    e ~time:70 ~node:1 Event.Node_crash;
    e ~time:90 ~node:1 Event.Node_recover;
    e ~time:95 ~node:2 (Event.Checkpoint_stable { epoch = 1; len = 16 });
    e ~time:96 ~node:1 (Event.Transfer_start { have = 4 });
    e ~time:99 ~node:1 (Event.Transfer_done { epoch = 1; len = 16 });
  ]

let entry_equal (a : Trace.entry) (b : Trace.entry) =
  a.Trace.time = b.Trace.time
  && a.Trace.node = b.Trace.node
  && Event.equal a.Trace.event b.Trace.event

(* Each entry alone: exported as a one-entry file, its line must decode
   back to the same entry. *)
let test_entry_round_trip () =
  List.iter
    (fun entry ->
      let t = Trace.create ~capacity:1 () in
      Trace.record t ~time:entry.Trace.time ~node:entry.Trace.node entry.Trace.event;
      let text = Trace.to_jsonl_string t in
      match Trace_file.of_string text with
      | Error msg -> Alcotest.fail ("decode failed: " ^ msg)
      | Ok { Trace_file.entries = [ entry' ]; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" text)
          true (entry_equal entry entry')
      | Ok _ -> Alcotest.fail ("not one entry: " ^ text))
    sample_entries

let test_file_round_trip () =
  let t = Trace.create ~capacity:100 () in
  List.iter
    (fun e -> Trace.record t ~time:e.Trace.time ~node:e.Trace.node e.Trace.event)
    sample_entries;
  let meta =
    [ ("protocol", Json.String "sample"); ("n", Json.Int 4); ("seed", Json.Int 7) ]
  in
  match Trace_file.of_string (Trace.to_jsonl_string ~meta t) with
  | Error msg -> Alcotest.fail msg
  | Ok file ->
    Alcotest.(check int) "version" Trace.schema_version file.Trace_file.version;
    Alcotest.(check int) "recorded" (List.length sample_entries)
      file.Trace_file.recorded;
    Alcotest.(check int) "dropped" 0 file.Trace_file.dropped;
    Alcotest.(check (option string)) "meta protocol" (Some "sample")
      (Trace_file.meta_string file "protocol");
    Alcotest.(check (option int)) "meta n" (Some 4) (Trace_file.meta_int file "n");
    Alcotest.(check (option int)) "meta seed" (Some 7)
      (Trace_file.meta_int file "seed");
    Alcotest.(check int) "entries" (List.length sample_entries)
      (List.length file.Trace_file.entries);
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "entry preserved" true (entry_equal a b))
      sample_entries file.Trace_file.entries

let test_reader_rejects_garbage () =
  let fail_of = function Error msg -> msg | Ok _ -> Alcotest.fail "accepted" in
  Alcotest.(check bool) "empty input rejected" true
    (String.length (fail_of (Trace_file.of_string "")) > 0);
  Alcotest.(check bool) "wrong schema rejected" true
    (String.length (fail_of (Trace_file.of_string "{\"schema\":\"other\"}")) > 0);
  let future =
    Printf.sprintf "{\"schema\":\"abc.trace\",\"version\":%d}"
      (Trace.schema_version + 1)
  in
  Alcotest.(check bool) "future version rejected" true
    (String.length (fail_of (Trace_file.of_string future)) > 0)

(* A literal schema-v3 file (the last version before the atomic
   broadcast's epoch vocabulary landed) must still parse: the loader
   accepts every version <= current, and fields added since default
   rather than reject.  This pins the v3 -> v4 migration note in
   OBSERVABILITY.md. *)
let test_v3_file_still_loads () =
  let v3 =
    String.concat "\n"
      [
        "{\"schema\":\"abc.trace\",\"version\":3,\"meta\":{\"protocol\":\"bracha-rbc\",\"n\":4},\"recorded\":3,\"dropped\":0}";
        "{\"t\":0,\"node\":0,\"kind\":\"send\",\"dst\":1,\"label\":\"echo\",\"bytes\":2}";
        "{\"t\":1,\"node\":1,\"kind\":\"link-drop\",\"src\":0,\"dst\":1,\"label\":\"echo\",\"reason\":\"loss\"}";
        "{\"t\":2,\"node\":1,\"kind\":\"retransmit\",\"dst\":0,\"seq\":3}";
      ]
  in
  match Trace_file.of_string v3 with
  | Error msg -> Alcotest.fail ("v3 file rejected: " ^ msg)
  | Ok file ->
    Alcotest.(check int) "version" 3 file.Trace_file.version;
    Alcotest.(check int) "entries" 3 (List.length file.Trace_file.entries);
    Alcotest.(check (option string)) "meta protocol" (Some "bracha-rbc")
      (Trace_file.meta_string file "protocol");
    (* and a v4-era entry missing an optional field defaults instead of
       erroring — batch-proposed without "bytes" reads back as 0 *)
    let bare =
      "{\"schema\":\"abc.trace\",\"version\":4}\n\
       {\"t\":5,\"node\":2,\"kind\":\"batch-proposed\",\"epoch\":1,\"txs\":4}"
    in
    match Trace_file.of_string bare with
    | Error msg -> Alcotest.fail ("bare batch-proposed rejected: " ^ msg)
    | Ok { Trace_file.entries = [ entry ]; _ } ->
      Alcotest.(check bool) "bytes defaults to 0" true
        (Event.equal entry.Trace.event
           (Event.make (Event.Batch_proposed { epoch = 1; txs = 4; bytes = 0 })))
    | Ok _ -> Alcotest.fail "bare batch-proposed: not one entry"

(* A literal schema-v4 file (the last version before the crash-recovery
   vocabulary landed) must load under the v5 reader the same way: only
   new kinds were added, no existing field changed shape. *)
let test_v4_file_still_loads () =
  let v4 =
    String.concat "\n"
      [
        "{\"schema\":\"abc.trace\",\"version\":4,\"meta\":{\"protocol\":\"smr-atomic\",\"n\":4},\"recorded\":3,\"dropped\":0}";
        "{\"t\":0,\"node\":0,\"kind\":\"epoch-start\",\"epoch\":0,\"instance\":\"epoch0\"}";
        "{\"t\":1,\"node\":0,\"kind\":\"batch-proposed\",\"epoch\":0,\"txs\":8,\"bytes\":412,\"instance\":\"epoch0\"}";
        "{\"t\":9,\"node\":2,\"kind\":\"tx-committed\",\"epoch\":0,\"id\":\"n1-t000003\",\"instance\":\"epoch0\"}";
      ]
  in
  match Trace_file.of_string v4 with
  | Error msg -> Alcotest.fail ("v4 file rejected: " ^ msg)
  | Ok file ->
    Alcotest.(check int) "version" 4 file.Trace_file.version;
    Alcotest.(check int) "entries" 3 (List.length file.Trace_file.entries)

(* ---- summary/timeline node and epoch filters ---- *)

let test_report_filters () =
  let t = Trace.create ~capacity:100 () in
  List.iter
    (fun e -> Trace.record t ~time:e.Trace.time ~node:e.Trace.node e.Trace.event)
    sample_entries;
  let file =
    match Trace_file.of_string (Trace.to_jsonl_string ~meta:[] t) with
    | Ok f -> f
    | Error msg -> Alcotest.fail msg
  in
  let retained s =
    match
      List.find_opt
        (fun l -> String.starts_with ~prefix:"entries: retained=" l)
        (String.split_on_char '\n' s)
    with
    | Some line -> Scanf.sscanf line "entries: retained=%d" (fun k -> k)
    | None -> Alcotest.fail "no entries line"
  in
  let node_matches n =
    List.length
      (List.filter (fun e -> e.Trace.node = n) file.Trace_file.entries)
  in
  (* --node keeps exactly that node's entries and echoes the filter. *)
  let s1 = Trace_report.summary ~node:1 file in
  Alcotest.(check int) "node filter count" (node_matches 1) (retained s1);
  Alcotest.(check bool) "node filter echoed" true
    (List.mem "filter: node=1" (String.split_on_char '\n' s1));
  (* --epoch catches both kinds carrying the epoch and instance-scoped
     entries under "epoch0": in the sample, every epoch event is epoch
     0, so filtering epoch 1 keeps only the two v5 checkpoint/transfer
     events at epoch 1. *)
  let s2 = Trace_report.summary ~epoch:0 file in
  Alcotest.(check int) "epoch 0 count" 4 (retained s2);
  let s3 = Trace_report.summary ~epoch:1 file in
  Alcotest.(check int) "epoch 1 count" 2 (retained s3);
  (* no filters: byte-identical to the unfiltered renderer (the golden
     files depend on this). *)
  Alcotest.(check string) "no filter unchanged"
    (Trace_report.summary file)
    (Trace_report.summary ?node:None ?epoch:None file);
  (* timeline composes the filters conjunctively *)
  let tl = Trace_report.timeline ~node:1 ~epoch:1 file in
  let lines =
    List.filter
      (fun l -> String.length l > 0 && not (String.equal l "(no matching entries)"))
      (String.split_on_char '\n' tl)
  in
  Alcotest.(check int) "timeline node=1 epoch=1" 1 (List.length lines)

(* ---- eviction accounting ---- *)

let test_eviction_exact () =
  let capacity = 4 in
  let t = Trace.create ~capacity () in
  for i = 1 to 11 do
    Trace.note t ~time:i ~node:0 ~tag:"tick" (string_of_int i);
    (* The books must balance after every single record. *)
    Alcotest.(check int)
      (Printf.sprintf "invariant after %d" i)
      (Trace.recorded t)
      (Trace.length t + Trace.dropped t)
  done;
  Alcotest.(check int) "recorded" 11 (Trace.recorded t);
  Alcotest.(check int) "length" capacity (Trace.length t);
  Alcotest.(check int) "dropped" 7 (Trace.dropped t);
  (* The header advertises the same accounting. *)
  let header = Trace.header_json t in
  Alcotest.(check (option int)) "header recorded" (Some 11)
    (Json.int_member "recorded" header);
  Alcotest.(check (option int)) "header retained" (Some capacity)
    (Json.int_member "retained" header);
  Alcotest.(check (option int)) "header dropped" (Some 7)
    (Json.int_member "dropped" header);
  (* ... and survives the JSONL round-trip. *)
  match Trace_file.of_string (Trace.to_jsonl_string t) with
  | Error msg -> Alcotest.fail msg
  | Ok file ->
    Alcotest.(check int) "file recorded" 11 file.Trace_file.recorded;
    Alcotest.(check int) "file dropped" 7 file.Trace_file.dropped;
    Alcotest.(check int) "file entries" capacity
      (List.length file.Trace_file.entries)

(* ---- sampling sink: exact counts, 1-in-k retention ---- *)

let test_sampling_exact_counts () =
  let sample = 7 in
  let t = Trace.create ~capacity:10_000 ~sample () in
  let sends = 100 and notes = 23 in
  for i = 1 to sends do
    Trace.record t ~time:i ~node:0
      (Abc_sim.Event.make
         (Abc_sim.Event.Send { dst = 1; label = "m"; detail = ""; bytes = 4 }))
  done;
  for i = 1 to notes do
    Trace.note t ~time:i ~node:0 ~tag:"tick" (string_of_int i)
  done;
  let total = sends + notes in
  (* Counting is exact even though only every 7th entry is stored. *)
  Alcotest.(check int) "recorded exact" total (Trace.recorded t);
  Alcotest.(check int) "send count exact" sends
    (Trace.count_kind t ~label:"send");
  Alcotest.(check int) "note count exact" notes
    (Trace.count_kind t ~label:"note");
  Alcotest.(check (list (pair string int)))
    "counts lists every kind seen" [ ("send", sends); ("note", notes) ]
    (Trace.counts t);
  (* Retention is the deterministic stride: events #1, #8, #15, ... *)
  let expected_retained = ((total - 1) / sample) + 1 in
  Alcotest.(check int) "1-in-k retained" expected_retained (Trace.length t);
  (* The header advertises the stride and the exact per-kind counts. *)
  let header = Trace.header_json t in
  Alcotest.(check (option int)) "header sample" (Some sample)
    (Json.int_member "sample" header);
  (match Json.member "counts" header with
  | Some counts ->
    Alcotest.(check (option int)) "header send count" (Some sends)
      (Json.int_member "send" counts)
  | None -> Alcotest.fail "sampling header has no counts object");
  (* An unsampled trace keeps the v5 header shape: no extra fields. *)
  let plain = Trace.create ~capacity:8 () in
  Trace.note plain ~time:1 ~node:0 ~tag:"t" "x";
  Alcotest.(check bool) "no sample field when sample=1" true
    (Json.member "sample" (Trace.header_json plain) = None);
  Alcotest.(check bool) "no counts field when sample=1" true
    (Json.member "counts" (Trace.header_json plain) = None)

(* ---- detailed metrics vs a hand-computed RBC run ---- *)

(* n=4, f=1, fifo schedule, all honest, sender node 0.  Every node
   receives the Initial (4 point-to-point sends from node 0), echoes
   (4 nodes x 4 destinations = 16 echo sends), reaches the echo quorum
   of 3 and broadcasts Ready (16 ready sends), then delivers on the
   2f+1 = 3 ready quorum.  Totals are exact, not statistical. *)
module Rbc = Abc.Bracha_rbc.Binary
module Rbc_run = Abc_net.Engine.Make (Rbc)

let rbc_run () =
  let trace = Trace.create ~capacity:10_000 () in
  let config =
    Rbc_run.config ~n:4 ~f:1
      ~inputs:(Rbc.inputs ~n:4 ~sender:(Node_id.of_int 0) Abc.Value.One)
      ~adversary:Adversary.fifo ~seed:0 ~trace ~detail:true ()
  in
  (Rbc_run.run config, trace)

let test_rbc_metrics_hand_computed () =
  let result, _ = rbc_run () in
  let m = result.Rbc_run.metrics in
  Alcotest.(check int) "sent.initial" 4 (Metrics.counter m "sent.initial");
  Alcotest.(check int) "sent.echo" 16 (Metrics.counter m "sent.echo");
  Alcotest.(check int) "sent.ready" 16 (Metrics.counter m "sent.ready");
  Alcotest.(check int) "sent total" 36 (Metrics.counter m "sent");
  (* Each node delivers on its 3rd Ready and the run stops when all
     are terminal, so the 4th Ready to every node is never consumed:
     36 sends - 4 undelivered = 32. *)
  Alcotest.(check int) "delivered" 32 (Metrics.counter m "delivered");
  (* Node 0 sends its Initial broadcast on top of echo + ready. *)
  Alcotest.(check int) "node0.sent" 12 (Metrics.counter m "node0.sent");
  Alcotest.(check int) "node1.sent" 8 (Metrics.counter m "node1.sent");
  Array.iteri
    (fun i _ ->
      Alcotest.(check int)
        (Printf.sprintf "node%d.outputs" i)
        1
        (Metrics.counter m (Printf.sprintf "node%d.outputs" i)))
    result.Rbc_run.outputs

let test_rbc_trace_quorums () =
  let _, trace = rbc_run () in
  (* Each of the 4 nodes latches Ready exactly once (echo quorum or
     f+1 amplification) and delivers exactly once: 8 quorum events. *)
  let quorums = Trace.find_kind trace ~label:"quorum" in
  Alcotest.(check int) "quorum events" 8 (List.length quorums);
  let count name =
    List.length
      (List.filter
         (fun e ->
           match e.Trace.event.Event.kind with
           | Event.Quorum { quorum; _ } -> String.equal quorum name
           | _ -> false)
         quorums)
  in
  Alcotest.(check int) "ready latches" 4
    (count "echo" + count "ready-amplify");
  Alcotest.(check int) "deliver quorums" 4 (count "ready");
  (* Outputs are traced too: one delivery per node. *)
  Alcotest.(check int) "output events" 4
    (List.length (Trace.find_kind trace ~label:"output"))

(* ---- golden trace ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* test/golden/dup_trace.jsonl is the trace of
   abc-run consensus -n 4 -f 1 --seed 8 --dup 0.2 --trace-out FILE,
   pinned byte for byte by test/cli.t.  Here: reloading it and exporting
   it again is the identity, details of link-duplicated copies
   included. *)
let test_golden_jsonl () =
  let golden = read_file "golden/dup_trace.jsonl" in
  match Trace_file.of_string golden with
  | Error msg -> Alcotest.fail msg
  | Ok file ->
    let entries = file.Trace_file.entries in
    let t = Trace.create ~capacity:(List.length entries) () in
    List.iter
      (fun e -> Trace.record t ~time:e.Trace.time ~node:e.Trace.node e.Trace.event)
      entries;
    Alcotest.(check string) "reload, re-export" golden
      (Trace.to_jsonl_string ~meta:file.Trace_file.meta t)

(* ---- suite ---- *)

let () =
  Alcotest.run "trace"
    [
      ( "jsonl",
        [
          Alcotest.test_case "entry round-trip" `Quick test_entry_round_trip;
          Alcotest.test_case "file round-trip" `Quick test_file_round_trip;
          Alcotest.test_case "reader rejects garbage" `Quick
            test_reader_rejects_garbage;
          Alcotest.test_case "v3 file still loads" `Quick
            test_v3_file_still_loads;
          Alcotest.test_case "v4 file still loads" `Quick
            test_v4_file_still_loads;
          Alcotest.test_case "report filters" `Quick test_report_filters;
        ] );
      ( "eviction",
        [ Alcotest.test_case "exact accounting" `Quick test_eviction_exact ] );
      ( "sampling",
        [
          Alcotest.test_case "exact counts, 1-in-k retention" `Quick
            test_sampling_exact_counts;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "hand-computed rbc" `Quick
            test_rbc_metrics_hand_computed;
          Alcotest.test_case "rbc quorum events" `Quick test_rbc_trace_quorums;
        ] );
      ( "golden",
        [ Alcotest.test_case "jsonl matches golden" `Quick test_golden_jsonl ] );
    ]
