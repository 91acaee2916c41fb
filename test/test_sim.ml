(* Unit and property tests for the abc_sim simulation kernel. *)

module Heap = Abc_sim.Heap
module Clock = Abc_sim.Clock
module Trace = Abc_sim.Trace
module Summary = Abc_sim.Summary
module Metrics = Abc_sim.Metrics
module Table = Abc_sim.Table

(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~priority:p p) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Heap.pop h with
    | Some (p, _) -> drain (p :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i name -> Heap.push h ~priority:(i mod 2) name)
    [ "a"; "b"; "c"; "d"; "e" ];
  (* priority 0: a, c, e in insertion order; priority 1: b, d *)
  let pops = List.init 5 (fun _ -> match Heap.pop h with Some (_, x) -> x | None -> "?") in
  Alcotest.(check (list string)) "stable ties" [ "a"; "c"; "e"; "b"; "d" ] pops

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.(check bool) "peek empty" true (Heap.peek h = None);
  Heap.push h ~priority:3 "x";
  Heap.push h ~priority:1 "y";
  (match Heap.peek h with
  | Some (1, "y") -> ()
  | _ -> Alcotest.fail "peek should be (1, y)");
  Alcotest.(check int) "peek does not remove" 2 (Heap.length h)

let test_heap_growth () =
  let h = Heap.create () in
  for i = 1000 downto 1 do
    Heap.push h ~priority:i i
  done;
  Alcotest.(check int) "length" 1000 (Heap.length h);
  let rec check_sorted prev =
    match Heap.pop h with
    | None -> ()
    | Some (p, _) ->
      Alcotest.(check bool) "non-decreasing" true (p >= prev);
      check_sorted p
  in
  check_sorted min_int

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~priority:1 1;
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h)

let test_heap_peek_priority () =
  let h = Heap.create () in
  Alcotest.(check int) "empty gives default" max_int
    (Heap.peek_priority h ~default:max_int);
  Heap.push h ~priority:7 "a";
  Heap.push h ~priority:3 "b";
  Alcotest.(check int) "min priority" 3 (Heap.peek_priority h ~default:0);
  ignore (Heap.pop h);
  Alcotest.(check int) "after pop" 7 (Heap.peek_priority h ~default:0);
  ignore (Heap.pop h);
  Alcotest.(check int) "drained gives default" 42
    (Heap.peek_priority h ~default:42)

(* The struct-of-arrays layout must keep each payload glued to its
   priority through sifts and growth: pop every entry and check the
   payload is the one pushed with that priority. *)
let test_heap_payload_pairing () =
  let h = Heap.create () in
  for i = 0 to 999 do
    let p = (i * 7919) mod 1000 in
    Heap.push h ~priority:p (p * 2)
  done;
  let rec drain last =
    match Heap.pop h with
    | None -> ()
    | Some (p, x) ->
      Alcotest.(check int) "payload tracks priority" (p * 2) x;
      Alcotest.(check bool) "nondecreasing" true (p >= last);
      drain p
  in
  drain min_int

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list small_int)
    (fun priorities ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~priority:p p) priorities;
      let rec drain acc =
        match Heap.pop h with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      drain [] = List.sort Int.compare priorities)

(* Clock *)

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at 0" 0 (Clock.now c);
  Alcotest.(check int) "tick" 1 (Clock.tick c);
  Clock.advance_to c 10;
  Alcotest.(check int) "advanced" 10 (Clock.now c);
  Alcotest.check_raises "no going back"
    (Invalid_argument "Clock.advance_to: time 5 is before now 10") (fun () ->
      Clock.advance_to c 5)

(* Trace *)

let note_detail (e : Trace.entry) =
  match e.Trace.event.Abc_sim.Event.kind with
  | Abc_sim.Event.Note { detail; _ } -> detail
  | _ -> Alcotest.fail "expected a note entry"

let test_trace_basic () =
  let t = Trace.create ~capacity:10 () in
  Trace.note t ~time:1 ~node:0 ~tag:"a" "first";
  Trace.note t ~time:2 ~node:1 ~tag:"b" "second";
  Alcotest.(check int) "length" 2 (Trace.length t);
  let entries = Trace.to_list t in
  Alcotest.(check (list string)) "order"
    [ "first"; "second" ]
    (List.map note_detail entries)

let test_trace_eviction () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.note t ~time:i ~node:0 ~tag:"x" (string_of_int i)
  done;
  Alcotest.(check int) "bounded" 3 (Trace.length t);
  Alcotest.(check int) "dropped" 2 (Trace.dropped t);
  Alcotest.(check int) "recorded" 5 (Trace.recorded t);
  Alcotest.(check (list string)) "keeps newest"
    [ "3"; "4"; "5" ]
    (List.map note_detail (Trace.to_list t))

(* The ring against a list model that keeps the last [capacity]
   entries, checked after every record, before and after the ring
   wraps; the JSONL export must decode back to the model.  A ring
   starts at 256 slots, so capacities past that also cover its
   growth. *)
let prop_trace_ring_model =
  let gen =
    QCheck.Gen.(
      let* capacity =
        frequency
          [
            (4, oneofl [ 1; 2; 4; 8; 16; 32; 64 ]);
            (4, int_range 1 70);
            (1, oneof [ oneofl [ 256; 512 ]; int_range 250 520 ]);
          ]
      in
      let* records = int_range 0 (4 * capacity) in
      return (capacity, records))
  in
  QCheck.Test.make ~name:"ring agrees with a last-capacity list model" ~count:300
    (QCheck.make ~print:QCheck.Print.(pair int int) gen)
    (fun (capacity, records) ->
      let t = Trace.create ~capacity () in
      let entry i : Trace.entry =
        let kind =
          match i mod 3 with
          | 0 -> Abc_sim.Event.Send { dst = i mod 7; label = "m"; detail = string_of_int i; bytes = i }
          | 1 -> Abc_sim.Event.Coin_flip { value = i }
          | _ -> Abc_sim.Event.Note { tag = "n"; detail = string_of_int i }
        in
        { Trace.time = i; node = (i mod 5) - 1; event = Abc_sim.Event.make kind }
      in
      let same (a : Trace.entry) (b : Trace.entry) =
        a.Trace.time = b.Trace.time && a.Trace.node = b.Trace.node
        && Abc_sim.Event.equal a.Trace.event b.Trace.event
      in
      let model = ref [] in
      for i = 1 to records do
        let e = entry i in
        Trace.record t ~time:e.Trace.time ~node:e.Trace.node e.Trace.event;
        model := List.filteri (fun j _ -> j < capacity) (e :: !model);
        let kept = List.length !model in
        if
          not
            (Trace.length t = kept && Trace.recorded t = i && Trace.dropped t = i - kept
            && List.equal same (Trace.to_list t) (List.rev !model))
        then QCheck.Test.fail_reportf "after record %d of %d (capacity %d)" i records capacity
      done;
      match Abc_sim.Trace_file.of_string (Trace.to_jsonl_string t) with
      | Ok file -> List.equal same file.Abc_sim.Trace_file.entries (List.rev !model)
      | Error m -> QCheck.Test.fail_reportf "reload: %s" m)

let test_trace_find_kind () =
  let t = Trace.create () in
  let deliver src = Abc_sim.Event.Deliver { src; label = "m"; detail = ""; bytes = 0 } in
  Trace.record t ~time:1 ~node:0 (Abc_sim.Event.make (deliver 1));
  Trace.record t ~time:2 ~node:0
    (Abc_sim.Event.make (Abc_sim.Event.Output { label = "o1" }));
  Trace.record t ~time:3 ~node:0 (Abc_sim.Event.make (deliver 2));
  Alcotest.(check int) "two delivers" 2
    (List.length (Trace.find_kind t ~label:"deliver"))

(* Summary *)

let test_summary_empty () =
  Alcotest.(check bool) "empty is None" true (Summary.of_list [] = None)

let summary_exn samples =
  match Summary.of_list samples with
  | Some s -> s
  | None -> Alcotest.fail "expected summary"

let test_summary_stats () =
  let s = summary_exn [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (float 1e-9)) "mean" 3. (Summary.mean s);
  Alcotest.(check (float 1e-9)) "median" 3. (Summary.median s);
  Alcotest.(check (float 1e-9)) "min" 1. (Summary.min_value s);
  Alcotest.(check (float 1e-9)) "max" 5. (Summary.max_value s);
  Alcotest.(check (float 1e-9)) "total" 15. (Summary.total s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Summary.stddev s);
  Alcotest.(check int) "count" 5 (Summary.count s)

let test_summary_percentile_interpolation () =
  let s = summary_exn [ 10.; 20. ] in
  Alcotest.(check (float 1e-9)) "p50 interpolates" 15. (Summary.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p0" 10. (Summary.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 20. (Summary.percentile s 100.)

let test_summary_single () =
  let s = summary_exn [ 7. ] in
  Alcotest.(check (float 1e-9)) "p95 of single" 7. (Summary.percentile s 95.);
  Alcotest.(check (float 1e-9)) "stddev single" 0. (Summary.stddev s)

let test_summary_mean_ci () =
  let s = summary_exn [ 1.; 2.; 3.; 4.; 5. ] in
  let lo, hi = Summary.mean_ci95 s in
  Alcotest.(check bool) "interval brackets the mean" true
    (lo <= Summary.mean s && Summary.mean s <= hi);
  Alcotest.(check (float 1e-6)) "symmetric" (Summary.mean s -. lo) (hi -. Summary.mean s);
  let single = summary_exn [ 7. ] in
  let lo, hi = Summary.mean_ci95 single in
  Alcotest.(check (float 1e-9)) "degenerate lo" 7. lo;
  Alcotest.(check (float 1e-9)) "degenerate hi" 7. hi

let prop_summary_bounds =
  QCheck.Test.make ~name:"percentiles stay within [min,max]" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.)) (float_bound_inclusive 100.))
    (fun (samples, p) ->
      let s = summary_exn samples in
      let v = Summary.percentile s p in
      v >= Summary.min_value s -. 1e-9 && v <= Summary.max_value s +. 1e-9)

(* Histogram *)

module Histogram = Abc_sim.Histogram

let test_histogram_counts () =
  let h = Histogram.create () in
  Histogram.add_list h [ 1; 2; 2; 5 ];
  Alcotest.(check int) "total" 4 (Histogram.total h);
  Alcotest.(check int) "count 2" 2 (Histogram.count h 2);
  Alcotest.(check int) "count missing" 0 (Histogram.count h 3)

let test_histogram_buckets_fill_gaps () =
  let h = Histogram.create () in
  Histogram.add_list h [ 1; 4 ];
  Alcotest.(check (list (pair int int))) "dense buckets"
    [ (1, 1); (2, 0); (3, 0); (4, 1) ]
    (Histogram.buckets h)

let test_histogram_render () =
  let h = Histogram.create () in
  Alcotest.(check string) "empty" "(no data)\n" (Histogram.render h);
  Histogram.add_list h [ 1; 1; 2 ];
  let out = Histogram.render ~width:4 h in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "two buckets + trailing" 3 (List.length lines);
  Alcotest.(check bool) "peak bar full width" true
    (String.length (List.nth lines 0) > String.length (List.nth lines 1))

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram total equals observations" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Histogram.create () in
      Histogram.add_list h xs;
      Histogram.total h = List.length xs
      && List.fold_left (fun acc (_, c) -> acc + c) 0 (Histogram.buckets h)
         = List.length xs)

(* Metrics *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m "a";
  Metrics.add m "b" 5;
  Alcotest.(check int) "a" 2 (Metrics.counter m "a");
  Alcotest.(check int) "b" 5 (Metrics.counter m "b");
  Alcotest.(check int) "missing" 0 (Metrics.counter m "zzz");
  Alcotest.(check (list (pair string int))) "sorted counters"
    [ ("a", 2); ("b", 5) ]
    (Metrics.counters m)

(* Table *)

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "col"; "n" ] () in
  Table.add_row t [ "abc"; "1" ];
  Table.add_row t [ "d"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "contains title" true
    (String.length out > 0 && String.sub out 0 1 = "T");
  Alcotest.(check bool) "aligned rows present" true
    (List.exists (fun line -> line = "abc  1 ") (String.split_on_char '\n' out))

let test_table_arity_check () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] () in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: 1 cells for 2 columns in table \"T\"")
    (fun () -> Table.add_row t [ "only" ])

let test_table_csv () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] () in
  Table.add_row t [ "plain"; "with,comma" ];
  Table.add_row t [ "has\"quote"; "fine" ];
  Alcotest.(check string) "csv escaping"
    "a,b\nplain,\"with,comma\"\n\"has\"\"quote\",fine\n" (Table.csv t)

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "ratio" "2.5x" (Table.cell_ratio 2.5);
  Alcotest.(check string) "percent" "97.0%" (Table.cell_percent 0.97)

let () =
  Alcotest.run "abc_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "peek_priority" `Quick test_heap_peek_priority;
          Alcotest.test_case "payload pairing" `Quick test_heap_payload_pairing;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ("clock", [ Alcotest.test_case "basics" `Quick test_clock ]);
      ( "trace",
        [
          Alcotest.test_case "basic" `Quick test_trace_basic;
          Alcotest.test_case "eviction" `Quick test_trace_eviction;
          Alcotest.test_case "find_all" `Quick test_trace_find_kind;
          QCheck_alcotest.to_alcotest prop_trace_ring_model;
        ] );
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "stats" `Quick test_summary_stats;
          Alcotest.test_case "percentile interpolation" `Quick
            test_summary_percentile_interpolation;
          Alcotest.test_case "single sample" `Quick test_summary_single;
          Alcotest.test_case "mean confidence interval" `Quick test_summary_mean_ci;
          QCheck_alcotest.to_alcotest prop_summary_bounds;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "buckets fill gaps" `Quick test_histogram_buckets_fill_gaps;
          Alcotest.test_case "render" `Quick test_histogram_render;
          QCheck_alcotest.to_alcotest prop_histogram_total;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
    ]
