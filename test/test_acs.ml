(* Tests for the Asynchronous Common Subset (multivalued consensus). *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module Acs = Abc.Acs.Make (Abc.Payloads.Int_payload)
module E = Abc_net.Engine.Make (Acs)

let node = Node_id.of_int

let run ?faulty ?(adversary = Adversary.uniform) ?(coin = Abc.Coin.local) ~n ~f
    ~seed proposals =
  let inputs = Acs.inputs ~n ~coin proposals in
  E.run (E.config ?faulty ~n ~f ~inputs ~seed ~adversary ())

let subsets result honest =
  List.map
    (fun id ->
      match result.E.outputs.(Node_id.to_int id) with
      | [ (_, Acs.Accepted subset) ] -> subset
      | [] -> Alcotest.fail (Fmt.str "node %a produced no subset" Node_id.pp id)
      | _ -> Alcotest.fail "node produced several subsets")
    honest

let check_terminal result =
  Alcotest.(check string) "all terminal" "all-terminal"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.E.stop)

let check_common subsets =
  match subsets with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun s ->
        Alcotest.(check int) "same size" (List.length first) (List.length s);
        List.iter2
          (fun (id1, p1) (id2, p2) ->
            Alcotest.(check bool) "same node" true (Node_id.equal id1 id2);
            Alcotest.(check int) "same payload" p1 p2)
          first s)
      rest

let test_all_honest_full_subset_possible () =
  let result = run ~n:4 ~f:1 ~seed:1 [| 10; 20; 30; 40 |] in
  check_terminal result;
  let subs = subsets result (Node_id.all ~n:4) in
  check_common subs;
  (* At least n - f proposals must be in the subset. *)
  Alcotest.(check bool) "at least n-f accepted" true (List.length (List.hd subs) >= 3)

let test_common_across_seeds_and_adversaries () =
  List.iter
    (fun adversary ->
      List.iter
        (fun seed ->
          let result = run ~adversary ~n:4 ~f:1 ~seed [| 1; 2; 3; 4 |] in
          check_terminal result;
          check_common (subsets result (Node_id.all ~n:4)))
        [ 0; 1; 2 ])
    (Adversary.all_basic ~n:4)

let test_silent_proposer_excluded_or_included_consistently () =
  let faulty = [ (node 3, Behaviour.Silent) ] in
  let result = run ~faulty ~n:4 ~f:1 ~seed:2 [| 10; 20; 30; 40 |] in
  check_terminal result;
  let honest = [ node 0; node 1; node 2 ] in
  let subs = subsets result honest in
  check_common subs;
  let subset = List.hd subs in
  Alcotest.(check bool) "silent node absent" false
    (List.exists (fun (id, _) -> Node_id.equal id (node 3)) subset);
  Alcotest.(check int) "three honest proposals" 3 (List.length subset)

let test_subset_contains_enough_honest () =
  (* n=7, f=2, two byzantine: the subset has ≥ n-f members of which at
     most f are faulty, so ≥ n-2f honest proposals. *)
  let faulty = [ (node 5, Behaviour.Silent); (node 6, Behaviour.Crash_after 1) ] in
  let result = run ~faulty ~n:7 ~f:2 ~seed:3 (Array.init 7 (fun i -> 100 + i)) in
  check_terminal result;
  let honest = List.map node [ 0; 1; 2; 3; 4 ] in
  let subs = subsets result honest in
  check_common subs;
  let honest_in_subset =
    List.filter
      (fun (id, _) -> List.exists (Node_id.equal id) honest)
      (List.hd subs)
  in
  Alcotest.(check bool) "n-2f honest proposals" true (List.length honest_in_subset >= 3)

let test_decide_value_is_min () =
  Alcotest.(check int) "min payload" 7
    (Acs.decide_value (Acs.Accepted [ (node 0, 9); (node 1, 7); (node 2, 8) ]));
  Alcotest.check_raises "empty subset"
    (Invalid_argument "Acs.decide_value: empty common subset") (fun () ->
      ignore (Acs.decide_value (Acs.Accepted [])))

(* decide_value over the common subset = multivalued consensus: all
   honest decide the same proposal value. *)
let check_multivalued ?faulty ~honest ~seed proposals =
  let result = run ?faulty ~n:4 ~f:1 ~seed proposals in
  check_terminal result;
  let decided =
    List.map (fun s -> Acs.decide_value (Acs.Accepted s)) (subsets result honest)
  in
  match decided with
  | first :: rest ->
    List.iter (fun v -> Alcotest.(check int) "same decision" first v) rest;
    Alcotest.(check bool) "decided value was proposed" true
      (Array.mem first proposals)
  | [] -> Alcotest.fail "no decisions"

let test_multivalued_consensus () =
  check_multivalued ~honest:(Node_id.all ~n:4) ~seed:4 [| 42; 17; 99; 3 |]

let test_multivalued_with_fault () =
  check_multivalued
    ~faulty:[ (node 0, Behaviour.Silent) ]
    ~honest:[ node 1; node 2; node 3 ] ~seed:6 [| 9; 8; 7; 6 |]

let test_inputs_arity () =
  Alcotest.check_raises "inputs arity"
    (Invalid_argument "Acs.inputs: proposals length must equal n") (fun () ->
      ignore (Acs.inputs ~n:4 ~coin:Abc.Coin.local [| 1 |]))

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

let test_acs_labels_shared () =
  let seen = ref [] in
  let module Recorded = struct
    include Acs

    let on_message ctx state ~src msg =
      seen := msg :: !seen;
      Acs.on_message ctx state ~src msg
  end in
  let module R = Abc_net.Engine.Make (Recorded) in
  let inputs = Acs.inputs ~n:4 ~coin:Abc.Coin.local [| 1; 2; 3; 4 |] in
  ignore (R.run (R.config ~n:4 ~f:1 ~inputs ~seed:2 ~adversary:Adversary.uniform ()));
  check_labels ~label:Acs.msg_label
    ~expected:
      [ "ba.echo"; "ba.initial"; "ba.ready"; "prop.echo"; "prop.initial"; "prop.ready" ]
    !seen

let test_batch_acs_labels_shared () =
  let module Batch_acs = Abc.Batch_acs in
  let seen = ref [] in
  let module Recorded = struct
    include Batch_acs

    let on_message ctx state ~src msg =
      seen := msg :: !seen;
      Batch_acs.on_message ctx state ~src msg
  end in
  let module R = Abc_net.Engine.Make (Recorded) in
  let inputs =
    Batch_acs.inputs ~n:4 ~coin:Abc.Coin.local [| "a"; "bb"; "ccc"; "dddd" |]
  in
  ignore (R.run (R.config ~n:4 ~f:1 ~inputs ~seed:2 ~adversary:Adversary.uniform ()));
  check_labels ~label:Batch_acs.msg_label
    ~expected:[ "ba.echo"; "ba.initial"; "ba.ready"; "prop.echo"; "prop.ready"; "prop.val" ]
    !seen

(* ---- pass-through ---- *)

(* A message that changes nothing returns the state it was given: most
   BA wires do, and each such delivery returns no action and no
   output.  A wrapper counts them over an honest run. *)
let test_batch_acs_unchanged_states () =
  let module Batch_acs = Abc.Batch_acs in
  let unchanged = ref 0 in
  let module Counted = struct
    include Batch_acs

    let on_message ctx state ~src msg =
      let ((state', actions, outputs) as result) = Batch_acs.on_message ctx state ~src msg in
      if state' == state then begin
        incr unchanged;
        if actions <> [] || outputs <> [] then
          Alcotest.fail "an unchanged state came back with actions or outputs"
      end;
      result
  end in
  let module R = Abc_net.Engine.Make (Counted) in
  let inputs =
    Batch_acs.inputs ~n:4 ~coin:Abc.Coin.local [| "a"; "bb"; "ccc"; "dddd" |]
  in
  ignore (R.run (R.config ~n:4 ~f:1 ~inputs ~seed:2 ~adversary:Adversary.uniform ()));
  Alcotest.(check bool) "some deliveries return their state" true (!unchanged > 0)

let prop_common_subset =
  QCheck.Test.make ~name:"subsets identical across honest nodes" ~count:25
    QCheck.(small_int)
    (fun seed ->
      let result = run ~n:4 ~f:1 ~seed [| 5; 6; 7; 8 |] in
      result.E.stop = Abc_net.Engine.All_terminal
      &&
      let subs = subsets result (Node_id.all ~n:4) in
      match subs with
      | first :: rest -> List.for_all (fun s -> s = first) rest
      | [] -> false)

let prop_faulty_proposer_safe =
  QCheck.Test.make ~name:"byzantine proposer cannot split the subset" ~count:25
    QCheck.(small_int)
    (fun seed ->
      let faulty = [ (node 0, Behaviour.Replay 1) ] in
      let result = run ~faulty ~n:4 ~f:1 ~seed [| 1; 2; 3; 4 |] in
      result.E.stop = Abc_net.Engine.All_terminal
      &&
      let subs = subsets result [ node 1; node 2; node 3 ] in
      match subs with
      | first :: rest -> List.for_all (fun s -> s = first) rest
      | [] -> false)

let () =
  Alcotest.run "acs"
    [
      ( "common subset",
        [
          Alcotest.test_case "all honest" `Quick test_all_honest_full_subset_possible;
          Alcotest.test_case "across seeds and adversaries" `Slow
            test_common_across_seeds_and_adversaries;
          Alcotest.test_case "silent proposer" `Quick
            test_silent_proposer_excluded_or_included_consistently;
          Alcotest.test_case "enough honest proposals" `Quick
            test_subset_contains_enough_honest;
        ] );
      ( "multivalued",
        [
          Alcotest.test_case "decide_value min" `Quick test_decide_value_is_min;
          Alcotest.test_case "multivalued consensus" `Quick test_multivalued_consensus;
          Alcotest.test_case "multivalued with fault" `Quick test_multivalued_with_fault;
          Alcotest.test_case "inputs arity" `Quick test_inputs_arity;
        ] );
      ( "labels",
        [
          Alcotest.test_case "acs labels are shared" `Quick test_acs_labels_shared;
          Alcotest.test_case "batch-acs labels are shared" `Quick
            test_batch_acs_labels_shared;
        ] );
      ( "pass-through",
        [
          Alcotest.test_case "batch-acs passes them up" `Quick
            test_batch_acs_unchanged_states;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_common_subset;
          QCheck_alcotest.to_alcotest prop_faulty_proposer_safe;
        ] );
    ]
