(* End-to-end tests for Bracha's randomized consensus: the paper's
   agreement/validity/termination theorems exercised under faults and
   adversarial schedules, plus the pure Consensus_core machine. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module B = Abc.Bracha_consensus
module Value = Abc.Value
module Core = Abc.Consensus_core
module M = Abc.Consensus_msg

module H = Abc.Harness.Make (struct
  include B

  let value_of_input = B.value_of_input
end)

let node = Node_id.of_int

let run ?faulty ?(adversary = Adversary.uniform) ?(options = B.Options.default)
    ?(n = 4) ?(f = 1) ~seed values =
  let inputs = B.inputs ~n ~options values in
  snd (H.run (H.E.config ?faulty ~n ~f ~inputs ~seed ~adversary ()))

let unanimous n v = Array.make n v

let mixed n = Array.init n (fun i -> if i mod 2 = 0 then Value.Zero else Value.One)

let check_ok label verdict =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s" label (Fmt.str "%a" Abc.Harness.pp_verdict verdict))
    true (Abc.Harness.ok verdict)

(* ---- Pure core ---- *)

let rng () = Abc_prng.Stream.root ~seed:42

let vmsg ?(decide = false) ~origin ~round ~step value =
  { M.origin = node origin; round; step; value; decide }

let test_core_initial_broadcast () =
  let _, effects =
    Core.create ~n:4 ~f:1 ~me:(node 0) ~coin:Abc.Coin.local ~input:Value.One
  in
  match effects with
  | [ Core.Broadcast_step m ] ->
    Alcotest.(check int) "round 1" 1 m.M.round;
    Alcotest.(check bool) "step 1" true (M.Step.equal m.M.step M.Step.S1);
    Alcotest.(check bool) "input value" true (Value.equal m.M.value Value.One)
  | _ -> Alcotest.fail "expected exactly the step-1 broadcast"

let feed core msgs =
  List.fold_left
    (fun (core, acc) m ->
      let core, effects = Core.on_validated core ~rng:(rng ()) m in
      (core, acc @ effects))
    (core, []) msgs

let test_core_unanimous_decides_round_one () =
  let core, _ =
    Core.create ~n:4 ~f:1 ~me:(node 0) ~coin:Abc.Coin.local ~input:Value.One
  in
  let step s = List.map (fun o -> vmsg ~origin:o ~round:1 ~step:s Value.One) [ 0; 1; 2 ] in
  let core, _ = feed core (step M.Step.S1) in
  let core, _ = feed core (step M.Step.S2) in
  let core, effects =
    feed core
      (List.map
         (fun o -> vmsg ~decide:true ~origin:o ~round:1 ~step:M.Step.S3 Value.One)
         [ 0; 1; 2 ])
  in
  let decided =
    List.exists (function Core.Decide _ -> true | Core.Broadcast_step _ -> false) effects
  in
  Alcotest.(check bool) "decided" true decided;
  match Core.decided core with
  | Some d ->
    Alcotest.(check bool) "value One" true (Value.equal d.Abc.Decision.value Value.One);
    Alcotest.(check int) "round 1" 1 d.Abc.Decision.round
  | None -> Alcotest.fail "no decision recorded"

let test_core_majority_adoption () =
  (* Step-1 quorum 2:1 for Zero: the node must adopt Zero in its step-2
     broadcast even though it started with One. *)
  let core, _ =
    Core.create ~n:4 ~f:1 ~me:(node 0) ~coin:Abc.Coin.local ~input:Value.One
  in
  let _, effects =
    feed core
      [
        vmsg ~origin:0 ~round:1 ~step:M.Step.S1 Value.One;
        vmsg ~origin:1 ~round:1 ~step:M.Step.S1 Value.Zero;
        vmsg ~origin:2 ~round:1 ~step:M.Step.S1 Value.Zero;
      ]
  in
  match effects with
  | [ Core.Broadcast_step m ] ->
    Alcotest.(check bool) "adopted majority" true (Value.equal m.M.value Value.Zero);
    Alcotest.(check bool) "step 2" true (M.Step.equal m.M.step M.Step.S2)
  | _ -> Alcotest.fail "expected exactly the step-2 broadcast"

let test_core_adopt_at_f_plus_one_decides_next_round () =
  (* f+1 decide-messages adopt but do not decide. *)
  let core, _ =
    Core.create ~n:4 ~f:1 ~me:(node 0) ~coin:Abc.Coin.local ~input:Value.Zero
  in
  let core, _ =
    feed core (List.map (fun o -> vmsg ~origin:o ~round:1 ~step:M.Step.S1 Value.One) [ 0; 1; 2 ])
  in
  let core, _ =
    feed core (List.map (fun o -> vmsg ~origin:o ~round:1 ~step:M.Step.S2 Value.One) [ 0; 1; 2 ])
  in
  let core, _ =
    feed core
      [
        vmsg ~decide:true ~origin:0 ~round:1 ~step:M.Step.S3 Value.One;
        vmsg ~decide:true ~origin:1 ~round:1 ~step:M.Step.S3 Value.One;
        vmsg ~origin:2 ~round:1 ~step:M.Step.S3 Value.One;
      ]
  in
  Alcotest.(check bool) "not decided yet" true (Core.decided core = None);
  Alcotest.(check int) "moved to round 2" 2 (Core.round core);
  Alcotest.(check bool) "adopted One" true (Value.equal (Core.current_value core) Value.One)

let test_core_quiesces_after_decision () =
  (* Drive a decided core two rounds further: it must stop emitting. *)
  let core, _ =
    Core.create ~n:4 ~f:1 ~me:(node 0) ~coin:Abc.Coin.local ~input:Value.One
  in
  let full_round core r =
    let core, effects1 =
      feed core (List.map (fun o -> vmsg ~origin:o ~round:r ~step:M.Step.S1 Value.One) [ 0; 1; 2 ])
    in
    let core, effects2 =
      feed core (List.map (fun o -> vmsg ~origin:o ~round:r ~step:M.Step.S2 Value.One) [ 0; 1; 2 ])
    in
    let core, effects3 =
      feed core
        (List.map
           (fun o -> vmsg ~decide:true ~origin:o ~round:r ~step:M.Step.S3 Value.One)
           [ 0; 1; 2 ])
    in
    (core, effects1 @ effects2 @ effects3)
  in
  let core, _ = full_round core 1 in
  Alcotest.(check bool) "decided in round 1" true (Core.decided core <> None);
  let core, _ = full_round core 2 in
  let core, _ = full_round core 3 in
  let _, effects = full_round core 4 in
  Alcotest.(check int) "quiesced: no further effects" 0 (List.length effects)

(* ---- End-to-end: the three theorems ---- *)

let test_unanimous_decides_input_round_one () =
  List.iter
    (fun v ->
      let verdict = run ~seed:1 (unanimous 4 v) in
      check_ok "unanimous" verdict;
      Alcotest.(check int) "round 1" 1 verdict.Abc.Harness.max_round;
      match verdict.Abc.Harness.decisions with
      | (_, _, d) :: _ ->
        Alcotest.(check bool) "validity" true (Value.equal d.Abc.Decision.value v)
      | [] -> Alcotest.fail "no decisions")
    [ Value.Zero; Value.One ]

let test_mixed_inputs_all_adversaries () =
  List.iter
    (fun adversary ->
      List.iter
        (fun seed ->
          let verdict = run ~n:7 ~f:2 ~adversary ~seed (mixed 7) in
          check_ok (Printf.sprintf "%s seed %d" adversary.Adversary.name seed) verdict)
        [ 0; 1; 2; 3; 4 ])
    (Adversary.all_basic ~n:7)

let test_max_resilience_n4 () =
  (* n=4 tolerates exactly one Byzantine node. *)
  List.iter
    (fun behaviour ->
      List.iter
        (fun seed ->
          let verdict = run ~faulty:[ (node 3, behaviour) ] ~seed (mixed 4) in
          check_ok (Printf.sprintf "behaviour seed %d" seed) verdict)
        [ 0; 1; 2 ])
    [
      Behaviour.Silent;
      Behaviour.Crash_after 5;
      Behaviour.Mutate B.Fault.flip_value;
      Behaviour.Mutate B.Fault.force_decide;
      Behaviour.Mutate B.Fault.random_value;
      Behaviour.Equivocate (Behaviour.two_faced ~n:4 B.Fault.flip_value);
      Behaviour.Replay 2;
    ]

let test_two_byzantine_n7 () =
  List.iter
    (fun seed ->
      let faulty =
        [
          (node 0, Behaviour.Mutate B.Fault.flip_value);
          (node 6, Behaviour.Equivocate (Behaviour.two_faced ~n:7 B.Fault.flip_value));
        ]
      in
      let verdict = run ~n:7 ~f:2 ~faulty ~seed (unanimous 7 Value.One) in
      check_ok (Printf.sprintf "two byzantine seed %d" seed) verdict;
      match verdict.Abc.Harness.decisions with
      | (_, _, d) :: _ ->
        Alcotest.(check bool) "honest unanimity preserved" true
          (Value.equal d.Abc.Decision.value Value.One)
      | [] -> Alcotest.fail "no decisions")
    [ 0; 1; 2; 3; 4 ]

let test_determinism () =
  let v1 = run ~n:7 ~f:2 ~seed:11 (mixed 7) in
  let v2 = run ~n:7 ~f:2 ~seed:11 (mixed 7) in
  Alcotest.(check int) "same duration" v1.Abc.Harness.duration v2.Abc.Harness.duration;
  Alcotest.(check int) "same messages" v1.Abc.Harness.messages v2.Abc.Harness.messages;
  Alcotest.(check (list int)) "same rounds" v1.Abc.Harness.rounds v2.Abc.Harness.rounds

let test_common_coin_terminates_quickly () =
  let options = B.Options.with_common_coin ~seed:7 in
  List.iter
    (fun seed ->
      let verdict = run ~n:7 ~f:2 ~options ~adversary:(Adversary.split ~n:7) ~seed (mixed 7) in
      check_ok (Printf.sprintf "common coin seed %d" seed) verdict;
      Alcotest.(check bool)
        (Printf.sprintf "few rounds (got %d)" verdict.Abc.Harness.max_round)
        true
        (verdict.Abc.Harness.max_round <= 6))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_validation_ablation_weaker () =
  (* Pinned result (deterministic engine): with two liars, the paper's
     protocol passes all 15 seeds; the no-validation ablation loses
     termination on at least one. *)
  let faulty =
    [
      (node 0, Behaviour.Mutate B.Fault.force_decide);
      (node 1, Behaviour.Mutate B.Fault.flip_value);
    ]
  in
  let count options =
    List.length
      (List.filter
         (fun seed ->
           Abc.Harness.ok (run ~n:7 ~f:2 ~options ~faulty ~seed (unanimous 7 Value.Zero)))
         (List.init 15 (fun i -> i)))
  in
  Alcotest.(check int) "validation on: all ok" 15 (count B.Options.default);
  let ablated = count { B.Options.default with B.Options.validation = false } in
  Alcotest.(check bool)
    (Printf.sprintf "validation off: weaker (ok=%d/15)" ablated)
    true (ablated < 15)

let test_plain_transport_honest_works () =
  let options = { B.Options.default with B.Options.transport = B.Options.Plain } in
  List.iter
    (fun seed -> check_ok "plain transport" (run ~n:7 ~f:2 ~options ~seed (mixed 7)))
    [ 0; 1; 2 ]

let test_message_complexity_cubic_per_round () =
  (* Each round is 3 RBCs per node; each RBC costs O(n^2): the run
     should stay within a small multiple of n^3 per round. *)
  let verdict = run ~n:7 ~f:2 ~seed:0 (unanimous 7 Value.One) in
  check_ok "complexity run" verdict;
  let bound = 4 * 7 * 7 * 7 * (verdict.Abc.Harness.max_round + 2) in
  Alcotest.(check bool)
    (Printf.sprintf "messages %d within %d" verdict.Abc.Harness.messages bound)
    true
    (verdict.Abc.Harness.messages <= bound)

let test_inputs_arity () =
  Alcotest.check_raises "inputs arity"
    (Invalid_argument "Bracha_consensus.inputs: values length must equal n")
    (fun () -> ignore (B.inputs ~n:4 ~options:B.Options.default [| Value.One |]))

(* ---- Properties ---- *)

let prop_agreement_validity_random_faults =
  QCheck.Test.make ~name:"agreement+validity under random fault mix" ~count:60
    QCheck.(pair small_int (int_range 0 4))
    (fun (seed, fault_kind) ->
      let behaviour =
        match fault_kind with
        | 0 -> Behaviour.Silent
        | 1 -> Behaviour.Crash_after 7
        | 2 -> Behaviour.Mutate B.Fault.flip_value
        | 3 -> Behaviour.Mutate B.Fault.force_decide
        | _ -> Behaviour.Equivocate (Behaviour.two_faced ~n:7 B.Fault.flip_value)
      in
      let faulty = [ (node 2, behaviour); (node 5, behaviour) ] in
      let verdict = run ~n:7 ~f:2 ~faulty ~seed (mixed 7) in
      Abc.Harness.ok verdict)

let prop_rounds_positive =
  QCheck.Test.make ~name:"decision rounds are positive" ~count:40
    QCheck.(small_int)
    (fun seed ->
      let verdict = run ~n:4 ~f:1 ~seed (mixed 4) in
      List.for_all (fun r -> r >= 1) verdict.Abc.Harness.rounds)

let () =
  Alcotest.run "bracha_consensus"
    [
      ( "core",
        [
          Alcotest.test_case "initial broadcast" `Quick test_core_initial_broadcast;
          Alcotest.test_case "unanimous decides round 1" `Quick
            test_core_unanimous_decides_round_one;
          Alcotest.test_case "majority adoption" `Quick test_core_majority_adoption;
          Alcotest.test_case "adopt at f+1" `Quick
            test_core_adopt_at_f_plus_one_decides_next_round;
          Alcotest.test_case "quiesce after decision" `Quick
            test_core_quiesces_after_decision;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "unanimity: round-1 decision" `Quick
            test_unanimous_decides_input_round_one;
          Alcotest.test_case "mixed inputs, all adversaries" `Slow
            test_mixed_inputs_all_adversaries;
          Alcotest.test_case "max resilience n=4 f=1" `Quick test_max_resilience_n4;
          Alcotest.test_case "two byzantine n=7" `Quick test_two_byzantine_n7;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "common coin fast" `Quick
            test_common_coin_terminates_quickly;
          Alcotest.test_case "validation ablation weaker" `Slow
            test_validation_ablation_weaker;
          Alcotest.test_case "plain transport honest" `Quick
            test_plain_transport_honest_works;
          Alcotest.test_case "message complexity" `Quick
            test_message_complexity_cubic_per_round;
          Alcotest.test_case "inputs arity" `Quick test_inputs_arity;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_agreement_validity_random_faults;
          QCheck_alcotest.to_alcotest prop_rounds_positive;
        ] );
    ]
