(* Tests for the Ben-Or (1983) baseline in both fault modes. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module BO = Abc.Ben_or
module Value = Abc.Value

module H = Abc.Harness.Make (struct
  include BO

  let value_of_input = BO.value_of_input
end)

let node = Node_id.of_int

let run ?faulty ?(adversary = Adversary.uniform) ?(coin = Abc.Coin.local) ~n ~f
    ~mode ~seed values =
  let inputs = BO.inputs ~n ~mode ~coin values in
  snd (H.run (H.E.config ?faulty ~n ~f ~inputs ~seed ~adversary ()))

let unanimous n v = Array.make n v

let mixed n = Array.init n (fun i -> if i mod 2 = 0 then Value.Zero else Value.One)

let check_ok label verdict =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s" label (Fmt.str "%a" Abc.Harness.pp_verdict verdict))
    true (Abc.Harness.ok verdict)

let test_mode_bounds () =
  Alcotest.(check int) "byzantine n=6" 1 (BO.Mode.max_faults BO.Mode.Byzantine ~n:6);
  Alcotest.(check int) "byzantine n=11" 2 (BO.Mode.max_faults BO.Mode.Byzantine ~n:11);
  Alcotest.(check int) "byzantine n=16" 3 (BO.Mode.max_faults BO.Mode.Byzantine ~n:16);
  Alcotest.(check int) "crash n=5" 2 (BO.Mode.max_faults BO.Mode.Crash ~n:5);
  Alcotest.(check int) "crash n=7" 3 (BO.Mode.max_faults BO.Mode.Crash ~n:7)

let test_crash_unanimous () =
  List.iter
    (fun v ->
      let verdict = run ~n:5 ~f:2 ~mode:BO.Mode.Crash ~seed:1 (unanimous 5 v) in
      check_ok "crash unanimous" verdict;
      Alcotest.(check int) "round 1" 1 verdict.Abc.Harness.max_round)
    [ Value.Zero; Value.One ]

let test_crash_mixed_many_seeds () =
  List.iter
    (fun seed ->
      check_ok
        (Printf.sprintf "crash mixed seed %d" seed)
        (run ~n:5 ~f:2 ~mode:BO.Mode.Crash ~seed (mixed 5)))
    (List.init 10 (fun i -> i))

let test_crash_with_actual_crashes () =
  List.iter
    (fun seed ->
      let faulty =
        [ (node 0, Behaviour.Crash_after 2); (node 4, Behaviour.Crash_after 5) ]
      in
      check_ok
        (Printf.sprintf "two crashes seed %d" seed)
        (run ~faulty ~n:5 ~f:2 ~mode:BO.Mode.Crash ~seed (mixed 5)))
    (List.init 10 (fun i -> i))

let test_byzantine_unanimous () =
  let verdict = run ~n:6 ~f:1 ~mode:BO.Mode.Byzantine ~seed:2 (unanimous 6 Value.One) in
  check_ok "byzantine unanimous" verdict;
  Alcotest.(check int) "round 1" 1 verdict.Abc.Harness.max_round

let test_byzantine_tolerates_designed_faults () =
  List.iter
    (fun behaviour ->
      List.iter
        (fun seed ->
          let verdict =
            run
              ~faulty:[ (node 5, behaviour) ]
              ~n:6 ~f:1 ~mode:BO.Mode.Byzantine ~seed (unanimous 6 Value.Zero)
          in
          check_ok (Printf.sprintf "byzantine fault seed %d" seed) verdict;
          match verdict.Abc.Harness.decisions with
          | (_, _, d) :: _ ->
            Alcotest.(check bool) "validity held" true
              (Value.equal d.Abc.Decision.value Value.Zero)
          | [] -> Alcotest.fail "no decisions")
        [ 0; 1; 2 ])
    [
      Behaviour.Silent;
      Behaviour.Mutate BO.Fault.flip_value;
      Behaviour.Equivocate (Behaviour.two_faced ~n:6 BO.Fault.flip_value);
    ]

let test_byzantine_all_adversaries () =
  List.iter
    (fun adversary ->
      check_ok adversary.Adversary.name
        (run ~adversary ~n:6 ~f:1 ~mode:BO.Mode.Byzantine ~seed:3 (mixed 6)))
    (Adversary.all_basic ~n:6)

let test_common_coin_helps () =
  (* Same mixed-input setup: the common coin must also terminate (and
     it does so in few rounds). *)
  List.iter
    (fun seed ->
      let verdict =
        run ~coin:(Abc.Coin.common ~seed:5) ~n:6 ~f:1 ~mode:BO.Mode.Byzantine ~seed
          (mixed 6)
      in
      check_ok (Printf.sprintf "common coin seed %d" seed) verdict)
    (List.init 5 (fun i -> i))

let test_bracha_beats_benor_resilience () =
  (* The comparison at the heart of E2: at n=7, f=2, Bracha is designed
     to work (7 > 3*2) while Ben-Or's design bound (7 > 5*2) is
     violated.  We check the *positive* side for Ben-Or at its own
     bound instead of asserting a failure: n=11 tolerates f=2. *)
  List.iter
    (fun seed ->
      check_ok
        (Printf.sprintf "ben-or at design bound seed %d" seed)
        (run ~n:11 ~f:2 ~mode:BO.Mode.Byzantine ~seed (mixed 11)))
    [ 0; 1 ]

let test_inputs_arity () =
  Alcotest.check_raises "inputs arity"
    (Invalid_argument "Ben_or.inputs: values length must equal n") (fun () ->
      ignore (BO.inputs ~n:4 ~mode:BO.Mode.Crash ~coin:Abc.Coin.local [| Value.One |]))

let test_pp_msg () =
  let pp m = Fmt.str "%a" BO.pp_msg m in
  Alcotest.(check string) "report" "report(r1, 1)"
    (pp (BO.Report { round = 1; value = Value.One }));
  Alcotest.(check string) "proposal" "proposal(r2, 0)"
    (pp (BO.Proposal { round = 2; value = Some Value.Zero }));
  Alcotest.(check string) "question" "proposal(r3, ?)"
    (pp (BO.Proposal { round = 3; value = None }))

let prop_crash_mode_ok =
  QCheck.Test.make ~name:"crash mode ok across seeds and crash points" ~count:50
    QCheck.(pair small_int (int_range 0 10))
    (fun (seed, crash_point) ->
      let faulty = [ (node 1, Behaviour.Crash_after crash_point) ] in
      Abc.Harness.ok (run ~faulty ~n:5 ~f:2 ~mode:BO.Mode.Crash ~seed (mixed 5)))

let prop_byzantine_mode_ok =
  QCheck.Test.make ~name:"byzantine mode ok across seeds" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let faulty = [ (node 0, Behaviour.Mutate BO.Fault.flip_value) ] in
      Abc.Harness.ok (run ~faulty ~n:6 ~f:1 ~mode:BO.Mode.Byzantine ~seed (mixed 6)))

let () =
  Alcotest.run "ben_or"
    [
      ( "modes",
        [
          Alcotest.test_case "fault bounds" `Quick test_mode_bounds;
          Alcotest.test_case "pp_msg" `Quick test_pp_msg;
          Alcotest.test_case "inputs arity" `Quick test_inputs_arity;
        ] );
      ( "crash",
        [
          Alcotest.test_case "unanimous" `Quick test_crash_unanimous;
          Alcotest.test_case "mixed, many seeds" `Quick test_crash_mixed_many_seeds;
          Alcotest.test_case "actual crashes" `Quick test_crash_with_actual_crashes;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "unanimous" `Quick test_byzantine_unanimous;
          Alcotest.test_case "designed faults" `Quick
            test_byzantine_tolerates_designed_faults;
          Alcotest.test_case "all adversaries" `Quick test_byzantine_all_adversaries;
          Alcotest.test_case "common coin" `Quick test_common_coin_helps;
          Alcotest.test_case "design bound n=11 f=2" `Slow
            test_bracha_beats_benor_resilience;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_crash_mode_ok;
          QCheck_alcotest.to_alcotest prop_byzantine_mode_ok;
        ] );
    ]
