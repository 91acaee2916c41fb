(* Tests for MMR binary agreement (Mostéfaoui–Moumen–Raynal 2014), the
   modern descendant of Bracha's protocol, including the ablation that
   shows the common coin is a safety requirement. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module M = Abc.Mmr_consensus
module Value = Abc.Value

module H = Abc.Harness.Make (struct
  include M

  let value_of_input = M.value_of_input
end)

let node = Node_id.of_int

let common = Abc.Coin.common ~seed:7

let run ?faulty ?(adversary = Adversary.uniform) ?(coin = common) ~n ~f ~seed
    values =
  let inputs = M.inputs ~n ~coin values in
  snd (H.run (H.E.config ?faulty ~n ~f ~inputs ~seed ~adversary ()))

let unanimous n v = Array.make n v

let split n = Array.init n (fun i -> if i < n / 2 then Value.Zero else Value.One)

let check_ok label verdict =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s" label (Fmt.str "%a" Abc.Harness.pp_verdict verdict))
    true (Abc.Harness.ok verdict)

let test_unanimous_decides_input () =
  List.iter
    (fun v ->
      let verdict = run ~n:4 ~f:1 ~seed:1 (unanimous 4 v) in
      check_ok "unanimous" verdict;
      match verdict.Abc.Harness.decisions with
      | (_, _, d) :: _ ->
        Alcotest.(check bool) "validity" true (Value.equal d.Abc.Decision.value v)
      | [] -> Alcotest.fail "no decisions")
    [ Value.Zero; Value.One ]

let test_split_inputs_all_adversaries () =
  List.iter
    (fun adversary ->
      List.iter
        (fun seed ->
          check_ok
            (Printf.sprintf "%s seed %d" adversary.Adversary.name seed)
            (run ~n:7 ~f:2 ~adversary ~seed (split 7)))
        [ 0; 1; 2; 3; 4 ])
    (Adversary.all_basic ~n:7)

let test_byzantine_battery () =
  List.iter
    (fun behaviour ->
      List.iter
        (fun seed ->
          let faulty = [ (node 5, behaviour); (node 6, behaviour) ] in
          let verdict = run ~n:7 ~f:2 ~faulty ~seed (unanimous 7 Value.One) in
          check_ok (Printf.sprintf "byzantine seed %d" seed) verdict;
          match verdict.Abc.Harness.decisions with
          | (_, _, d) :: _ ->
            Alcotest.(check bool) "validity held" true
              (Value.equal d.Abc.Decision.value Value.One)
          | [] -> Alcotest.fail "no decisions")
        [ 0; 1; 2 ])
    [
      Behaviour.Silent;
      Behaviour.Crash_after 4;
      Behaviour.Mutate M.Fault.flip_value;
      Behaviour.Equivocate (Behaviour.two_faced ~n:7 M.Fault.flip_value);
      Behaviour.Replay 2;
    ]

let test_constant_rounds_with_common_coin () =
  (* Under the nastiest schedule we have, rounds stay small. *)
  let faulty =
    [
      (node 0, Behaviour.Mutate M.Fault.flip_value);
      (node 7, Behaviour.Mutate M.Fault.flip_value);
    ]
  in
  List.iter
    (fun seed ->
      let verdict =
        run ~faulty ~adversary:(Adversary.split ~n:8) ~n:8 ~f:2 ~seed (split 8)
      in
      check_ok (Printf.sprintf "seed %d" seed) verdict;
      Alcotest.(check bool)
        (Printf.sprintf "rounds bounded (got %d)" verdict.Abc.Harness.max_round)
        true
        (verdict.Abc.Harness.max_round <= 5))
    (List.init 15 (fun i -> i))

let test_cheaper_than_bracha () =
  (* The headline improvement: one BV-broadcast + one vote per round
     instead of three reliable broadcasts — an order of magnitude in
     messages at n=16. *)
  let mmr = run ~n:16 ~f:5 ~seed:3 (split 16) in
  check_ok "mmr n=16" mmr;
  let module B = Abc.Bracha_consensus in
  let module BH = Abc.Harness.Make (struct
    include B

    let value_of_input = B.value_of_input
  end) in
  let bracha_inputs = B.inputs ~n:16 ~options:B.Options.default (split 16) in
  let _, bracha =
    BH.run (BH.E.config ~n:16 ~f:5 ~inputs:bracha_inputs ~seed:3 ~adversary:Adversary.uniform ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "mmr %d msgs << bracha %d msgs" mmr.Abc.Harness.messages
       bracha.Abc.Harness.messages)
    true
    (mmr.Abc.Harness.messages * 5 < bracha.Abc.Harness.messages)

let test_local_coin_violates_agreement () =
  (* The ablation: with local coins MMR is UNSAFE, not just slow.
     Pinned deterministic failure (seed 7 at n=7/f=2, uniform
     scheduler) plus a sweep showing violations occur. *)
  let verdict = run ~coin:Abc.Coin.local ~n:7 ~f:2 ~seed:7 (split 7) in
  Alcotest.(check bool) "pinned agreement violation" false
    verdict.Abc.Harness.agreement;
  let violations =
    List.length
      (List.filter
         (fun seed ->
           let v = run ~coin:Abc.Coin.local ~n:7 ~f:2 ~seed (split 7) in
           not v.Abc.Harness.agreement)
         (List.init 30 (fun i -> i)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "violations across seeds (%d/30)" violations)
    true (violations > 0)

let test_common_coin_never_violates () =
  List.iter
    (fun seed ->
      let v = run ~n:7 ~f:2 ~seed (split 7) in
      Alcotest.(check bool) "agreement" true v.Abc.Harness.agreement;
      Alcotest.(check bool) "validity" true v.Abc.Harness.validity)
    (List.init 30 (fun i -> i))

let test_inputs_arity () =
  Alcotest.check_raises "inputs arity"
    (Invalid_argument "Mmr_consensus.inputs: values length must equal n")
    (fun () -> ignore (M.inputs ~n:4 ~coin:common [| Value.One |]))

let test_pp_msg () =
  Alcotest.(check string) "bval" "bval(r1, 1)"
    (Fmt.str "%a" M.pp_msg (M.Bval { round = 1; value = Value.One }));
  Alcotest.(check string) "aux" "aux(r2, 0)"
    (Fmt.str "%a" M.pp_msg (M.Aux { round = 2; value = Value.Zero }))

let prop_ok_with_common_coin =
  QCheck.Test.make ~name:"mmr ok across seeds and fault mixes" ~count:50
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, fault_kind) ->
      let behaviour =
        match fault_kind with
        | 0 -> Behaviour.Silent
        | 1 -> Behaviour.Crash_after 6
        | 2 -> Behaviour.Mutate M.Fault.flip_value
        | _ -> Behaviour.Equivocate (Behaviour.two_faced ~n:7 M.Fault.flip_value)
      in
      let faulty = [ (node 1, behaviour); (node 4, behaviour) ] in
      Abc.Harness.ok (run ~faulty ~n:7 ~f:2 ~seed (split 7)))

(* ---- pass-through ---- *)

(* A vote that changes nothing a rule reads returns the state itself,
   with no action and no output: a second BVAL from one sender, a BVAL
   whose value was echoed and delivered, a second AUX from one sender
   and an AUX of a completed round.  A vote that makes no threshold
   test hold is stored and answers nothing.  At n = 4, f = 1 the tests
   are f+1 = 2 and 2f+1 = 3 BVALs and n-f = 3 AUX votes. *)
let test_pass_through () =
  let ctx =
    {
      Abc_net.Protocol.Context.me = node 0;
      n = 4;
      f = 1;
      rng = Abc_prng.Stream.root ~seed:1;
      sink = Abc_sim.Event.null_sink;
    }
  in
  let bval = M.Bval { round = 1; value = Value.One }
  and aux = M.Aux { round = 1; value = Value.One } in
  let state, _ = M.initial ctx (M.inputs ~n:4 ~coin:common (unanimous 4 Value.One)).(0) in
  let deliver state src msg = M.on_message ctx state ~src:(node src) msg in
  let feed msg state src =
    let state, _, _ = deliver state src msg in
    state
  in
  let unchanged name state src msg =
    let state', actions, outputs = deliver state src msg in
    Alcotest.(check bool) (name ^ ": same state") true (state' == state);
    Alcotest.(check int) (name ^ ": no actions") 0 (List.length actions);
    Alcotest.(check int) (name ^ ": no outputs") 0 (List.length outputs)
  in
  let quiet name state src msg =
    let state', actions, outputs = deliver state src msg in
    Alcotest.(check bool) (name ^ ": stored") false (state' == state);
    Alcotest.(check int) (name ^ ": no actions") 0 (List.length actions);
    Alcotest.(check int) (name ^ ": no outputs") 0 (List.length outputs);
    state'
  in
  let state = quiet "first bval" state 1 bval in
  unchanged "duplicate bval" state 1 bval;
  (* Two BVALs echo the value, three deliver it into bin_values. *)
  let state = List.fold_left (feed bval) state [ 2; 3 ] in
  unchanged "settled bval" state 0 bval;
  let state = quiet "first aux" state 1 aux in
  unchanged "duplicate aux" state 1 aux;
  (* Three AUX votes for a value in bin_values complete round 1. *)
  let state = List.fold_left (feed aux) state [ 2; 3 ] in
  unchanged "aux of a completed round" state 0 aux

(* ---- known answers ---- *)

(* The verdicts above accept any correct run; these pin the runs
   themselves.  Each row fixes a configuration (n, coin source, fault on
   the last f nodes, scheduling policy, seed; inputs split in halves)
   and pins its message and delivery counts, its final tick and a
   digest of every node's outputs, each as node, decided value, round
   and tick.  Rabin's coin is the only source that sends [Share]
   messages; split, eclipse and latency deliver votes of past and
   future rounds. *)

let known_fault ~n = function
  | "none" -> None
  | "flip" -> Some (Behaviour.Mutate M.Fault.flip_value)
  | "equivocate" -> Some (Behaviour.Equivocate (Behaviour.two_faced ~n M.Fault.flip_value))
  | "replay" -> Some (Behaviour.Replay 2)
  | "silent" -> Some Behaviour.Silent
  | other -> Alcotest.failf "unknown fault %s" other

(* A policy of [Adversary.all_basic], by the prefix of its name. *)
let known_policy ~n prefix =
  match
    List.find_opt
      (fun a -> String.starts_with ~prefix a.Adversary.name)
      (Adversary.all_basic ~n)
  with
  | Some adversary -> adversary
  | None -> Alcotest.failf "no policy named %s" prefix

let known_run ?trace ~n ~coin ~fault ~policy ~seed () =
  let f = (n - 1) / 3 in
  let values = split n in
  let inputs =
    match coin with
    | "flip" -> M.inputs ~n ~coin:common values
    | "rabin" -> M.inputs_with_shared_coin ~n ~f ~seed values
    | other -> Alcotest.failf "unknown coin %s" other
  in
  let faulty =
    match known_fault ~n fault with
    | None -> []
    | Some b -> List.init f (fun i -> (node (n - 1 - i), b))
  in
  let adversary = known_policy ~n policy in
  H.run (H.E.config ?trace ~faulty ~n ~f ~inputs ~seed ~adversary ())

let outputs_digest (result : H.E.result) =
  let outputs = Buffer.create 256 in
  Array.iteri
    (fun i decisions ->
      List.iter
        (fun (tick, d) ->
          Printf.bprintf outputs "%d:%d:%d:%d;" i
            (Value.to_int d.Abc.Decision.value) d.Abc.Decision.round tick)
        decisions)
    result.H.E.outputs;
  Digest.to_hex (Digest.string (Buffer.contents outputs))

(* (n, coin, fault, policy, seed, messages, deliveries, ticks, outputs) *)
let known_runs =
  [
    (4, "flip", "none", "fifo", 1, 128, 108, 108, "ae15dc9e1677b6fa5ef3048e218845ab");
    (7, "flip", "none", "uniform", 2, 343, 242, 242, "c52f0afaf2cc0fa37a745c0eeb0fc0b5");
    (10, "flip", "none", "latency", 3, 1090, 978, 978, "8a697209706bad044bd8f794bde28baf");
    (16, "flip", "none", "targeted", 4, 9968, 9268, 9268, "349884a00b3ece9921b779b2d49dbc8b");
    (4, "flip", "none", "split", 5, 184, 168, 168, "2657341efdfdf25adc03ed64ea305757");
    (7, "flip", "none", "source", 6, 196, 119, 119, "3dbbf67b4f161c774af31304e147566e");
    (10, "flip", "none", "eclipse", 7, 800, 681, 681, "e4cc044028130803e2f67145597f990d");
    (16, "flip", "flip", "fifo", 8, 1968, 1707, 1707, "8549776870b2d626016d1442d26f5c2d");
    (4, "flip", "flip", "uniform", 9, 252, 236, 236, "1d63bb55db6d4ae26dea604171152cdf");
    (7, "flip", "flip", "latency", 10, 735, 684, 684, "57eaff52b1264e40567d140a2efc25e4");
    (10, "flip", "flip", "targeted", 11, 1190, 1162, 1162, "65ea55d10f457f7c6f2a2922b49bff16");
    (16, "flip", "flip", "split", 12, 2096, 1931, 1931, "0e3f4f03f7a11de304251c681299bd77");
    (4, "flip", "flip", "source", 13, 172, 163, 163, "2866fc769038145e5667181e54c9e0a5");
    (7, "flip", "flip", "eclipse", 14, 392, 351, 351, "23e0c652b391a68ac41abcd32a008c65");
    (10, "flip", "equivocate", "fifo", 15, 1470, 1367, 1367, "d1fb7c7c9039ef1a72496a3e79f90769");
    (16, "flip", "equivocate", "uniform", 16, 7504, 7150, 7150, "5fdae5e0198ba52b9dcff6947d4541b3");
    (4, "flip", "equivocate", "latency", 17, 228, 213, 213, "04f50b63a2e67b130fd7aad37598afff");
    (7, "flip", "equivocate", "targeted", 18, 791, 767, 767, "1f111e585170daa400305eece1554107");
    (10, "flip", "equivocate", "split", 19, 1120, 1052, 1052, "52d0a3a4d0d2b71418840d6a0ec7f79d");
    (16, "flip", "equivocate", "source", 20, 4144, 4075, 4075, "1765e0dcd3906c35f32e3ab5010e5a07");
    (4, "flip", "equivocate", "eclipse", 21, 236, 219, 219, "43d27254241ff1b39760225c61e50218");
    (7, "flip", "replay", "fifo", 22, 574, 495, 495, "aff3fd377c1c03533e144a677dedba46");
    (10, "flip", "replay", "uniform", 23, 1770, 1407, 1407, "33d91ea8651dc2494e8ac580c32123d8");
    (16, "flip", "replay", "latency", 24, 2080, 1573, 1573, "1b6068562887c276285210ac583a87f3");
    (4, "flip", "replay", "targeted", 25, 772, 586, 586, "73e340c51be2673aebb3043292991c08");
    (7, "flip", "replay", "split", 26, 826, 782, 782, "6a1e5d6a98ea04f50889d85d5fef0365");
    (10, "flip", "replay", "source", 27, 1190, 967, 967, "b83685672c716177859068e6d1039a9d");
    (16, "flip", "replay", "eclipse", 28, 3328, 2689, 2689, "4bf1f7b0b177ed89590452210fa91c8f");
    (4, "flip", "silent", "fifo", 29, 84, 71, 71, "cd48e17751ef0ceb5f807a9831fa6f18");
    (7, "flip", "silent", "uniform", 30, 287, 255, 255, "91d85c0325348706cdc900fb89e6fa8c");
    (10, "flip", "silent", "latency", 31, 490, 420, 420, "b566deeb51918ce0f0609dc6d1041d8e");
    (16, "flip", "silent", "targeted", 32, 1392, 1356, 1356, "c7a40318621dcbdcde4a75d334648957");
    (4, "flip", "silent", "split", 33, 92, 79, 79, "3511bb5444c9b344ebd9cf35fe1598cf");
    (7, "flip", "silent", "source", 34, 280, 257, 257, "5e60e230c597c02d580fecc0696aca9a");
    (10, "flip", "silent", "eclipse", 35, 490, 421, 421, "ba6f4ea03d0bab71389868d3901a4680");
    (16, "rabin", "none", "fifo", 36, 3584, 3157, 3157, "7dde599875b2098860bb97ce56fd0d39");
    (4, "rabin", "none", "uniform", 37, 100, 58, 58, "32382a4923fa7fa8f485453b80058f13");
    (7, "rabin", "none", "latency", 38, 294, 222, 222, "ab34768653c13dd6983e8e93050b93aa");
    (10, "rabin", "none", "targeted", 39, 4020, 3509, 3509, "e08d2706783e38bb2948c49da7744470");
    (16, "rabin", "none", "split", 40, 6912, 6472, 6472, "9936142e11cc2a4446b4e57ffddf4c17");
    (4, "rabin", "none", "source", 41, 80, 42, 42, "1aaf68c3784b95f1f94de6a1667d9823");
    (7, "rabin", "none", "eclipse", 42, 882, 800, 800, "a278e1f34d023671cbef3d57e83b8271");
    (10, "rabin", "flip", "fifo", 43, 1000, 833, 833, "c65343b20c03af4b53c5bd77531af573");
    (16, "rabin", "flip", "uniform", 44, 3792, 3415, 3415, "737cb19eb48bd7cf2e9dc8b2304cd0fc");
    (4, "rabin", "flip", "latency", 45, 160, 139, 139, "859cc141d5a6f62524e9ea6952226df8");
    (7, "rabin", "flip", "targeted", 46, 1120, 1096, 1096, "14605a54f48ae86c83c37961353d0e2f");
    (10, "rabin", "flip", "split", 47, 1450, 1327, 1327, "ec011f06ee50709707671c9dba40780e");
    (16, "rabin", "flip", "source", 48, 2656, 2571, 2571, "63bde8b0cbebf37787a5fb735d3b30ff");
    (4, "rabin", "flip", "eclipse", 49, 288, 265, 265, "a2d5696d4bf71747a4034261111408a3");
    (7, "rabin", "equivocate", "fifo", 50, 1246, 1188, 1188, "0fd7836c55e39b8228aad89bf7ed1f4a");
    (10, "rabin", "equivocate", "uniform", 51, 1120, 947, 947, "fcba1f1a39fb1f21cf2b33d0cd788fc0");
    (16, "rabin", "equivocate", "latency", 52, 2400, 2122, 2122, "824be650ae077ee13e26ff70b31d5d7f");
    (4, "rabin", "equivocate", "targeted", 53, 384, 368, 368, "18d30b9072f26830d077ceecf8abf43d");
    (7, "rabin", "equivocate", "split", 54, 1687, 1625, 1625, "ee49ef44e0ddd02f26a2104719df297e");
    (10, "rabin", "equivocate", "source", 55, 1990, 1927, 1927, "ebb32136fe9beff774565ba7cd6be284");
    (16, "rabin", "equivocate", "eclipse", 56, 2400, 2122, 2122, "38afb5805f120b6edb324c6562fb0e15");
    (4, "rabin", "replay", "fifo", 57, 336, 293, 293, "e30c4bb22948daab19574aec40e36292");
    (7, "rabin", "replay", "uniform", 58, 1015, 842, 842, "101abf43f5fc56643e0a7fd8a1d92140");
    (10, "rabin", "replay", "latency", 59, 1600, 1358, 1358, "4bec7fc495a9b8b2208b99fc16c8e06f");
    (16, "rabin", "replay", "targeted", 60, 10496, 9487, 9487, "e08b9292beef3b8231bd10118f9f9cae");
    (4, "rabin", "replay", "split", 61, 248, 211, 211, "f8c9786dbacd7c8882c25d2d034ec7a1");
    (7, "rabin", "replay", "source", 62, 693, 507, 507, "602a17b9e4155d2600d878af878f8156");
    (10, "rabin", "replay", "eclipse", 63, 960, 681, 681, "e7e903584de0814ba8c6c19dfbb5741b");
    (16, "rabin", "silent", "fifo", 64, 1584, 1317, 1317, "5b5f42d0c3f43a1bd6359b4b167b05e4");
    (4, "rabin", "silent", "uniform", 65, 160, 144, 144, "44a7f392ed1829d93928ba4670172325");
    (7, "rabin", "silent", "latency", 66, 175, 133, 133, "656cb1953bca841c13c90822e86016c2");
    (10, "rabin", "silent", "targeted", 67, 410, 384, 384, "d28148b6f899a535ff4174730e01f65e");
    (16, "rabin", "silent", "split", 68, 5936, 5707, 5707, "cdf91d67cefd9e1688bbe98984a0ea56");
    (4, "rabin", "silent", "source", 69, 60, 45, 45, "7375258db5c91569acf9011cf2965897");
    (7, "rabin", "silent", "eclipse", 70, 595, 547, 547, "3f843b5e7ce8caee529cc5e79b9e2456");
  ]

let test_known_answers () =
  List.iter
    (fun (n, coin, fault, policy, seed, messages, deliveries, ticks, outputs) ->
      let row = Printf.sprintf "n=%d %s %s %s seed=%d" n coin fault policy seed in
      let result, verdict = known_run ~n ~coin ~fault ~policy ~seed () in
      check_ok row verdict;
      Alcotest.(check int) (row ^ " messages") messages verdict.Abc.Harness.messages;
      Alcotest.(check int) (row ^ " deliveries") deliveries verdict.Abc.Harness.deliveries;
      Alcotest.(check int) (row ^ " ticks") ticks verdict.Abc.Harness.duration;
      Alcotest.(check string) (row ^ " outputs") outputs (outputs_digest result))
    known_runs;
  List.iter
    (fun adversary ->
      let named (_, _, _, policy, _, _, _, _, _) =
        String.starts_with ~prefix:policy adversary.Adversary.name
      in
      Alcotest.(check bool)
        (adversary.Adversary.name ^ " has known runs")
        true (List.exists named known_runs))
    (Adversary.all_basic ~n:16)

(* Traced runs pin every event the protocol reports to its sink as
   well: quorums, coin flips, decisions and round switches. *)
let known_trace ~n ~coin ~fault ~policy ~seed =
  let trace = Abc_sim.Trace.create () in
  ignore (known_run ~trace ~n ~coin ~fault ~policy ~seed ());
  ( Abc_sim.Trace.recorded trace,
    Abc_sim.Trace.count_kind trace ~label:"quorum",
    Digest.to_hex (Digest.string (Abc_sim.Trace.to_jsonl_string trace)) )

(* (n, coin, fault, policy, seed, events, quorum events, trace) *)
let known_traces =
  [
    (7, "rabin", "equivocate", "split", 1, 1489, 80, "7329c3e56f3a03d464a513510d88d93a");
    (10, "rabin", "none", "uniform", 2, 2866, 114, "3941f2957dade5bf26e472b9841f08b4");
    (4, "rabin", "replay", "eclipse", 3, 498, 32, "39478a96644556dfb73e164963d09e6c");
    (7, "flip", "flip", "latency", 4, 1149, 76, "3d04a2e115ec3d5408908c422dc9179b");
  ]

let test_known_traces () =
  List.iter
    (fun (n, coin, fault, policy, seed, events, quorums, digest) ->
      let row = Printf.sprintf "n=%d %s %s %s seed=%d" n coin fault policy seed in
      let events', quorums', digest' = known_trace ~n ~coin ~fault ~policy ~seed in
      Alcotest.(check int) (row ^ " events") events events';
      Alcotest.(check int) (row ^ " quorum events") quorums quorums';
      Alcotest.(check string) (row ^ " trace") digest digest')
    known_traces

let () =
  Alcotest.run "mmr_consensus"
    [
      ( "protocol",
        [
          Alcotest.test_case "unanimous decides input" `Quick
            test_unanimous_decides_input;
          Alcotest.test_case "split inputs, all adversaries" `Quick
            test_split_inputs_all_adversaries;
          Alcotest.test_case "byzantine battery" `Quick test_byzantine_battery;
          Alcotest.test_case "constant rounds (common coin)" `Quick
            test_constant_rounds_with_common_coin;
          Alcotest.test_case "cheaper than bracha" `Quick test_cheaper_than_bracha;
          Alcotest.test_case "inputs arity" `Quick test_inputs_arity;
          Alcotest.test_case "pp_msg" `Quick test_pp_msg;
          Alcotest.test_case "pass-through" `Quick test_pass_through;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "known traces" `Quick test_known_traces;
        ] );
      ( "coin ablation",
        [
          Alcotest.test_case "local coin violates agreement" `Slow
            test_local_coin_violates_agreement;
          Alcotest.test_case "common coin never violates" `Slow
            test_common_coin_never_violates;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_ok_with_common_coin ]);
    ]
