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
     Pinned deterministic failure (seed 12 at n=7/f=2, uniform
     scheduler) plus a sweep showing violations occur. *)
  let verdict = run ~coin:Abc.Coin.local ~n:7 ~f:2 ~seed:12 (split 7) in
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
  (* Node 0 sent BVAL(1, 1) on entering round 1, so two BVALs echo
     nothing; three deliver the value into bin_values. *)
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

(* A row's resilience, inputs, faulty nodes and policy. *)
let known_config ~n ~coin ~fault ~policy ~seed =
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
  (f, inputs, faulty, known_policy ~n policy)

let known_run ?trace ~n ~coin ~fault ~policy ~seed () =
  let f, inputs, faulty, adversary = known_config ~n ~coin ~fault ~policy ~seed in
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
    (4, "flip", "none", "fifo", 1, 96, 76, 76, "f73ed4035c2b6cc2a9abb5c02ed0540d");
    (7, "flip", "none", "uniform", 2, 399, 361, 361, "23bf1299dae54c248cddb4f763fb61a7");
    (10, "flip", "none", "latency", 3, 750, 666, 666, "0ab902d034c5fd89e96ed3797e048b8d");
    (16, "flip", "none", "targeted", 4, 9696, 9043, 9043, "80d2ddb746013c8f29d609a53f0a460c");
    (4, "flip", "none", "split", 5, 128, 116, 116, "d63dc48bc23a87a760714f58a4fdda43");
    (7, "flip", "none", "source", 6, 168, 91, 91, "bb5a1ed176f00f158e030e41c9c8af9c");
    (10, "flip", "none", "eclipse", 7, 600, 481, 481, "3ac1b1321f0f07d5b35ea33c975c953e");
    (16, "flip", "flip", "fifo", 8, 1456, 1195, 1195, "2e39ab23ea3a226b1deac7dbe65c2e6d");
    (4, "flip", "flip", "uniform", 9, 308, 297, 297, "feaa7d3c60b3346eeb992126582cfc75");
    (7, "flip", "flip", "latency", 10, 301, 251, 251, "5ed4f2df06bbc81a441c8c1da498d6ee");
    (10, "flip", "flip", "targeted", 11, 800, 781, 781, "dd8deee5b97f87eeb681ab9d2cec5703");
    (16, "flip", "flip", "split", 12, 1456, 1355, 1355, "14a40bde3e2b5f0be30c5c92febda388");
    (4, "flip", "flip", "source", 13, 124, 115, 115, "9a5f43d160ea3c5b4ff682f7da41e5da");
    (7, "flip", "flip", "eclipse", 14, 294, 239, 239, "e6fc6e0bd9a22e22534aaf922d3c62d1");
    (10, "flip", "equivocate", "fifo", 15, 1070, 967, 967, "76c2f1e7d085ef2d1db177b705261ddf");
    (16, "flip", "equivocate", "uniform", 16, 2064, 1897, 1897, "e3771a9df754d5c908e3a15d8ab4b9b3");
    (4, "flip", "equivocate", "latency", 17, 112, 89, 89, "e2cee92444434bd4b49da37d90bdfe31");
    (7, "flip", "equivocate", "targeted", 18, 553, 536, 536, "4a8e830c2b75ecb6001431db78000de4");
    (10, "flip", "equivocate", "split", 19, 770, 727, 727, "d3c9f885e2a919dddfd939c004e3bde3");
    (16, "flip", "equivocate", "source", 20, 2944, 2907, 2907, "93412e567c8b526553b7a5817287b6a4");
    (4, "flip", "equivocate", "eclipse", 21, 172, 155, 155, "ceb546862b57147a25700754ccca4ddc");
    (7, "flip", "replay", "fifo", 22, 420, 341, 341, "f7d153b334bb77ef86af7580703a3b83");
    (10, "flip", "replay", "uniform", 23, 1310, 1155, 1155, "1f8bfbc1bd9a8d9e8c6f2883c8bfea08");
    (16, "flip", "replay", "latency", 24, 1616, 1107, 1107, "46e321eaa3006d47d5f5124b96fdfda9");
    (4, "flip", "replay", "targeted", 25, 752, 569, 569, "63767780b0bb6189272da64edf61a05c");
    (7, "flip", "replay", "split", 26, 574, 542, 542, "82f27cfae777eea852db4e3fbffdeb44");
    (10, "flip", "replay", "source", 27, 870, 667, 667, "79268e563888d958fea55d5ad7083d7c");
    (16, "flip", "replay", "eclipse", 28, 2496, 1857, 1857, "417d6e8612f3863230f62431caa8540d");
    (4, "flip", "silent", "fifo", 29, 64, 51, 51, "772f52afc7ea395ff4f22553aabd454d");
    (7, "flip", "silent", "uniform", 30, 224, 200, 200, "c4e30b3778eda42726ffc5129c5d7a2e");
    (10, "flip", "silent", "latency", 31, 370, 300, 300, "ecae4b14ae3b279d6b6c7d614c738b78");
    (16, "flip", "silent", "targeted", 32, 928, 902, 902, "bd1e71618fc9e0cb52e8723a9eaaa8b7");
    (4, "flip", "silent", "split", 33, 64, 55, 55, "633b65f788dce015aed359263d894111");
    (7, "flip", "silent", "source", 34, 189, 180, 180, "6c325f5782fb2438b9e87d56272f918b");
    (10, "flip", "silent", "eclipse", 35, 370, 302, 302, "009eaa34e5ebc0a3d3ac3d62b49a9c6c");
    (16, "rabin", "none", "fifo", 36, 2816, 2389, 2389, "1edcef3f96932dcab77f240f86ede442");
    (4, "rabin", "none", "uniform", 37, 128, 101, 101, "12c11199cff1360e11472677d1f635f3");
    (7, "rabin", "none", "latency", 38, 245, 165, 165, "7ca6b38b4d17e01cee14489818be14cd");
    (10, "rabin", "none", "targeted", 39, 3830, 3428, 3428, "24c895bb0f1206fbb3a950f47e70c33a");
    (16, "rabin", "none", "split", 40, 5120, 4816, 4816, "4d12ecec3908c502041c2f6d166c20ab");
    (4, "rabin", "none", "source", 41, 72, 34, 34, "86ecaaa62e3fed241b88d3692fe9cfc4");
    (7, "rabin", "none", "eclipse", 42, 686, 604, 604, "3e0fa1ce1c65b4f0b1e5e92ba0d690f6");
    (10, "rabin", "flip", "fifo", 43, 800, 633, 633, "dc44513041e52142451c86b8d417110a");
    (16, "rabin", "flip", "uniform", 44, 2832, 2720, 2720, "3a42b7d6256475df426ad6717b283a44");
    (4, "rabin", "flip", "latency", 45, 128, 106, 106, "6e2788881d1ddc4c5ea5ba9861366125");
    (7, "rabin", "flip", "targeted", 46, 833, 815, 815, "2c3d3cbc3074ee6ac8fa79429756f3a0");
    (10, "rabin", "flip", "split", 47, 1100, 1002, 1002, "6634858983ca6eb6853d40db52fb881e");
    (16, "rabin", "flip", "source", 48, 1968, 1915, 1915, "d4fa587e6ad6a9f32d66bc1ab0075aaa");
    (4, "rabin", "flip", "eclipse", 49, 224, 201, 201, "47d8bd692d77d8d82dee1bbadfb756be");
    (7, "rabin", "equivocate", "fifo", 50, 952, 894, 894, "19f3e5daa2e3d7977944d3069e18abd9");
    (10, "rabin", "equivocate", "uniform", 51, 780, 694, 694, "693f5c6e934b401672f2d534fd313106");
    (16, "rabin", "equivocate", "latency", 52, 1904, 1604, 1604, "f2ed575f6e4d6d0d7849fced1d52a826");
    (4, "rabin", "equivocate", "targeted", 53, 292, 280, 280, "339791cbe98702ab1c2b8916f6cd855a");
    (7, "rabin", "equivocate", "split", 54, 1274, 1224, 1224, "ac7f3306497500adaf182622ecec18f3");
    (10, "rabin", "equivocate", "source", 55, 1520, 1477, 1477, "7813538c0170e1211ddc58e5560ccc48");
    (16, "rabin", "equivocate", "eclipse", 56, 1888, 1610, 1610, "6d2462ec84a99ef21999820ac4456400");
    (4, "rabin", "replay", "fifo", 57, 264, 221, 221, "093e3ae9743f9346e6b346e0215693a3");
    (7, "rabin", "replay", "uniform", 58, 882, 777, 777, "7b06d64b395846ee6d7e418de3e6ab1e");
    (10, "rabin", "replay", "latency", 59, 1280, 1022, 1022, "4ddbab88e6a74918959a5e193a54b99c");
    (16, "rabin", "replay", "targeted", 60, 10080, 9112, 9112, "bc9def787f4a399062094a2a319a98d5");
    (4, "rabin", "replay", "split", 61, 192, 159, 159, "b4ccc07f20ad01df220be0c09c770a86");
    (7, "rabin", "replay", "source", 62, 560, 381, 381, "78a8fc024736756ac3b25c8a6a9cc59c");
    (10, "rabin", "replay", "eclipse", 63, 800, 521, 521, "8d35d6ad1f2f4f949a0f1fd3d66e6b42");
    (16, "rabin", "silent", "fifo", 64, 1280, 1013, 1013, "64452657904011277771ced95a01a20e");
    (4, "rabin", "silent", "uniform", 65, 132, 118, 118, "c63fdd0dc33e1adae594261eae11b1f8");
    (7, "rabin", "silent", "latency", 66, 154, 119, 119, "c328e70d307aa2fd54e6070e2fcddf23");
    (10, "rabin", "silent", "targeted", 67, 300, 280, 280, "621fbab3feeb287a696f7d99319af9e8");
    (16, "rabin", "silent", "split", 68, 4448, 4283, 4283, "bc8414d000719176e8132fde5ef44942");
    (4, "rabin", "silent", "source", 69, 52, 37, 37, "baef3252b2d8b337d9f94db8990dd291");
    (7, "rabin", "silent", "eclipse", 70, 469, 421, 421, "cc8fc907c756b8bf3541206034dcc1ce");
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
    (7, "rabin", "equivocate", "split", 1, 1141, 56, "7ecd3f07dd1f058c5908460c1a8874e6");
    (10, "rabin", "none", "uniform", 2, 2273, 83, "73488cc791ca71f8d878836dc91b6106");
    (4, "rabin", "replay", "eclipse", 3, 394, 24, "d8e9e041cf43e5edd0d7bc40fd3ae6a4");
    (7, "flip", "flip", "latency", 4, 842, 55, "f3a9bb1200386a46c0720729c1aeb545");
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

(* ---- each value once ---- *)

(* MMR's BV-broadcast sends a value "if not yet broadcast": the
   BVAL(r, est) a node sends on entering round r and the echo of a
   value heard from f+1 nodes are one send, never two.  [Counted] is
   the protocol with every BVAL that [initial] and [on_message] return
   tallied per (node, round, value), keyed by its description and
   holding the sender. *)
module Sends = Map.Make (String)

let bval_sends : (int * int) Sends.t ref = ref Sends.empty

module Counted = struct
  include M

  let count ctx actions =
    let me = Node_id.to_int ctx.Abc_net.Protocol.Context.me in
    List.iter
      (function
        | Abc_net.Protocol.Broadcast (M.Bval { round; value }) ->
          let key = Printf.sprintf "node %d BVAL(r%d, %d)" me round (Value.to_int value) in
          bval_sends :=
            Sends.update key
              (fun sent -> Some (me, 1 + Option.fold ~none:0 ~some:snd sent))
              !bval_sends
        | _ -> ())
      actions

  let initial ctx input =
    let ((_, actions) as started) = M.initial ctx input in
    count ctx actions;
    started

  let on_message ctx state ~src msg =
    let ((_, actions, _) as reacted) = M.on_message ctx state ~src msg in
    count ctx actions;
    reacted
end

module HC = Abc.Harness.Make (Counted)

(* The known answers' grid, every cell of it: n, coin source, fault on
   the last f nodes and policy, one seed per cell. *)
let test_each_value_once () =
  let seed = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun coin ->
          List.iter
            (fun fault ->
              List.iter
                (fun adversary ->
                  let policy = adversary.Adversary.name in
                  incr seed;
                  let seed = !seed in
                  let f, inputs, faulty, adversary =
                    known_config ~n ~coin ~fault ~policy ~seed
                  in
                  bval_sends := Sends.empty;
                  ignore (HC.run (HC.E.config ~faulty ~n ~f ~inputs ~seed ~adversary ()));
                  let repeats =
                    Sends.fold
                      (fun key (me, sent) repeats ->
                        if sent > 1 && not (List.mem_assoc (node me) faulty) then
                          Printf.sprintf "%s x%d" key sent :: repeats
                        else repeats)
                      !bval_sends []
                  in
                  Alcotest.(check (list string))
                    (Printf.sprintf "n=%d %s %s %s seed=%d: honest BVALs sent twice" n coin
                       fault policy seed)
                    [] (List.rev repeats))
                (Adversary.all_basic ~n))
            [ "none"; "flip"; "equivocate"; "replay"; "silent" ])
        [ "flip"; "rabin" ])
    [ 4; 7; 10; 16 ]

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
          Alcotest.test_case "each value once" `Quick test_each_value_once;
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
