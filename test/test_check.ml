(* Tests for the bounded model checker: exhaustive schedule exploration
   of reliable broadcast, directly and as Registry.explore runs it on a
   registry scenario, plus a deliberately unsafe toy protocol to prove
   the checker can actually find counterexamples. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Protocol = Abc_net.Protocol
module Rbc = Abc.Bracha_rbc.Binary
module X = Abc_check.Explore.Make (Rbc)

let node = Node_id.of_int

let rbc_agreement outputs =
  let delivered =
    Array.to_list outputs
    |> List.concat_map (List.map (fun (Rbc.Delivered v) -> v))
  in
  match delivered with
  | [] -> true
  | v :: rest -> List.for_all (Abc.Value.equal v) rest

let rbc_validity outputs =
  Array.for_all
    (List.for_all (fun (Rbc.Delivered v) -> Abc.Value.equal v Abc.Value.One))
    outputs

let rbc_config ?(faulty = []) ?(max_states = 400_000) ?(max_depth = None)
    ~invariant () =
  {
    X.n = 4;
    f = 1;
    inputs = Rbc.inputs ~n:4 ~sender:(node 0) Abc.Value.One;
    faulty;
    invariant;
    max_states;
    max_depth;
    drop_plan = None;
  }

let test_honest_rbc_agreement_and_validity_bounded () =
  let outcome =
    X.run
      (rbc_config ~max_depth:(Some 8)
         ~invariant:(fun o -> rbc_agreement o && rbc_validity o)
         ())
  in
  Alcotest.(check bool) "no violation" true (outcome.violation = None);
  Alcotest.(check bool) "explored many states" true (outcome.explored > 1000);
  Alcotest.(check int) "depth bound respected" 8 outcome.depth_reached

(* A sender that tells nodes 0 and 1 its value and nodes 2 and 3 the
   other. *)
let two_faced_sender =
  let two_faced _rng ~dst v =
    if Node_id.to_int dst < 2 then v else Abc.Value.negate v
  in
  [ (node 0, Behaviour.Equivocate (Rbc.Fault.equivocate two_faced)) ]

let test_equivocating_sender_agreement_bounded () =
  (* The headline check: under EVERY schedule prefix of length <= 8, a
     two-faced sender cannot make honest nodes deliver conflicting
     values. *)
  let outcome =
    X.run
      (rbc_config ~faulty:two_faced_sender ~max_depth:(Some 8)
         ~invariant:rbc_agreement ())
  in
  Alcotest.(check bool) "no violation in any schedule" true
    (outcome.violation = None);
  Alcotest.(check bool) "nontrivial space" true (outcome.explored > 1000)

let test_silent_sender_exhausts_immediately () =
  let faulty = [ (node 0, Behaviour.Silent) ] in
  let outcome =
    X.run (rbc_config ~faulty ~max_depth:None ~invariant:rbc_agreement ())
  in
  Alcotest.(check bool) "exhausted" true outcome.exhausted;
  Alcotest.(check int) "single deadlocked state" 1 outcome.explored;
  Alcotest.(check int) "counted as deadlock" 1 outcome.deadlocks

let test_budget_respected () =
  let outcome =
    X.run (rbc_config ~max_states:50 ~max_depth:None ~invariant:rbc_agreement ())
  in
  Alcotest.(check bool) "stopped at budget" true (outcome.explored <= 50);
  Alcotest.(check bool) "not exhausted" false outcome.exhausted

(* The explorer fingerprints node states with [Marshal], so a state
   must marshal the same however its tallies filled.  Echoes from
   0, 1, 2, 3 and from 3, 2, 1, 0 leave one logical state; a balanced
   tree would hold the two sender sets in different shapes. *)
let test_fingerprint_ignores_echo_order () =
  let ctx =
    {
      Protocol.Context.me = node 1;
      n = 4;
      f = 1;
      rng = Abc_prng.Stream.root ~seed:1;
      sink = Abc_sim.Event.null_sink;
    }
  in
  let input = (Rbc.inputs ~n:4 ~sender:(node 0) Abc.Value.One).(1) in
  let fed order =
    let state, _ = Rbc.initial ctx input in
    let state =
      List.fold_left
        (fun state i ->
          let state, _, _ =
            Rbc.on_message ctx state ~src:(node i) (Rbc.Core.Echo Abc.Value.One)
          in
          state)
        state order
    in
    Marshal.to_string state []
  in
  Alcotest.(check string) "same bytes" (fed [ 0; 1; 2; 3 ]) (fed [ 3; 2; 1; 0 ])

(* A deliberately unsafe protocol: decide on the first value heard.
   With different inputs, some schedule produces disagreement — the
   checker must find it and produce a schedule. *)
module Race = struct
  type input = Abc.Value.t
  type msg = Claim of Abc.Value.t
  type output = Chose of Abc.Value.t
  type state = { chosen : bool }

  let name = "race"

  let initial _ctx input = ({ chosen = false }, [ Protocol.Broadcast (Claim input) ])

  let on_message _ctx state ~src:_ (Claim v) =
    if state.chosen then (state, [], [])
    else ({ chosen = true }, [], [ Chose v ])

  let is_terminal (Chose _) = true
  let on_timeout = Protocol.no_timeout
  let msg_label (Claim _) = "claim"
  let msg_bytes (Claim _) = 2
  let pp_msg ppf (Claim v) = Fmt.pf ppf "claim(%a)" Abc.Value.pp v
  let pp_output ppf (Chose v) = Fmt.pf ppf "chose(%a)" Abc.Value.pp v
end

module XR = Abc_check.Explore.Make (Race)

let test_finds_counterexample_in_unsafe_protocol () =
  let agreement outputs =
    let chosen =
      Array.to_list outputs |> List.concat_map (List.map (fun (Race.Chose v) -> v))
    in
    match chosen with
    | [] -> true
    | v :: rest -> List.for_all (Abc.Value.equal v) rest
  in
  let outcome =
    XR.run
      {
        XR.n = 2;
        f = 0;
        inputs = [| Abc.Value.Zero; Abc.Value.One |];
        faulty = [];
        invariant = agreement;
        max_states = 10_000;
        max_depth = None;
        drop_plan = None;
      }
  in
  match outcome.violation with
  | Some v ->
    Alcotest.(check bool) "schedule is non-empty" true (List.length v.schedule > 0);
    Alcotest.(check bool) "schedule is short" true (List.length v.schedule <= 4);
    Alcotest.(check int) "depth reached is the schedule's length" (List.length v.schedule)
      outcome.depth_reached
  | None -> Alcotest.fail "expected a counterexample"

let test_safe_toy_exhausts () =
  (* Same protocol with equal inputs is trivially safe and small enough
     to exhaust completely. *)
  let outcome =
    XR.run
      {
        XR.n = 2;
        f = 0;
        inputs = [| Abc.Value.One; Abc.Value.One |];
        faulty = [];
        invariant =
          (fun outputs ->
            Array.for_all
              (List.for_all (fun (Race.Chose v) -> Abc.Value.equal v Abc.Value.One))
              outputs);
        max_states = 10_000;
        max_depth = None;
        drop_plan = None;
      }
  in
  Alcotest.(check bool) "exhausted" true outcome.exhausted;
  Alcotest.(check bool) "no violation" true (outcome.violation = None)

(* ---- the other broadcast variants under the checker ---- *)

module Coded = Abc.Coded_rbc
module XC = Abc_check.Explore.Make (Coded)

let coded_agreement outputs =
  let delivered =
    Array.to_list outputs
    |> List.concat_map (List.map (fun (Coded.Delivered p) -> p))
  in
  match delivered with
  | [] -> true
  | p :: rest -> List.for_all (String.equal p) rest

let test_coded_two_faced_sender_checked () =
  (* Every schedule prefix of the coded broadcast under a sender that
     disperses tampered fragments to half the nodes: the Merkle checks
     must keep agreement intact on all of them. *)
  let faulty = [ (node 0, Behaviour.Equivocate Coded.Fault.equivocate) ] in
  let outcome =
    XC.run
      {
        XC.n = 4;
        f = 1;
        inputs = Coded.inputs ~n:4 ~sender:(node 0) "twelve bytes";
        faulty;
        invariant = coded_agreement;
        max_states = 200_000;
        max_depth = Some 6;
        drop_plan = None;
      }
  in
  Alcotest.(check bool) "no violation in any schedule" true
    (outcome.violation = None);
  Alcotest.(check bool) "nontrivial space" true (outcome.explored > 100)

module Ir = Abc.Ir_rbc.Binary
module XI = Abc_check.Explore.Make (Ir)

let ir_agreement outputs =
  let delivered =
    Array.to_list outputs |> List.concat_map (List.map (fun (Ir.Delivered v) -> v))
  in
  match delivered with
  | [] -> true
  | v :: rest -> List.for_all (Abc.Value.equal v) rest

let test_ir_equivocating_sender_checked () =
  (* The n > 5f two-phase broadcast under its designed attack: a
     two-faced sender at the smallest interesting size (n=6, f=1). *)
  let two_faced _rng ~dst v =
    if Node_id.to_int dst < 3 then v else Abc.Value.negate v
  in
  let faulty =
    [ (node 0, Behaviour.Equivocate (Ir.Fault.equivocate two_faced)) ]
  in
  let outcome =
    XI.run
      {
        XI.n = 6;
        f = 1;
        inputs = Ir.inputs ~n:6 ~sender:(node 0) Abc.Value.One;
        faulty;
        invariant = ir_agreement;
        max_states = 150_000;
        max_depth = Some 5;
        drop_plan = None;
      }
  in
  Alcotest.(check bool) "no violation in any schedule" true
    (outcome.violation = None);
  Alcotest.(check bool) "nontrivial space" true (outcome.explored > 100)

(* A start state with nothing in flight is the whole space: one
   deadlocked state, exhausted at once. *)
let test_quiescent_start () =
  let faulty = [ (node 0, Behaviour.Silent) ] in
  let outcome =
    XR.run
      {
        XR.n = 1;
        f = 0;
        inputs = [| Abc.Value.One |];
        faulty;
        invariant = (fun _ -> true);
        max_states = 100;
        max_depth = None;
        drop_plan = None;
      }
  in
  Alcotest.(check bool) "exhausted" true outcome.exhausted;
  Alcotest.(check int) "one deadlocked state" 1 outcome.deadlocks;
  Alcotest.(check int) "only the start state" 1 outcome.explored

(* ---- lossy links: deterministic drop plans ---- *)

let test_rbc_lossy_links_stay_safe () =
  (* Raw reliable broadcast with the sender's INIT to node 1 discarded:
     node 1 can only deliver through echo amplification.  Totality may
     suffer (that is the transport's job), but no schedule over the
     surviving messages may break agreement or validity. *)
  let drop_plan =
    Some
      (fun ~src ~dst ~nth ->
        Node_id.to_int src = 0 && Node_id.to_int dst = 1 && nth = 0)
  in
  let outcome =
    X.run
      {
        X.n = 4;
        f = 1;
        inputs = Rbc.inputs ~n:4 ~sender:(node 0) Abc.Value.One;
        faulty = [];
        invariant = (fun o -> rbc_agreement o && rbc_validity o);
        max_states = 400_000;
        max_depth = Some 8;
        drop_plan;
      }
  in
  Alcotest.(check bool) "no violation" true (outcome.violation = None);
  Alcotest.(check bool) "nontrivial space" true (outcome.explored > 100)

module RlRbc = Abc_net.Reliable_link.Make (Rbc)
module XRL = Abc_check.Explore.Make (RlRbc)

let test_reliable_link_rbc_checked_over_drops () =
  (* The transport under the model checker: every schedule prefix of
     the wrapped protocol — deliveries AND timer firings, with the
     first two copies on the 0->1 link deterministically dropped — must
     preserve agreement and validity.  This exercises retransmission
     paths that no single seeded run pins down. *)
  let drop_plan =
    Some
      (fun ~src ~dst ~nth ->
        Node_id.to_int src = 0 && Node_id.to_int dst = 1 && nth < 2)
  in
  let outcome =
    XRL.run
      {
        XRL.n = 4;
        f = 1;
        inputs = Rbc.inputs ~n:4 ~sender:(node 0) Abc.Value.One;
        faulty = [];
        invariant = (fun o -> rbc_agreement o && rbc_validity o);
        max_states = 150_000;
        max_depth = Some 5;
        drop_plan;
      }
  in
  Alcotest.(check bool) "no violation" true (outcome.violation = None);
  Alcotest.(check bool) "nontrivial space" true (outcome.explored > 1000);
  (* With pending retransmission timers the lossy system must never
     deadlock inside the depth bound. *)
  Alcotest.(check int) "no deadlock" 0 outcome.deadlocks

(* ---- Registry.explore: the same explorer on a registry scenario ---- *)

module Registry = Abc_matrix.Registry

(* bracha-rbc-bit at n=4, f=1 unless [tokens] say otherwise, to depth
   8. *)
let explore tokens =
  match
    Registry.of_tokens
      ([ ("protocol", "bracha-rbc-bit"); ("n", "4"); ("f", "1") ] @ tokens)
  with
  | Ok sc -> Registry.explore sc ~max_depth:(Some 8) ~max_states:400_000
  | Error (_, msg) -> Alcotest.fail msg

(* The registry's equivocate token places the hand-built two-faced
   sender above, and its verdict holds where agreement does: the same
   space, explored the same way. *)
let test_registry_matches_hand_placed () =
  let direct =
    X.run
      (rbc_config ~faulty:two_faced_sender ~max_depth:(Some 8)
         ~invariant:rbc_agreement ())
  in
  match explore [ ("fault", "equivocate") ] with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check int) "explored" direct.explored r.explored;
    Alcotest.(check bool) "exhausted" direct.exhausted r.exhausted;
    Alcotest.(check int) "deadlocks" direct.deadlocks r.deadlocks;
    Alcotest.(check int) "depth reached" direct.depth_reached r.depth_reached;
    Alcotest.(check bool) "no violation" true (r.violation = None)

let test_registry_refusals () =
  let refused what tokens =
    match explore tokens with
    | Ok _ -> Alcotest.failf "%s: explored" what
    | Error msg ->
      Alcotest.(check string) what
        "the model checker explores the complete graph without reliable \
         links, link faults or crash plans"
        msg
  in
  refused "reliable links" [ ("reliable", "true") ];
  refused "ring" [ ("topology", "ring") ];
  refused "loss" [ ("loss", "0.1") ];
  (* Beyond its bound the protocol's own Quorum check answers. *)
  match explore [ ("n", "3") ] with
  | Ok _ -> Alcotest.fail "n=3 f=1 explored"
  | Error msg ->
    Alcotest.(check bool) msg true (String.starts_with ~prefix:"Quorum." msg)

(* Past its bound (f = 0, one liar) a relay's flipped ready makes node
   0 deliver what the honest sender never sent: the verdict's validity
   refutes a schedule that agreement alone accepts. *)
let test_registry_refutes_past_the_bound () =
  match explore [ ("f", "0"); ("fault", "flip@1") ] with
  | Error msg -> Alcotest.fail msg
  | Ok r -> (
    match r.violation with
    | Some v ->
      Alcotest.(check int) "counterexample length" 7 (List.length v.schedule);
      Alcotest.(check int) "depth reached is the counterexample's length" 7 r.depth_reached
    | None -> Alcotest.fail "no counterexample")

let () =
  Alcotest.run "model_check"
    [
      ( "rbc",
        [
          Alcotest.test_case "honest: agreement+validity to depth 8" `Slow
            test_honest_rbc_agreement_and_validity_bounded;
          Alcotest.test_case "equivocator: agreement to depth 8" `Slow
            test_equivocating_sender_agreement_bounded;
          Alcotest.test_case "silent sender exhausts" `Quick
            test_silent_sender_exhausts_immediately;
          Alcotest.test_case "budget respected" `Quick test_budget_respected;
          Alcotest.test_case "fingerprint ignores echo order" `Quick
            test_fingerprint_ignores_echo_order;
        ] );
      ( "broadcast variants",
        [
          Alcotest.test_case "coded rbc: two-faced sender to depth 6" `Slow
            test_coded_two_faced_sender_checked;
          Alcotest.test_case "imbs-raynal: equivocator to depth 5" `Slow
            test_ir_equivocating_sender_checked;
        ] );
      ( "lossy links",
        [
          Alcotest.test_case "raw rbc safe under deterministic drops" `Slow
            test_rbc_lossy_links_stay_safe;
          Alcotest.test_case "reliable-link rbc checked over drops" `Slow
            test_reliable_link_rbc_checked_over_drops;
        ] );
      ( "registry",
        [
          Alcotest.test_case "equivocate as hand-placed, depth 8" `Slow
            test_registry_matches_hand_placed;
          Alcotest.test_case "refusals and the quorum bound" `Quick
            test_registry_refusals;
          Alcotest.test_case "a liar past the bound is refuted" `Quick
            test_registry_refutes_past_the_bound;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "unsafe protocol caught" `Quick
            test_finds_counterexample_in_unsafe_protocol;
          Alcotest.test_case "safe toy exhausts" `Quick test_safe_toy_exhausts;
          Alcotest.test_case "quiescent start" `Quick test_quiescent_start;
        ] );
    ]
