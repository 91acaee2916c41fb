(* Tests for partial topologies, exact vertex connectivity, the flood
   relay, and the connectivity threshold for agreement over flooding. *)

module Topology = Abc_net.Topology
module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary

let node = Node_id.of_int

(* ---- graph basics ---- *)

let test_of_edges_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.of_edges: self-loop")
    (fun () -> ignore (Topology.of_edges ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology.of_edges: endpoint out of range") (fun () ->
      ignore (Topology.of_edges ~n:3 [ (0, 5) ]))

let test_edge_symmetry_and_dedup () =
  let g = Topology.of_edges ~n:4 [ (0, 1); (1, 0); (2, 3) ] in
  Alcotest.(check bool) "0-1" true (Topology.has_edge g (node 0) (node 1));
  Alcotest.(check bool) "1-0" true (Topology.has_edge g (node 1) (node 0));
  Alcotest.(check bool) "0-2 absent" false (Topology.has_edge g (node 0) (node 2));
  Alcotest.(check (list (pair int int))) "edges deduped" [ (0, 1); (2, 3) ]
    (Topology.edges g)

let test_generators () =
  let k5 = Topology.complete ~n:5 in
  Alcotest.(check int) "K5 edges" 10 (List.length (Topology.edges k5));
  Alcotest.(check int) "K5 degree" 4 (Topology.degree k5 (node 2));
  let ring = Topology.ring ~n:6 in
  Alcotest.(check int) "ring edges" 6 (List.length (Topology.edges ring));
  Alcotest.(check int) "ring degree" 2 (Topology.degree ring (node 0));
  let star = Topology.star ~n:5 in
  Alcotest.(check int) "star hub degree" 4 (Topology.degree star (node 0));
  Alcotest.(check int) "star leaf degree" 1 (Topology.degree star (node 3));
  let circ = Topology.circulant ~n:8 ~offsets:[ 1; 2 ] in
  Alcotest.(check int) "circulant degree" 4 (Topology.degree circ (node 0))

let test_neighbors_sorted () =
  let g = Topology.of_edges ~n:5 [ (2, 4); (2, 0); (2, 1) ] in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 4 ]
    (List.map Node_id.to_int (Topology.neighbors g (node 2)))

let test_connectivity_checks () =
  let ring = Topology.ring ~n:6 in
  Alcotest.(check bool) "ring connected" true (Topology.is_connected ring);
  Alcotest.(check bool) "ring minus adjacent pair stays connected" true
    (Topology.connected_after_removing ring [ node 0; node 1 ]);
  Alcotest.(check bool) "ring minus opposite pair splits" false
    (Topology.connected_after_removing ring [ node 0; node 3 ]);
  let disconnected = Topology.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "two components" false (Topology.is_connected disconnected)

let test_vertex_connectivity_known_values () =
  Alcotest.(check int) "K5" 4 (Topology.vertex_connectivity (Topology.complete ~n:5));
  Alcotest.(check int) "ring" 2 (Topology.vertex_connectivity (Topology.ring ~n:8));
  Alcotest.(check int) "star" 1 (Topology.vertex_connectivity (Topology.star ~n:6));
  Alcotest.(check int) "circulant(1,2)" 4
    (Topology.vertex_connectivity (Topology.circulant ~n:8 ~offsets:[ 1; 2 ]));
  Alcotest.(check int) "circulant(1,2,3)" 6
    (Topology.vertex_connectivity (Topology.circulant ~n:9 ~offsets:[ 1; 2; 3 ]));
  (* path graph has a cut vertex *)
  let path = Topology.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "path" 1 (Topology.vertex_connectivity path);
  let disconnected = Topology.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check int) "disconnected" 0 (Topology.vertex_connectivity disconnected)

let prop_circulant_connectivity =
  QCheck.Test.make ~name:"circulant(1..k) has connectivity 2k" ~count:20
    QCheck.(pair (int_range 4 7) (int_range 1 3))
    (fun (half_n, k) ->
      let n = 2 * half_n in
      QCheck.assume (2 * k < n - 1);
      let g = Topology.circulant ~n ~offsets:(List.init k (fun i -> i + 1)) in
      Topology.vertex_connectivity g = 2 * k)

(* ---- engine enforcement ---- *)

(* Reuse the net-test gossip idea: everyone broadcasts, waits for n-f
   distinct values. *)
module Gossip = struct
  module Protocol = Abc_net.Protocol

  type input = int
  type msg = Hello of int
  type output = Done of int
  type state = { heard : int Node_id.Map.t; quorum : int; finished : bool }

  let name = "gossip"

  let initial ctx input =
    ( { heard = Node_id.Map.empty; quorum = Protocol.Context.quorum ctx; finished = false },
      [ Protocol.Broadcast (Hello input) ] )

  let on_message _ctx state ~src (Hello v) =
    if state.finished || Node_id.Map.mem src state.heard then (state, [], [])
    else begin
      let heard = Node_id.Map.add src v state.heard in
      if Node_id.Map.cardinal heard >= state.quorum then
        ({ state with heard; finished = true }, [],
         [ Done (Node_id.Map.fold (fun _ v acc -> acc + v) heard 0) ])
      else ({ state with heard }, [], [])
    end

  let is_terminal (Done _) = true
  let on_timeout = Protocol.no_timeout
  let msg_label (Hello _) = "hello"
  let msg_bytes (Hello _) = 5
  let pp_msg ppf (Hello v) = Fmt.pf ppf "hello(%d)" v
  let pp_output ppf (Done s) = Fmt.pf ppf "done(%d)" s
end

module GE = Abc_net.Engine.Make (Gossip)

let test_engine_drops_non_edges () =
  (* On a star, leaves cannot hear each other directly: with f=0 the
     quorum (= n) is unreachable and messages across non-edges are
     dropped. *)
  let g = Topology.star ~n:4 in
  let result =
    GE.run
      (GE.config ~n:4 ~f:0 ~inputs:[| 1; 2; 3; 4 |] ~topology:g ())
  in
  Alcotest.(check string) "quiescent" "quiescent"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.GE.stop);
  (* Each broadcast reaches fewer than n nodes: the hub reaches all 4,
     each leaf only the hub and itself.  4 + 3 * 2 = 10 hellos of 5
     bytes are sent, and the 6 leaf-to-leaf ones are dropped. *)
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) name want
        (Abc_sim.Metrics.counter result.GE.metrics name))
    [
      ("sent", 10);
      ("sent.hello", 10);
      ("bytes.sent", 50);
      ("bytes.sent.hello", 50);
      ("dropped.topology", 6);
      ("delivered", 10);
    ]

let test_engine_topology_size_check () =
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Engine.config: topology size must equal n") (fun () ->
      ignore
        (GE.config ~n:4 ~f:0 ~inputs:[| 1; 2; 3; 4 |]
           ~topology:(Topology.ring ~n:5) ()))

(* ---- relay over partial graphs ---- *)

module Relayed_gossip = Abc_net.Relay.Make (Gossip)
module RGE = Abc_net.Engine.Make (Relayed_gossip)

let test_relay_completes_gossip_on_ring () =
  let g = Topology.ring ~n:5 in
  let result =
    RGE.run (RGE.config ~n:5 ~f:0 ~inputs:[| 1; 2; 3; 4; 5 |] ~topology:g ())
  in
  Alcotest.(check string) "all terminal" "all-terminal"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.RGE.stop);
  Array.iter
    (fun outputs ->
      match outputs with
      | [ (_, Gossip.Done sum) ] -> Alcotest.(check int) "full sum" 15 sum
      | _ -> Alcotest.fail "expected one output")
    result.RGE.outputs

module M = Abc.Mmr_consensus
module RM = Abc_net.Relay.Make (M)

module RH = Abc.Harness.Make (struct
  include RM

  let value_of_input = M.value_of_input
end)

let consensus_over ~g ~crash_ids ~seed =
  let n = Topology.nodes g and f = 2 in
  let values =
    Array.init n (fun i -> if i < n / 2 then Abc.Value.Zero else Abc.Value.One)
  in
  let inputs = M.inputs ~n ~coin:(Abc.Coin.common ~seed:7) values in
  let faulty =
    List.map (fun i -> (node i, Behaviour.Crash_after 0)) crash_ids
  in
  let cfg =
    RH.E.config ~n ~f ~inputs ~faulty ~topology:g ~adversary:Adversary.uniform
      ~seed ~max_deliveries:400_000 ()
  in
  snd (RH.run cfg)

let test_connectivity_threshold () =
  (* κ = 2 ring: crashing an opposite pair cuts the graph — consensus
     must fail; κ = 4 circulant survives the same crashes. *)
  let ring = Topology.circulant ~n:8 ~offsets:[ 1 ] in
  let dense = Topology.circulant ~n:8 ~offsets:[ 1; 2 ] in
  let v = consensus_over ~g:ring ~crash_ids:[ 1; 5 ] ~seed:0 in
  Alcotest.(check bool) "cut kills the ring" false (Abc.Harness.ok v);
  List.iter
    (fun seed ->
      let v = consensus_over ~g:dense ~crash_ids:[ 1; 5 ] ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "k=4 survives (seed %d)" seed)
        true (Abc.Harness.ok v))
    [ 0; 1; 2 ]

let test_relay_forgery_attack () =
  (* Naive flooding is unsafe against Byzantine relays: a relay that
     rewrites the payloads it forwards effectively forges other nodes'
     messages.  We demonstrate the attack exists (the run degrades), so
     the crash-only scope of the relay layer is justified.  On a ring,
     node 1 sits on many relay paths. *)
  let flip_inner _rng (envelope : RM.msg) =
    RM.with_inner envelope (M.Fault.flip_value (Abc_prng.Stream.root ~seed:0) envelope.RM.inner)
  in
  let g = Topology.circulant ~n:8 ~offsets:[ 1 ] in
  let n = 8 and f = 2 in
  let values = Array.init n (fun i -> if i < n / 2 then Abc.Value.Zero else Abc.Value.One) in
  let inputs = M.inputs ~n ~coin:(Abc.Coin.common ~seed:7) values in
  let faulty = [ (node 1, Behaviour.Mutate flip_inner) ] in
  let cfg =
    RH.E.config ~n ~f ~inputs ~faulty ~topology:g ~adversary:Adversary.uniform
      ~seed:3 ~max_deliveries:400_000 ()
  in
  let _, verdict = RH.run cfg in
  (* The attack may break termination or agreement depending on the
     schedule; the point is that the protocol guarantees are no longer
     intact even though only one node (= f-1 < f) is faulty. *)
  Alcotest.(check bool) "naive flooding degraded by one lying relay" false
    (Abc.Harness.ok verdict && verdict.Abc.Harness.max_round <= 3)

(* A label is a shared string, never one built per call: the engine
   finds a label's counters by physical equality first.  A wrapper
   records every message the relayed MMR delivers over a ring, and
   each is asked for its label twice.  A rewritten envelope's label
   follows its new payload. *)
let test_relay_labels_shared () =
  let seen = ref [] in
  let module Recorded = struct
    include RM

    let on_message ctx state ~src msg =
      seen := msg :: !seen;
      RM.on_message ctx state ~src msg
  end in
  let module R = Abc_net.Engine.Make (Recorded) in
  let n = 5 in
  let inputs =
    M.inputs ~n ~coin:(Abc.Coin.common ~seed:7) (Array.init n (fun i -> Abc.Value.of_int (i mod 2)))
  in
  ignore
    (R.run
       (R.config ~n ~f:1 ~inputs ~topology:(Topology.ring ~n) ~adversary:Adversary.uniform ~seed:2 ()));
  List.iter
    (fun m ->
      if not (RM.msg_label m == RM.msg_label m) then
        Alcotest.failf "label %S is built per call" (RM.msg_label m))
    !seen;
  Alcotest.(check (list string)) "label set" [ "relay.aux"; "relay.bval" ]
    (List.sort_uniq String.compare (List.map RM.msg_label !seen));
  let kind l = List.find (fun m -> String.equal (RM.msg_label m) l) !seen in
  let bval = kind "relay.bval" and aux = kind "relay.aux" in
  Alcotest.(check string) "rewritten kind" "relay.aux" (RM.msg_label (RM.with_inner bval aux.RM.inner));
  Alcotest.(check bool) "kept kind keeps the shared label" true
    (RM.msg_label (RM.with_inner aux aux.RM.inner) == RM.msg_label aux)

let () =
  Alcotest.run "topology"
    [
      ( "graphs",
        [
          Alcotest.test_case "of_edges validation" `Quick test_of_edges_validation;
          Alcotest.test_case "edge symmetry and dedup" `Quick
            test_edge_symmetry_and_dedup;
          Alcotest.test_case "generators" `Quick test_generators;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "connectivity checks" `Quick test_connectivity_checks;
          Alcotest.test_case "vertex connectivity known values" `Quick
            test_vertex_connectivity_known_values;
          QCheck_alcotest.to_alcotest prop_circulant_connectivity;
        ] );
      ( "engine",
        [
          Alcotest.test_case "non-edges dropped" `Quick test_engine_drops_non_edges;
          Alcotest.test_case "size check" `Quick test_engine_topology_size_check;
        ] );
      ( "relay",
        [
          Alcotest.test_case "gossip over ring" `Quick
            test_relay_completes_gossip_on_ring;
          Alcotest.test_case "connectivity threshold for consensus" `Slow
            test_connectivity_threshold;
          Alcotest.test_case "forgery attack on naive flooding" `Slow
            test_relay_forgery_attack;
          Alcotest.test_case "labels are shared" `Quick test_relay_labels_shared;
        ] );
    ]
