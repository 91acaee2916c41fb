(* Consensus on a partial network: how much graph do you need?

   The 1984 model assumes every pair of nodes shares a channel.  Real
   deployments don't.  This example runs the modern binary agreement
   (MMR, common coin) over a hop-by-hop flood relay on circulant graphs
   of increasing connectivity, with two crashed replicas sitting
   exactly on the thinnest cut.

   The outcome is the classic threshold: if removing the crashed nodes
   disconnects the survivors (κ ≤ f at the cut), agreement dies with
   them; one extra offset of edges and it sails through.

   Each run is a registry scenario: any topology but [complete] floods
   every message over the graph.  Connectivity is the graph's, so it
   is computed from the same offsets.

   Run with: dune exec examples/partial_network.exe *)

module Registry = Abc_matrix.Registry
module Topology = Abc_net.Topology
module Node_id = Abc_net.Node_id

let n = 8

let crash_cut = [ 1; 5 ] (* antipodal on the ring: a minimum cut *)

let ids l = String.concat "," (List.map string_of_int l)

let attempt (label, offsets) =
  let scenario =
    Result.get_ok
      (Registry.of_tokens
         [ ("protocol", "mmr"); ("n", string_of_int n); ("f", "2");
           ("topology", "circulant:" ^ ids offsets); ("fault", "crash-after-0@" ^ ids crash_cut);
           ("budget", "400000") ])
  in
  let r = Result.get_ok (Registry.run scenario ~seed:1) in
  let graph = Topology.circulant ~n ~offsets in
  Fmt.pr "  %-12s κ=%d  survivors connected: %-5b  ->  %s@." label
    (Topology.vertex_connectivity graph)
    (Topology.connected_after_removing graph (List.map Node_id.of_int crash_cut))
    (if Registry.decides r.outcome then
       Fmt.str "agreement in %d rounds, %d messages" r.outcome.rounds r.outcome.messages
     else "NO AGREEMENT (partition)")

let () =
  Fmt.pr
    "Eight replicas, two crashed at the cut {%s}, consensus over flood relay:@.@."
    (String.concat ", " (List.map string_of_int crash_cut));
  List.iter attempt
    [ ("ring C8(1)", [ 1 ]); ("C8(1,2)", [ 1; 2 ]); ("C8(1,2,3)", [ 1; 2; 3 ]);
      ("complete K8", [ 1; 2; 3; 4 ]) ];
  Fmt.pr
    "@.The survivors must form a connected graph: vertex connectivity@.\
     above the fault count at the cut is exactly the line between the@.\
     two outcomes.  (Byzantine relays would additionally require 2f+1@.\
     connectivity and certified paths — see DESIGN.md.)@."
