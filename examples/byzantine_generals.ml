(* Byzantine generals: seven generals, two traitors, no clocks.

   Seven armies must agree whether to attack (1) or retreat (0) using
   asynchronous messengers — arbitrarily slow, never lost.  Two
   generals are traitors trying to split the loyal five.  This is
   exactly the setting of Bracha's PODC 1984 protocol: n = 7 > 3f = 6,
   so agreement is possible despite FLP, with probability-1
   termination from coin flips.

   The example runs three traitor strategies and shows that the loyal
   generals always reach the same decision, and that when all loyal
   generals want to attack, no traitor can talk them out of it
   (validity).  Each run is a registry scenario, spelled in the tokens
   a .matrix spec uses.

   Run with: dune exec examples/byzantine_generals.exe *)

module Registry = Abc_matrix.Registry

let strategies =
  [
    ("silent traitors (crash)", "silent@2,5");
    ("consistent liars (flip every vote)", "flip@2,5");
    ("two-faced traitors (equivocate)", "equivocate@2,5");
  ]

let campaign ~inputs ~seed (label, fault) =
  let scenario =
    Result.get_ok
      (Registry.of_tokens
         [ ("protocol", "bracha"); ("n", "7"); ("f", "2"); ("inputs", inputs); ("fault", fault) ])
  in
  let r = Result.get_ok (Registry.run scenario ~seed) in
  Fmt.pr "  %-38s" label;
  if Registry.decides r.outcome then (
    Fmt.pr "loyal generals agree (round %d, %d messages):@." r.outcome.rounds r.outcome.messages;
    List.iter (Fmt.pr "  %s@.") (Lazy.force r.lines))
  else Fmt.pr "FAILED@."

let () =
  Fmt.pr "Seven generals, two traitors (nodes 2, 5), asynchronous messengers.@.";
  Fmt.pr "A decision of 1 is ATTACK, 0 is RETREAT.@.";

  Fmt.pr "@.Scenario 1: every loyal general wants to attack.@.";
  List.iteri (fun k -> campaign ~inputs:"unanimous1" ~seed:(100 + k)) strategies;

  (* [alternate]: even ids vote 0, odd ids 1, so loyal 0, 4, 6 against
     loyal 1, 3. *)
  Fmt.pr "@.Scenario 2: the loyal generals are split 3 vs 2.@.";
  List.iteri (fun k -> campaign ~inputs:"alternate" ~seed:(200 + k)) strategies;

  Fmt.pr
    "@.In scenario 1 validity forces ATTACK every time; in scenario 2 either@.\
     order is legitimate — what matters is that all loyal generals pick the@.\
     same one, which they always do.@."
