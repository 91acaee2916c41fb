(* Don't sample schedules — enumerate them.

   Randomized testing runs one delivery order per seed.  The bounded
   model checker explores EVERY order: breadth-first over all
   reachable system states, checking an invariant at each one.

   Part 1 verifies that a four-node Bracha reliable broadcast with a
   two-faced sender preserves agreement on every schedule prefix of
   up to nine deliveries (tens of thousands of distinct states).

   Part 2 hands the checker a deliberately broken protocol — "decide
   on the first value you hear" — and shows the counterexample it
   extracts: a concrete delivery sequence driving two nodes to
   different decisions.

   Run with: dune exec examples/model_checking.exe *)

module Node_id = Abc_net.Node_id
module Protocol = Abc_net.Protocol
module Registry = Abc_matrix.Registry

(* The registry's own scenario, as abc-run check spells it: its sender
   equivocates, and its verdict's agreement and validity are the
   invariant. *)
let () =
  Fmt.pr "Part 1: exhaustive check of reliable broadcast (n=4, f=1).@.";
  let sc =
    Result.get_ok
      (Registry.of_tokens
         [ ("protocol", "bracha-rbc-bit"); ("n", "4"); ("f", "1"); ("fault", "equivocate") ])
  in
  match Registry.explore sc ~max_depth:(Some 9) ~max_states:500_000 with
  | Error msg -> Fmt.pr "  refused: %s@." msg
  | Ok outcome -> (
    Fmt.pr "  explored %d distinct states (every schedule prefix of <= 9 deliveries)@."
      outcome.explored;
    match outcome.violation with
    | None -> Fmt.pr "  agreement holds in every one of them.@."
    | Some _ -> Fmt.pr "  UNEXPECTED violation!@.")

(* A protocol that is obviously wrong: decide on the first claim you
   receive. *)
module Race = struct
  type input = Abc.Value.t
  type msg = Claim of Abc.Value.t
  type output = Chose of Abc.Value.t
  type state = { chosen : bool }

  let name = "race"
  let initial _ctx input = ({ chosen = false }, [ Protocol.Broadcast (Claim input) ])

  let on_message _ctx state ~src:_ (Claim v) =
    if state.chosen then (state, [], []) else ({ chosen = true }, [], [ Chose v ])

  let is_terminal (Chose _) = true
  let on_timeout = Protocol.no_timeout
  let msg_label (Claim _) = "claim"
  let msg_bytes (Claim _) = 2
  let pp_msg ppf (Claim v) = Fmt.pf ppf "claim(%a)" Abc.Value.pp v
  let pp_output ppf (Chose v) = Fmt.pf ppf "chose(%a)" Abc.Value.pp v
end

module Check_race = Abc_check.Explore.Make (Race)

let () =
  Fmt.pr "@.Part 2: a deliberately unsafe protocol (first-claim-wins).@.";
  let agreement outputs =
    let chosen =
      Array.to_list outputs |> List.concat_map (List.map (fun (Race.Chose v) -> v))
    in
    match chosen with
    | [] -> true
    | v :: rest -> List.for_all (Abc.Value.equal v) rest
  in
  let outcome =
    Check_race.run
      { Check_race.n = 2; f = 0; inputs = [| Abc.Value.Zero; Abc.Value.One |]; faulty = [];
        invariant = agreement; max_states = 10_000; max_depth = None; drop_plan = None }
  in
  match outcome.violation with
  | Some v ->
    Fmt.pr "  counterexample found — the schedule that breaks agreement:@.";
    List.iter
      (fun (src, dst, m) ->
        Fmt.pr "    deliver %a -> %a : %s@." Node_id.pp src Node_id.pp dst m)
      v.schedule;
    Fmt.pr
      "  (each node decided on whichever claim the scheduler delivered first)@."
  | None -> Fmt.pr "  no violation found (unexpected).@."
