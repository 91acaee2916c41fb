(* A leaderless Byzantine replicated log.

   Four replicas each receive commands from their local clients and
   must serve one totally-ordered log — the classic state machine
   replication problem, solved here with no leader and no timing
   assumptions: each log slot is an Asynchronous Common Subset built
   from Bracha reliable broadcasts and binary agreements.

   Replica 2 is Byzantine (silent).  Its clients lose service — that is
   unavoidable — but the other replicas' commands are ordered
   identically everywhere, and the traitor cannot fork the log.

   Run with: dune exec examples/replicated_log.exe *)

module Log = Abc_smr.Replicated_log
module Engine = Abc_net.Engine.Make (Log)
module Node_id = Abc_net.Node_id

let n = 4

let f = 1

let slots = 3

let client_command replica slot =
  match (replica + slot) mod 3 with
  | 0 -> Printf.sprintf "PUT key%d r%d.s%d" (replica mod 2) replica slot
  | 1 -> Printf.sprintf "GET key%d" (replica mod 2)
  | _ -> Printf.sprintf "CAS key%d r%d.s%d fixed" (replica mod 2) replica (slot - 1)

let () =
  let inputs = Log.inputs ~n ~slots ~coin:Abc.Coin.local client_command in
  let faulty = [ (Node_id.of_int 2, Abc_net.Behaviour.Silent) ] in
  let config =
    Engine.config ~n ~f ~inputs ~faulty ~adversary:Abc_net.Adversary.uniform
      ~seed:42 ()
  in
  let result = Engine.run config in

  Fmt.pr "Replicated log: %d replicas, %d slots, replica 2 Byzantine-silent.@.@."
    n slots;

  (* Show replica 0's commit stream. *)
  Fmt.pr "Replica 0 commit stream:@.";
  List.iter
    (fun (time, output) ->
      match output with
      | Log.Committed { slot; commands } ->
        Fmt.pr "  t=%-5d slot %d committed: %a@." time slot
          Fmt.(list ~sep:comma (fun ppf (id, c) -> pf ppf "%a:%S" Node_id.pp id c))
          commands
      | Log.Log_complete log ->
        Fmt.pr "  t=%-5d log complete (%d commands)@." time (List.length log))
    result.Engine.outputs.(0);

  (* Verify all honest replicas converged on the same log. *)
  Fmt.pr "@.Final logs:@.";
  let logs =
    List.filter_map
      (fun i ->
        match Log.log_of_outputs result.Engine.outputs.(i) with
        | Some log when i <> 2 -> Some (i, log)
        | _ -> None)
      [ 0; 1; 2; 3 ]
  in
  List.iter
    (fun (i, log) ->
      Fmt.pr "  replica %d: %a@." i Fmt.(list ~sep:(any " -> ") string) log)
    logs;
  let identical =
    match logs with
    | (_, first) :: rest -> List.for_all (fun (_, log) -> log = first) rest
    | [] -> false
  in
  Fmt.pr "@.All honest replicas agree on the full order: %b@." identical;

  Fmt.pr "@.Total messages: %d, virtual time: %d@."
    (Abc_sim.Metrics.counter result.Engine.metrics "sent")
    result.Engine.duration
