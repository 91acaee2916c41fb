(* A leaderless Byzantine replicated log.

   Four replicas each receive commands from their local clients and
   must serve one totally-ordered log — the classic state machine
   replication problem, solved here with no leader and no timing
   assumptions: each log slot is an Asynchronous Common Subset built
   from Bracha reliable broadcasts and binary agreements.

   Replica 2 is Byzantine (silent).  Its clients lose service — that is
   unavoidable — but the other replicas' commands are ordered
   identically everywhere, and the traitor cannot fork the log.

   The scenario is the registry's [log] protocol, whose replica I
   proposes the command "cmd-I.K" for slot K.  A silent replica still
   listens, so replica 2 learns the log it cannot add to.

   Run with: dune exec examples/replicated_log.exe *)

module Registry = Abc_matrix.Registry

let () =
  let scenario =
    Result.get_ok
      (Registry.of_tokens
         [ ("protocol", "log"); ("n", "4"); ("f", "1"); ("epochs", "3"); ("fault", "silent@2") ])
  in
  let r = Result.get_ok (Registry.run scenario ~seed:42) in
  Fmt.pr "Replicated log: 4 replicas, 3 slots, replica 2 Byzantine-silent.@.@.";
  Fmt.pr "Final logs (%d commands):@." r.outcome.committed;
  List.iter (Fmt.pr "%s@.") (Lazy.force r.lines);
  Fmt.pr "@.All honest replicas agree on the full order: %b@." (Registry.decides r.outcome);
  Fmt.pr "@.Total messages: %d, virtual time: %d@." r.outcome.messages r.outcome.ticks
