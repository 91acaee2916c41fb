(* Quickstart: reliable broadcast in ten lines.

   One sender reliable-broadcasts a bit to four nodes over a fully
   asynchronous network.  The sender is Byzantine and two-faced: it
   tells the first half of the network "1" and the second half "0".
   Bracha's echo/ready protocol forces a single outcome anyway.

   The scenario is spelled in the registry's tokens, as a .matrix spec
   or abc-run's flags spell it; on a broadcast the [equivocate] fault
   sits on the sender.

   Run with: dune exec examples/quickstart.exe *)

module Registry = Abc_matrix.Registry

let () =
  let scenario =
    Result.get_ok
      (Registry.of_tokens
         [ ("protocol", "bracha-rbc-bit"); ("n", "4"); ("f", "1"); ("fault", "equivocate") ])
  in
  let r = Result.get_ok (Registry.run scenario ~seed:2024) in
  assert r.outcome.agreement;
  Fmt.pr "Reliable broadcast, n=4 f=1, equivocating sender:@.";
  List.iter (Fmt.pr "%s@.") (Lazy.force r.lines);
  Fmt.pr "Messages sent: %d (O(n^2) echoes and readies)@." r.outcome.messages;
  Fmt.pr
    "Agreement holds: honest nodes never deliver conflicting values,@.\
     no matter what the sender or the scheduler does.@."
