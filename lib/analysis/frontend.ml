let parse_impl ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  (* The compiler lexer keeps global comment/docstring state; reset it
     per unit so parses are independent. *)
  Lexer.init ();
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      let main = report.Location.main in
      Error (main.Location.loc, Format.asprintf "%t" main.Location.txt)
    | Some `Already_displayed | None ->
      Error (Location.curr lexbuf, Printexc.to_string exn))
