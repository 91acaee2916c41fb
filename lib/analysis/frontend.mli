(** Parsetree front end for the analyzer.

    Sources are parsed with the compiler's own parser
    ([compiler-libs.common]: [Parse.implementation]), so the rules in
    {!Ast_rules} operate on real scopes, captures and expressions with
    span-accurate locations.  A unit that does not parse is checked by
    no rule; {!Driver} reports it as one [parse] finding at the error
    instead. *)

val parse_impl :
  path:string -> string -> (Parsetree.structure, Location.t * string) result
(** Parse an implementation.  [Error (loc, message)] is the syntax or
    lexer error's location and the compiler's description of it. *)
