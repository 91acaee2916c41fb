(** S-expression reader for [.matrix] scenario specs.

    A tiny, dependency-free reader whose one job beyond parsing is
    {e spans}: every atom and list carries its exact source location,
    so spec-level diagnostics (from {!Spec} elaboration and
    {!Runner.check}) can point at the offending literal
    the way the parsetree linter in [lib/analysis] points at offending
    expressions.  Syntax: atoms, double-quoted strings (escapes:
    backslash-n, backslash-t, and escaped backslash and quote),
    parenthesized lists, and [;] line comments. *)

type pos = { line : int;  (** 1-based *) col : int  (** 0-based *) }

type span = { s : pos; e : pos }

type t =
  | Atom of string * span
  | List of t list * span

type error = { file : string; pos : pos; msg : string }

val span : t -> span

val error_to_string : error -> string
(** [file:line:col: message] — the [lib/analysis] finding format. *)

val parse : file:string -> string -> (t list, error) result
(** Parse a whole document into its top-level forms. *)
