(** One linter finding: a rule violation anchored at a source span. *)

type severity = Error | Warn

type span = {
  start_line : int;  (** 1-based; [0] for file-level findings *)
  start_col : int;  (** 0-based *)
  end_line : int;
  end_col : int;
}

type t = {
  rule : string;  (** rule id (see {!Rule_info.all}) *)
  severity : severity;
  file : string;  (** path as scanned, ['/']-separated *)
  span : span;  (** exact for parsetree rules and parse errors *)
  snippet : string;  (** offending source text, whitespace-normalized *)
  message : string;  (** what is wrong and what to use instead *)
}

val severity_label : severity -> string
(** ["error"] / ["warn"] — the JSON encoding. *)

val line_span : int -> span
(** Degenerate line-only span: column 0, empty. *)

val file_span : span
(** The file-level span (line 0; interface-coverage findings). *)

val span_of_loc : Location.t -> span
(** The span of a compiler location. *)

val v :
  ?severity:severity ->
  rule:string ->
  file:string ->
  span:span ->
  snippet:string ->
  string ->
  t
(** Construct a finding; [severity] defaults to [Error] and is
    re-stamped from {!Rule_info} by the driver. *)

val fingerprint : t -> string
(** Stable 12-hex-digit content hash over (rule, file basename,
    snippet).  Line-independent, so [lint.allow] fingerprint entries
    survive unrelated edits; identical snippets for the same rule in
    the same file share a fingerprint (one reviewed entry covers
    both). *)

val compare : t -> t -> int
(** Order by file, line, rule, column, snippet — the report order. *)

val dedup : t list -> t list
(** Sort and collapse to one finding per (rule, file, line). *)

val pp : t Fmt.t
(** [file:line:col: [rule/severity] message  (snippet)]. *)
