(** Walk source roots, apply every rule in scope, filter through the
    allowlist: parsetree rules ({!Ast_rules}) on every [.ml] that
    parses, one [parse] finding on one that does not. *)

type report = {
  findings : Finding.t list;  (** unallowlisted findings, sorted *)
  allowed : int;  (** findings suppressed by the allowlist *)
  files : int;  (** source files scanned *)
  unused_allow : Allow.entry list;  (** entries matching no finding *)
}

val scan_files : roots:string list -> string list
(** All [.ml]/[.mli] files under [roots] (recursive), sorted; skips
    [_build], [.git] and other dot-directories. *)

val check_source : path:string -> string -> Finding.t list
(** Analyze one unit: parsetree rules when it parses, one [parse]
    finding at the syntax or lexer error otherwise; severities stamped
    from {!Rule_info}. *)

val interface_coverage : files:string list -> Finding.t list
(** [interface_coverage ~files] checks every [lib/**.ml] in [files]
    for a matching [.mli] in [files]. *)

val make_report :
  ?only:string list option ->
  ?skip:string list ->
  allow:Allow.entry list ->
  files:int ->
  Finding.t list ->
  report
(** Assemble a report from raw findings: filter by rule selection,
    stamp severities, sort, partition through the allowlist and
    compute stale entries.  Exposed so tests can build deterministic
    reports from inline fixtures. *)

val run :
  ?only:string list option ->
  ?skip:string list ->
  allow:Allow.entry list ->
  roots:string list ->
  unit ->
  report
(** Scan and analyze every source file under [roots].  [only]
    restricts to the given rule ids ([--rules]); [skip] removes rule
    ids ([--skip-rules]). *)

val json_of_report : report -> string
(** SARIF-lite JSON: schema tag, scan counters, and one object per
    finding (rule, severity, path, span, snippet, message,
    fingerprint), sorted in report order with a fixed key order — the
    output is deterministic (byte-identical across runs on the same
    tree) so it can be diffed and checked against a golden. *)
