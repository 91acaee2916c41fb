(** Reader for the [abc.trace] JSON Lines format.

    Parses trace files written by {!Trace.write_jsonl} back into typed
    {!Trace.entry} values: one header object (schema name, version,
    counts, run metadata) followed by one entry object per line.  The
    format is documented in [OBSERVABILITY.md]; the [abc-trace] CLI is
    built on this module. *)

type t = {
  version : int;  (** schema version declared by the header *)
  recorded : int;  (** entries ever recorded by the producing run *)
  dropped : int;  (** entries evicted before export *)
  meta : (string * Json.t) list;  (** run metadata from the header *)
  entries : Trace.entry list;  (** retained entries, oldest first *)
}

val read : string -> (t, string) result
(** [read path] loads the trace file at [path] and parses it with
    {!of_string}; an unreadable file is an [Error] too. *)

val of_string : string -> (t, string) result
(** [of_string text] parses an in-memory JSONL document: the first
    line is the header, every other non-blank line one entry.  Entry
    lines are decoded in place, straight into {!Trace.entry} values;
    unknown fields of any JSON type are skipped.  Total: malformed
    input is an [Error], never an exception.  The message starts with
    [header: ] for a bad header (malformed JSON, unknown schema,
    version newer than {!Trace.schema_version}, a count that is not an
    int, [recorded <> retained + dropped], or a [retained] count that
    differs from the number of entry lines, as in a cut file) and with
    [line N: ] for a bad entry. *)

val meta_int : t -> string -> int option
(** [meta_int t name] reads an integer run-metadata field (["n"],
    ["f"], ["seed"], ...). *)

val meta_string : t -> string -> string option
(** [meta_string t name] reads a string run-metadata field
    (["protocol"], ...). *)

val nodes : t -> int
(** [nodes t] is the node count: the ["n"] metadata field when
    present, widened to cover any larger node id appearing in the
    entries. *)
