(** Minimal JSON values, printing and parsing.

    The observability layer ({!Trace} JSONL export, {!Trace_file}
    ingestion, bench run summaries) needs a small, dependency-free JSON
    implementation; this is it.  Printing is compact and deterministic
    (fields appear in the order given), parsing accepts any
    standards-conforming document.  Not a general-purpose JSON library:
    no streaming, no number-precision guarantees beyond OCaml's [int]
    and [float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in serialization order *)

val to_string : t -> string
(** [to_string v] is the compact (single-line, no spaces) rendering of
    [v].  Object fields keep their list order, so equal values render
    to equal strings — the property the golden-trace tests rely on. *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped b s] appends [s] to [b] as a JSON string literal,
    quotes included — the rendering {!to_string} gives [String s]. *)

val of_string : string -> (t, string) result
(** [of_string s] parses one JSON document occupying the whole string.
    [Error msg] carries a byte-offset diagnostic. *)

(** {1 Scanning in place}

    The primitives {!of_string} is built on, for decoders that read a
    document straight into their own types instead of through a [t]
    tree.  They build nothing but the strings they return, except on
    rare forms: an escape, or a number that is not a plain decimal
    integer of up to 18 digits.  Every primitive raises
    {!Parse_error} with the same byte-offset diagnostic {!of_string}
    returns, and never reads outside the cursor's window. *)

type cursor
(** A position in a window of a string. *)

exception Parse_error of string

val cursor : string -> start:int -> stop:int -> cursor
(** [cursor text ~start ~stop] scans [text] from [start] up to, not
    including, [stop].  Offsets in messages are relative to [start]. *)

val window : cursor -> start:int -> stop:int -> unit
(** [window c ~start ~stop] moves [c] to a new window of the same text,
    as if it were [cursor text ~start ~stop]. *)

type names
(** A fixed table of strings, matched against literals in place. *)

val names : string array -> names
(** [names a] matches each string of [a] to its index. *)

type slot = Absent | Int_slot | String_slot | Other_slot
(** What {!fields} found for a name. *)

val fields : cursor -> names -> slots:slot array -> values:int array -> unit
(** [fields c table ~slots ~values] scans one object.  For the first
    field whose name is [table]'s [k]-th, [slots.(k)] says what its
    value was and, for an [Int_slot] or a [String_slot], [values.(k)]
    holds the integer or the string literal's offset in the text (for
    {!string_at} and {!index_at}).  A number is an integer when
    [int_of_string] reads it (a leading [+], leading zeros, up to
    [max_int]).  Other fields, and repeats, are skipped whatever their
    type; every slot of a name the object lacks is [Absent]. *)

val index_at : cursor -> names -> int -> int
(** [index_at c table at] is the index in [table] of the string
    literal at offset [at] of the text, or [-1].  It moves [c]. *)

type string_cache
(** Decoded strings, kept so that equal literals share one copy. *)

val string_cache : unit -> string_cache
(** An empty cache of 256 strings. *)

val string_at : cursor -> string_cache -> int -> string
(** [string_at c cache at] decodes the string literal at offset [at] of
    the text, returning the cached copy when it holds the same bytes.
    It moves [c]. *)

val finish : cursor -> unit
(** Skips trailing whitespace; fails unless that ends the window. *)

val member : string -> t -> t option
(** [member name v] is field [name] of object [v]; [None] when [v] is
    not an object or lacks the field. *)

val to_int : t -> int option
(** [to_int v] is [Some i] iff [v] is [Int i]. *)

val to_float : t -> float option
(** [to_float v] is the numeric value of [Int] or [Float]. *)

val to_str : t -> string option
(** [to_str v] is [Some s] iff [v] is [String s]. *)

val to_obj : t -> (string * t) list option
(** [to_obj v] is the field list iff [v] is an object. *)

val int_member : string -> t -> int option
(** [int_member name v] is the integer field [name]; [None] when the
    field is absent or not an integer. *)

val string_member : string -> t -> string option
(** [string_member name v] is the string field [name]; [None] when the
    field is absent or not a string. *)

val equal : t -> t -> bool
(** Structural equality (object fields must match in order). *)
