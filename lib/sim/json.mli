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
    tree.  Every primitive raises {!Parse_error} with the same
    byte-offset diagnostic {!of_string} returns, and never reads
    outside the cursor's window. *)

type cursor
(** A position in a window of a string. *)

exception Parse_error of string

val cursor : string -> start:int -> stop:int -> cursor
(** [cursor text ~start ~stop] scans [text] from [start] up to, not
    including, [stop].  Offsets in messages are relative to [start]. *)

val fields : cursor -> (string -> unit) -> unit
(** [fields c f] scans one object.  For each field it calls [f name]
    with [c] at the start of the field's value; [f] must consume
    exactly that value. *)

val value : cursor -> t
(** Scans one value of any type; a number is [Int] when it is an
    integer, else [Float]. *)

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

val int_member : ?default:int -> string -> t -> int option
(** [int_member name v] is the integer field [name]; [default] when the
    field is absent (a present non-integer field is [None]). *)

val string_member : ?default:string -> string -> t -> string option
(** [string_member name v] is the string field [name]; [default] when
    the field is absent. *)

val equal : t -> t -> bool
(** Structural equality (object fields must match in order). *)
