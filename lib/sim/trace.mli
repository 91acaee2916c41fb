(** Execution traces of typed protocol events.

    A bounded in-memory ring of {!Event.t} occurrences, each stamped
    with the virtual time and the node it concerns.  When the capacity
    is exceeded the oldest entries are discarded — tracing long runs
    stays cheap — and {!dropped} accounts for every eviction exactly
    ([recorded t = length t + dropped t] always holds).

    Traces export to JSON Lines with a versioned schema (see
    [OBSERVABILITY.md]): one header object followed by one object per
    entry.  {!Trace_file} reads the format back; [abc-trace] analyzes
    it. *)

type entry = {
  time : int;  (** virtual time at which the event occurred *)
  node : int;  (** node the event concerns, or [-1] for the engine *)
  event : Event.t;  (** what happened *)
}

type t
(** A mutable trace buffer. *)

val schema_version : int
(** Version number written into the JSONL header; bumped on any
    incompatible schema change (stability promise in
    [OBSERVABILITY.md]). *)

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] is an empty trace retaining at most
    [capacity] entries (default 4096).  The ring is not allocated up
    front: it starts at 256 slots (fewer if [capacity] is smaller) and
    doubles as entries arrive, up to [capacity]. *)

val record : t -> time:int -> node:int -> Event.t -> unit
(** [record t ~time ~node event] counts the event and appends an
    entry, evicting the oldest entry if the buffer is full.  Callers on a hot path should guard
    with their {!Event.sink}'s [enabled] flag so the event value is
    never built when tracing is off. *)

val note : t -> time:int -> node:int -> tag:string -> string -> unit
(** [note t ~time ~node ~tag detail] records a free-form
    {!Event.kind.Note} — the escape hatch for events outside the typed
    vocabulary. *)

val length : t -> int
(** [length t] is the number of retained entries. *)

val recorded : t -> int
(** [recorded t] is the number of entries ever recorded, retained or
    not. *)

val dropped : t -> int
(** [dropped t] is the number of recorded entries evicted by the ring;
    exactly [recorded t - length t]. *)

val count_kind : t -> label:string -> int
(** [count_kind t ~label] is the exact number of recorded events of
    that kind (0 when never recorded), evicted or not — unlike
    {!find_kind}, which only sees retained entries. *)

val to_list : t -> entry list
(** [to_list t] is the retained entries, oldest first. *)

val find_kind : t -> label:string -> entry list
(** [find_kind t ~label] is the retained entries whose event kind has
    {!Event.kind_label} [label], oldest first. *)

val pp_entry : entry Fmt.t
(** Pretty-printer for a single entry. *)

val dump : Format.formatter -> t -> unit
(** [dump ppf t] prints all retained entries, one per line. *)

(** {1 JSONL export}

    The wire format is one JSON object per line: a header
    [{"schema":"abc.trace","version":1,...}] followed by the retained
    entries, oldest first.  Field-by-field documentation lives in
    [OBSERVABILITY.md].  Entry lines are written straight into one
    buffer, without building {!Json.t} values; {!Trace_file} is the
    inverse. *)

val header_json : ?meta:(string * Json.t) list -> t -> Json.t
(** [header_json ~meta t] is the header object: schema name, schema
    version, recorded/retained/dropped counts and the caller-supplied
    run metadata (protocol, n, f, seed, ...). *)

val to_jsonl_string : ?meta:(string * Json.t) list -> t -> string
(** Render header plus all retained entries as JSON Lines. *)

val write_jsonl : ?meta:(string * Json.t) list -> out_channel -> t -> unit
(** [write_jsonl oc t] writes the bytes of {!to_jsonl_string} to [oc]. *)
