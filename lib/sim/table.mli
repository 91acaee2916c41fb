(** Plain-text table rendering for experiment reports.

    The benchmark harness prints one table per reproduced experiment;
    this module keeps the formatting consistent (aligned columns,
    header rule, optional caption). *)

type t
(** A table under construction. *)

val create : ?id:string -> title:string -> columns:string list -> unit -> t
(** [create ~title ~columns] starts a table with the given header.
    [id] is a short stable slug ([a-z0-9_-]) naming the table's export
    files independently of the (long, prose) title; see {!slug}.
    Raises [Invalid_argument] on a malformed [id]. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row.  Raises [Invalid_argument] if the
    number of cells differs from the number of columns. *)

val render : t -> string
(** [render t] is the complete table as a string, ending with a
    newline. *)

val csv : t -> string
(** [csv t] is the table as RFC-4180-ish CSV (header row included;
    cells containing commas or quotes are quoted). *)

val slug : t -> string
(** The stem of the table's export filenames: the explicit [id] (or,
    without one, the sanitized first 24 title characters) followed by
    ["_"] and the first 8 hex digits of the full title's digest — so
    two tables whose long titles share a prefix never collide, which
    plain title truncation did not guarantee. *)

val print : t -> unit
(** [print t] writes [render t] to standard output. *)

val cell_int : int -> string
(** Canonical rendering of integer cells. *)

val cell_float : ?decimals:int -> float -> string
(** Canonical rendering of float cells (default 2 decimals). *)

val cell_ratio : float -> string
(** Render a ratio as ["12.3x"]. *)

val cell_percent : float -> string
(** Render a fraction in [0,1] as ["97.0%"]. *)
