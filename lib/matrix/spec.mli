(** Scenario-matrix specs: the declarative layer over the simulator.

    A spec describes a family of runs as axes (protocol, n, f,
    adversary, fault mix, topology, loss plan, payload, seeds, ...)
    combined by cross product — with [zip] groups advancing several
    axes in lockstep — plus per-cell {e expected-verdict} annotations:
    what property each cell must exhibit (decide / agree / deliver-all
    / live-within a budget), or [expect-fail] for cells deliberately
    configured beyond a protocol's resilience bound.

    Specs live in [.matrix] files (an s-expression format, see
    EXPERIMENTS.md for the grammar) and elaborate with span-accurate
    errors in the [file:line:col: message] format of the [lib/analysis]
    linter.  {!expand} is a pure function of the spec value: the cell
    list and its order never depend on the environment, which is what
    lets the {!Runner} promise byte-identical results at any worker
    count. *)

type value =
  | Int of int
  | Num of float
  | Str of string

val value_key : value -> string
(** Canonical rendering used for cell keys, clause matching and table
    cells ([Int 3] and [Num 3.] render differently; floats use ["%g"]). *)

type binding = {
  axis : string;
  value : value;
  vspan : Sexp.span;  (** where the value literal sits in the spec *)
}

type oracle =
  | Decide  (** all honest nodes decide; agreement + validity hold *)
  | Agree  (** safety only: agreement + validity among deciders *)
  | Deliver_all  (** RBC totality: every honest node delivers, equally *)
  | Live_within of int  (** {!Decide} within a virtual-time budget *)
  | Expect_fail
      (** beyond-resilience cell: at least one seed must {e miss}
          {!Decide} — the configured violation has to materialize *)
  | Any  (** measure only; no expectation *)

val oracle_label : oracle -> string

type tier = Quick | Full

val tier_label : tier -> string

type cell = { bindings : binding list; oracle : oracle }

val find : cell -> string -> value option

val find_int : cell -> string -> default:int -> int

val find_num : cell -> string -> default:float -> float

val find_str : cell -> string -> default:string -> string

val cell_key : cell -> (string * string) list
(** Axis-name/value pairs in axis order — the identity a cell keeps
    across runs, used by [abc-bench diff] to match cells. *)

type t

val id : t -> string

val title : t -> string

val tier : t -> tier

val file : t -> string

val axes : t -> string list
(** Axis names in declaration order (zip arms flattened in place). *)

val of_string : file:string -> string -> (t, Sexp.error) result
(** Parse and elaborate one spec.  Errors carry the span of the
    offending token; the values of the token axes ([protocol],
    [adversary], [fault], [topology], [inputs], [crash]) must decode in
    the {!Registry}. *)

val load : string -> (t, Sexp.error) result
(** [of_string] over a file's contents. *)

val expand : t -> cell list
(** The cross product of the axis groups in declaration order (first
    group slowest), zip groups advancing their arms together, each cell
    annotated with the first matching [expect] clause (else the
    default).  Deterministic and order-stable. *)

val cell_count : t -> int
