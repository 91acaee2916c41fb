(** Execute an expanded scenario matrix on the domain pool.

    Each (cell, seed) pair is one independent pool job; results are
    merged by job index, so every aggregate below — and hence the
    rendered table and the [BENCH_MATRIX_*.json] export — is
    byte-identical at any worker count.  The only non-deterministic
    field is the advisory wall-clock, and only when a [clock] is
    supplied; with [clock] absent every wall field is exactly [0.]
    (what the CI determinism diff runs with).

    Every cell becomes a {!Registry.scenario}, and the registry is the
    only code that turns a scenario into a run: this module translates
    cells ({!check}ed before any runs), fans seeds out and aggregates. *)

type cell_metrics = {
  ok_rate : float;  (** fraction of seeds satisfying {!Spec.Decide} *)
  rounds : float;  (** mean slowest-honest decision round *)
  messages : float;  (** mean point-to-point messages per run *)
  bytes : float;  (** mean wire bytes per run ([bytes.sent]) *)
  ticks : float;  (** mean virtual duration per run *)
  committed : float;  (** mean committed transactions (atomic only) *)
  wall_s : float;  (** summed wall-clock over the cell's runs; advisory *)
}

type cell_result = {
  cell : Spec.cell;
  pass : bool;  (** the cell's expected verdict held on every seed *)
  metrics : cell_metrics;
}

type t = { spec : Spec.t; cells : cell_result list }

val check : Spec.t -> (unit, Sexp.error) result
(** Every cell checked against the registry ({!Registry.check}), the
    error at the offending binding's span. *)

val run :
  ?clock:(unit -> float) ->
  ?seeds_scale:float ->
  pool:Abc_exec.Pool.t ->
  Spec.t ->
  t
(** Expand the spec and run every cell's seed sweep on the pool.
    [seeds_scale] multiplies each cell's [seeds] axis (floored at 1);
    the quick tier in CI uses the spec's own counts, scale [1.].
    Raises [Invalid_argument] when {!check} fails. *)

val passed : t -> bool
(** Every cell's expected verdict held. *)

val failures : t -> cell_result list

val table : t -> Abc_sim.Table.t
(** One row per cell: the axis values, the expected verdict, the
    observed verdict and the aggregate metrics.  The table id is the
    spec id. *)

val matrix_schema_version : int
(** Version stamped into (and accepted from) [abc.bench.matrix]
    documents. *)

val to_json : seeds_scale:float -> t -> Abc_sim.Json.t
(** The [abc.bench.matrix] result set (schema documented in
    OBSERVABILITY.md): spec identity, axis list, one object per cell
    keyed by its axis values, and run metadata.  Deliberately excludes
    the worker count: the export is byte-identical at any [--jobs]. *)
