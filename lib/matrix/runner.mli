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
  scenario : Registry.scenario;  (** the cell's bindings, decoded by {!Registry.of_tokens} *)
  pass : bool;  (** the cell's expected verdict held on every seed *)
  metrics : cell_metrics;
  outcomes : Registry.outcome list;  (** one per seed, in seed order *)
}

type t = { spec : Spec.t; cells : cell_result list }

val scenarios : Spec.t -> ((Spec.cell * Registry.scenario) list, Sexp.error) result
(** Every cell in expansion order with its scenario: its bindings but
    [seeds] and [seed] decoded by {!Registry.of_tokens} and checked by
    {!Registry.check}, its [seeds] for at least 1, and its [f] within
    its protocol's {!Registry.resilience} class at its [n] unless the
    cell expects [expect-fail]; the first error at the offending
    binding's span.  A cell runs [seeds] seeds (default 10) from
    [seed] (default 0). *)

val check : Spec.t -> (unit, Sexp.error) result
(** {!scenarios}, discarding the cells. *)

val satisfies : Spec.oracle -> Registry.outcome -> bool
(** Whether one seed's outcome meets an oracle: [decide] and
    [expect-fail] (what it must miss) ask {!Registry.decides}; [agree]
    agreement and validity; [deliver-all] delivery at every honest node
    with agreement, validity and totality; [any] nothing. *)

val run_seed : Registry.scenario -> seed:int -> Registry.outcome
(** One seed of a checked scenario; a run the registry or the protocol
    rejects is {!Registry.failed}, which an [expect-fail] cell counts
    as its miss. *)

val run : ?clock:(unit -> float) -> pool:Abc_exec.Pool.t -> Spec.t -> t
(** Expand the spec and run every cell's seed sweep, its [seeds] axis,
    on the pool.  Raises [Invalid_argument] when {!check} fails. *)

val passed : t -> bool
(** Every cell's expected verdict held. *)

val failures : t -> cell_result list

val replay : cell_result -> (string * string) list option
(** The first seed whose outcome misses the cell's oracle, as the
    cell's {!Registry.to_tokens} and [seed=K seeds=1]: the axes of a
    one-cell spec that runs that seed alone.  [None] when every seed
    meets it, as in an [expect-fail] cell whose every seed decided. *)

val table : t -> Abc_sim.Table.t
(** One row per cell: the axis values, the expected verdict, the
    observed verdict and the aggregate metrics, with the p95 and the
    maximum of the rounds over every seed beside their mean.  The table
    id is the spec id. *)

val matrix_schema_version : int
(** Version stamped into (and accepted from) [abc.bench.matrix]
    documents. *)

val to_json : seeds_scale:float -> t -> Abc_sim.Json.t
(** The [abc.bench.matrix] result set (schema documented in
    OBSERVABILITY.md): spec identity, axis list, one object per cell
    keyed by its axis values, and run metadata: [seeds_scale] as given,
    [1.] from [abc-bench], whose runs take each spec's own seed counts.
    Deliberately excludes
    the worker count: the export is byte-identical at any [--jobs]. *)
