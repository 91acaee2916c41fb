(** Lint rules for [.matrix] scenario specs (see [lib/matrix]).

    Two rules, mirroring the parsetree checks on protocol modules:

    - [matrix-parse]: the spec must parse and elaborate, and every
      cell must pass {!Abc_matrix.Runner.check} (tokens the registry
      knows, node ids below [n], faults the protocol has).  A committed
      spec that fails to load breaks [abc-bench run] and the bench-gate
      CI job; the linter surfaces the same [file:line:col:] diagnostic
      at review time.
    - [matrix-resilience]: every expanded cell's [n]/[f] literals are
      cross-checked against the protocol's declared resilience class
      (the {!Abc_matrix.Registry.resilience} registry, the spec-level twin
      of the [\[@@@abc.resilience\]] attribute rule).  A beyond-bound
      cell must be annotated [expect-fail]; otherwise the runner would
      count the protocol's own rejection as a verdict miss.  Findings
      anchor at the offending [f] value literal. *)

val check : path:string -> string -> Finding.t list
(** Findings for one [.matrix] source, unstamped (the driver applies
    {!Rule_info.stamp}). *)
