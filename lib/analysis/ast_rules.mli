(** Parsetree (semantic) rule families.

    These rules run on the compiler parsetree produced by {!Frontend}
    and can therefore see scopes, closures, attributes and expression
    structure:

    - {b determinism}, {b poly-compare}, {b quorum},
      {b mutable-global} — span-accurate, with no line-shape
      heuristics (string literals and comments are invisible, record
      punning and binder contexts are structural).
    - {b resilience} — protocol modules in [lib/core] declare their
      resilience class with a floating attribute
      ([\[@@@abc.resilience "n>3f"\]]; space-separated list for
      dual-mode protocols, e.g. Ben-Or's ["n>2f n>5f"]); every
      [Quorum.*] use is checked against the declared class.  Bracha-family thresholds ([echo_quorum],
      [ready_amplify], [ready_deliver], [decide_support],
      [assert_resilience]) require [n > 3f]; [honest_support] requires
      at least [n > 3f] (stated for 3/4/5); [decide_unanimity] and
      [faulty_majority] are Ben-Or's; [max_faults] /
      [assert_resilience_at] must pass a [~ratio] matching the
      declaration.  Generic counting thresholds ([completeness],
      [one_honest], majorities) pass in every class.
    - {b pool-capture} — at every [Exec.Pool.map] / [map_list] /
      [run] call site, each literal job closure is analyzed: capturing
      a module-level mutable binding ([ref], [Hashtbl.t], [Queue.t],
      [Buffer.t], [Stack.t], [Atomic.t]), or applying a mutation
      ([:=], [incr], [Hashtbl.replace], [Buffer.add_*], ...) to a name
      the closure does not bind itself, is flagged.  This is the
      static complement of the jobs-1-vs-4 determinism tests.
    - {b silent-drop} — an unguarded wildcard ([_ -> ...]) arm in a
      [match]/[function] inside a protocol handler ([on_message],
      [on_timeout], [handle]) under [lib/core]/[lib/smr] is flagged:
      dropped messages undermine the totality battery.
    - {b stray-output} — [print_*], [Printf.printf], [prerr_*],
      [Format.printf], [Fmt.pr] outside [bin/], [bench/], [test/] and
      [examples/] are flagged; library observability flows through
      [Event]/[Trace]/[Metrics].

    Each rule is path-scoped ({!Rule_info.all}) and supports reviewed
    exceptions via [lint.allow] (see {!Allow}). *)

val check : path:string -> source:string -> Parsetree.structure -> Finding.t list
(** Apply every parsetree rule in scope for [path].  Findings are
    sorted and deduplicated per (file, line, rule); severities are
    stamped by the driver. *)

val parse_class : string -> int option
(** ["n>3f"] (spaces tolerated) to [Some 3]; exposed for tests. *)
