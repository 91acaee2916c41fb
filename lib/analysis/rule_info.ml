type t = {
  id : string;
  severity : Finding.severity;
  scope : string;
  rationale : string;
  example : string;
}

let all =
  [
    {
      id = "determinism";
      severity = Finding.Error;
      scope = "everywhere except lib/prng/";
      rationale =
        "Protocol control flow must be a pure function of the seeded \
         Abc_prng streams: the simulator's replayability, the model checker \
         in lib/check and the jobs-1-vs-4 determinism battery are only \
         sound if no code path reads Stdlib.Random, wall-clock time or \
         Unix timers. Draw randomness from a seeded stream and time from \
         the virtual Abc_sim.Clock.";
      example = "let jitter () = Random.int 10";
    };
    {
      id = "poly-compare";
      severity = Finding.Error;
      scope = "everywhere";
      rationale =
        "Polymorphic compare/hashing walks structure, so it silently \
         changes meaning when a type gains a field and breaks on abstract \
         ids whose representation is richer than their identity. Use \
         concrete compares (Int.compare, Node_id.compare) and keyed \
         structures (Hashtbl.Make, Map) so equality is always the type's \
         own.";
      example = "let same m = m.src = m.dst";
    };
    {
      id = "quorum";
      severity = Finding.Error;
      scope = "lib/core/ except quorum.ml";
      rationale =
        "Every threshold in a Byzantine protocol carries an intersection \
         argument; raw f + 1 / 2 * f + 1 / n - f arithmetic scattered \
         through protocol modules is how off-by-one safety bugs happen. \
         All thresholds must flow through the named, documented functions \
         in Quorum.";
      example = "let deliver ~f count = count >= 2 * f + 1";
    };
    {
      id = "resilience";
      severity = Finding.Error;
      scope = "lib/core/ except quorum.ml, and lib/smr/";
      rationale =
        "Each protocol module declares its resilience class (n > 3f for \
         the Bracha family, n > 5f for Imbs-Raynal, ...) with an \
         [@@@abc.resilience \"n>3f\"] attribute or the built-in registry; \
         every Quorum.* use is checked against it. An n>5f protocol \
         calling an n>3f-family threshold (or asserting the wrong ratio) \
         imports an intersection argument that does not hold under its \
         assumption.";
      example = "[@@@abc.resilience \"n>5f\"] ... Quorum.ready_deliver ~f";
    };
    {
      id = "mutable-global";
      severity = Finding.Error;
      scope = "lib/sim/, lib/net/, lib/exec/";
      rationale =
        "Exec.Pool jobs run engines concurrently across domains, so \
         module-level mutable containers (ref, Hashtbl.t, Queue.t, \
         Buffer.t, Stack.t, Atomic.t) in the engine libraries are shared \
         across domains without synchronization. Allocate run state per \
         run and pass it through config/context; reviewed main-domain-only \
         survivors live in lint.allow.";
      example = "let registry = Hashtbl.create 16";
    };
    {
      id = "pool-capture";
      severity = Finding.Error;
      scope = "everywhere";
      rationale =
        "The static complement of the jobs-1-vs-4 determinism tests: an \
         Exec.Pool job closure that captures a module-level mutable \
         binding, or assigns (:=, Hashtbl.replace, Buffer.add_*, ...) to \
         a name it does not bind itself, races across worker domains and \
         breaks the deterministic index-ordered merge contract. Jobs must \
         build every piece of mutable state they touch.";
      example = "let hits = ref 0 ... Pool.map pool n (fun i -> incr hits; i)";
    };
    {
      id = "silent-drop";
      severity = Finding.Error;
      scope = "lib/core/, lib/smr/";
      rationale =
        "An unguarded wildcard arm in a match inside a protocol handler \
         (on_message / on_timeout / handle) silently drops message \
         constructors added later — exactly the bug class the totality \
         battery exists to catch, except the compiler's exhaustiveness \
         check has been opted out of. Match every constructor explicitly, \
         or allowlist the arm with a reviewed reason.";
      example = "let on_message ctx state ~src = function Init v -> ... | _ -> state";
    };
    {
      id = "stray-output";
      severity = Finding.Warn;
      scope = "everywhere except bin/, bench/, test/, examples/";
      rationale =
        "All library observability flows through the typed Event / Trace / \
         Metrics pipeline so runs are machine-readable and byte-stable \
         under Exec.Pool. Direct printing (print_*, Printf.printf, \
         prerr_*, Format.printf, Fmt.pr) from library code bypasses the \
         trace schema and interleaves nondeterministically across \
         domains.";
      example = "let debug x = Printf.printf \"x=%d\\n\" x";
    };
    {
      id = "matrix-parse";
      severity = Finding.Error;
      scope = "*.matrix files under the scan roots";
      rationale =
        "A committed scenario spec that fails to parse or elaborate \
         breaks abc-bench run and the bench-gate CI job only at run \
         time; the linter loads every .matrix file through the same \
         Abc_matrix.Spec reader and registry check and reports the \
         error at the offending token, review-time.";
      example = "(axes (n 4) (n 7))  ; duplicate axis";
    };
    {
      id = "matrix-resilience";
      severity = Finding.Error;
      scope = "*.matrix files under the scan roots";
      rationale =
        "The spec-level twin of the resilience rule: every expanded \
         cell's n/f literals are checked against the protocol's \
         resilience class in the protocol registry (n > 3f for the \
         Bracha family, n > 5f for Ben-Or and Imbs-Raynal). \
         A beyond-bound cell must carry an expect-fail oracle — \
         otherwise the protocol's own init-time rejection would be \
         scored as a verdict miss, or worse, quietly measured.";
      example = "(zip (n 4) (f 2)) with (default deliver-all)";
    };
    {
      id = "interface";
      severity = Finding.Error;
      scope = "lib/";
      rationale =
        "Every module under lib/ carries a .mli so the public surface — \
         and the threshold documentation that lives on it — stays \
         explicit and reviewed.";
      example = "lib/core/foo.ml without lib/core/foo.mli";
    };
  ]

let find id = List.find_opt (fun r -> String.equal r.id id) all

let severity_of id =
  match find id with Some r -> r.severity | None -> Finding.Error

let stamp (f : Finding.t) = { f with Finding.severity = severity_of f.Finding.rule }

let ids = List.map (fun r -> r.id) all
