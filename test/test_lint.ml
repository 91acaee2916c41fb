(* Tests for the static-analysis pass (abc_lint) and the Quorum module.

   Each rule family gets a passing and a violating fixture, fed to the
   analyzer as inline sources with a synthetic path (the rules are
   path-scoped).  Fixtures route through Driver.check_source, i.e. the
   parsetree layer (Frontend + Ast_rules) with severities stamped —
   exactly what a real scan does per file; one fixture deliberately
   fails to parse to pin the token-layer fallback.  The JSON report is
   checked byte-for-byte against test/golden/lint_report.json.

   The Quorum tests check every named threshold against an independent
   reference — including the inline arithmetic the protocol modules
   used before centralization — over representative (n, f) pairs
   including the n = 3f + 1 resilience boundary. *)

module Rules = Abc_analysis.Rules
module Finding = Abc_analysis.Finding
module Allow = Abc_analysis.Allow
module Driver = Abc_analysis.Driver
module Frontend = Abc_analysis.Frontend
module Rule_info = Abc_analysis.Rule_info
module Quorum = Abc.Quorum

let rules_of findings = List.map (fun f -> f.Finding.rule) findings

let check_rules name expected ~path src =
  Alcotest.(check (list string))
    name expected
    (rules_of (Driver.check_source ~path src))

(* ---- rule 1: determinism ---- *)

let test_determinism_violations () =
  check_rules "wall clock and Random flagged"
    [ "determinism"; "determinism"; "determinism" ]
    ~path:"lib/sim/latency.ml"
    "let jitter () = Random.int 10\n\
     let now () = Unix.gettimeofday ()\n\
     let cpu () = Sys.time ()\n"

let test_determinism_passing () =
  (* lib/prng is the one place allowed to touch entropy primitives. *)
  check_rules "lib/prng exempt" [] ~path:"lib/prng/stream.ml"
    "let reseed () = Random.int 10\n";
  check_rules "seeded stream is fine" [] ~path:"lib/sim/latency.ml"
    "let draw s = Abc_prng.Stream.int s 10\n";
  (* Sys/Unix calls outside the banned set stay quiet. *)
  check_rules "Sys.readdir is fine" [] ~path:"bin/tool.ml"
    "let ls d = Sys.readdir d\n";
  (* The parsetree layer sees no identifiers inside string literals or
     comments — the token layer's classic false positive. *)
  check_rules "strings and comments invisible" [] ~path:"lib/sim/doc.ml"
    "(* Random.int would be bad here *)\n\
     let hint = \"uses Unix.gettimeofday\"\n"

(* ---- rule 2: polymorphic comparison ---- *)

let test_poly_compare_violations () =
  check_rules "structural = on node ids" [ "poly-compare" ]
    ~path:"lib/net/route.ml"
    "type t = { src : Node_id.t; dst : Node_id.t }\n\
     let same m = m.src = m.dst\n";
  check_rules "bare compare" [ "poly-compare" ] ~path:"lib/net/route.ml"
    "let sort xs = List.sort compare xs\n";
  check_rules "compare alias" [ "poly-compare" ] ~path:"lib/net/route.ml"
    "type t = int * int\nlet compare = compare\n";
  check_rules "Stdlib.compare" [ "poly-compare" ] ~path:"lib/net/route.ml"
    "let cmp = Stdlib.compare\n";
  (* A top-level polymorphic table over ids trips both rules: the
     hashing is structural AND the state is process-global. *)
  check_rules "polymorphic Hashtbl over ids"
    [ "mutable-global"; "poly-compare" ] ~path:"lib/net/route.ml"
    "let tbl : (Node_id.t, int) Hashtbl.t = Hashtbl.create 16\n"

let test_poly_compare_passing () =
  (* Qualified record construction is a binder, not a comparison. *)
  check_rules "record field" [] ~path:"lib/net/route.ml"
    "let ctx i = { Protocol.Context.me = Node_id.of_int i; rng = None }\n";
  (* Punned labelled parameters in definitions. *)
  check_rules "labelled params" [] ~path:"lib/net/route.ml"
    "let origin_of (id : Node_id.t) = id\n\
     let create ~n ~f ~sender = (n, f, sender)\n";
  (* A unit that defines its own compare may use it bare afterwards. *)
  check_rules "own compare" [] ~path:"lib/net/route.ml"
    "let compare a b = Int.compare a b\n\
     let max x y = if compare x y >= 0 then x else y\n";
  (* The dedicated equality is exactly what the rule asks for. *)
  check_rules "Node_id.equal" [] ~path:"lib/net/route.ml"
    "let same src dst = Node_id.equal src dst\n";
  (* Without an abstract id type in scope, =/Hashtbl stay quiet (the
     table is function-local so mutable-global stays quiet too). *)
  check_rules "no Node_id in scope" [] ~path:"lib/sim/counter.ml"
    "let tbl () = Hashtbl.create 16\nlet hit src dst = src = dst\n";
  (* Comparing the *results* of a projection function is int compare,
     not id compare — the token layer used to flag this. *)
  check_rules "projection results fine" [] ~path:"lib/net/route.ml"
    "type t = { src : Node_id.t; dst : Node_id.t }\n\
     let half x = Node_id.to_int x mod 2\n\
     let split m = half m.src <> half m.dst\n"

(* ---- rule 3: quorum arithmetic ---- *)

let test_quorum_violations () =
  (* [2 * f] and [f + 1] both match, but findings collapse to one per
     (rule, line) so the report stays readable. *)
  check_rules "2f+1 inline" [ "quorum" ] ~path:"lib/core/proto.ml"
    "let deliver ~f count = count >= 2 * f + 1\n";
  check_rules "separate lines, separate findings" [ "quorum"; "quorum" ]
    ~path:"lib/core/proto.ml"
    "let amplify ~f count = count >= f + 1\n\
     let deliver ~f count = count >= 2 * f + 1\n";
  check_rules "n - f inline" [ "quorum" ] ~path:"lib/core/proto.ml"
    "let quorum ~n ~f = n - f\n";
  check_rules "n / 3 inline" [ "quorum" ] ~path:"lib/core/proto.ml"
    "let max_faults n = n / 3\n";
  (* Threshold parameters read off a state record count too. *)
  check_rules "record fields" [ "quorum" ] ~path:"lib/core/proto.ml"
    "let deliver st count = count >= 2 * st.f + 1\n"

let test_quorum_passing () =
  (* The rule is scoped to protocol modules: simulator code may divide. *)
  check_rules "outside lib/core" [] ~path:"lib/sim/latency.ml"
    "let mid n = n / 2\n";
  (* quorum.ml itself is where the arithmetic lives. *)
  check_rules "quorum.ml exempt" [] ~path:"lib/core/quorum.ml"
    "let ready_deliver ~f = (2 * f) + 1\n";
  (* Named thresholds are the fix (class declared, so the resilience
     rule stays quiet too). *)
  check_rules "named threshold" [] ~path:"lib/core/proto.ml"
    "[@@@abc.resilience \"n>3f\"]\n\
     let deliver state count = count >= Quorum.ready_deliver ~f:state.f\n"

let test_quorum_smr_scope () =
  (* Checkpoint quorum thresholds in the SMR layer must come from the
     named Quorum helpers too: inline 2f+1 stability / f+1 vouch
     counting are flagged exactly as in lib/core... *)
  check_rules "2f+1 inline in lib/smr" [ "quorum" ] ~path:"lib/smr/atomic.ml"
    "let stable ~f votes = votes >= (2 * f) + 1\n";
  check_rules "f+1 vouch inline in lib/smr" [ "quorum" ]
    ~path:"lib/smr/atomic.ml" "let vouched ~f senders = senders >= f + 1\n";
  (* ...and the named helpers are the fix. *)
  check_rules "named checkpoint thresholds pass" [] ~path:"lib/smr/atomic.ml"
    "[@@@abc.resilience \"n>3f\"]\n\
     let stable ~f votes = votes >= Quorum.checkpoint_stable ~f\n\
     let vouched ~f senders = senders >= Quorum.transfer_vouch ~f\n";
  (* checkpoint_stable counts a 2f+1 intersection quorum, which is a
     Bracha-family (n>3f) argument: an n>5f module using it is a
     cross-class misuse. *)
  check_rules "checkpoint_stable cross-class" [ "resilience" ]
    ~path:"lib/smr/atomic.ml"
    "[@@@abc.resilience \"n>5f\"]\n\
     let stable st votes = votes >= Quorum.checkpoint_stable ~f:st.f\n"

(* ---- rule 4: resilience classes ---- *)

let test_resilience_cross_class () =
  (* ir_rbc declares n>5f (registry): a Bracha-family n>3f threshold
     inside it is a cross-class misuse... *)
  check_rules "n>3f threshold in an n>5f module" [ "resilience" ]
    ~path:"lib/core/ir_rbc.ml"
    "let deliver st count = count >= Quorum.ready_deliver ~f:st.f\n";
  (* ...while the same code in a Bracha-family module is exactly right. *)
  check_rules "same threshold fine under n>3f" [] ~path:"lib/core/bracha_rbc.ml"
    "let deliver st count = count >= Quorum.ready_deliver ~f:st.f\n";
  (* The attribute (not the registry) is the primary declaration. *)
  check_rules "attribute declares the class" [ "resilience" ]
    ~path:"lib/core/proto.ml"
    "[@@@abc.resilience \"n>5f\"]\n\
     let deliver st count = count >= Quorum.ready_deliver ~f:st.f\n";
  check_rules "matching attribute passes" [] ~path:"lib/core/proto.ml"
    "[@@@abc.resilience \"n>3f\"]\n\
     let deliver st count = count >= Quorum.ready_deliver ~f:st.f\n";
  (* Dual-mode protocols declare both classes (Ben-Or). *)
  check_rules "dual-class declaration" [] ~path:"lib/core/proto.ml"
    "[@@@abc.resilience \"n>2f n>5f\"]\n\
     let unanimity st = Quorum.decide_unanimity ~f:st.f\n";
  (* The SMR layer is in scope too: an undeclared module using a
     class-specific threshold is flagged there exactly as in core... *)
  check_rules "lib/smr undeclared flagged" [ "resilience" ]
    ~path:"lib/smr/atomic.ml"
    "let deliver st count = count >= Quorum.ready_deliver ~f:st.f\n";
  (* ...and the attribute satisfies it the same way. *)
  check_rules "lib/smr attribute passes" [] ~path:"lib/smr/atomic.ml"
    "[@@@abc.resilience \"n>3f\"]\n\
     let deliver st count = count >= Quorum.ready_deliver ~f:st.f\n"

let test_resilience_ratio_and_undeclared () =
  check_rules "ratio literal vs declared class" [ "resilience" ]
    ~path:"lib/core/proto.ml"
    "[@@@abc.resilience \"n>3f\"]\n\
     let bound n = Quorum.max_faults ~ratio:5 ~n\n";
  check_rules "matching ratio passes" [] ~path:"lib/core/proto.ml"
    "[@@@abc.resilience \"n>3f\"]\n\
     let bound n = Quorum.max_faults ~ratio:3 ~n\n";
  (* Class-specific thresholds in a module with no declaration at all. *)
  check_rules "undeclared module flagged" [ "resilience" ]
    ~path:"lib/core/proto.ml"
    "let deliver st count = count >= Quorum.ready_deliver ~f:st.f\n";
  (* Generic thresholds hold in every class: no declaration needed. *)
  check_rules "generic thresholds exempt" [] ~path:"lib/core/proto.ml"
    "let honest st = Quorum.one_honest ~f:st.f\n\
     let all st = Quorum.completeness ~n:st.n ~f:st.f\n";
  (* A malformed declaration is itself a finding. *)
  check_rules "unparseable class" [ "resilience" ] ~path:"lib/core/proto.ml"
    "[@@@abc.resilience \"n>=3f\"]\n\
     let x = 1\n"

(* ---- rule 5: mutable-global ---- *)

let test_mutable_global_violations () =
  check_rules "top-level refs and containers flagged"
    [ "mutable-global"; "mutable-global"; "mutable-global" ]
    ~path:"lib/sim/sink.ml"
    "let current = ref None\n\
     let registry = Hashtbl.create 16\n\
     let pending : int Queue.t = Queue.create ()\n";
  check_rules "lib/net in scope" [ "mutable-global" ] ~path:"lib/net/wires.ml"
    "let flips = Atomic.make 0\n"

let test_mutable_global_passing () =
  (* Allocation inside functions is per-call, not process-global. *)
  check_rules "function-local state fine" [] ~path:"lib/sim/metrics.ml"
    "let create () = { counters = Hashtbl.create 16 }\n\
     let fresh () =\n\
     \  let cell = ref 0 in\n\
     \  cell\n";
  (* Nested-module bindings are out of scope for the heuristic. *)
  check_rules "nested let fine" [] ~path:"lib/sim/metrics.ml"
    "module Inner = struct\n  let hidden = ref 0\nend\n";
  (* Other directories keep their idioms. *)
  check_rules "lib/core out of scope" [] ~path:"lib/core/proto.ml"
    "let cache = ref None\n";
  (* Immutable top-level values never trip. *)
  check_rules "plain values fine" [] ~path:"lib/sim/clock.ml"
    "let origin = 0\nlet label = \"tick\"\n"

(* ---- rule 6: pool-capture ---- *)

let test_pool_capture_violations () =
  (* A module-level ref captured (and mutated) inside a Pool.map job
     closure races across worker domains. *)
  let findings =
    Driver.check_source ~path:"lib/check/sweep.ml"
      "let total = ref 0\n\
       let sweep pool xs = Exec.Pool.map pool (fun x -> total := !total + x; x) xs\n"
  in
  Alcotest.(check (list string)) "capture flagged" [ "pool-capture" ]
    (rules_of findings);
  Alcotest.(check bool) "error severity" true
    (List.for_all (fun f -> f.Finding.severity = Finding.Error) findings);
  (* Mutating a shared table from inside a job is the same race even
     when the binding is in another compilation unit's scope chain. *)
  check_rules "shared Hashtbl mutation" [ "pool-capture" ]
    ~path:"lib/check/sweep.ml"
    "let cache = Hashtbl.create 16\n\
     let run pool xs = Exec.Pool.map_list pool (fun x -> Hashtbl.replace cache x x) xs\n";
  (* Unqualified opens of the pool module still match (the path just
     has to mention Pool). *)
  check_rules "Pool.run with captured Buffer" [ "pool-capture" ]
    ~path:"bench/sweep.ml"
    "let out = Buffer.create 64\n\
     let go pool jobs = Pool.run pool (fun j -> Buffer.add_string out j) jobs\n"

let test_pool_capture_passing () =
  (* State allocated inside the job is per-job: no sharing. *)
  check_rules "job-local state fine" [] ~path:"lib/check/sweep.ml"
    "let sweep pool xs =\n\
    \  Exec.Pool.map pool (fun x -> let acc = ref 0 in acc := x; !acc) xs\n";
  (* Module-level mutables are fine outside job closures (sequential
     main-domain code). *)
  check_rules "sequential use fine" [] ~path:"lib/check/sweep.ml"
    "let total = ref 0\nlet bump x = total := !total + x\n";
  (* Reading an immutable module-level value inside a job is fine. *)
  check_rules "immutable capture fine" [] ~path:"lib/check/sweep.ml"
    "let scale = 3\n\
     let sweep pool xs = Exec.Pool.map pool (fun x -> x * scale) xs\n"

(* ---- rule 7: silent-drop ---- *)

let test_silent_drop_violations () =
  check_rules "wildcard arm in on_message" [ "silent-drop" ]
    ~path:"lib/core/proto.ml"
    "let on_message st msg = match msg with Ping -> st | _ -> st\n";
  check_rules "wildcard arm in handle (function)" [ "silent-drop" ]
    ~path:"lib/smr/replica.ml"
    "let handle = function Some x -> x | _ -> 0\n"

let test_silent_drop_passing () =
  (* Guarded wildcards made an explicit decision. *)
  check_rules "guarded wildcard fine" [] ~path:"lib/core/proto.ml"
    "let on_message st msg = match msg with Ping -> st | _ when stale msg -> st\n";
  (* Non-handler functions may use catch-alls freely. *)
  check_rules "non-handler fine" [] ~path:"lib/core/proto.ml"
    "let classify x = match x with 0 -> `Zero | _ -> `Other\n";
  (* The rule is scoped to protocol/SMR code. *)
  check_rules "outside scope fine" [] ~path:"lib/sim/events.ml"
    "let on_message st msg = match msg with Ping -> st | _ -> st\n"

(* ---- rule 8: stray-output ---- *)

let test_stray_output () =
  let findings =
    Driver.check_source ~path:"lib/smr/logger.ml"
      "let dump t = print_endline t\nlet trace x = Printf.printf \"%d\" x\n"
  in
  Alcotest.(check (list string)) "library prints flagged"
    [ "stray-output"; "stray-output" ] (rules_of findings);
  (* ...at warn severity: console output is a smell, not a defect. *)
  Alcotest.(check bool) "warn severity" true
    (List.for_all (fun f -> f.Finding.severity = Finding.Warn) findings);
  check_rules "bin/ may print" [] ~path:"bin/report.ml"
    "let dump t = print_endline t\n";
  check_rules "tests may print" [] ~path:"test/test_foo.ml"
    "let dump t = Format.printf \"%s\" t\n"

(* ---- matrix specs: registry tokens and combinations ---- *)

(* A token the registry cannot decode and a combination it rejects are
   both matrix-parse findings, anchored where abc-bench points. *)
let test_matrix_registry () =
  let spec axes =
    "(matrix\n  (id t)\n  (title \"t\")\n  (axes\n    (protocol bracha)\n    (n 4)\n    (f 1)\n"
    ^ axes ^ "))\n"
  in
  let finding name src ~line ~col =
    match Driver.check_source ~path:"bench/specs/t.matrix" (spec src) with
    | [ f ] ->
      Alcotest.(check string) (name ^ ": rule") "matrix-parse" f.Finding.rule;
      Alcotest.(check (pair int int))
        (name ^ ": span") (line, col)
        (f.Finding.span.Finding.start_line, f.Finding.span.Finding.start_col)
    | fs -> Alcotest.failf "%s: expected one finding, got %d" name (List.length fs)
  in
  finding "typo'd adversary" "    (adversary latncy:8)" ~line:8 ~col:15;
  finding "target beyond n" "    (adversary uniform target:9)" ~line:8 ~col:23;
  Alcotest.(check (list string)) "valid spec" []
    (rules_of (Driver.check_source ~path:"bench/specs/t.matrix" (spec "    (adversary target:3)")))

(* ---- parse-failure fallback ---- *)

let test_token_fallback () =
  let broken = "let now () = Unix.gettimeofday (\n" in
  (match Frontend.parse_impl ~path:"lib/sim/clock.ml" broken with
  | Ok _ -> Alcotest.fail "fixture unexpectedly parses"
  | Error _ -> ());
  (* The token layer still catches the banned call in the unparseable
     unit (with a line-only span). *)
  let findings = Driver.check_source ~path:"lib/sim/clock.ml" broken in
  Alcotest.(check (list string)) "token fallback" [ "determinism" ]
    (rules_of findings);
  List.iter
    (fun f -> Alcotest.(check int) "degenerate span" 0 f.Finding.span.Finding.start_col)
    findings

(* ---- rule metadata ---- *)

let test_rule_info () =
  (* Every rule id produced by the fixtures above is registered (the
     --explain table and the severity stamping both key off this). *)
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true
        (List.mem id Rule_info.ids))
    [
      "determinism"; "poly-compare"; "quorum"; "resilience"; "mutable-global";
      "pool-capture"; "silent-drop"; "stray-output"; "interface";
    ];
  Alcotest.(check bool) "stray-output is the one warn-severity rule" true
    (List.for_all
       (fun (r : Rule_info.t) ->
         r.severity = (if r.id = "stray-output" then Finding.Warn else Finding.Error))
       Rule_info.all)

(* ---- rule 9: interface coverage ---- *)

let test_interface_coverage () =
  Alcotest.(check (list string))
    "missing mli flagged" [ "interface" ]
    (rules_of (Rules.interface_coverage ~files:[ "lib/core/foo.ml" ]));
  Alcotest.(check (list string))
    "present mli passes" []
    (rules_of (Rules.interface_coverage ~files:[ "lib/core/foo.ml"; "lib/core/foo.mli" ]));
  Alcotest.(check (list string))
    "bin/ not required" []
    (rules_of (Rules.interface_coverage ~files:[ "bin/main.ml" ]))

(* ---- allowlist ---- *)

let finding ~rule ~file ~snippet =
  Finding.v ~rule ~file ~span:(Finding.line_span 7) ~snippet "msg"

let test_allowlist () =
  let entries =
    Allow.of_string
      "# comment\n\nquorum ben_or.ml n / 2\npoly-compare adversary.ml\n"
  in
  Alcotest.(check int) "entries parsed" 2 (List.length entries);
  Alcotest.(check bool) "path suffix + snippet" true
    (Allow.permits entries
       (finding ~rule:"quorum" ~file:"lib/core/ben_or.ml" ~snippet:"n / 2"));
  Alcotest.(check bool) "other snippet still fails" false
    (Allow.permits entries
       (finding ~rule:"quorum" ~file:"lib/core/ben_or.ml" ~snippet:"f + 1"));
  Alcotest.(check bool) "other rule still fails" false
    (Allow.permits entries
       (finding ~rule:"determinism" ~file:"lib/core/ben_or.ml" ~snippet:"n / 2"));
  Alcotest.(check bool) "suffix must be a component" false
    (Allow.permits entries
       (finding ~rule:"quorum" ~file:"lib/core/xben_or.ml" ~snippet:"n / 2"));
  Alcotest.(check bool) "snippet-free entry allows the file" true
    (Allow.permits entries
       (finding ~rule:"poly-compare" ~file:"lib/net/adversary.ml" ~snippet:"x = y"))

let test_allowlist_fingerprints () =
  let f = finding ~rule:"quorum" ~file:"lib/core/ben_or.ml" ~snippet:"n / 2" in
  let fp = Finding.fingerprint f in
  let entries =
    Allow.of_string
      (Printf.sprintf
         "quorum ben_or.ml fp:%s  n / 2 -- equivocate_by_half attack shape\n"
         fp)
  in
  Alcotest.(check bool) "fingerprint entry matches" true
    (Allow.permits entries f);
  Alcotest.(check bool) "trailing comment ignored" true
    (match entries with
    | [ { Allow.key = Allow.Fingerprint p; _ } ] -> String.equal p fp
    | _ -> false);
  Alcotest.(check bool) "other snippet has another fingerprint" false
    (Allow.permits entries
       (finding ~rule:"quorum" ~file:"lib/core/ben_or.ml" ~snippet:"f + 1"));
  (* The fingerprint hashes the basename, so it survives root changes
     but still distinguishes files. *)
  Alcotest.(check bool) "same basename under another root" true
    (Allow.permits entries
       (finding ~rule:"quorum" ~file:"src/core/ben_or.ml" ~snippet:"n / 2"));
  Alcotest.(check bool) "different basename fails" false
    (Allow.permits entries
       (finding ~rule:"quorum" ~file:"lib/core/mmr.ml" ~snippet:"n / 2"))

let test_allowlist_unused () =
  let live = finding ~rule:"quorum" ~file:"lib/core/ben_or.ml" ~snippet:"n / 2" in
  let entries =
    Allow.of_string
      "quorum ben_or.ml n / 2\ndeterminism clock.ml Unix.gettimeofday\n"
  in
  match Allow.unused entries [ live ] with
  | [ stale ] ->
    Alcotest.(check string) "stale entry reported"
      "determinism clock.ml Unix.gettimeofday" stale.Allow.raw
  | other ->
    Alcotest.failf "expected exactly one stale entry, got %d" (List.length other)

(* ---- end-to-end: a seeded violation makes the driver report (and the
   CLI exit non-zero); the allowlist silences exactly it ---- *)

(* Under the system temp dir so a non-sandboxed run can't litter the
   repository (the quorum rule only needs the path to contain
   lib/core/). *)
let fixture_root =
  Filename.concat (Filename.get_temp_dir_name ()) "abc_lint_fixture"

let write_fixture path contents =
  let rec mkdirs dir =
    if not (Sys.file_exists dir) then begin
      mkdirs (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdirs (Filename.dirname path);
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_driver_seeded_violation () =
  let file = fixture_root ^ "/lib/core/seeded.ml" in
  write_fixture file "let deliver ~f count = count >= 2 * f + 1\n";
  write_fixture (file ^ "i") "val deliver : f:int -> int -> bool\n";
  let report = Driver.run ~allow:[] ~roots:[ fixture_root ] () in
  Alcotest.(check bool)
    "seeded violation found" true
    (List.length report.Driver.findings > 0);
  (* The CLI maps error-severity findings to exit code 1. *)
  List.iter
    (fun f ->
      Alcotest.(check string) "rule" "quorum" f.Finding.rule;
      Alcotest.(check string) "file" file f.Finding.file;
      Alcotest.(check bool) "error severity" true
        (f.Finding.severity = Finding.Error))
    report.Driver.findings;
  (* Findings collapse to one per (rule, line); a snippet-free entry for
     the file silences it. *)
  let allow = Allow.of_string "quorum seeded.ml\n" in
  let silenced = Driver.run ~allow ~roots:[ fixture_root ] () in
  Alcotest.(check int) "allowlisted run is clean" 0
    (List.length silenced.Driver.findings);
  Alcotest.(check int) "exceptions counted" 1 silenced.Driver.allowed;
  (* --rules / --skip-rules select by id. *)
  let only = Driver.run ~only:(Some [ "determinism" ]) ~allow:[] ~roots:[ fixture_root ] () in
  Alcotest.(check int) "rule selection excludes" 0 (List.length only.Driver.findings);
  let skipped = Driver.run ~skip:[ "quorum" ] ~allow:[] ~roots:[ fixture_root ] () in
  Alcotest.(check int) "rule skipping excludes" 0 (List.length skipped.Driver.findings)

(* ---- JSON report: deterministic, golden-checked ---- *)

(* Fixed fixtures exercising three rule families (one warn-severity);
   the report they produce must match test/golden/lint_report.json byte
   for byte, and rendering twice must be identical. *)
let json_fixtures =
  [
    ( "lib/core/ir_rbc.ml",
      "let deliver st count = count >= Quorum.ready_deliver ~f:st.f\n" );
    ( "lib/check/sweep.ml",
      "let total = ref 0\n\
       let sweep pool xs = Exec.Pool.map pool (fun x -> total := !total + x; x) xs\n"
    );
    ("lib/smr/logger.ml", "let dump t = print_endline t\n");
  ]

let json_report () =
  let findings =
    List.concat_map
      (fun (path, src) -> Driver.check_source ~path src)
      json_fixtures
  in
  Driver.make_report ~allow:[] ~files:(List.length json_fixtures) findings

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let test_json_golden () =
  let first = Driver.json_of_report (json_report ()) in
  let second = Driver.json_of_report (json_report ()) in
  Alcotest.(check string) "byte-identical across runs" first second;
  (* Leave the rendered report under the temp fixture root for
     inspection when the golden diff is hard to read. *)
  write_fixture
    (Filename.concat fixture_root "lint_report.actual.json")
    first;
  let golden = read_file "golden/lint_report.json" in
  Alcotest.(check string) "matches golden" golden first

(* ---- Quorum: named thresholds vs the old inline arithmetic ---- *)

(* Representative (n, f) pairs; the first five sit exactly on the
   n = 3f + 1 resilience boundary. *)
let boundary = [ (4, 1); (7, 2); (10, 3); (13, 4); (16, 5) ]

let slack = [ (5, 1); (8, 2); (12, 3); (20, 6); (3, 0) ]

let reps = boundary @ slack

let for_reps check = List.iter (fun (n, f) -> check ~n ~f) reps

let test_quorum_echo () =
  (* Echo quorum: the smallest q such that two q-sets of n nodes
     intersect in at least f + 1 nodes (so >= 1 honest node). *)
  for_reps (fun ~n ~f ->
      let q = Quorum.echo_quorum ~n ~f in
      let ctx = Printf.sprintf "n=%d f=%d" n f in
      Alcotest.(check bool) (ctx ^ " intersection") true ((2 * q) - n >= f + 1);
      Alcotest.(check bool) (ctx ^ " minimal") true ((2 * (q - 1)) - n < f + 1);
      (* and the exact inline expression rbc_core used before. *)
      Alcotest.(check int) (ctx ^ " inline") ((n + f + 2) / 2) q)

let test_quorum_inline_equivalence () =
  for_reps (fun ~n ~f ->
      let ctx = Printf.sprintf "n=%d f=%d " n f in
      Alcotest.(check int) (ctx ^ "ready amplify") (f + 1) (Quorum.ready_amplify ~f);
      Alcotest.(check int) (ctx ^ "ready deliver") ((2 * f) + 1) (Quorum.ready_deliver ~f);
      Alcotest.(check int) (ctx ^ "one honest") (f + 1) (Quorum.one_honest ~f);
      Alcotest.(check int) (ctx ^ "coin reveal") (f + 1) (Quorum.coin_reveal ~f);
      Alcotest.(check int) (ctx ^ "completeness") (n - f) (Quorum.completeness ~n ~f);
      Alcotest.(check int) (ctx ^ "adopt") (f + 1) (Quorum.adopt_support ~f);
      Alcotest.(check int) (ctx ^ "decide") ((2 * f) + 1) (Quorum.decide_support ~f);
      Alcotest.(check int) (ctx ^ "unanimity") ((3 * f) + 1) (Quorum.decide_unanimity ~f);
      Alcotest.(check int) (ctx ^ "crash decide") (f + 1) (Quorum.crash_decide ~f);
      Alcotest.(check int) (ctx ^ "honest support")
        (n - (2 * f))
        (Quorum.honest_support ~n ~f))

let test_quorum_boundary () =
  (* At n = 3f + 1 exactly: resilience holds, one more fault breaks it,
     and the unanimity threshold needs every node. *)
  List.iter
    (fun (n, f) ->
      Quorum.assert_resilience ~n ~f;
      Alcotest.(check int)
        (Printf.sprintf "max_faults n=%d" n)
        f
        (Quorum.max_faults ~ratio:3 ~n);
      Alcotest.(check int)
        (Printf.sprintf "unanimity=n at boundary n=%d" n)
        n
        (Quorum.decide_unanimity ~f);
      let broken = try Quorum.assert_resilience ~n ~f:(f + 1); false with Invalid_argument _ -> true in
      Alcotest.(check bool) (Printf.sprintf "f+1 rejected n=%d" n) true broken)
    boundary;
  let negative = try Quorum.assert_resilience ~n:4 ~f:(-1); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative f rejected" true negative;
  (* Other ratios: Ben-Or byzantine (5f), crash (2f), coin dealer (f). *)
  Quorum.assert_resilience_at ~ratio:5 ~n:16 ~f:3;
  let past = try Quorum.assert_resilience_at ~ratio:5 ~n:16 ~f:4; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "ben-or byz bound" true past;
  Quorum.assert_resilience_at ~ratio:2 ~n:16 ~f:5;
  Quorum.assert_resilience_at ~ratio:1 ~n:4 ~f:3

let test_quorum_majorities () =
  (* strict_majority q is the smallest count with 2 * count > q — the
     strict comparison the consensus cores previously inlined. *)
  for_reps (fun ~n ~f ->
      let q = Quorum.completeness ~n ~f in
      for count = 0 to n do
        let ctx = Printf.sprintf "n=%d f=%d count=%d" n f count in
        Alcotest.(check bool) (ctx ^ " strict majority") ((2 * count) > q)
          (count >= Quorum.strict_majority q);
        Alcotest.(check bool) (ctx ^ " faulty majority")
          ((2 * count) > n + f)
          (count >= Quorum.faulty_majority ~n ~f);
        Alcotest.(check bool) (ctx ^ " majority possible")
          ((2 * count) >= q)
          (count >= Quorum.majority_possible ~q)
      done)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism: violations" `Quick test_determinism_violations;
          Alcotest.test_case "determinism: passing" `Quick test_determinism_passing;
          Alcotest.test_case "poly-compare: violations" `Quick test_poly_compare_violations;
          Alcotest.test_case "poly-compare: passing" `Quick test_poly_compare_passing;
          Alcotest.test_case "quorum: violations" `Quick test_quorum_violations;
          Alcotest.test_case "quorum: passing" `Quick test_quorum_passing;
          Alcotest.test_case "quorum: smr scope" `Quick test_quorum_smr_scope;
          Alcotest.test_case "resilience: cross-class" `Quick test_resilience_cross_class;
          Alcotest.test_case "resilience: ratio + undeclared" `Quick
            test_resilience_ratio_and_undeclared;
          Alcotest.test_case "mutable-global: violations" `Quick
            test_mutable_global_violations;
          Alcotest.test_case "mutable-global: passing" `Quick
            test_mutable_global_passing;
          Alcotest.test_case "pool-capture: violations" `Quick
            test_pool_capture_violations;
          Alcotest.test_case "pool-capture: passing" `Quick
            test_pool_capture_passing;
          Alcotest.test_case "silent-drop: violations" `Quick
            test_silent_drop_violations;
          Alcotest.test_case "silent-drop: passing" `Quick test_silent_drop_passing;
          Alcotest.test_case "stray-output" `Quick test_stray_output;
          Alcotest.test_case "matrix: registry tokens" `Quick test_matrix_registry;
          Alcotest.test_case "token fallback" `Quick test_token_fallback;
          Alcotest.test_case "rule metadata" `Quick test_rule_info;
          Alcotest.test_case "interface coverage" `Quick test_interface_coverage;
        ] );
      ( "driver",
        [
          Alcotest.test_case "allowlist" `Quick test_allowlist;
          Alcotest.test_case "allowlist fingerprints" `Quick
            test_allowlist_fingerprints;
          Alcotest.test_case "allowlist pruning" `Quick test_allowlist_unused;
          Alcotest.test_case "seeded violation" `Quick test_driver_seeded_violation;
          Alcotest.test_case "json golden" `Quick test_json_golden;
        ] );
      ( "quorum",
        [
          Alcotest.test_case "echo quorum" `Quick test_quorum_echo;
          Alcotest.test_case "inline equivalence" `Quick test_quorum_inline_equivalence;
          Alcotest.test_case "resilience boundary" `Quick test_quorum_boundary;
          Alcotest.test_case "majorities" `Quick test_quorum_majorities;
        ] );
    ]
