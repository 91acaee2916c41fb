(* Tests for the scenario-matrix DSL (lib/matrix).

   Three batteries:

   - parsing: negative fixtures asserting the exact error span
     (file:line:col) and message — the reader's one job beyond parsing
     is pointing at the offending token;
   - expansion: cross/zip cell counts and row-major order, a qcheck
     property that expansion is a pure, stable function of the spec
     text, and oracle selection at the n = 3f + 1 resilience boundary;
   - runner: jobs=1 vs jobs=4 produce byte-identical BENCH_MATRIX
     JSON (no clock, so wall fields are exactly 0), and an expect-fail
     cell beyond the resilience bound passes exactly because the
     protocol refuses the configuration. *)

module Sexp = Abc_matrix.Sexp
module Spec = Abc_matrix.Spec
module Runner = Abc_matrix.Runner
module Registry = Abc_matrix.Registry
module Pool = Abc_exec.Pool
module Json = Abc_sim.Json

let spec_of_string text =
  match Spec.of_string ~file:"test.matrix" text with
  | Ok s -> s
  | Error e -> Alcotest.failf "spec rejected: %s" (Sexp.error_to_string e)

let spec_error text =
  match Spec.of_string ~file:"test.matrix" text with
  | Ok _ -> Alcotest.fail "spec unexpectedly accepted"
  | Error e -> e

(* A minimal valid spec used as the base for mutations. *)
let base_spec ~axes ~expect =
  Printf.sprintf
    "(matrix\n\
    \  (id t)\n\
    \  (title \"test\")\n\
    \  (tier quick)\n\
    \  (axes\n%s)\n\
    \  (expect\n%s))\n"
    axes expect

(* ---- parse errors, with span assertions ---- *)

let check_at name (e : Sexp.error) ~line ~col ~msg_has =
  Alcotest.(check int) (name ^ ": line") line e.Sexp.pos.Sexp.line;
  Alcotest.(check int) (name ^ ": col") col e.Sexp.pos.Sexp.col;
  let rendered = Sexp.error_to_string e in
  let prefix = Printf.sprintf "test.matrix:%d:%d: " line col in
  if not (Astring.String.is_prefix ~affix:prefix rendered) then
    Alcotest.failf "%s: %S does not start with %S" name rendered prefix;
  if not (Astring.String.is_infix ~affix:msg_has rendered) then
    Alcotest.failf "%s: %S does not mention %S" name rendered msg_has

let check_error name text = check_at name (spec_error text)

let test_parse_errors () =
  check_error "unterminated string" "(matrix (title \"oops)\n" ~line:1 ~col:15
    ~msg_has:"unterminated string literal";
  check_error "unclosed paren" "(matrix (id t)\n" ~line:1 ~col:0
    ~msg_has:"unclosed '('";
  check_error "empty input" "; only a comment\n" ~line:1 ~col:0
    ~msg_has:"empty spec";
  check_error "two top-level forms" "(matrix (id t))\n(matrix (id u))\n"
    ~line:2 ~col:0 ~msg_has:"single (matrix ...) form"

let test_elaboration_errors () =
  check_error "unknown axis"
    (base_spec
       ~axes:"    (protocol bracha)\n    (n 4)\n    (f 1)\n    (bogus 3)\n"
       ~expect:"    (default decide)\n")
    ~line:9 ~col:5 ~msg_has:"bogus";
  check_error "duplicate axis"
    (base_spec ~axes:"    (protocol bracha)\n    (n 4)\n    (n 7)\n    (f 1)\n"
       ~expect:"    (default decide)\n")
    ~line:5 ~col:2 ~msg_has:"declared twice";
  check_error "zip arm length mismatch"
    (base_spec
       ~axes:"    (protocol bracha)\n    (zip (n 4 7) (f 1))\n"
       ~expect:"    (default decide)\n")
    ~line:7 ~col:4 ~msg_has:"zip arms must have equal lengths";
  check_error "missing f axis"
    (base_spec ~axes:"    (protocol bracha)\n    (n 4)\n"
       ~expect:"    (default decide)\n")
    ~line:1 ~col:0 ~msg_has:"\"f\" axis";
  check_error "bad oracle"
    (base_spec ~axes:"    (protocol bracha)\n    (n 4)\n    (f 1)\n"
       ~expect:"    (default sometimes)\n")
    ~line:11 ~col:13 ~msg_has:"verdict";
  check_error "non-integer n"
    (base_spec ~axes:"    (protocol bracha)\n    (n four)\n    (f 1)\n"
       ~expect:"    (default decide)\n")
    ~line:7 ~col:7 ~msg_has:"expected an integer"

(* Every token axis is decoded by the registry at elaboration: a typo
   is an error at the offending value, not a crash when the cell runs. *)
let test_token_errors () =
  let axes extra = "    (protocol bracha)\n    (n 4)\n    (f 1)\n" ^ extra in
  let expect = "    (default decide)\n" in
  check_error "unknown protocol"
    (base_spec ~axes:"    (protocol turpin-coan)\n    (n 4)\n    (f 1)\n" ~expect)
    ~line:6 ~col:14 ~msg_has:"unknown protocol \"turpin-coan\"";
  check_error "unknown adversary"
    (base_spec ~axes:(axes "    (adversary fifo latncy:8)\n") ~expect)
    ~line:9 ~col:20 ~msg_has:"adversary \"latncy:8\"";
  check_error "unknown fault"
    (base_spec ~axes:(axes "    (fault none flip-realy)\n") ~expect)
    ~line:9 ~col:16 ~msg_has:"fault \"flip-realy\"";
  check_error "unknown topology"
    (base_spec ~axes:(axes "    (topology ring torus)\n") ~expect)
    ~line:9 ~col:19 ~msg_has:"topology \"torus\"";
  check_error "unknown inputs"
    (base_spec ~axes:(axes "    (inputs split unanimous2)\n") ~expect)
    ~line:9 ~col:18 ~msg_has:"inputs \"unanimous2\"";
  check_error "crash rejoins before it crashes"
    (base_spec ~axes:(axes "    (crash none 3:400:200)\n") ~expect)
    ~line:9 ~col:16 ~msg_has:"crash \"3:400:200\""

(* Combinations are checked per cell, before any cell runs, and the
   error sits at the binding that cannot hold at that cell. *)
let check_cell_error name text =
  match Runner.check (spec_of_string text) with
  | Ok () -> Alcotest.failf "%s: spec unexpectedly passed the registry" name
  | Error e -> check_at name e

let test_cross_axis_errors () =
  check_cell_error "target beyond n"
    (base_spec
       ~axes:"    (protocol bracha)\n    (n 4)\n    (f 1)\n    (adversary uniform target:9)\n"
       ~expect:"    (default decide)\n")
    ~line:9 ~col:23 ~msg_has:"node 9, but n=4";
  check_cell_error "flip-relay on coded-rbc"
    (base_spec
       ~axes:
         "    (protocol bracha-rbc coded-rbc)\n    (n 4)\n    (f 1)\n    (fault none flip-relay)\n"
       ~expect:"    (default deliver-all)\n")
    ~line:9 ~col:16 ~msg_has:"\"flip-relay\" is not defined for coded-rbc"

(* ---- expansion: counts and order ---- *)

let test_cross_count () =
  let spec =
    spec_of_string
      (base_spec
         ~axes:
           "    (protocol bracha)\n\
           \    (n 4 7 10)\n\
           \    (f 1)\n\
           \    (adversary fifo uniform)\n\
           \    (seeds 2)\n"
         ~expect:"    (default decide)\n")
  in
  Alcotest.(check int) "3 * 2 cells" 6 (Spec.cell_count spec);
  Alcotest.(check int) "expand agrees" 6 (List.length (Spec.expand spec));
  (* Row-major: the first group varies slowest. *)
  let ns =
    List.map (fun c -> Spec.find_int c "n" ~default:0) (Spec.expand spec)
  in
  Alcotest.(check (list int)) "first axis slowest" [ 4; 4; 7; 7; 10; 10 ] ns

let test_zip_count () =
  let spec =
    spec_of_string
      (base_spec
         ~axes:
           "    (zip (protocol bracha ben-or) (n 4 6) (f 1 1))\n\
           \    (adversary fifo uniform split)\n\
           \    (seeds 1)\n"
         ~expect:"    (default decide)\n")
  in
  (* The zip group counts once: 2 * 3, not 2^3 * 3. *)
  Alcotest.(check int) "zip * cross" 6 (Spec.cell_count spec);
  let cells = Spec.expand spec in
  Alcotest.(check int) "expand agrees" 6 (List.length cells);
  List.iter
    (fun c ->
      let proto = Spec.find_str c "protocol" ~default:"?" in
      let n = Spec.find_int c "n" ~default:0 in
      let expected = if String.equal proto "bracha" then 4 else 6 in
      Alcotest.(check int) ("zip locks n for " ^ proto) expected n)
    cells

let test_axes_order () =
  let spec =
    spec_of_string
      (base_spec
         ~axes:"    (zip (protocol bracha) (n 4)) \n    (f 1)\n    (seeds 1)\n"
         ~expect:"    (default any)\n")
  in
  Alcotest.(check (list string))
    "zip arms flatten in place"
    [ "protocol"; "n"; "f"; "seeds" ]
    (Spec.axes spec)

(* ---- oracle selection at the resilience boundary ---- *)

let test_boundary_oracles () =
  let spec =
    spec_of_string
      (base_spec
         ~axes:"    (protocol bracha)\n    (zip (n 4 7) (f 1 2))\n    (seeds 1)\n"
         ~expect:
           "    (when (n 4) (f 1) decide)\n\
           \    (when (f 2) agree)\n\
           \    (default any)\n")
  in
  let labels =
    List.map (fun c -> Spec.oracle_label c.Spec.oracle) (Spec.expand spec)
  in
  Alcotest.(check (list string))
    "first matching clause wins" [ "decide"; "agree" ] labels;
  (* n = 3f + 1 is within bound; f one beyond is not. *)
  (match Registry.resilience "bracha" with
  | None -> Alcotest.fail "bracha not in the resilience registry"
  | Some (cls, max_f) ->
    Alcotest.(check string) "class label" "n>3f" cls;
    Alcotest.(check int) "n=4 tolerates f=1" 1 (max_f 4);
    Alcotest.(check int) "n=7 tolerates f=2" 2 (max_f 7));
  match Registry.resilience "ben-or" with
  | Some (cls, max_f) ->
    Alcotest.(check string) "ben-or class" "n>5f" cls;
    Alcotest.(check int) "n=6 tolerates f=1" 1 (max_f 6)
  | None -> Alcotest.fail "ben-or not in the resilience registry"

(* ---- qcheck: expansion is a pure, stable function of the text ---- *)

let gen_axis_sizes = QCheck.(triple (1 -- 4) (1 -- 4) (1 -- 3))

let spec_with_sizes (a, b, c) =
  let values prefix k =
    String.concat " " (List.init k (fun i -> string_of_int (prefix + i)))
  in
  base_spec
    ~axes:
      (Printf.sprintf
         "    (protocol bracha)\n\
         \    (n %s)\n\
         \    (f 1)\n\
         \    (payload %s)\n\
         \    (seeds %s)\n"
         (values 4 a) (values 8 b) (values 1 c))
    ~expect:"    (when (f 1) decide)\n    (default any)\n"

let expansion_deterministic =
  QCheck.Test.make ~count:50 ~name:"expansion is stable and counts multiply"
    gen_axis_sizes (fun ((a, b, c) as sizes) ->
      let text = spec_with_sizes sizes in
      let s1 = spec_of_string text and s2 = spec_of_string text in
      let key cell =
        String.concat ";"
          (List.map (fun (k, v) -> k ^ "=" ^ v) (Spec.cell_key cell))
      in
      let k1 = List.map key (Spec.expand s1)
      and k2 = List.map key (Spec.expand s2) in
      k1 = k2
      && List.length k1 = a * b * c
      && Spec.cell_count s1 = a * b * c
      && List.sort_uniq String.compare k1 = List.sort String.compare k1)

(* ---- runner: determinism and the expect-fail contract ---- *)

let runner_spec =
  "(matrix\n\
  \  (id unit)\n\
  \  (title \"unit: boundary cells\")\n\
  \  (tier quick)\n\
  \  (axes\n\
  \    (protocol bracha)\n\
  \    (zip (n 4 4) (f 1 2))\n\
  \    (inputs split)\n\
  \    (seeds 3))\n\
  \  (expect\n\
  \    (when (f 2) expect-fail)\n\
  \    (default decide)))\n"

let run_with_jobs jobs =
  let spec = spec_of_string runner_spec in
  let pool = Pool.create ~jobs () in
  let result = Runner.run ~pool spec in
  (result, Json.to_string (Runner.to_json ~seeds_scale:1.0 result))

let test_jobs_determinism () =
  let r1, j1 = run_with_jobs 1 in
  let _, j4 = run_with_jobs 4 in
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" j1 j4;
  Alcotest.(check bool) "both cells pass" true (Runner.passed r1)

let test_expect_fail_semantics () =
  let r, _ = run_with_jobs 2 in
  match r.Runner.cells with
  | [ within; beyond ] ->
    Alcotest.(check bool) "n=4 f=1 decides" true within.Runner.pass;
    Alcotest.(check (float 0.0001))
      "within bound: every seed decides" 1.0
      within.Runner.metrics.Runner.ok_rate;
    Alcotest.(check bool) "n=4 f=2 expect-fail passes" true beyond.Runner.pass;
    Alcotest.(check (float 0.0001))
      "beyond bound: the protocol rejects the config" 0.0
      beyond.Runner.metrics.Runner.ok_rate
  | cells -> Alcotest.failf "expected 2 cells, got %d" (List.length cells)

let test_no_clock_zero_wall () =
  let r, _ = run_with_jobs 1 in
  List.iter
    (fun c ->
      Alcotest.(check (float 0.0))
        "wall is exactly 0 without a clock" 0.0 c.Runner.metrics.Runner.wall_s)
    r.Runner.cells

(* ---- committed specs stay loadable and well-formed ---- *)

let test_committed_specs () =
  List.iter
    (fun (file, cells) ->
      let path = Filename.concat "../bench/specs" file in
      match Spec.load path with
      | Error e -> Alcotest.failf "%s: %s" file (Sexp.error_to_string e)
      | Ok spec ->
        Alcotest.(check int) (file ^ ": cell count") cells (Spec.cell_count spec);
        Alcotest.(check bool) (file ^ ": registry accepts every cell") true
          (Runner.check spec = Ok ()))
    [
      ("e1.matrix", 80);
      ("e14.matrix", 8);
      ("e16.matrix", 9);
      ("e17.matrix", 4);
      ("e18.matrix", 6);
    ]

let () =
  Alcotest.run "matrix"
    [
      ( "parse",
        [
          Alcotest.test_case "reader errors carry spans" `Quick
            test_parse_errors;
          Alcotest.test_case "elaboration errors carry spans" `Quick
            test_elaboration_errors;
          Alcotest.test_case "token errors carry spans" `Quick test_token_errors;
          Alcotest.test_case "cross-axis errors carry spans" `Quick
            test_cross_axis_errors;
        ] );
      ( "expand",
        [
          Alcotest.test_case "cross product count and order" `Quick
            test_cross_count;
          Alcotest.test_case "zip advances arms in lockstep" `Quick
            test_zip_count;
          Alcotest.test_case "axis declaration order" `Quick test_axes_order;
          Alcotest.test_case "boundary oracle selection" `Quick
            test_boundary_oracles;
          QCheck_alcotest.to_alcotest expansion_deterministic;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 identical JSON" `Quick
            test_jobs_determinism;
          Alcotest.test_case "expect-fail at the resilience boundary" `Quick
            test_expect_fail_semantics;
          Alcotest.test_case "wall-clock zero without a clock" `Quick
            test_no_clock_zero_wall;
        ] );
      ( "specs",
        [
          Alcotest.test_case "committed specs load" `Quick test_committed_specs;
        ] );
    ]
