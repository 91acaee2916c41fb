(* Tests for the scenario-matrix DSL (lib/matrix).

   Three batteries:

   - parsing: negative fixtures asserting the exact error span
     (file:line:col) and message — the reader's one job beyond parsing
     is pointing at the offending token;
   - expansion: cross/zip cell counts and row-major order, a qcheck
     property that expansion is a pure, stable function of the spec
     text, and oracle selection at the n = 3f + 1 resilience boundary;
   - runner: jobs=1 vs jobs=4 produce byte-identical BENCH_MATRIX
     JSON (no clock, so wall fields are exactly 0), an expect-fail
     cell beyond the resilience bound passes exactly because the
     protocol refuses the configuration, and a beyond-bound cell that
     expects anything else is refused before any cell runs. *)

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
  (* (live-within N) is no longer a verdict. *)
  List.iter
    (fun verdict ->
      check_error "bad oracle"
        (base_spec ~axes:"    (protocol bracha)\n    (n 4)\n    (f 1)\n"
           ~expect:(Printf.sprintf "    (default %s)\n" verdict))
        ~line:11 ~col:13 ~msg_has:"verdict")
    [ "sometimes"; "(live-within 5)" ];
  check_error "non-integer n"
    (base_spec ~axes:"    (protocol bracha)\n    (n four)\n    (f 1)\n"
       ~expect:"    (default decide)\n")
    ~line:7 ~col:7 ~msg_has:"expected an integer";
  (* A condition value that decodes but that no cell has would leave
     its clause unmatched; values compare as cell keys do, so 0.10
     names the cell written 0.1. *)
  let loss_spec value =
    base_spec ~axes:"    (protocol bracha)\n    (n 4)\n    (f 1)\n    (loss 0 0.1)\n"
      ~expect:(Printf.sprintf "    (when (loss %s) expect-fail)\n    (default decide)\n" value)
  in
  check_error "condition value no cell has" (loss_spec "0.5") ~line:12 ~col:16
    ~msg_has:"no cell has loss 0.5: the axis takes 0 | 0.1";
  Alcotest.(check (list string)) "condition value matched by key" [ "decide"; "expect-fail" ]
    (List.map
       (fun (c : Spec.cell) -> Spec.oracle_label c.oracle)
       (Spec.expand (spec_of_string (loss_spec "0.10"))))

(* Every token axis is decoded by the registry at elaboration: a typo
   is an error at the offending value, not a crash when the cell runs. *)
let test_token_errors () =
  let axes extra = "    (protocol bracha)\n    (n 4)\n    (f 1)\n" ^ extra in
  let expect = "    (default decide)\n" in
  check_error "unknown protocol"
    (base_spec ~axes:"    (protocol vaba)\n    (n 4)\n    (f 1)\n" ~expect)
    ~line:6 ~col:14 ~msg_has:"unknown protocol \"vaba\"";
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
    ~line:9 ~col:16 ~msg_has:"crash \"3:400:200\"";
  check_error "partition that heals before it starts"
    (base_spec ~axes:(axes "    (partition 10:80:0,1 80:10:0)\n") ~expect)
    ~line:9 ~col:25 ~msg_has:"partition \"80:10:0\"";
  check_error "reliable yes"
    (base_spec ~axes:(axes "    (reliable false yes)\n") ~expect)
    ~line:9 ~col:20 ~msg_has:"reliable \"yes\": want true | false";
  check_error "fixed coin"
    (base_spec ~axes:(axes "    (coin local fixed:0)\n") ~expect)
    ~line:9 ~col:16 ~msg_has:"coin \"fixed:0\": want local | common";
  check_error "validation off"
    (base_spec ~axes:(axes "    (validation true off)\n") ~expect)
    ~line:9 ~col:21 ~msg_has:"validation \"off\": want true | false";
  check_error "transport rl"
    (base_spec ~axes:(axes "    (transport rbc rl)\n") ~expect)
    ~line:9 ~col:19 ~msg_has:"transport \"rl\": want rbc | plain";
  check_error "mode omission"
    (base_spec ~axes:(axes "    (mode crash omission)\n") ~expect)
    ~line:9 ~col:16 ~msg_has:"mode \"omission\": want byzantine | crash";
  check_error "tx-rate fast"
    (base_spec ~axes:(axes "    (tx-rate 0.5 fast)\n") ~expect)
    ~line:9 ~col:17 ~msg_has:"expected a number, found \"fast\"";
  check_error "seed 1.5"
    (base_spec ~axes:(axes "    (seed 1.5)\n") ~expect)
    ~line:9 ~col:10 ~msg_has:"expected an integer, found \"1.5\"";
  check_error "misspelled condition value"
    (base_spec ~axes:(axes "    (validation true false)\n")
       ~expect:"    (when (validation flase) expect-fail)\n    (default decide)\n")
    ~line:12 ~col:22 ~msg_has:"validation \"flase\": want true | false"

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
    ~line:9 ~col:16 ~msg_has:"\"flip-relay\" is not defined for coded-rbc";
  (* A recovered replica catches up from a stable checkpoint: without
     one the plan would run and never decide. *)
  check_cell_error "crash plan without checkpoints"
    (base_spec
       ~axes:
         "    (protocol atomic)\n    (n 4)\n    (f 1)\n    (batch 4)\n    (epochs 4)\n\
         \    (crash 2:300:2500)\n"
       ~expect:"    (default decide)\n")
    ~line:11 ~col:11 ~msg_has:"a crash plan needs checkpoint > 0"

(* Numbers out of range are positioned errors too, never a crash or a
   silent run: each axis at its own binding. *)
let test_range_errors () =
  let spec ?(protocol = "bracha") ?(n = "4") ?(f = "1") extra =
    base_spec
      ~axes:(Printf.sprintf "    (protocol %s)\n    (n %s)\n    (f %s)\n%s" protocol n f extra)
      ~expect:"    (default decide)\n"
  in
  check_cell_error "n 0" (spec ~n:"0" ~f:"0" "") ~line:7 ~col:7 ~msg_has:"need n >= 1, got n=0";
  check_cell_error "n -4" (spec ~n:"-4" "") ~line:7 ~col:7 ~msg_has:"need n >= 1, got n=-4";
  check_cell_error "f -1" (spec ~f:"-1" "") ~line:8 ~col:7 ~msg_has:"need f >= 0, got f=-1";
  check_cell_error "payload -5"
    (spec ~protocol:"coded-rbc" "    (payload -5)\n")
    ~line:9 ~col:13 ~msg_has:"need payload >= 0, got payload=-5";
  check_cell_error "budget -1" (spec "    (budget -1)\n") ~line:9 ~col:12
    ~msg_has:"need budget >= 1, got budget=-1";
  let atomic = spec ~protocol:"atomic" in
  check_cell_error "batch 0" (atomic "    (batch 0)\n") ~line:9 ~col:11
    ~msg_has:"need batch >= 1, got batch=0";
  check_cell_error "epochs 0" (atomic "    (epochs 0)\n") ~line:9 ~col:12
    ~msg_has:"need epochs >= 1, got epochs=0";
  check_cell_error "window 0" (atomic "    (window 0)\n") ~line:9 ~col:12
    ~msg_has:"need window >= 1, got window=0";
  check_cell_error "checkpoint -1" (atomic "    (checkpoint -1)\n") ~line:9 ~col:16
    ~msg_has:"need checkpoint >= 0, got checkpoint=-1";
  check_cell_error "seeds 0" (spec "    (seeds 0)\n") ~line:9 ~col:11
    ~msg_has:"need seeds >= 1, got seeds=0";
  check_cell_error "seeds -3" (spec "    (seeds -3)\n") ~line:9 ~col:11
    ~msg_has:"need seeds >= 1, got seeds=-3";
  (* 0 is no budget: the engine's own cap would run under "budget 0". *)
  check_cell_error "budget 0" (spec "    (budget 0)\n") ~line:9 ~col:12
    ~msg_has:"need budget >= 1, got budget=0";
  check_cell_error "tx-rate 0" (atomic "    (tx-rate 1 0)\n") ~line:9 ~col:15
    ~msg_has:"need tx-rate > 0, got tx-rate=0"

(* A [+] battery places its kinds on the highest-numbered nodes in
   order, as E7 did by hand: the force-decide liar at node n-1, the
   flip liar at node n-2.  The registry run must match the hand-placed
   engine run exactly; the same kinds swapped must not. *)
let test_battery_placement () =
  let module B = Abc.Bracha_consensus in
  let module H = Abc.Harness.Make (B) in
  let n = 7 and f = 2 in
  Alcotest.(check bool) "force-decide:1+flip:1 decodes in order" true
    (Registry.fault "force-decide:1+flip:1" = Ok (Registry.Faulty [ (Force_decide, 1); (Flip, 1) ]));
  let node = Abc_net.Node_id.of_int in
  let by_hand ~seed =
    let faulty =
      [ (node 6, Abc_net.Behaviour.Mutate B.Fault.force_decide);
        (node 5, Abc_net.Behaviour.Mutate B.Fault.flip_value) ]
    in
    let inputs = B.inputs ~n ~options:B.Options.default (Array.make n Abc.Value.Zero) in
    let _, v = H.run (H.E.config ~n ~f ~inputs ~faulty ~adversary:Abc_net.Adversary.uniform ~seed ()) in
    (v.terminated, v.agreement, v.max_round, v.messages, v.duration)
  in
  let registry kinds ~seed =
    let sc =
      { (Registry.scenario ~protocol:"bracha" ~n ~f) with
        inputs = Unanimous Abc.Value.Zero; fault = Faulty kinds }
    in
    match Registry.run sc ~seed with
    | Ok { outcome = o; _ } -> (o.decided, o.agreement, o.rounds, o.messages, o.ticks)
    | Error msg -> Alcotest.fail msg
  in
  let seeds = List.init 4 Fun.id in
  let e7 = [ (Registry.Force_decide, 1); (Registry.Flip, 1) ] in
  List.iter
    (fun seed ->
      if registry e7 ~seed <> by_hand ~seed then Alcotest.failf "seed %d: not E7's placement" seed)
    seeds;
  Alcotest.(check bool) "swapped kinds run differently" true
    (List.exists (fun seed -> registry (List.rev e7) ~seed <> by_hand ~seed) seeds)

(* balanced-flip and the named faults place themselves and cannot join
   a battery; a bad part is an error at the whole token. *)
let test_battery_errors () =
  let axes fault = Printf.sprintf "    (protocol bracha)\n    (n 7)\n    (f 2)\n    (fault none %s)\n" fault in
  let expect = "    (default decide)\n" in
  check_error "balanced-flip in a battery"
    (base_spec ~axes:(axes "flip:1+balanced-flip:1") ~expect)
    ~line:9 ~col:16 ~msg_has:"fault \"flip:1+balanced-flip:1\": \"balanced-flip:1\" cannot join";
  check_error "named fault in a battery"
    (base_spec ~axes:(axes "silent-sender+flip") ~expect)
    ~line:9 ~col:16 ~msg_has:"fault \"silent-sender+flip\": \"silent-sender\" cannot join";
  check_error "bad count in a battery"
    (base_spec ~axes:(axes "flip:1+silent:x") ~expect)
    ~line:9 ~col:16 ~msg_has:"fault \"flip:1+silent:x\""

(* ---- the registry's scenario vocabulary ---- *)

let run_ok sc ~seed = match Registry.run sc ~seed with Ok r -> r | Error msg -> Alcotest.fail msg

let mmr_cut topology =
  { (Registry.scenario ~protocol:"mmr" ~n:8 ~f:2) with
    topology; fault = Placed (Silent, [ 1; 5 ]); budget = Some 400_000 }

(* [KIND@ID,...] puts KIND on exactly the named nodes: every node but 1
   and 5 decides.  Ids beyond n or named twice, [balanced-flip] and a
   placed kind in a [+] battery are errors at the fault binding. *)
let test_placed_faults () =
  Alcotest.(check bool) "silent@1,5 decodes" true
    (Registry.fault "silent@1,5" = Ok (Registry.Placed (Silent, [ 1; 5 ])));
  let r = run_ok (mmr_cut Complete) ~seed:0 in
  Alcotest.(check bool) "decides" true (Registry.decides r.outcome);
  Alcotest.(check (list int)) "deciders" [ 0; 2; 3; 4; 6; 7 ]
    (List.map (fun l -> Scanf.sscanf l "  n%d:" Fun.id) (Lazy.force r.lines));
  let spec fault =
    base_spec
      ~axes:(Printf.sprintf "    (protocol mmr)\n    (n 8)\n    (f 2)\n    (fault none %s)\n" fault)
      ~expect:"    (default decide)\n"
  in
  check_cell_error "id beyond n" (spec "silent@1,9") ~line:9 ~col:16
    ~msg_has:"fault names node 9, but n=8";
  check_cell_error "id twice" (spec "silent@1,1") ~line:9 ~col:16 ~msg_has:"fault names a node twice";
  check_error "balanced-flip placed" (spec "balanced-flip@1") ~line:9 ~col:16
    ~msg_has:"fault \"balanced-flip@1\": balanced-flip places itself";
  check_error "placed in a battery" (spec "silent@1+flip") ~line:9 ~col:16
    ~msg_has:"fault \"silent@1+flip\": \"silent@1\" cannot join"

(* An explicit graph floods MMR over its edges: two silent nodes leave
   circulant:1,2 connected and cut the ring.  The relay takes only
   message-agnostic faults, and no reliable links. *)
let test_flood_relay () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) "decides over circulant:1,2" true
        (Registry.decides (run_ok (mmr_cut (Circulant [ 1; 2 ])) ~seed).outcome);
      Alcotest.(check bool) "no decision over the ring" false
        (Registry.decides (run_ok (mmr_cut Ring) ~seed).outcome))
    [ 0; 1 ];
  let refused name sc ~axis ~msg_has =
    match Registry.check sc with
    | Ok () -> Alcotest.failf "%s: accepted" name
    | Error (a, msg) ->
      Alcotest.(check string) (name ^ ": axis") axis a;
      if not (Astring.String.is_infix ~affix:msg_has msg) then
        Alcotest.failf "%s: %S does not mention %S" name msg msg_has
  in
  let ring = { (Registry.scenario ~protocol:"bracha" ~n:7 ~f:2) with topology = Ring } in
  refused "flip over a ring" { ring with fault = Faulty [ (Flip, 1) ] } ~axis:"fault"
    ~msg_has:"flood relay supports only message-agnostic faults";
  refused "corrupt over reliable links"
    { ring with topology = Complete; reliable = true; fault = Faulty [ (Corrupt, 1) ] }
    ~axis:"fault" ~msg_has:"not \"corrupt\"";
  refused "reliable links over a ring" { ring with reliable = true } ~axis:"topology"
    ~msg_has:"reliable links do not run over an explicit topology"

(* turpin-coan decides within n > 4f; beyond it a cell needs
   expect-fail, or Runner.check refuses the spec at the cell's f. *)
let test_turpin_coan () =
  let sc = { (Registry.scenario ~protocol:"turpin-coan" ~n:9 ~f:2) with fault = Faulty [ (Silent, 1) ] } in
  Alcotest.(check bool) "decides at n=9 f=2" true (Registry.decides (run_ok sc ~seed:0).outcome);
  let check n f oracle =
    Runner.check
      (spec_of_string
         (base_spec
            ~axes:(Printf.sprintf "    (protocol turpin-coan)\n    (n %d)\n    (f %d)\n" n f)
            ~expect:(Printf.sprintf "    (default %s)\n" oracle)))
  in
  Alcotest.(check bool) "n=9 f=2 within n>4f" true (check 9 2 "decide" = Ok ());
  (match check 8 2 "decide" with
  | Ok () -> Alcotest.fail "n=8 f=2 beyond n>4f: accepted"
  | Error e ->
    check_at "n=8 f=2 beyond n>4f" e ~line:8 ~col:7
      ~msg_has:"cell exceeds turpin-coan's resilience class n>4f (max f=1 at n=8)");
  Alcotest.(check bool) "n=8 f=2 expect-fail" true (check 8 2 "expect-fail" = Ok ())

(* atomic reports each replica's recovery measures: E18's victim fetches
   one state transfer and catches up after its rejoin; without a crash
   no replica has anything to catch up. *)
let test_replica_measures () =
  let e18 crash =
    { (Registry.scenario ~protocol:"atomic" ~n:4 ~f:1) with
      batch = 4; epochs = 12; window = 2; payload = 32; tx_rate = 0.5; checkpoint = 2; crash }
  in
  let victim = (run_ok (e18 [ (3, [ (400, 2500) ]) ]) ~seed:0).outcome.replicas.(3) in
  Alcotest.(check int) "victim transfers" 1 victim.transfers;
  Alcotest.(check bool) "victim catches up" true (victim.catch_up > 0);
  let calm = (run_ok (e18 []) ~seed:0).outcome.replicas in
  Alcotest.(check (list int)) "no catch-up without a crash" [ 0; 0; 0; 0 ]
    (Array.to_list (Array.map (fun (r : Registry.replica) -> r.catch_up) calm));
  Alcotest.(check int) "no records outside atomic" 0
    (Array.length (run_ok (Registry.scenario ~protocol:"bracha" ~n:4 ~f:1) ~seed:0).outcome.replicas)

(* A crash plan restarts its replica from the protocol's durable
   store, which only the raw transport over the complete graph passes
   to the engine; anywhere else the plan is refused, not run amnesic or
   dropped. *)
let test_crash_plans_refused () =
  let e18 =
    { (Registry.scenario ~protocol:"atomic" ~n:4 ~f:1) with
      batch = 4; epochs = 12; window = 2; payload = 32; tx_rate = 0.5; checkpoint = 2;
      crash = [ (3, [ (400, 2500) ]) ] }
  in
  (match Registry.check e18 with
  | Ok () -> ()
  | Error (axis, msg) -> Alcotest.failf "E18's cell refused: %s: %s" axis msg);
  let refused name sc ~msg_has =
    match Registry.check sc with
    | Ok () -> Alcotest.failf "%s: accepted" name
    | Error (axis, msg) ->
      Alcotest.(check string) (name ^ ": axis") "crash" axis;
      if not (Astring.String.is_infix ~affix:msg_has msg) then
        Alcotest.failf "%s: %S does not mention %S" name msg msg_has
  in
  refused "atomic over reliable links" { e18 with reliable = true } ~msg_has:"reliable links";
  refused "atomic over a ring" { e18 with topology = Ring } ~msg_has:"flood relay";
  refused "bracha" { e18 with protocol = "bracha" } ~msg_has:"bracha keeps no durable store"

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
  (* n = 3f + 1 is within bound; f one beyond is not.  Ben-Or's class
     is n > 5f under Byzantine faults and n > 2f under crashes. *)
  let resilience ?(crash_mode = false) protocol ~n =
    match Registry.resilience { (Registry.scenario ~protocol ~n ~f:0) with crash_mode } with
    | Some c -> c
    | None -> Alcotest.failf "%s not in the resilience registry" protocol
  in
  let check name expected got = Alcotest.(check (pair string int)) name expected got in
  check "bracha: n=4 tolerates f=1" ("n>3f", 1) (resilience "bracha" ~n:4);
  check "bracha: n=7 tolerates f=2" ("n>3f", 2) (resilience "bracha" ~n:7);
  check "bracha: crash mode changes nothing" ("n>3f", 1) (resilience ~crash_mode:true "bracha" ~n:4);
  check "ben-or: n=6 tolerates f=1" ("n>5f", 1) (resilience "ben-or" ~n:6);
  check "crash-mode ben-or: n=6 tolerates f=2" ("n>2f", 2) (resilience ~crash_mode:true "ben-or" ~n:6)

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

(* Ben-Or at n = 6 with two silent nodes, in [mode], at [f]. *)
let ben_or_spec ~mode ~f ~expect =
  Printf.sprintf
    "(matrix\n\
    \  (id t)\n\
    \  (title \"t\")\n\
    \  (axes\n\
    \    (protocol ben-or)\n\
    \    (mode %s)\n\
    \    (n 6)\n\
    \    (f %d)\n\
    \    (fault silent:2)\n\
    \    (seeds 3))\n\
    \  (expect\n\
    \    (default %s)))\n"
    mode f expect

let test_expect_fail_semantics () =
  let r, _ = run_with_jobs 2 in
  (match r.Runner.cells with
  | [ within; beyond ] ->
    Alcotest.(check bool) "n=4 f=1 decides" true within.Runner.pass;
    Alcotest.(check (float 0.0001))
      "within bound: every seed decides" 1.0
      within.Runner.metrics.Runner.ok_rate;
    Alcotest.(check bool) "n=4 f=2 expect-fail passes" true beyond.Runner.pass;
    Alcotest.(check (float 0.0001))
      "beyond bound: the protocol rejects the config" 0.0
      beyond.Runner.metrics.Runner.ok_rate
  | cells -> Alcotest.failf "expected 2 cells, got %d" (List.length cells));
  (* Ben-Or's boundary moves with its mode: f = 2 at n = 6 is within
     n > 2f under crashes (every seed decides) and past n > 5f under
     Byzantine faults; f = 3 is past n > 2f, and the protocol refuses
     it at init. *)
  let run ~mode ~f ~expect =
    let spec = spec_of_string (ben_or_spec ~mode ~f ~expect) in
    match (Runner.run ~pool:(Pool.create ~jobs:2 ()) spec).Runner.cells with
    | [ c ] -> (c.Runner.pass, c.Runner.metrics.Runner.ok_rate)
    | cells -> Alcotest.failf "expected 1 cell, got %d" (List.length cells)
  in
  let outcome = Alcotest.(pair bool (float 0.0001)) in
  Alcotest.(check outcome) "crash mode n=6 f=2 decides" (true, 1.0) (run ~mode:"crash" ~f:2 ~expect:"decide");
  Alcotest.(check outcome) "crash mode n=6 f=3 expect-fail passes" (true, 0.0)
    (run ~mode:"crash" ~f:3 ~expect:"expect-fail");
  let refused ~mode ~f ~cls ~max_f =
    match Runner.check (spec_of_string (ben_or_spec ~mode ~f ~expect:"decide")) with
    | Ok () -> Alcotest.failf "%s-mode ben-or n=6 f=%d accepted without expect-fail" mode f
    | Error e ->
      check_at (Printf.sprintf "%s-mode ben-or n=6 f=%d" mode f) e ~line:8 ~col:7
        ~msg_has:(Printf.sprintf "cell exceeds ben-or's resilience class %s (max f=%d at n=6)" cls max_f)
  in
  refused ~mode:"crash" ~f:3 ~cls:"n>2f" ~max_f:2;
  refused ~mode:"byzantine" ~f:2 ~cls:"n>5f" ~max_f:1

(* A cell past its protocol's class is refused at its f literal before
   any cell runs unless it expects expect-fail: with no expect clause it
   expects any, which would pass on the protocol's refusal at init. *)
let test_beyond_class_refused () =
  let spec =
    spec_of_string
      "(matrix\n\
      \  (id t)\n\
      \  (title \"t\")\n\
      \  (axes\n\
      \    (protocol bracha)\n\
      \    (n 4)\n\
      \    (f 2)\n\
      \    (seeds 1)))\n"
  in
  match Runner.check spec with
  | Ok () -> Alcotest.fail "bracha n=4 f=2 accepted without expect-fail"
  | Error e ->
    check_at "bracha n=4 f=2" e ~line:7 ~col:7
      ~msg_has:
        "cell exceeds bracha's resilience class n>3f (max f=1 at n=4); annotate the cell expect-fail or fix the axis"

(* The entries bench tables and abc-run reach: the replicated log, the
   common subset and MMR over the wire-level Rabin coin each decide. *)
let test_new_entries_decide () =
  let spec =
    spec_of_string
      (base_spec ~axes:"    (protocol log acs mmr-rabin)\n    (n 4)\n    (f 1)\n    (seeds 2)\n"
         ~expect:"    (default decide)\n")
  in
  let r = Runner.run ~pool:(Pool.create ~jobs:2 ()) spec in
  List.iter
    (fun (c : Runner.cell_result) ->
      let p = Spec.find_str c.cell "protocol" ~default:"?" in
      Alcotest.(check bool) (p ^ " decides at n=4 f=1") true c.pass)
    r.cells;
  Alcotest.(check int) "three cells" 3 (List.length r.cells);
  match r.cells with
  | log :: _ -> Alcotest.(check bool) "log commits its slots" true (log.metrics.committed >= 6.)
  | [] -> ()

(* deliver-all is E1's claim: every honest node delivers, and the
   deliveries agree, carry the sender's payload and reach everyone.  A
   run whose nodes all deliver the same wrong payload fails it. *)
let test_deliver_all_needs_validity () =
  let o =
    { Registry.failed with decided = true; agreement = true; validity = true; totality = true }
  in
  Alcotest.(check bool) "valid outcome delivers" true (Runner.satisfies Spec.Deliver_all o);
  Alcotest.(check bool) "wrong payload fails deliver-all" false
    (Runner.satisfies Spec.Deliver_all { o with validity = false })

let test_no_clock_zero_wall () =
  let r, _ = run_with_jobs 1 in
  List.iter
    (fun c ->
      Alcotest.(check (float 0.0))
        "wall is exactly 0 without a clock" 0.0 c.Runner.metrics.Runner.wall_s)
    r.Runner.cells

(* The table's per-seed columns: p95 and max of the rounds over every
   seed and the mean committed log, from outcomes the runner keeps in
   seed order.  The bracha cell's sorted rounds end 6, 7, 10, so its
   interpolated p95 (7.15) and its max part.  The export keeps exactly
   its cell keys. *)
let test_table_columns () =
  let spec =
    spec_of_string
      (base_spec
         ~axes:
           "    (zip (protocol bracha log) (n 8 4) (f 2 1) (adversary split uniform)\n\
           \      (fault balanced-flip:2 none))\n\
           \    (seeds 20)\n"
         ~expect:"    (default decide)\n")
  in
  let r = Runner.run ~pool:(Pool.create ~jobs:2 ()) spec in
  List.iter2
    (fun (c : Runner.cell_result) (protocol, n, f, adversary, fault) ->
      let sc =
        { (Registry.scenario ~protocol ~n ~f) with
          adversary = Result.get_ok (Registry.adversary adversary);
          fault = Result.get_ok (Registry.fault fault) }
      in
      Alcotest.(check (list int)) "outcomes in seed order"
        (List.init 20 (fun seed -> (Runner.run_seed sc ~seed).messages))
        (List.map (fun (o : Registry.outcome) -> o.messages) c.outcomes))
    r.cells
    [ ("bracha", 8, 2, "split", "balanced-flip:2"); ("log", 4, 1, "uniform", "none") ];
  let rows = List.tl (String.split_on_char '\n' (Abc_sim.Table.csv (Runner.table r))) in
  let columns row = List.filteri (fun i _ -> i >= 9) (String.split_on_char ',' row) in
  Alcotest.(check (list (list string))) "rounds, p95, max, msgs, bytes, ticks, committed"
    [ [ "3.65"; "7"; "10"; "12176"; "158283"; "12029"; "0.00" ];
      [ "0.00"; "0"; "0"; "4443"; "92151"; "4125"; "8.00" ] ]
    (List.map columns (List.filter (( <> ) "") rows));
  match Runner.to_json ~seeds_scale:1. r with
  | Json.Obj fields -> (
    match List.assoc "cells" fields with
    | Json.List (Json.Obj cell :: _) ->
      Alcotest.(check (list string)) "cell keys"
        [ "key"; "expect"; "pass"; "ok_rate"; "rounds"; "messages"; "bytes"; "ticks";
          "committed"; "wall_s" ]
        (List.map fst cell)
    | _ -> Alcotest.fail "no cells")
  | _ -> Alcotest.fail "not an object"

(* A cell runs its seeds from its [seed] axis: [(seed 513) (seeds 1)]
   is the registry's run at seed 513, not at seed 0. *)
let test_first_seed () =
  let spec =
    spec_of_string
      (base_spec ~axes:"    (protocol bracha)\n    (n 7)\n    (f 2)\n    (seed 513)\n    (seeds 1)\n"
         ~expect:"    (default decide)\n")
  in
  let sc = Registry.scenario ~protocol:"bracha" ~n:7 ~f:2 in
  let r = Runner.run ~pool:(Pool.create ~jobs:1 ()) spec in
  let messages = List.map (fun (o : Registry.outcome) -> o.messages) (List.hd r.cells).outcomes in
  Alcotest.(check (list int)) "seed 513's run" [ (Runner.run_seed sc ~seed:513).messages ] messages;
  Alcotest.(check bool) "not seed 0's" true (messages <> [ (Runner.run_seed sc ~seed:0).messages ])

(* A cell decodes its values as written, and its key prints a number as
   the registry does: two numbers, however close, are two keys, and a
   condition on one of them matches that cell alone. *)
let test_values_as_written () =
  let spec =
    spec_of_string
      (base_spec
         ~axes:
           "    (protocol bracha)\n    (n 4)\n    (f 1)\n    (loss 0.1234567 0.1234568)\n\
           \    (reliable true)\n    (seeds 1)\n"
         ~expect:"    (when (loss 0.1234567) agree)\n    (default any)\n")
  in
  let cells = (Runner.run ~pool:(Pool.create ~jobs:1 ()) spec).cells in
  let c = List.hd cells in
  Alcotest.(check (float 0.)) "loss" 0.1234567 c.scenario.loss;
  Alcotest.(check (list string)) "keys" [ "0.1234567"; "0.1234568" ]
    (List.map (fun (c : Runner.cell_result) -> List.assoc "loss" (Spec.cell_key c.cell)) cells);
  Alcotest.(check (list string)) "the clause matches one cell" [ "agree"; "any" ]
    (List.map (fun (c : Runner.cell_result) -> Spec.oracle_label c.cell.oracle) cells);
  Alcotest.(check bool) "reliable" true c.scenario.reliable

(* [to_tokens] prints protocol, n and f, then the fields off their
   defaults, in record order; [of_tokens] reads them back and names the
   axis of every error. *)
let test_tokens () =
  let sc =
    { (Registry.scenario ~protocol:"mmr" ~n:10 ~f:3) with
      inputs = Unanimous Abc.Value.Zero; adversary = Latency 6.; fault = Placed (Silent, [ 9; 8; 7 ]);
      dup = 0.07; partition = Some { from_tick = 24; until_tick = 142; island = [ 5 ] }; reliable = true;
      budget = Some 4_000_000; coin = Some Local; plain = true; crash_mode = true; validation = false;
      topology = Circulant [ 1; 2 ] }
  in
  let line tokens = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) tokens) in
  Alcotest.(check string) "to_tokens"
    "protocol=mmr n=10 f=3 inputs=unanimous0 adversary=latency:6 fault=silent@9,8,7 \
     topology=circulant:1,2 dup=0.07 partition=24:142:5 reliable=true budget=4000000 coin=local \
     validation=false transport=plain mode=crash"
    (line (Registry.to_tokens sc));
  Alcotest.(check bool) "round trip" true (Registry.of_tokens (Registry.to_tokens sc) = Ok sc);
  Alcotest.(check string) "defaults only" "protocol=bracha n=4 f=1"
    (line (Registry.to_tokens (Registry.scenario ~protocol:"bracha" ~n:4 ~f:1)));
  let base = [ ("protocol", "bracha"); ("n", "4"); ("f", "1") ] in
  let decoded tokens = Registry.of_tokens (base @ tokens) in
  Alcotest.(check bool) "default spellings" true
    (decoded [ ("reliable", "false"); ("validation", "true"); ("transport", "rbc"); ("mode", "byzantine") ]
    = Ok (Registry.scenario ~protocol:"bracha" ~n:4 ~f:1));
  Alcotest.(check bool) "common coin" true
    (Result.map (fun (sc : Registry.scenario) -> sc.coin) (decoded [ ("coin", "common") ]) = Ok (Some Common));
  let error name tokens axis msg =
    match Registry.of_tokens tokens with
    | Ok _ -> Alcotest.failf "%s: decoded" name
    | Error (a, m) ->
      Alcotest.(check string) (name ^ ": axis") axis a;
      Alcotest.(check string) (name ^ ": message") msg m
  in
  error "missing f" [ ("protocol", "bracha"); ("n", "4") ] "f" "missing axis \"f\"";
  error "unknown axis" (base @ [ ("links", "raw") ]) "links" "unknown axis \"links\"";
  error "bad number" (base @ [ ("loss", "0.1.2") ]) "loss" "loss \"0.1.2\": want a number";
  error "unknown protocol" [ ("protocol", "vaba"); ("n", "4"); ("f", "1") ] "protocol"
    (Result.get_error (Registry.check_token ~axis:"protocol" "vaba"))

(* ---- committed specs stay loadable and well-formed ---- *)

(* Every bench/specs/*.matrix, each with its cell count: a spec added
   without a row here fails, as does a row whose spec is gone. *)
let test_committed_specs () =
  let expected =
    [ ("e1.matrix", 80); ("e2.matrix", 12); ("e3.matrix", 4); ("e4.matrix", 3);
      ("e5.matrix", 12); ("e6.matrix", 8); ("e7.matrix", 4); ("e9.matrix", 2); ("e10.matrix", 6);
      ("e10_coin.matrix", 2); ("e11.matrix", 6); ("e12.matrix", 4); ("e13.matrix", 6); ("e14.matrix", 8);
      ("e16.matrix", 36); ("e17.matrix", 16); ("e18.matrix", 8); ("e19_engine.matrix", 8);
      ("e19_engine_quick.matrix", 4) ]
  in
  let dir = "../bench/specs" in
  let files =
    Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".matrix")
  in
  Alcotest.(check (list string)) "every committed spec has a cell count"
    (List.sort String.compare (List.map fst expected))
    (List.sort String.compare files);
  List.iter
    (fun (file, cells) ->
      match Spec.load (Filename.concat dir file) with
      | Error e -> Alcotest.failf "%s: %s" file (Sexp.error_to_string e)
      | Ok spec ->
        Alcotest.(check int) (file ^ ": cell count") cells (Spec.cell_count spec);
        Alcotest.(check bool) (file ^ ": registry accepts every cell") true
          (Runner.check spec = Ok ()))
    expected

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
          Alcotest.test_case "range errors carry spans" `Quick test_range_errors;
          Alcotest.test_case "battery errors carry spans" `Quick test_battery_errors;
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
          Alcotest.test_case "a cell past its class needs expect-fail" `Quick test_beyond_class_refused;
          Alcotest.test_case "wall-clock zero without a clock" `Quick
            test_no_clock_zero_wall;
          Alcotest.test_case "deliver-all needs validity" `Quick test_deliver_all_needs_validity;
          Alcotest.test_case "log, acs and mmr-rabin decide" `Quick test_new_entries_decide;
          Alcotest.test_case "a + battery places kinds in order" `Quick test_battery_placement;
          Alcotest.test_case "table's p95, max and committed columns" `Quick test_table_columns;
          Alcotest.test_case "a cell's first seed" `Quick test_first_seed;
          Alcotest.test_case "values run as written" `Quick test_values_as_written;
        ] );
      ( "registry",
        [
          Alcotest.test_case "placed faults" `Quick test_placed_faults;
          Alcotest.test_case "flood relay over explicit graphs" `Quick test_flood_relay;
          Alcotest.test_case "turpin-coan within n>4f" `Quick test_turpin_coan;
          Alcotest.test_case "atomic replica measures" `Quick test_replica_measures;
          Alcotest.test_case "crash plans need a durable store" `Quick test_crash_plans_refused;
          Alcotest.test_case "tokens out and in" `Quick test_tokens;
        ] );
      ( "specs",
        [
          Alcotest.test_case "committed specs load" `Quick test_committed_specs;
        ] );
    ]
