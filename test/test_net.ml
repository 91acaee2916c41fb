(* Tests for the abc_net substrate: adversary policies, behaviours and
   the execution engine, exercised through a small gossip protocol. *)

module Node_id = Abc_net.Node_id
module Protocol = Abc_net.Protocol
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module Engine = Abc_net.Engine

(* A toy protocol: every node broadcasts its input once; a node
   terminates after hearing n-f distinct values, outputting their sum.
   Small, but it exercises broadcasts, outputs, termination and
   fault/adversary plumbing. *)
module Gossip = struct
  type input = int
  type msg = Hello of int
  type output = Done of int

  type state = { heard : int Node_id.Map.t; quorum : int; finished : bool }

  let name = "gossip"

  let initial ctx input =
    ( { heard = Node_id.Map.empty; quorum = Protocol.Context.quorum ctx; finished = false },
      [ Protocol.Broadcast (Hello input) ] )

  let on_message _ctx state ~src (Hello v) =
    if state.finished || Node_id.Map.mem src state.heard then (state, [], [])
    else begin
      let heard = Node_id.Map.add src v state.heard in
      if Node_id.Map.cardinal heard >= state.quorum then
        let sum = Node_id.Map.fold (fun _ v acc -> acc + v) heard 0 in
        ({ state with heard; finished = true }, [], [ Done sum ])
      else ({ state with heard }, [], [])
    end

  let is_terminal (Done _) = true
  let on_timeout = Protocol.no_timeout
  let msg_label (Hello _) = "hello"
  let msg_bytes (Hello _) = 5
  let pp_msg ppf (Hello v) = Fmt.pf ppf "hello(%d)" v
  let pp_output ppf (Done s) = Fmt.pf ppf "done(%d)" s
end

module Run = Engine.Make (Gossip)

let node = Node_id.of_int

let default_inputs n = Array.init n (fun i -> i + 1)

let run ?faulty ?adversary ?seed ?max_deliveries ?trace ~n ~f () =
  Run.run
    (Run.config ?faulty ?adversary ?seed ?max_deliveries ?trace ~n ~f
       ~inputs:(default_inputs n) ())

let check_stop expected result =
  Alcotest.(check string) "stop reason"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason expected)
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.Run.stop)

(* Engine basics *)

let test_all_terminal_no_faults () =
  let result = run ~n:4 ~f:0 () in
  check_stop Abc_net.Engine.All_terminal result;
  (* With f=0 the quorum is all nodes, so every node sums everything. *)
  Array.iter
    (fun outputs ->
      match outputs with
      | [ (_, Gossip.Done sum) ] -> Alcotest.(check int) "sum" 10 sum
      | _ -> Alcotest.fail "expected exactly one output")
    result.Run.outputs

let test_determinism () =
  let r1 = run ~n:5 ~f:1 ~adversary:Adversary.uniform ~seed:7 () in
  let r2 = run ~n:5 ~f:1 ~adversary:Adversary.uniform ~seed:7 () in
  Alcotest.(check int) "same deliveries" r1.Run.deliveries r2.Run.deliveries;
  Alcotest.(check int) "same duration" r1.Run.duration r2.Run.duration;
  let sums r =
    Array.to_list r.Run.outputs
    |> List.concat_map (List.map (fun (_, Gossip.Done s) -> s))
  in
  Alcotest.(check (list int)) "same outputs" (sums r1) (sums r2)

let test_seed_changes_schedule () =
  let r1 = run ~n:5 ~f:1 ~adversary:Adversary.uniform ~seed:1 () in
  let r2 = run ~n:5 ~f:1 ~adversary:Adversary.uniform ~seed:2 () in
  (* Different schedules generally yield different quorum sums at some
     node; at minimum the runs must both succeed. *)
  check_stop Abc_net.Engine.All_terminal r1;
  check_stop Abc_net.Engine.All_terminal r2

let test_metrics_counts () =
  let result = run ~n:4 ~f:0 () in
  Alcotest.(check int) "sent = n*n" 16
    (Abc_sim.Metrics.counter result.Run.metrics "sent");
  Alcotest.(check int) "labelled counter" 16
    (Abc_sim.Metrics.counter result.Run.metrics "sent.hello");
  Alcotest.(check int) "delivered = deliveries" result.Run.deliveries
    (Abc_sim.Metrics.counter result.Run.metrics "delivered")

let test_delivery_limit () =
  let result = run ~n:4 ~f:0 ~max_deliveries:3 () in
  check_stop Abc_net.Engine.Delivery_limit result;
  Alcotest.(check int) "stopped at budget" 3 result.Run.deliveries

let test_quiescent_when_quorum_unreachable () =
  (* Two silent nodes but f=1: the quorum of 3 hellos can never be
     reached by the 2 remaining senders. *)
  let faulty = [ (node 2, Behaviour.Silent); (node 3, Behaviour.Silent) ] in
  let result = run ~n:4 ~f:1 ~faulty () in
  check_stop Abc_net.Engine.Quiescent result

let test_trace_records () =
  let trace = Abc_sim.Trace.create () in
  let _ = run ~n:4 ~f:0 ~trace () in
  Alcotest.(check bool) "delivers traced" true
    (List.length (Abc_sim.Trace.find_kind trace ~label:"deliver") > 0);
  Alcotest.(check bool) "outputs traced" true
    (List.length (Abc_sim.Trace.find_kind trace ~label:"output") > 0)

let test_config_validation () =
  Alcotest.check_raises "inputs arity"
    (Invalid_argument "Engine.config: inputs length must equal n") (fun () ->
      ignore (Run.config ~n:4 ~f:1 ~inputs:[| 1 |] ()));
  (* checked first, so no 2^30-long input array is needed *)
  Alcotest.check_raises "id width"
    (Invalid_argument "Engine.config: n must not exceed 2^30 (the envelope id width)")
    (fun () -> ignore (Run.config ~n:((1 lsl 30) + 1) ~f:0 ~inputs:[||] ()));
  Alcotest.check_raises "faulty range"
    (Invalid_argument "Engine.config: faulty node id out of range") (fun () ->
      ignore
        (Run.config ~n:4 ~f:1
           ~faulty:[ (node 9, Behaviour.Silent) ]
           ~inputs:(default_inputs 4) ()))

let test_honest_listing () =
  let cfg =
    Run.config ~n:4 ~f:1
      ~faulty:[ (node 1, Behaviour.Silent) ]
      ~inputs:(default_inputs 4) ()
  in
  Alcotest.(check (list int)) "honest nodes" [ 0; 2; 3 ]
    (List.map Node_id.to_int (Run.honest cfg))

(* Behaviours *)

let test_silent_node_sends_nothing () =
  let faulty = [ (node 3, Behaviour.Silent) ] in
  let result = run ~n:4 ~f:1 ~faulty () in
  check_stop Abc_net.Engine.All_terminal result;
  (* 3 honest broadcasts of 4 messages each *)
  Alcotest.(check int) "sent" 12 (Abc_sim.Metrics.counter result.Run.metrics "sent");
  (* one suppressed logical action: the initial broadcast *)
  Alcotest.(check int) "dropped counted" 1
    (Abc_sim.Metrics.counter result.Run.metrics "dropped.faulty")

let test_crash_after_zero_is_silent () =
  let faulty = [ (node 3, Behaviour.Crash_after 0) ] in
  let result = run ~n:4 ~f:1 ~faulty () in
  check_stop Abc_net.Engine.All_terminal result;
  Alcotest.(check int) "sent" 12 (Abc_sim.Metrics.counter result.Run.metrics "sent")

let test_crash_after_one_sends_init () =
  let faulty = [ (node 3, Behaviour.Crash_after 1) ] in
  let result = run ~n:4 ~f:1 ~faulty () in
  check_stop Abc_net.Engine.All_terminal result;
  (* The initial broadcast (activation 0) goes out, nothing after. *)
  Alcotest.(check int) "sent" 16 (Abc_sim.Metrics.counter result.Run.metrics "sent")

let test_mutate_consistent_lie () =
  (* The liar reports 100 to everyone: every node that counts the liar
     in its quorum sees the same corrupted value. *)
  let faulty = [ (node 0, Behaviour.Mutate (fun _rng (Gossip.Hello _) -> Gossip.Hello 100)) ] in
  let result = run ~n:4 ~f:0 ~faulty () in
  check_stop Abc_net.Engine.All_terminal result;
  List.iter
    (fun i ->
      match result.Run.outputs.(i) with
      | [ (_, Gossip.Done sum) ] ->
        (* inputs 2+3+4 plus the lie 100 *)
        Alcotest.(check int) "corrupted sum" 109 sum
      | _ -> Alcotest.fail "expected one output")
    [ 1; 2; 3 ]

let test_equivocate_per_recipient () =
  (* Node 0 tells each node its own id as the value. *)
  let forge _rng ~dst (Gossip.Hello _) = Gossip.Hello (1000 * Node_id.to_int dst) in
  let faulty = [ (node 0, Behaviour.Equivocate forge) ] in
  let result = run ~n:4 ~f:0 ~faulty () in
  check_stop Abc_net.Engine.All_terminal result;
  List.iter
    (fun i ->
      match result.Run.outputs.(i) with
      | [ (_, Gossip.Done sum) ] ->
        Alcotest.(check int) "per-recipient lie" (9 + (1000 * i)) sum
      | _ -> Alcotest.fail "expected one output")
    [ 1; 2; 3 ]

let test_replay_duplicates () =
  let faulty = [ (node 0, Behaviour.Replay 2) ] in
  let result = run ~n:4 ~f:0 ~faulty () in
  check_stop Abc_net.Engine.All_terminal result;
  (* node 0 sends 3x4 = 12, others 4 each -> 24; duplicates are ignored
     by the dedup logic so sums stay correct. *)
  Alcotest.(check int) "sent with replay" 24
    (Abc_sim.Metrics.counter result.Run.metrics "sent");
  match result.Run.outputs.(1) with
  | [ (_, Gossip.Done sum) ] -> Alcotest.(check int) "dedup holds" 10 sum
  | _ -> Alcotest.fail "expected one output"

let test_behaviour_labels () =
  Alcotest.(check string) "honest" "honest" (Behaviour.label Behaviour.Honest);
  Alcotest.(check string) "silent" "silent" (Behaviour.label Behaviour.Silent);
  Alcotest.(check string) "crash" "crash" (Behaviour.label (Behaviour.Crash_after 3));
  Alcotest.(check string) "replay" "replay" (Behaviour.label (Behaviour.Replay 1));
  Alcotest.(check string) "crash-recover" "crash-recover"
    (Behaviour.label (Behaviour.Crash_recover [ (5, 10) ]))

(* Crash-recovery *)

(* The durable store for Gossip: a finished node's WAL holds its sum. *)
let gossip_recovery : Run.recovery =
  {
    Run.snapshot =
      (fun (state : Gossip.state) ->
        if state.Gossip.finished then
          let sum =
            Node_id.Map.fold (fun _ v acc -> acc + v) state.Gossip.heard 0
          in
          "done:" ^ string_of_int sum
        else "");
    restore =
      (fun ctx input ~durable ->
        match String.split_on_char ':' durable with
        | [ "done"; sum ] ->
          ( {
              Gossip.heard = Node_id.Map.empty;
              quorum = Protocol.Context.quorum ctx;
              finished = true;
            },
            [],
            [ Gossip.Done (int_of_string sum) ] )
        | _ ->
          let state, actions = Gossip.initial ctx input in
          (state, actions, []));
  }

let test_crash_recover_amnesia_quiescent () =
  (* Crash node 2 early (most Hellos still in flight get dropped) and
     rejoin it late with NO recovery support: total amnesia.  Its fresh
     incarnation rebroadcasts, but nobody re-sends their Hello, so it
     can never re-reach the quorum: the run goes quiescent. *)
  let faulty = [ (node 2, Behaviour.Crash_recover [ (3, 60) ]) ] in
  let result = run ~n:4 ~f:1 ~faulty () in
  check_stop Abc_net.Engine.Quiescent result;
  let c = Abc_sim.Metrics.counter result.Run.metrics in
  Alcotest.(check int) "crashed" 1 (c "node.crashed");
  Alcotest.(check int) "recovered" 1 (c "node.recovered");
  Alcotest.(check bool) "deliveries dropped while down" true
    (c "dropped.crashed" > 0)

let test_crash_recover_durable_completes () =
  (* Crash node 2 after it finished (all 16 deliveries land by tick
     16): its WAL holds the sum, so the restored incarnation re-emits
     its terminal output and the run stays all-terminal. *)
  let faulty = [ (node 2, Behaviour.Crash_recover [ (30, 40) ]) ] in
  let result =
    Run.run
      (Run.config ~n:4 ~f:1 ~faulty ~recovery:gossip_recovery
         ~inputs:(default_inputs 4) ())
  in
  check_stop Abc_net.Engine.All_terminal result;
  (match result.Run.outputs.(2) with
  | [ (_, Gossip.Done first); (t, Gossip.Done second) ] ->
    Alcotest.(check int) "restored sum matches" first second;
    Alcotest.(check int) "re-emitted at rejoin" 40 t
  | _ -> Alcotest.fail "expected pre-crash and post-restore outputs");
  let c = Abc_sim.Metrics.counter result.Run.metrics in
  Alcotest.(check int) "crashed" 1 (c "node.crashed");
  Alcotest.(check int) "recovered" 1 (c "node.recovered")

let test_crash_recover_traced () =
  let trace = Abc_sim.Trace.create () in
  let faulty = [ (node 2, Behaviour.Crash_recover [ (30, 40) ]) ] in
  let _ =
    Run.run
      (Run.config ~n:4 ~f:1 ~faulty ~recovery:gossip_recovery ~trace
         ~inputs:(default_inputs 4) ())
  in
  Alcotest.(check int) "node-crashed traced" 1
    (List.length (Abc_sim.Trace.find_kind trace ~label:"node-crashed"));
  Alcotest.(check int) "node-recovered traced" 1
    (List.length (Abc_sim.Trace.find_kind trace ~label:"node-recovered"))

let test_crash_recover_deterministic () =
  let go () =
    let faulty = [ (node 2, Behaviour.Crash_recover [ (3, 25); (50, 70) ]) ] in
    Run.run
      (Run.config ~n:4 ~f:1 ~faulty ~recovery:gossip_recovery ~seed:5
         ~adversary:Adversary.uniform ~inputs:(default_inputs 4) ())
  in
  let r1 = go () and r2 = go () in
  Alcotest.(check int) "same deliveries" r1.Run.deliveries r2.Run.deliveries;
  Alcotest.(check int) "same duration" r1.Run.duration r2.Run.duration

let test_crash_recover_schedule_validation () =
  let reject schedule =
    Alcotest.check_raises "malformed schedule"
      (Invalid_argument
         "Engine.config: malformed Crash_recover schedule (need non-empty, \
          crash < rejoin, strictly increasing)") (fun () ->
        ignore
          (Run.config ~n:4 ~f:1
             ~faulty:[ (node 1, Behaviour.Crash_recover schedule) ]
             ~inputs:(default_inputs 4) ()))
  in
  reject [];
  reject [ (10, 5) ];
  reject [ (10, 20); (15, 30) ]

(* Sequence diagram *)

let test_sequence_diagram () =
  let trace = Abc_sim.Trace.create () in
  let _ = run ~n:4 ~f:0 ~trace () in
  let diagram = Abc_net.Sequence_diagram.render trace ~n:4 in
  let lines = String.split_on_char '\n' diagram in
  (* header + one line per delivery + one per output + trailing "" *)
  Alcotest.(check bool) "has header" true
    (String.length (List.hd lines) > 0 && String.sub (List.hd lines) 0 4 = "time");
  Alcotest.(check bool) "draws arrows" true
    (List.exists (fun l -> String.contains l '>') lines
    || List.exists (fun l -> String.contains l '<') lines);
  Alcotest.(check bool) "marks outputs" true
    (List.exists (fun l -> String.contains l '!') lines);
  (* 16 deliveries + 4 outputs + header + trailing empty *)
  Alcotest.(check bool)
    (Printf.sprintf "line count plausible (%d)" (List.length lines))
    true
    (List.length lines >= 20)

let test_sequence_diagram_window () =
  let trace = Abc_sim.Trace.create () in
  let _ = run ~n:4 ~f:0 ~trace () in
  let full = Abc_net.Sequence_diagram.render trace ~n:4 in
  let window =
    Abc_net.Sequence_diagram.render_window trace ~n:4 ~from_time:0 ~to_time:3
  in
  Alcotest.(check bool) "window smaller" true
    (String.length window < String.length full)

(* Envelope arena *)

module Arena = Abc_net.Envelope_arena

let arena_push a ~seq =
  Arena.push a ~seq ~src:(node 0) ~dst:(node 1) ~sent_at:0 ~priority:0
    ~copy:false (seq * 10)

(* Removal moves the last slot into the hole, and the seq table
   follows both the moved and the removed entry.  Adversary choices,
   and so the engine's traces, stay as before only under this layout. *)
let test_arena_swap_remove_layout () =
  let a = Arena.create () in
  let v = Arena.view a in
  for seq = 0 to 4 do
    arena_push a ~seq
  done;
  Arena.remove a 1;
  Alcotest.(check int) "length" 4 (Arena.length v);
  Alcotest.(check int) "last moved into hole" 4 (Arena.seq v 1);
  Alcotest.(check int) "payload moved with it" 40 (Arena.payload a 1);
  Alcotest.(check int) "moved seq retargeted" 1 (Arena.slot_of_seq v 4);
  Alcotest.(check int) "removed seq dead" (-1) (Arena.slot_of_seq v 1);
  Alcotest.(check int) "untouched slot intact" 0 (Arena.slot_of_seq v 0)

(* Steady-state churn must recycle slots, not allocate: the first
   page holds the pool, and capacity stays at that one page through
   thousands of push/remove cycles (the hot-path no-allocation claim
   in PERFORMANCE.md). *)
let test_arena_reuse_after_recycle () =
  let a = Arena.create () in
  let v = Arena.view a in
  for seq = 0 to 7 do
    arena_push a ~seq
  done;
  let cap = Arena.capacity a in
  for seq = 8 to 4095 do
    Arena.remove a (Arena.oldest_slot v);
    arena_push a ~seq
  done;
  Alcotest.(check int) "length steady" 8 (Arena.length v);
  Alcotest.(check int) "capacity never regrew" cap (Arena.capacity a)

let test_arena_oldest_cursor () =
  let a = Arena.create () in
  let v = Arena.view a in
  for seq = 0 to 9 do
    arena_push a ~seq
  done;
  (* Remove seqs 0 and 2 (slot lookups stay valid through the moves);
     the oldest live message is then seq 1, wherever it sits. *)
  Arena.remove a (Arena.slot_of_seq v 0);
  Arena.remove a (Arena.slot_of_seq v 2);
  Alcotest.(check int) "oldest live seq" 1 (Arena.seq v (Arena.oldest_slot v));
  Arena.remove a (Arena.slot_of_seq v 1);
  Alcotest.(check int) "cursor advances past dead seqs" 3
    (Arena.seq v (Arena.oldest_slot v))

(* The arena against a plain model: the live envelopes in slot order,
   swap-remove applied by hand.  Ids span the documented width, and
   sent_at and priority the whole int range, so a packing or
   column-offset slip shows. *)
type envelope = {
  seq : int;
  src : int;
  dst : int;
  sent_at : int;
  priority : int;
  copy : bool;
}

(* A push skips [gap] seqs (the arena only needs them increasing); a
   remove hits live slot [k mod length].  A short case pushes three
   times for every remove and stays on the arena's first 256-slot
   page.  A long case fills it to some 550–770 live envelopes, onto a
   third page, eight pushes to a remove, with a rare gap of hundreds
   of seqs that carries the seq table through several doublings; it
   then drains a few hundred of them, four removes to a push, back
   across a page edge.  Its removes move the last slot from one page into a
   hole on another, and its pushes refill pages already allocated. *)
type arena_op = Push of int * envelope | Remove of int | Oldest

let arena_ops_arb =
  let open QCheck.Gen in
  let max_id = (1 lsl Arena.id_bits) - 1 in
  let id = oneof [ return 0; return max_id; int_bound max_id ] in
  let word = oneof [ return max_int; return min_int; int; small_nat ] in
  let envelope =
    map
      (fun (((src, dst), (sent_at, priority)), copy) ->
        { seq = 0; src; dst; sent_at; priority; copy })
      (pair (pair (pair id id) (pair word word)) bool)
  in
  let ops ~pushes ~removes ~gap =
    frequency
      [
        (pushes, map2 (fun gap e -> Push (gap, e)) gap envelope);
        (removes, map (fun k -> Remove k) nat);
        (1, return Oldest);
      ]
  in
  let short = list_size (int_range 1 200) (ops ~pushes:3 ~removes:1 ~gap:(int_bound 3)) in
  let long =
    let gap = frequency [ (150, int_bound 3); (1, int_range 256 1024) ] in
    map2 ( @ )
      (list_size (int_range 800 1200) (ops ~pushes:8 ~removes:1 ~gap))
      (list_size (int_range 300 700) (ops ~pushes:1 ~removes:4 ~gap))
  in
  let print = function
    | Push (gap, e) ->
      Printf.sprintf "push +%d (%d->%d t=%d p=%d%s)" gap e.src e.dst e.sent_at
        e.priority
        (if e.copy then " copy" else "")
    | Remove k -> Printf.sprintf "remove #%d" k
    | Oldest -> "oldest"
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    (frequency [ (29, short); (1, long) ])

let prop_arena_model =
  QCheck.Test.make ~name:"columns, seq table and cursor agree with a list model"
    ~count:300 arena_ops_arb (fun ops ->
      let a = Arena.create () in
      let v = Arena.view a in
      let live = ref [||] and next_seq = ref 0 in
      let agrees slot e =
        Arena.seq v slot = e.seq
        && Node_id.equal (Arena.src v slot) (Node_id.of_int e.src)
        && Node_id.equal (Arena.dst v slot) (Node_id.of_int e.dst)
        && Arena.sent_at v slot = e.sent_at
        && Arena.priority v slot = e.priority
        && Bool.equal (Arena.copy v slot) e.copy
        && Arena.payload a slot = -e.seq
        && Arena.slot_of_seq v e.seq = slot
      in
      (* [agrees] maps each live seq to its slot; then only the live
         seqs may map anywhere, among every seq from -1 to one past the
         last pushed: skipped, delivered and unborn ones give -1. *)
      let only_live_seqs_mapped () =
        let mapped = ref 0 in
        for seq = -1 to !next_seq do
          if Arena.slot_of_seq v seq <> -1 then incr mapped
        done;
        !mapped = Array.length !live
      in
      let model_oldest () =
        let best = ref 0 in
        Array.iteri (fun i e -> if e.seq < !live.(!best).seq then best := i) !live;
        !best
      in
      List.for_all
        (fun op ->
          (match op with
          | Push (gap, e) ->
            let e = { e with seq = !next_seq + gap } in
            next_seq := e.seq + 1;
            Arena.push a ~seq:e.seq ~src:(Node_id.of_int e.src)
              ~dst:(Node_id.of_int e.dst) ~sent_at:e.sent_at
              ~priority:e.priority ~copy:e.copy (-e.seq);
            live := Array.append !live [| e |]
          | Remove k when Array.length !live > 0 ->
            let last = Array.length !live - 1 in
            let slot = k mod (last + 1) in
            Arena.remove a slot;
            !live.(slot) <- !live.(last);
            live := Array.sub !live 0 last
          | Oldest when Array.length !live > 0 ->
            let got = Arena.oldest_slot v and want = model_oldest () in
            if got <> want then
              QCheck.Test.fail_reportf "oldest_slot %d, model %d" got want
          | Remove _ | Oldest -> ());
          Arena.length v = Array.length !live
          && Array.for_all Fun.id (Array.mapi agrees !live)
          && only_live_seqs_mapped ())
        ops)

(* Adversary policies *)

(* Each envelope is (seq, src, dst, priority).  [choose_with] pushes
   them in order into a fresh arena and notes each one, the new
   envelope at the view's last index as the engine does; it then
   removes the [delivered] seqs, as a fairness override would, and
   asks the policy. *)
let choose_with ?(delivered = []) policy ~rng envs =
  let instance = policy.Adversary.instantiate () in
  let a = Arena.create () in
  let v = Arena.view a in
  List.iter
    (fun (seq, src, dst, priority) ->
      Arena.push a ~seq ~src:(node src) ~dst:(node dst) ~sent_at:0 ~priority
        ~copy:false ();
      instance.Adversary.note v)
    envs;
  List.iter (fun seq -> Arena.remove a (Arena.slot_of_seq v seq)) delivered;
  instance.Adversary.choose ~rng ~now:0 v

let test_view_oldest () =
  let a = Arena.create () in
  let v = Arena.view a in
  for seq = 0 to 3 do
    arena_push a ~seq
  done;
  (* seq 3 moves into slot 0; seq 1 stays in slot 1 and is the oldest *)
  Arena.remove a 0;
  Alcotest.(check int) "oldest index" 1 (Adversary.View.oldest v);
  Alcotest.(check int) "moved seq" 0 (Adversary.View.find_seq v 3);
  Alcotest.(check int) "delivered seq" (-1) (Adversary.View.find_seq v 0)

let test_fifo_chooses_oldest () =
  let rng = Abc_prng.Stream.root ~seed:0 in
  (* once seq 0 is delivered, seq 2 sits in slot 0 and seq 1 in slot 1 *)
  Alcotest.(check int) "fifo" 1
    (choose_with Adversary.fifo ~rng ~delivered:[ 0 ]
       [ (0, 0, 1, 0); (1, 1, 2, 0); (2, 0, 1, 0) ])

let test_latency_prefers_earliest_arrival () =
  let rng = Abc_prng.Stream.root ~seed:0 in
  let policy = Adversary.latency ~mean:5. in
  Alcotest.(check int) "min priority wins" 1
    (choose_with policy ~rng [ (1, 0, 1, 50); (2, 1, 2, 3) ]);
  (* a delivered heap top is skipped: seq 3, now in slot 1, is next *)
  Alcotest.(check int) "delivered top skipped" 1
    (choose_with policy ~rng ~delivered:[ 2 ]
       [ (1, 0, 1, 50); (2, 1, 2, 3); (3, 2, 0, 9) ])

let test_targeted_delay_starves_victim () =
  let rng = Abc_prng.Stream.root ~seed:0 in
  let policy = Adversary.targeted_delay ~victims:[ node 1 ] in
  Alcotest.(check int) "victim starved" 1
    (choose_with policy ~rng [ (1, 0, 1, 0); (2, 0, 2, 0) ])

let test_source_starve () =
  let rng = Abc_prng.Stream.root ~seed:0 in
  let policy = Adversary.source_starve ~victims:[ node 0 ] in
  Alcotest.(check int) "victim's messages starved" 1
    (choose_with policy ~rng [ (1, 0, 1, 0); (2, 1, 2, 0) ])

let test_split_starves_cross_half () =
  let rng = Abc_prng.Stream.root ~seed:0 in
  let policy = Adversary.split ~n:4 in
  (* seq 1 crosses the halves *)
  Alcotest.(check int) "same-half preferred" 1
    (choose_with policy ~rng [ (1, 0, 3, 0); (2, 2, 3, 0) ])

let test_fairness_overrides_starvation () =
  (* Under targeted-delay the victim must still terminate thanks to the
     engine's fairness bound. *)
  let result =
    run ~n:4 ~f:0 ~adversary:(Adversary.targeted_delay ~victims:[ node 1 ]) ()
  in
  check_stop Abc_net.Engine.All_terminal result;
  Alcotest.(check bool) "victim produced output" true
    (List.length result.Run.outputs.(1) = 1)

let test_fairness_age_bounded () =
  (* The fairness audit: even under pure starvation the oldest message
     is forced out at the age bound, so no delivery age can exceed the
     bound by more than the backlog drained one-per-tick. *)
  let result =
    run ~n:4 ~f:0 ~adversary:(Adversary.targeted_delay ~victims:[ node 1 ]) ()
  in
  check_stop Abc_net.Engine.All_terminal result;
  let bound = 32 * 4 * 4 in
  let max_age = Abc_sim.Metrics.counter result.Run.metrics "max_delivery_age" in
  Alcotest.(check bool)
    (Printf.sprintf "max age %d within bound %d + backlog" max_age (bound + 64))
    true
    (max_age <= bound + 64)

let test_rotating_eclipse_completes () =
  (* Victim rotation must not break liveness. *)
  List.iter
    (fun seed ->
      let result =
        run ~n:5 ~f:1 ~adversary:(Adversary.rotating_eclipse ~n:5 ~period:3) ~seed ()
      in
      check_stop Abc_net.Engine.All_terminal result)
    [ 0; 1; 2; 3; 4 ]

let test_rotating_eclipse_starves_current_victim () =
  let rng = Abc_prng.Stream.root ~seed:0 in
  let policy = Adversary.rotating_eclipse ~n:3 ~period:100 in
  (* Two messages: one to the initial victim (node 0), one to node 1:
     the non-victim message must be chosen first. *)
  Alcotest.(check int) "avoids victim" 1
    (choose_with policy ~rng [ (1, 2, 0, 0); (2, 2, 1, 0) ])

(* Link faults: deterministic drop/dup/partition plans *)

module Link_faults = Abc_net.Link_faults

let counter result name = Abc_sim.Metrics.counter result.Run.metrics name

let run_faults ?adversary ?(seed = 0) ~link_faults ~n ~f () =
  Run.run
    (Run.config ?adversary ~seed ~link_faults ~n ~f ~inputs:(default_inputs n) ())

let test_drop_all_counts () =
  (* drop=1.0: 4 broadcasts x 4 recipients = 16 sends; the 4
     self-deliveries survive (a node's channel to itself is never
     faulty) and all 12 cross-link messages drop, so nobody reaches the
     quorum of 3 and the run goes quiescent. *)
  let plan = Link_faults.make ~drop:1.0 () in
  let result = run_faults ~link_faults:plan ~n:4 ~f:1 () in
  check_stop Abc_net.Engine.Quiescent result;
  Alcotest.(check int) "sent" 16 (counter result "sent");
  Alcotest.(check int) "dropped" 12 (counter result "dropped.link");
  Alcotest.(check int) "dropped by loss" 12 (counter result "dropped.link.loss");
  Alcotest.(check int) "delivered" 4 result.Run.deliveries;
  Array.iter
    (fun outputs -> Alcotest.(check int) "no outputs" 0 (List.length outputs))
    result.Run.outputs

let test_dup_all_counts () =
  (* dup=1.0 under fifo: all 16 originals are delivered in send order,
     each of the 12 cross-link deliveries enqueues exactly one copy
     (copies are never re-duplicated), and the run reaches all-terminal
     before any copy is delivered.  Gossip dedups, so sums are exact. *)
  let plan = Link_faults.make ~dup:1.0 () in
  let result =
    run_faults ~link_faults:plan ~adversary:Adversary.fifo ~n:4 ~f:0 ()
  in
  check_stop Abc_net.Engine.All_terminal result;
  Alcotest.(check int) "duplicated" 12 (counter result "duplicated.link");
  Alcotest.(check int) "delivered" 16 result.Run.deliveries;
  Array.iter
    (fun outputs ->
      match outputs with
      | [ (_, Gossip.Done sum) ] -> Alcotest.(check int) "sum" 10 sum
      | _ -> Alcotest.fail "expected exactly one output")
    result.Run.outputs

let test_partition_isolates_island () =
  (* A never-healing cut around node 0: its 3 outbound and 3 inbound
     cross messages drop; the island complement {1,2,3} still reaches
     quorum (3 = n-f) among themselves and sums 2+3+4. *)
  let cuts = [ Link_faults.cut ~from_tick:0 ~until_tick:max_int [ node 0 ] ] in
  let plan = Link_faults.make ~cuts () in
  let result = run_faults ~link_faults:plan ~n:4 ~f:1 () in
  check_stop Abc_net.Engine.Quiescent result;
  Alcotest.(check int) "partition drops" 6 (counter result "dropped.link.partition");
  Alcotest.(check int) "no loss drops" 0 (counter result "dropped.link.loss");
  Alcotest.(check int) "node 0 isolated" 0 (List.length result.Run.outputs.(0));
  List.iter
    (fun i ->
      match result.Run.outputs.(i) with
      | [ (_, Gossip.Done sum) ] -> Alcotest.(check int) "mainland sum" 9 sum
      | _ -> Alcotest.fail "mainland node should finish")
    [ 1; 2; 3 ]

let test_partition_heals () =
  (* Cut around node 0 for ticks [0,5) under fifo.  Deliveries happen
     at ticks 1..16 in send order, so exactly node 0's three cross
     sends (ticks 2,3,4) are severed; everything from tick 5 on flows.
     Node 0 then hears itself plus nodes 1,2 (quorum 3): 1+2+3 = 6. *)
  let cuts = [ Link_faults.cut ~from_tick:0 ~until_tick:5 [ node 0 ] ] in
  let plan = Link_faults.make ~cuts () in
  let result =
    run_faults ~link_faults:plan ~adversary:Adversary.fifo ~n:4 ~f:1 ()
  in
  check_stop Abc_net.Engine.All_terminal result;
  Alcotest.(check int) "partition drops" 3 (counter result "dropped.link.partition");
  (match result.Run.outputs.(0) with
  | [ (_, Gossip.Done sum) ] -> Alcotest.(check int) "healed sum" 6 sum
  | _ -> Alcotest.fail "node 0 should finish after the heal");
  List.iter
    (fun i ->
      match result.Run.outputs.(i) with
      | [ (_, Gossip.Done sum) ] -> Alcotest.(check int) "mainland sum" 9 sum
      | _ -> Alcotest.fail "mainland node should finish")
    [ 1; 2; 3 ]

let test_link_events_traced () =
  let trace = Abc_sim.Trace.create () in
  let plan = Link_faults.make ~drop:0.5 ~dup:0.4 () in
  let _ =
    Run.run
      (Run.config ~n:4 ~f:1 ~inputs:(default_inputs 4) ~link_faults:plan
         ~adversary:Adversary.uniform ~seed:1 ~trace ())
  in
  Alcotest.(check bool) "drops traced" true
    (List.length (Abc_sim.Trace.find_kind trace ~label:"link-drop") > 0);
  Alcotest.(check bool) "dups traced" true
    (List.length (Abc_sim.Trace.find_kind trace ~label:"link-dup") > 0)

let test_inactive_plan_is_identity () =
  (* An all-zero plan must not even perturb the PRNG: the run is
     bit-identical to one with no plan at all. *)
  let r1 = run ~n:5 ~f:1 ~adversary:Adversary.uniform ~seed:11 () in
  let r2 =
    run_faults ~link_faults:(Link_faults.make ()) ~adversary:Adversary.uniform
      ~seed:11 ~n:5 ~f:1 ()
  in
  Alcotest.(check int) "deliveries" r1.Run.deliveries r2.Run.deliveries;
  Alcotest.(check int) "duration" r1.Run.duration r2.Run.duration

let prop_link_faults_deterministic =
  QCheck.Test.make ~name:"lossy runs are a function of the seed" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let cuts = [ Link_faults.cut ~from_tick:3 ~until_tick:9 [ node 1 ] ] in
      let plan = Link_faults.make ~drop:0.2 ~dup:0.1 ~cuts () in
      let go () =
        run_faults ~link_faults:plan ~adversary:Adversary.uniform ~seed ~n:4
          ~f:1 ()
      in
      let r1 = go () and r2 = go () in
      r1.Run.deliveries = r2.Run.deliveries
      && r1.Run.duration = r2.Run.duration
      && counter r1 "dropped.link" = counter r2 "dropped.link"
      && counter r1 "duplicated.link" = counter r2 "duplicated.link")

(* Virtual timers *)

(* A message-free protocol driven entirely by timeouts: counts [input]
   timer firings 4 ticks apart, terminating at zero. *)
module Ticker = struct
  type input = int

  (* never constructed: the protocol is message-free *)
  type msg = Never [@warning "-37"]
  type output = Fired of int

  type state = int

  let name = "ticker"

  let initial _ctx k =
    ((k : state), if k > 0 then [ Protocol.Set_timer { id = 3; after = 4 } ] else [])

  let on_message _ctx state ~src:_ Never = (state, [], [])

  let on_timeout _ctx state ~id =
    Alcotest.(check int) "timer id" 3 id;
    let state = state - 1 in
    ( state,
      (if state > 0 then [ Protocol.Set_timer { id = 3; after = 4 } ] else []),
      [ Fired state ] )

  let is_terminal (Fired k) = k = 0

  let msg_label Never = "never"
  let msg_bytes Never = 1

  let pp_msg ppf Never = Fmt.string ppf "never"

  let pp_output ppf (Fired k) = Fmt.pf ppf "fired(%d)" k
end

module TickRun = Engine.Make (Ticker)

let test_timers_drive_quiet_network () =
  (* No messages at all: the clock must jump to each due tick (4, then
     8) instead of declaring quiescence. *)
  let result =
    TickRun.run (TickRun.config ~n:1 ~f:0 ~inputs:[| 2 |] ())
  in
  Alcotest.(check string) "stop" "all-terminal"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.TickRun.stop);
  Alcotest.(check int) "duration" 8 result.TickRun.duration;
  Alcotest.(check int) "timers set" 2
    (Abc_sim.Metrics.counter result.TickRun.metrics "timer.set");
  Alcotest.(check int) "timers fired" 2
    (Abc_sim.Metrics.counter result.TickRun.metrics "timer.fired");
  Alcotest.(check int) "no deliveries" 0 result.TickRun.deliveries;
  match result.TickRun.outputs.(0) with
  | [ (t1, Ticker.Fired 1); (t2, Ticker.Fired 0) ] ->
    Alcotest.(check int) "first firing" 4 t1;
    Alcotest.(check int) "second firing" 8 t2
  | _ -> Alcotest.fail "expected two firings"

let test_crash_invalidates_timers () =
  (* Node 1 crashes at tick 2 with its first timer (due at 4) armed:
     the firing must be discarded as stale, not delivered to the fresh
     incarnation.  After rejoining at 100 with amnesia it restarts its
     countdown from scratch and still completes. *)
  let faulty = [ (node 1, Behaviour.Crash_recover [ (2, 100) ]) ] in
  let result =
    TickRun.run (TickRun.config ~n:2 ~f:0 ~faulty ~inputs:[| 2; 2 |] ())
  in
  Alcotest.(check string) "stop" "all-terminal"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.TickRun.stop);
  let c = Abc_sim.Metrics.counter result.TickRun.metrics in
  Alcotest.(check int) "stale timer discarded" 1 (c "timer.stale");
  (match result.TickRun.outputs.(1) with
  | [ (t1, Ticker.Fired 1); (t2, Ticker.Fired 0) ] ->
    Alcotest.(check int) "restarted countdown" 104 t1;
    Alcotest.(check int) "completed after rejoin" 108 t2
  | _ -> Alcotest.fail "expected a full restarted countdown");
  match result.TickRun.outputs.(0) with
  | [ (4, Ticker.Fired 1); (8, Ticker.Fired 0) ] -> ()
  | _ -> Alcotest.fail "node 0's schedule must be unaffected"

let test_no_timers_means_quiescent () =
  let result = TickRun.run (TickRun.config ~n:1 ~f:0 ~inputs:[| 0 |] ()) in
  Alcotest.(check string) "stop" "quiescent"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.TickRun.stop);
  Alcotest.(check int) "duration" 0 result.TickRun.duration

let test_timer_events_traced () =
  let trace = Abc_sim.Trace.create () in
  let _ =
    TickRun.run (TickRun.config ~n:1 ~f:0 ~inputs:[| 2 |] ~trace ())
  in
  Alcotest.(check int) "timer-set traced" 2
    (List.length (Abc_sim.Trace.find_kind trace ~label:"timer-set"));
  Alcotest.(check int) "timeout traced" 2
    (List.length (Abc_sim.Trace.find_kind trace ~label:"timeout"))

(* The reliable-channel transport *)

module RGossip = Abc_net.Reliable_link.Make (Gossip)
module RRun = Engine.Make (RGossip)

let test_reliable_link_transparent () =
  (* Over a faultless network the wrapper is invisible: same outputs as
     the raw protocol, no retransmissions. *)
  let result =
    RRun.run
      (RRun.config ~n:4 ~f:0 ~inputs:(default_inputs 4)
         ~adversary:Adversary.uniform ~seed:7 ())
  in
  Alcotest.(check string) "stop" "all-terminal"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.RRun.stop);
  Alcotest.(check int) "no retransmissions" 0
    (Abc_sim.Metrics.counter result.RRun.metrics "sent.rl.retx");
  Array.iter
    (fun outputs ->
      match outputs with
      | [ (_, Gossip.Done sum) ] -> Alcotest.(check int) "sum" 10 sum
      | _ -> Alcotest.fail "expected exactly one output")
    result.RRun.outputs

let test_reliable_link_retransmission_schedule () =
  (* Hand-computed ARQ run: two nodes behind a partition around node 0
     that heals at tick 40, fifo scheduling, initial rto 8n^2 = 32.

     t1-t6: the two self Data and their Acks flow; both cross Data
     (ticks 2,3) are severed.  t=32: node 0's self channel is acked,
     its timer disarms.  t=33,34: both cross channels time out and
     retransmit; the copies (ticks 36,37) are still severed.  rto
     doubles to 64: the next firings at t=97,98 retransmit again, and
     those copies (ticks 99,100) land after the heal — each peer
     delivers the other's Hello and terminates. *)
  let cuts = [ Link_faults.cut ~from_tick:0 ~until_tick:40 [ node 0 ] ] in
  let plan = Link_faults.make ~cuts () in
  let result =
    RRun.run
      (RRun.config ~n:2 ~f:0 ~inputs:(default_inputs 2)
         ~adversary:Adversary.fifo ~link_faults:plan ())
  in
  let c = Abc_sim.Metrics.counter result.RRun.metrics in
  Alcotest.(check string) "stop" "all-terminal"
    (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.RRun.stop);
  Alcotest.(check int) "partition drops" 4 (c "dropped.link");
  Alcotest.(check int) "retransmissions" 4 (c "sent.rl.retx");
  Alcotest.(check int) "timers fired" 6 (c "timer.fired");
  Alcotest.(check int) "timers set" 8 (c "timer.set");
  Alcotest.(check int) "deliveries" 6 result.RRun.deliveries;
  Alcotest.(check int) "duration" 100 result.RRun.duration;
  Array.iter
    (fun outputs ->
      match outputs with
      | [ (_, Gossip.Done sum) ] -> Alcotest.(check int) "sum" 3 sum
      | _ -> Alcotest.fail "expected exactly one output")
    result.RRun.outputs

let test_reliable_link_retransmit_events_traced () =
  let trace = Abc_sim.Trace.create () in
  let cuts = [ Link_faults.cut ~from_tick:0 ~until_tick:40 [ node 0 ] ] in
  let plan = Link_faults.make ~cuts () in
  let _ =
    RRun.run
      (RRun.config ~n:2 ~f:0 ~inputs:(default_inputs 2)
         ~adversary:Adversary.fifo ~link_faults:plan ~trace ())
  in
  Alcotest.(check int) "retransmit events" 4
    (List.length (Abc_sim.Trace.find_kind trace ~label:"retransmit"))

let test_reliable_link_masks_loss () =
  (* 30% loss: the raw protocol generally goes quiescent short of
     quorum; the wrapped one must still complete on every seed. *)
  List.iter
    (fun seed ->
      let plan = Link_faults.make ~drop:0.3 () in
      let result =
        RRun.run
          (RRun.config ~n:4 ~f:1 ~inputs:(default_inputs 4)
             ~adversary:Adversary.uniform ~seed ~link_faults:plan ())
      in
      Alcotest.(check string) "stop" "all-terminal"
        (Fmt.str "%a" Abc_net.Engine.pp_stop_reason result.RRun.stop);
      Array.iter
        (fun outputs ->
          Alcotest.(check int) "one output" 1 (List.length outputs))
        result.RRun.outputs)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_all_policies_complete () =
  List.iter
    (fun adversary ->
      let result = run ~n:7 ~f:2 ~adversary ~seed:3 () in
      check_stop Abc_net.Engine.All_terminal result)
    (Adversary.all_basic ~n:7)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are a function of the seed" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let r1 = run ~n:4 ~f:1 ~adversary:Adversary.uniform ~seed () in
      let r2 = run ~n:4 ~f:1 ~adversary:Adversary.uniform ~seed () in
      r1.Run.deliveries = r2.Run.deliveries && r1.Run.duration = r2.Run.duration)

(* ---- Node_id.Set: a counted bitset against Set.Make (Int) ---- *)

module Int_set = Set.Make (Int)

(* Ids in [0, 1024); the ends and both sides of the first two word
   boundaries (bit 62 is a word's last, 63 the next word's first) are
   drawn often. *)
let ids_arb =
  QCheck.(
    make
      ~print:Print.(list int)
      Gen.(list_size (int_bound 150) (oneof [ int_bound 1023; oneofl [ 0; 62; 63; 125; 126; 1023 ] ])))

let prop_node_set_model =
  QCheck.Test.make ~name:"mem and cardinal agree with Set.Make (Int)" ~count:300 ids_arb
    (fun ids ->
      let set, model =
        List.fold_left
          (fun (set, model) i ->
            let set = Node_id.Set.add (Node_id.of_int i) set and model = Int_set.add i model in
            if Node_id.Set.cardinal set <> Int_set.cardinal model then
              QCheck.Test.fail_reportf "cardinal %d, model %d after adding %d"
                (Node_id.Set.cardinal set) (Int_set.cardinal model) i;
            (set, model))
          (Node_id.Set.empty, Int_set.empty) ids
      in
      List.for_all
        (fun i -> Bool.equal (Node_id.Set.mem (Node_id.of_int i) set) (Int_set.mem i model))
        (List.init 1100 Fun.id))

let prop_node_set_order_free =
  QCheck.Test.make ~name:"insertion order does not change the bytes" ~count:300 ids_arb
    (fun ids ->
      let bytes ids = Marshal.to_string (Node_id.Set.of_list (List.map Node_id.of_int ids)) [] in
      String.equal (bytes ids) (bytes (List.rev ids))
      && String.equal (bytes ids) (bytes (List.sort_uniq Int.compare ids)))

let prop_node_set_add_present =
  QCheck.Test.make ~name:"adding a member returns the set itself" ~count:300 ids_arb
    (fun ids ->
      let set = Node_id.Set.of_list (List.map Node_id.of_int ids) in
      List.for_all (fun i -> Node_id.Set.add (Node_id.of_int i) set == set) ids)

let () =
  Alcotest.run "abc_net"
    [
      ( "engine",
        [
          Alcotest.test_case "all terminal, no faults" `Quick
            test_all_terminal_no_faults;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule;
          Alcotest.test_case "metrics counts" `Quick test_metrics_counts;
          Alcotest.test_case "delivery limit" `Quick test_delivery_limit;
          Alcotest.test_case "quiescent detection" `Quick
            test_quiescent_when_quorum_unreachable;
          Alcotest.test_case "trace records" `Quick test_trace_records;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "honest listing" `Quick test_honest_listing;
          QCheck_alcotest.to_alcotest prop_engine_deterministic;
        ] );
      ( "node set",
        [
          QCheck_alcotest.to_alcotest prop_node_set_model;
          QCheck_alcotest.to_alcotest prop_node_set_order_free;
          QCheck_alcotest.to_alcotest prop_node_set_add_present;
        ] );
      ( "envelope arena",
        [
          Alcotest.test_case "swap-remove layout" `Quick
            test_arena_swap_remove_layout;
          Alcotest.test_case "reuse after recycle" `Quick
            test_arena_reuse_after_recycle;
          Alcotest.test_case "oldest cursor" `Quick test_arena_oldest_cursor;
          QCheck_alcotest.to_alcotest prop_arena_model;
        ] );
      ( "behaviours",
        [
          Alcotest.test_case "silent" `Quick test_silent_node_sends_nothing;
          Alcotest.test_case "crash_after 0" `Quick test_crash_after_zero_is_silent;
          Alcotest.test_case "crash_after 1" `Quick test_crash_after_one_sends_init;
          Alcotest.test_case "mutate" `Quick test_mutate_consistent_lie;
          Alcotest.test_case "equivocate" `Quick test_equivocate_per_recipient;
          Alcotest.test_case "replay" `Quick test_replay_duplicates;
          Alcotest.test_case "labels" `Quick test_behaviour_labels;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "amnesia cannot rejoin a quorum" `Quick
            test_crash_recover_amnesia_quiescent;
          Alcotest.test_case "durable store completes" `Quick
            test_crash_recover_durable_completes;
          Alcotest.test_case "crash/recover traced" `Quick
            test_crash_recover_traced;
          Alcotest.test_case "deterministic" `Quick
            test_crash_recover_deterministic;
          Alcotest.test_case "schedule validation" `Quick
            test_crash_recover_schedule_validation;
        ] );
      ( "sequence diagram",
        [
          Alcotest.test_case "render" `Quick test_sequence_diagram;
          Alcotest.test_case "window" `Quick test_sequence_diagram_window;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "view oldest" `Quick test_view_oldest;
          Alcotest.test_case "fifo" `Quick test_fifo_chooses_oldest;
          Alcotest.test_case "latency" `Quick test_latency_prefers_earliest_arrival;
          Alcotest.test_case "targeted delay" `Quick test_targeted_delay_starves_victim;
          Alcotest.test_case "source starve" `Quick test_source_starve;
          Alcotest.test_case "split" `Quick test_split_starves_cross_half;
          Alcotest.test_case "fairness override" `Quick
            test_fairness_overrides_starvation;
          Alcotest.test_case "all policies complete" `Quick test_all_policies_complete;
          Alcotest.test_case "fairness age bounded" `Quick test_fairness_age_bounded;
          Alcotest.test_case "rotating eclipse completes" `Quick
            test_rotating_eclipse_completes;
          Alcotest.test_case "rotating eclipse starves victim" `Quick
            test_rotating_eclipse_starves_current_victim;
        ] );
      ( "link faults",
        [
          Alcotest.test_case "drop all: exact counts" `Quick test_drop_all_counts;
          Alcotest.test_case "dup all: exact counts" `Quick test_dup_all_counts;
          Alcotest.test_case "partition isolates island" `Quick
            test_partition_isolates_island;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "link events traced" `Quick test_link_events_traced;
          Alcotest.test_case "inactive plan is identity" `Quick
            test_inactive_plan_is_identity;
          QCheck_alcotest.to_alcotest prop_link_faults_deterministic;
        ] );
      ( "timers",
        [
          Alcotest.test_case "timers drive a quiet network" `Quick
            test_timers_drive_quiet_network;
          Alcotest.test_case "no timers means quiescent" `Quick
            test_no_timers_means_quiescent;
          Alcotest.test_case "timer events traced" `Quick test_timer_events_traced;
          Alcotest.test_case "crash invalidates timers" `Quick
            test_crash_invalidates_timers;
        ] );
      ( "reliable link",
        [
          Alcotest.test_case "transparent when faultless" `Quick
            test_reliable_link_transparent;
          Alcotest.test_case "retransmission schedule (hand-computed)" `Quick
            test_reliable_link_retransmission_schedule;
          Alcotest.test_case "retransmit events traced" `Quick
            test_reliable_link_retransmit_events_traced;
          Alcotest.test_case "masks 30% loss" `Quick test_reliable_link_masks_loss;
        ] );
    ]
