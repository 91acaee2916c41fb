type stop_reason = All_terminal | Quiescent | Delivery_limit

let pp_stop_reason ppf = function
  | All_terminal -> Fmt.string ppf "all-terminal"
  | Quiescent -> Fmt.string ppf "quiescent"
  | Delivery_limit -> Fmt.string ppf "delivery-limit"

module Make (P : Protocol.S) = struct
  type recovery = {
    snapshot : P.state -> string;
    restore :
      Protocol.Context.t ->
      P.input ->
      durable:string ->
      P.state * P.msg Protocol.action list * P.output list;
  }

  type config = {
    n : int;
    f : int;
    inputs : P.input array;
    faulty : (Node_id.t * P.msg Behaviour.t) list;
    adversary : Adversary.t;
    seed : int;
    max_deliveries : int;
    trace : Abc_sim.Trace.t option;
    topology : Topology.t option;
    link_faults : Link_faults.t option;
    recovery : recovery option;
  }

  type result = {
    outputs : (int * P.output) list array;
    stop : stop_reason;
    deliveries : int;
    duration : int;
    metrics : Abc_sim.Metrics.t;
  }

  let config ?(faulty = []) ?(adversary = Adversary.fifo) ?(seed = 0)
      ?max_deliveries ?trace ?topology ?link_faults ?recovery ~n ~f ~inputs () =
    if n > 1 lsl Envelope_arena.id_bits then
      invalid_arg "Engine.config: n must not exceed 2^30 (the envelope id width)";
    if Array.length inputs <> n then
      invalid_arg "Engine.config: inputs length must equal n";
    (match topology with
    | Some g when Topology.nodes g <> n ->
      invalid_arg "Engine.config: topology size must equal n"
    | Some _ | None -> ());
    List.iter
      (fun (id, b) ->
        if Node_id.to_int id >= n then
          invalid_arg "Engine.config: faulty node id out of range";
        match Behaviour.crash_schedule b with
        | Some s when not (Behaviour.validate_schedule s) ->
          invalid_arg
            "Engine.config: malformed Crash_recover schedule (need \
             non-empty, crash < rejoin, strictly increasing)"
        | Some _ | None -> ())
      faulty;
    let max_deliveries =
      match max_deliveries with Some m -> m | None -> 200_000 * n
    in
    {
      n;
      f;
      inputs;
      faulty;
      adversary;
      seed;
      max_deliveries;
      trace;
      topology;
      link_faults;
      recovery;
    }

  let honest cfg =
    let faulty_set = Node_id.Set.of_list (List.map fst cfg.faulty) in
    List.filter
      (fun id -> not (Node_id.Set.mem id faulty_set))
      (Node_id.all ~n:cfg.n)

  type node = {
    id : Node_id.t;
    ctx : Protocol.Context.t;
    behaviour : P.msg Behaviour.t;
    behaviour_rng : Abc_prng.Stream.t;
    mutable state : P.state;
    mutable activations : int;
    mutable terminal : bool;
    mutable outputs : (int * P.output) list; (* reversed *)
  }

  let run cfg =
    let root = Abc_prng.Stream.root ~seed:cfg.seed in
    let adversary_rng = Abc_prng.Stream.split root ~label:cfg.n in
    (* Link-fault decisions draw from a dedicated stream (labels 0..n-1
       are the nodes, n the adversary, n+1..2n the behaviours), and the
       stream only exists when the plan can bite — so a run with faults
       disabled is bit-identical to one with no plan at all. *)
    let link_plan =
      match cfg.link_faults with
      | Some plan when Link_faults.active plan ->
        Some (plan, Abc_prng.Stream.split root ~label:((2 * cfg.n) + 1))
      | Some _ | None -> None
    in
    let policy = cfg.adversary.Adversary.instantiate () in
    let metrics = Abc_sim.Metrics.create () in
    (* Pre-interned handles for every per-message counter, so the hot
       path never concatenates or hashes a string label (see
       PERFORMANCE.md).  Interned-but-untouched handles stay invisible
       to [Metrics.counters], preserving pre-rework output exactly. *)
    let m_sent = Abc_sim.Metrics.handle metrics "sent" in
    let m_delivered = Abc_sim.Metrics.handle metrics "delivered" in
    let m_bytes_sent = Abc_sim.Metrics.handle metrics "bytes.sent" in
    let m_bytes_delivered = Abc_sim.Metrics.handle metrics "bytes.delivered" in
    let m_dropped_topology = Abc_sim.Metrics.handle metrics "dropped.topology" in
    let m_dropped_faulty = Abc_sim.Metrics.handle metrics "dropped.faulty" in
    let m_dropped_link = Abc_sim.Metrics.handle metrics "dropped.link" in
    let m_dropped_crashed = Abc_sim.Metrics.handle metrics "dropped.crashed" in
    let m_duplicated_link = Abc_sim.Metrics.handle metrics "duplicated.link" in
    let m_timer_set = Abc_sim.Metrics.handle metrics "timer.set" in
    let m_timer_fired = Abc_sim.Metrics.handle metrics "timer.fired" in
    let m_timer_stale = Abc_sim.Metrics.handle metrics "timer.stale" in
    let m_node_crashed = Abc_sim.Metrics.handle metrics "node.crashed" in
    let m_node_recovered = Abc_sim.Metrics.handle metrics "node.recovered" in
    (* Per-label counter handles ("sent.<label>", "bytes.sent.<label>",
       "bytes.delivered.<label>"), interned on first sight of the
       label.  Protocols return their labels as shared literals, so the
       physical-equality memo hits on nearly every message and the
       fallback table is touched only on label changes. *)
    let module Str_tbl = Hashtbl.Make (struct
      type t = string

      let equal = String.equal
      let hash = String.hash
    end) in
    let label_cache :
        (Abc_sim.Metrics.handle * Abc_sim.Metrics.handle * Abc_sim.Metrics.handle)
        Str_tbl.t =
      Str_tbl.create 8
    in
    let memo_label = ref (String.make 1 '\000') in
    let memo_handles = ref (m_sent, m_bytes_sent, m_bytes_delivered) in
    let label_handles label =
      if label == !memo_label then !memo_handles
      else begin
        let handles =
          match Str_tbl.find_opt label_cache label with
          | Some hs -> hs
          | None ->
            let hs =
              ( Abc_sim.Metrics.handle metrics ("sent." ^ label),
                Abc_sim.Metrics.handle metrics ("bytes.sent." ^ label),
                Abc_sim.Metrics.handle metrics ("bytes.delivered." ^ label) )
            in
            Str_tbl.add label_cache label hs;
            hs
        in
        memo_label := label;
        memo_handles := handles;
        handles
      end
    in
    let reason_cache : Abc_sim.Metrics.handle Str_tbl.t = Str_tbl.create 4 in
    let reason_handle reason =
      match Str_tbl.find_opt reason_cache reason with
      | Some h -> h
      | None ->
        let h = Abc_sim.Metrics.handle metrics ("dropped.link." ^ reason) in
        Str_tbl.add reason_cache reason h;
        h
    in
    let clock = Abc_sim.Clock.create () in
    let pending : P.msg Envelope_arena.t = Envelope_arena.create () in
    (* The pool's int part, read live: the adversary's view and the
       engine's own metadata reads, one value for the whole run. *)
    let view = Envelope_arena.view pending in
    (* Virtual timers: (node, timer id, incarnation) payloads ordered
       by due tick; the heap's stable tie-breaking keeps firing order
       deterministic.  The incarnation stamp lets a crash invalidate
       every timer armed by the dead incarnation without scanning the
       heap. *)
    let timers : (int * int * int) Abc_sim.Heap.t = Abc_sim.Heap.create () in
    (* Crash-recovery bookkeeping.  [transitions] is the merged
       per-node crash/rejoin schedule in (tick, node) order; while
       [crashed.(i)] every delivery to node [i] is dropped and its
       timers are stale.  [durable.(i)] is the simulated write-ahead
       store captured at crash time. *)
    let crashed = Array.make cfg.n false in
    let incarnation = Array.make cfg.n 0 in
    let durable = Array.make cfg.n "" in
    let transition_order (t1, n1, k1) (t2, n2, k2) =
      let c = Int.compare t1 t2 in
      if c <> 0 then c
      else
        let c = Int.compare n1 n2 in
        if c <> 0 then c
        else
          let rank = function `Crash -> 0 | `Recover -> 1 in
          Int.compare (rank k1) (rank k2)
    in
    let transitions =
      ref
        (List.sort transition_order
           (List.concat_map
              (fun (id, b) ->
                match Behaviour.crash_schedule b with
                | None -> []
                | Some schedule ->
                  List.concat_map
                    (fun (crash, rejoin) ->
                      let i = Node_id.to_int id in
                      [ (crash, i, `Crash); (rejoin, i, `Recover) ])
                    schedule)
              cfg.faulty))
    in
    (* [has_transition]/[next_transition_due] poll the schedule head
       without allocating an option — they run every loop iteration. *)
    let has_transition () =
      match !transitions with [] -> false | _ :: _ -> true
    in
    let next_transition_due () =
      match !transitions with [] -> max_int | (t, _, _) :: _ -> t
    in
    let next_seq = ref 0 in
    let behaviour_of id =
      match List.assoc_opt id cfg.faulty with
      | Some b -> b
      | None -> Behaviour.Honest
    in
    (* One sink per node: stamps events with the node id and the
       current virtual time.  [Event.null_sink] when tracing is off, so
       emission sites guarded by [sink.enabled] allocate nothing on the
       untraced path. *)
    let sink_for i =
      match cfg.trace with
      | None -> Abc_sim.Event.null_sink
      | Some tr ->
        Abc_sim.Event.sink_to (fun ev ->
            Abc_sim.Trace.record tr ~time:(Abc_sim.Clock.now clock) ~node:i ev)
    in
    let sinks = Array.init cfg.n sink_for in
    let engine_note ~tag detail =
      match cfg.trace with
      | Some tr ->
        Abc_sim.Trace.note tr ~time:(Abc_sim.Clock.now clock) ~node:(-1) ~tag
          detail
      | None -> ()
    in
    let make_node i =
      let id = Node_id.of_int i in
      let ctx =
        {
          Protocol.Context.me = id;
          n = cfg.n;
          f = cfg.f;
          rng = Abc_prng.Stream.split root ~label:i;
          sink = sinks.(i);
        }
      in
      let state, actions = P.initial ctx cfg.inputs.(i) in
      ( {
          id;
          ctx;
          behaviour = behaviour_of id;
          behaviour_rng = Abc_prng.Stream.split root ~label:(cfg.n + 1 + i);
          state;
          activations = 0;
          terminal = false;
          outputs = [];
        },
        actions )
    in
    let created = Array.init cfg.n make_node in
    let nodes = Array.map fst created in
    (* Crash-recover nodes are *correct* (benign crash-restart, no lies)
       so they must reach a terminal output like honest nodes; only the
       genuinely Byzantine behaviours are exempt from termination.
       [nonterminal] counts the nodes still owing a terminal output, so
       the per-iteration all-honest-terminal check is O(1) instead of a
       scan over all n nodes. *)
    let byzantine = Array.make cfg.n false in
    List.iter
      (fun (id, b) ->
        match Behaviour.crash_schedule b with
        | Some _ -> ()
        | None -> byzantine.(Node_id.to_int id) <- true)
      cfg.faulty;
    let nonterminal = ref 0 in
    Array.iter (fun exempt -> if not exempt then incr nonterminal) byzantine;
    let set_terminal node =
      if not node.terminal then begin
        node.terminal <- true;
        if not byzantine.(Node_id.to_int node.id) then decr nonterminal
      end
    in
    let clear_terminal node =
      if node.terminal then begin
        node.terminal <- false;
        if not byzantine.(Node_id.to_int node.id) then incr nonterminal
      end
    in
    (* With a partial topology only edges of the graph carry messages;
       the self-channel always exists. *)
    let can_reach src dst =
      match cfg.topology with
      | None -> true
      | Some g -> Node_id.equal src dst || Topology.has_edge g src dst
    in
    (* The trace's deliver detail of every in-flight message, indexed by
       sequence number.  A payload is rendered once per send action:
       all n envelopes of a broadcast share the string, a duplicated
       copy inherits its original's, and the slot is cleared when the
       envelope leaves the pool.  Only traced runs touch any of it. *)
    let details = ref [||] in
    let render payload =
      match cfg.trace with
      | Some _ -> Fmt.str "%a" P.pp_msg payload
      | None -> ""
    in
    let set_detail seq detail =
      let a = !details in
      if seq >= Array.length a then begin
        let grown = Array.make (max 1024 (2 * seq)) "" in
        Array.blit a 0 grown 0 (Array.length a);
        details := grown
      end;
      !details.(seq) <- detail
    in
    let take_detail seq =
      let detail = !details.(seq) in
      !details.(seq) <- "";
      detail
    in
    (* Defined once per run, not per action, so sending allocates no
       closure.  Pushes one envelope, or counts a topology drop when
       the graph lacks the edge; true when it pushed.  The caller
       counts what was sent. *)
    let dispatch src detail ~label ~nbytes dst payload =
      if not (can_reach src dst) then begin
        Abc_sim.Metrics.incr_handle m_dropped_topology;
        false
      end
      else begin
        let seq = !next_seq in
        next_seq := seq + 1;
        let now = Abc_sim.Clock.now clock in
        let priority = policy.Adversary.assign ~rng:adversary_rng ~now ~src ~dst in
        Envelope_arena.push pending ~seq ~src ~dst ~sent_at:now ~priority
          ~copy:false payload;
        policy.Adversary.note view;
        (match cfg.trace with
        | Some tr ->
          set_detail seq detail;
          Abc_sim.Trace.record tr ~time:now ~node:(Node_id.to_int src)
            (Abc_sim.Event.make
               (Abc_sim.Event.Send
                  {
                    dst = Node_id.to_int dst;
                    label;
                    detail = "";
                    bytes = nbytes;
                  }))
        | None -> ());
        true
      end
    in
    (* [sent] envelopes of one send action, counted at once.  Zero
       touches no counter, as no send would. *)
    let count_sent ~label ~nbytes sent =
      if sent > 0 then begin
        let sent_h, bytes_sent_h, _ = label_handles label in
        Abc_sim.Metrics.add_handle m_sent sent;
        Abc_sim.Metrics.add_handle sent_h sent;
        Abc_sim.Metrics.add_handle m_bytes_sent (sent * nbytes);
        Abc_sim.Metrics.add_handle bytes_sent_h (sent * nbytes)
      end
    in
    let enqueue src action =
      match action with
      | Protocol.Broadcast payload ->
        let label = P.msg_label payload in
        let nbytes = P.msg_bytes payload in
        let detail = render payload in
        let sent = ref 0 in
        for dst = 0 to cfg.n - 1 do
          if dispatch src detail ~label ~nbytes (Node_id.of_int dst) payload
          then incr sent
        done;
        count_sent ~label ~nbytes !sent
      | Protocol.Send (dst, payload) ->
        let label = P.msg_label payload in
        let nbytes = P.msg_bytes payload in
        if dispatch src (render payload) ~label ~nbytes dst payload then
          count_sent ~label ~nbytes 1
      | Protocol.Set_timer { id; after } ->
        let now = Abc_sim.Clock.now clock in
        let due = now + max 1 after in
        let src_i = Node_id.to_int src in
        Abc_sim.Heap.push timers ~priority:due (src_i, id, incarnation.(src_i));
        Abc_sim.Metrics.incr_handle m_timer_set;
        (match cfg.trace with
        | Some tr ->
          Abc_sim.Trace.record tr ~time:now ~node:(Node_id.to_int src)
            (Abc_sim.Event.make (Abc_sim.Event.Timer_set { id; due }))
        | None -> ())
    in
    (* [enqueue_all] and [record_outputs] recurse over their lists
       instead of handing [List.iter] a closure, which would allocate
       one on every delivery. *)
    let rec enqueue_all src = function
      | [] -> ()
      | action :: rest ->
        enqueue src action;
        enqueue_all src rest
    in
    let emit_actions node actions =
      match node.behaviour with
      | Behaviour.Honest ->
        (* [Behaviour.apply Honest] is the identity and draws no
           randomness; skip the double list-length walk. *)
        enqueue_all node.id actions
      | _ ->
        let before = List.length actions in
        let actions =
          Behaviour.apply node.behaviour ~rng:node.behaviour_rng ~n:cfg.n
            ~activation:node.activations actions
        in
        if List.length actions < before then
          Abc_sim.Metrics.add_handle m_dropped_faulty
            (before - List.length actions);
        enqueue_all node.id actions
    in
    let rec record_outputs node = function
      | [] -> ()
      | o :: rest ->
        let now = Abc_sim.Clock.now clock in
        node.outputs <- (now, o) :: node.outputs;
        (match cfg.trace with
        | Some tr ->
          Abc_sim.Trace.record tr ~time:now ~node:(Node_id.to_int node.id)
            (Abc_sim.Event.make
               (Abc_sim.Event.Output { label = Fmt.str "%a" P.pp_output o }))
        | None -> ());
        if P.is_terminal o then set_terminal node;
        record_outputs node rest
    in
    (* Initialization: every node emits its starting actions at time 0
       (activation 0 — so [Crash_after 0] suppresses even these). *)
    let initialize (node, actions) =
      emit_actions node actions;
      node.activations <- 1
    in
    Array.iter initialize created;
    (* The eventual-delivery bound: a message older than [fairness_age]
       ticks is delivered next, overriding the adversary — long enough
       that starvation policies bite, short enough that runs finish. *)
    let fairness_age = 32 * cfg.n * cfg.n in
    let choose_slot now =
      let oldest = Envelope_arena.oldest_slot view in
      let oldest_age = now - Envelope_arena.sent_at view oldest in
      if oldest_age >= fairness_age then oldest
      else policy.Adversary.choose ~rng:adversary_rng ~now view
    in
    let deliveries = ref 0 in
    (* The budget counts loop iterations — protocol deliveries, link
       drops and timer firings alike — so a lossy run whose transport
       keeps retransmitting into a dead link still terminates. *)
    let iterations = ref 0 in
    let fire_timer (node_i, id, inc) =
      if crashed.(node_i) || inc <> incarnation.(node_i) then
        (* Armed by a dead incarnation (or the node is down right now):
           the crash wiped the volatile state this timer belonged to. *)
        Abc_sim.Metrics.incr_handle m_timer_stale
      else begin
        let now = Abc_sim.Clock.now clock in
        let node = nodes.(node_i) in
        Abc_sim.Metrics.incr_handle m_timer_fired;
        (match cfg.trace with
        | Some tr ->
          Abc_sim.Trace.record tr ~time:now ~node:node_i
            (Abc_sim.Event.make (Abc_sim.Event.Timer_fire { id }))
        | None -> ());
        let state, actions, outputs = P.on_timeout node.ctx node.state ~id in
        node.state <- state;
        emit_actions node actions;
        node.activations <- node.activations + 1;
        record_outputs node outputs
      end
    in
    let do_crash node_i =
      let node = nodes.(node_i) in
      crashed.(node_i) <- true;
      incarnation.(node_i) <- incarnation.(node_i) + 1;
      (* The durable store is captured at crash time: the snapshot
         function extracts exactly the subset the protocol contracts to
         have written ahead (checkpoint record + committed-log prefix),
         so this models a WAL, not magic full-state persistence. *)
      durable.(node_i) <-
        (match cfg.recovery with
        | Some r -> r.snapshot node.state
        | None -> "");
      clear_terminal node;
      Abc_sim.Metrics.incr_handle m_node_crashed;
      match cfg.trace with
      | Some tr ->
        Abc_sim.Trace.record tr ~time:(Abc_sim.Clock.now clock) ~node:node_i
          (Abc_sim.Event.make Abc_sim.Event.Node_crash)
      | None -> ()
    in
    let do_recover node_i =
      let node = nodes.(node_i) in
      crashed.(node_i) <- false;
      Abc_sim.Metrics.incr_handle m_node_recovered;
      (match cfg.trace with
      | Some tr ->
        Abc_sim.Trace.record tr ~time:(Abc_sim.Clock.now clock) ~node:node_i
          (Abc_sim.Event.make Abc_sim.Event.Node_recover)
      | None -> ());
      let state, actions, outputs =
        match cfg.recovery with
        | Some r -> r.restore node.ctx cfg.inputs.(node_i) ~durable:durable.(node_i)
        | None ->
          (* Amnesia fallback: restart from the protocol's initial
             state, as a node with no durable store would. *)
          let state, actions = P.initial node.ctx cfg.inputs.(node_i) in
          (state, actions, [])
      in
      node.state <- state;
      emit_actions node actions;
      node.activations <- node.activations + 1;
      record_outputs node outputs
    in
    let apply_transitions now =
      let rec go () =
        match !transitions with
        | (t, node_i, kind) :: rest when t <= now ->
          transitions := rest;
          (match kind with
          | `Crash -> do_crash node_i
          | `Recover -> do_recover node_i);
          go ()
        | _ -> ()
      in
      go ()
    in
    let deliver now ~seq ~src ~dst payload =
      let node = nodes.(Node_id.to_int dst) in
      incr deliveries;
      let nbytes = P.msg_bytes payload in
      let _, _, bytes_delivered_h = label_handles (P.msg_label payload) in
      Abc_sim.Metrics.incr_handle m_delivered;
      Abc_sim.Metrics.add_handle m_bytes_delivered nbytes;
      Abc_sim.Metrics.add_handle bytes_delivered_h nbytes;
      (match cfg.trace with
      | Some tr ->
        Abc_sim.Trace.record tr ~time:now ~node:(Node_id.to_int node.id)
          (Abc_sim.Event.make
             (Abc_sim.Event.Deliver
                {
                  src = Node_id.to_int src;
                  label = P.msg_label payload;
                  detail = take_detail seq;
                  bytes = nbytes;
                }))
      | None -> ());
      let state, actions, outputs =
        P.on_message node.ctx node.state ~src payload
      in
      node.state <- state;
      emit_actions node actions;
      node.activations <- node.activations + 1;
      record_outputs node outputs
    in
    (* Re-enqueue a duplicate copy of the message as a fresh in-flight
       message (new sequence number, scheduled by the adversary like
       any other).  Copies are marked so they are never duplicated
       again — duplication is bounded, not a traffic amplifier. *)
    let enqueue_duplicate now ~orig ~src ~dst payload =
      let seq = !next_seq in
      next_seq := seq + 1;
      let priority = policy.Adversary.assign ~rng:adversary_rng ~now ~src ~dst in
      Envelope_arena.push pending ~seq ~src ~dst ~sent_at:now ~priority
        ~copy:true payload;
      policy.Adversary.note view;
      Abc_sim.Metrics.incr_handle m_duplicated_link;
      match cfg.trace with
      | Some tr ->
        set_detail seq !details.(orig);
        Abc_sim.Trace.record tr ~time:now ~node:(Node_id.to_int src)
          (Abc_sim.Event.make
             (Abc_sim.Event.Link_dup
                {
                  src = Node_id.to_int src;
                  dst = Node_id.to_int dst;
                  label = P.msg_label payload;
                }))
      | None -> ()
    in
    (* A message scheduled for delivery while its destination is down
       is lost deterministically — the crash semantics, not a random
       link fault, so it gets its own counter. *)
    let drop_crashed now ~seq ~src ~dst payload =
      Abc_sim.Metrics.incr_handle m_dropped_crashed;
      match cfg.trace with
      | Some tr ->
        ignore (take_detail seq);
        Abc_sim.Trace.record tr ~time:now ~node:(Node_id.to_int dst)
          (Abc_sim.Event.make
             (Abc_sim.Event.Link_drop
                {
                  src = Node_id.to_int src;
                  dst = Node_id.to_int dst;
                  label = P.msg_label payload;
                  reason = "crashed";
                }))
      | None -> ()
    in
    let drop_envelope now ~seq ~src ~dst payload reason =
      Abc_sim.Metrics.incr_handle m_dropped_link;
      Abc_sim.Metrics.incr_handle (reason_handle reason);
      match cfg.trace with
      | Some tr ->
        ignore (take_detail seq);
        Abc_sim.Trace.record tr
          ~time:now
          ~node:(Node_id.to_int dst)
          (Abc_sim.Event.make
             (Abc_sim.Event.Link_drop
                {
                  src = Node_id.to_int src;
                  dst = Node_id.to_int dst;
                  label = P.msg_label payload;
                  reason;
                }))
      | None -> ()
    in
    (* Delivery ages are tracked in a local maximum and published as
       the "max_delivery_age" counter once, after the loop — same
       final value as the per-delivery read-compare-add it replaces,
       without two hashtable probes per delivery. *)
    let max_age = ref 0 in
    let stop = ref None in
    while !stop = None do
      (* A pending crash/rejoin transition keeps the run alive even
         when every honest node is momentarily terminal: the fault
         plan executes in full, so a node scheduled to crash after
         completing still crashes (and must re-terminate from its
         durable store for the run to end all-terminal). *)
      if !nonterminal = 0 && not (has_transition ()) then
        stop := Some All_terminal
      else if
        Envelope_arena.is_empty view
        && Abc_sim.Heap.is_empty timers
        && not (has_transition ())
      then stop := Some Quiescent
      else if !iterations >= cfg.max_deliveries then stop := Some Delivery_limit
      else begin
        incr iterations;
        let now = Abc_sim.Clock.tick clock in
        (* When no message is deliverable the clock jumps forward to
           the next timer or crash/rejoin transition — whichever comes
           first — instead of reporting Quiescent. *)
        let now =
          if Envelope_arena.is_empty view then begin
            let due =
              min
                (Abc_sim.Heap.peek_priority timers ~default:max_int)
                (next_transition_due ())
            in
            if due <> max_int && due > now then begin
              Abc_sim.Clock.advance_to clock due;
              due
            end
            else now
          end
          else now
        in
        (* Scheduled crashes/rejoins due by [now] apply before any
           timer firing or delivery at this instant, so a delivery
           chosen at the crash tick already sees the node down. *)
        apply_transitions now;
        (* Timers due by now fire before any delivery.  (The empty-
           pending clock jump above already landed on the earliest
           timer/transition, so [due <= now] is the whole test — a
           timer must never leapfrog a nearer scheduled transition.) *)
        if Abc_sim.Heap.peek_priority timers ~default:max_int <= now then begin
          match Abc_sim.Heap.pop timers with
          | None -> assert false
          | Some (due, target) ->
            if due > now then Abc_sim.Clock.advance_to clock due;
            fire_timer target
        end
        else if Envelope_arena.is_empty view then
          (* Only a future transition remained and it just applied (or
             is still ahead); nothing to deliver this iteration. *)
          ()
        else begin
          let slot = choose_slot now in
          let seq = Envelope_arena.seq view slot in
          let src = Envelope_arena.src view slot in
          let dst = Envelope_arena.dst view slot in
          let sent_at = Envelope_arena.sent_at view slot in
          let is_copy = Envelope_arena.copy view slot in
          let payload = Envelope_arena.payload pending slot in
          Envelope_arena.remove pending slot;
          (* Record the delivery age so tests can audit the fairness
             guarantee: no message older than the bound is ever passed
             over.  Link-fault drops still count — the age measures the
             scheduler, which did pick the message. *)
          let age = now - sent_at in
          if age > !max_age then max_age := age;
          if crashed.(Node_id.to_int dst) then
            drop_crashed now ~seq ~src ~dst payload
          else begin
            let verdict =
              match link_plan with
              | None -> Link_faults.Deliver
              | Some (plan, rng) ->
                Link_faults.judge plan rng ~now ~src ~dst ~can_dup:(not is_copy)
            in
            match verdict with
            | Link_faults.Drop reason ->
              drop_envelope now ~seq ~src ~dst payload reason
            | Link_faults.Deliver -> deliver now ~seq ~src ~dst payload
            | Link_faults.Duplicate ->
              enqueue_duplicate now ~orig:seq ~src ~dst payload;
              deliver now ~seq ~src ~dst payload
          end
        end
      end
    done;
    if !max_age > 0 then Abc_sim.Metrics.add metrics "max_delivery_age" !max_age;
    let stop = match !stop with Some s -> s | None -> assert false in
    engine_note ~tag:"stop" (Fmt.str "%a" pp_stop_reason stop);
    {
      outputs = Array.map (fun node -> List.rev node.outputs) nodes;
      stop;
      deliveries = !deliveries;
      duration = Abc_sim.Clock.now clock;
      metrics;
    }
end
