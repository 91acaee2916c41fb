module Node_id = Abc_net.Node_id
module Protocol = Abc_net.Protocol
module Behaviour = Abc_net.Behaviour

type violation = { schedule : (Node_id.t * Node_id.t * string) list }

type outcome = {
  explored : int;
  exhausted : bool;
  deadlocks : int;
  depth_reached : int;
  violation : violation option;
}

module Make (P : Abc_net.Protocol.S) = struct
  type config = {
    n : int;
    f : int;
    inputs : P.input array;
    faulty : (Node_id.t * P.msg Behaviour.t) list;
    invariant : P.output list array -> bool;
    max_states : int;
    max_depth : int option;
    drop_plan : (src:Node_id.t -> dst:Node_id.t -> nth:int -> bool) option;
  }

  (* The in-flight pool is a canonical multiset: entries keyed by the
     marshalled (src, dst, msg) triple so that duplicate messages do
     not multiply the branching factor. *)
  module Pending_map = Map.Make (String)

  type entry = { src : Node_id.t; dst : Node_id.t; msg : P.msg; count : int }

  (* Pending timers are a multiset of (node, timer id): exploration is
     time-abstract, so a pending timer may fire at any point — a sound
     over-approximation of the engine's due-tick semantics. *)
  module Timer_map = Map.Make (struct
    type t = int * int

    let compare (n1, i1) (n2, i2) =
      match Int.compare n1 n2 with 0 -> Int.compare i1 i2 | c -> c
  end)

  type sys_state = {
    nodes : P.state array;
    activations : int array;
    outputs : P.output list array; (* oldest first *)
    pending : entry Pending_map.t;
    timers : int Timer_map.t; (* (node, id) -> count *)
    sent : int array;
        (* per-link send counts feeding the drop plan, row-major
           [src * n + dst]; empty (and so fingerprint-neutral) when no
           plan is configured *)
  }

  let entry_key src dst msg = Marshal.to_string (src, dst, msg) []

  let add_pending pending src dst msg =
    let key = entry_key src dst msg in
    match Pending_map.find_opt key pending with
    | Some e -> Pending_map.add key { e with count = e.count + 1 } pending
    | None -> Pending_map.add key { src; dst; msg; count = 1 } pending

  let remove_pending pending key =
    match Pending_map.find_opt key pending with
    | Some e when e.count > 1 -> Pending_map.add key { e with count = e.count - 1 } pending
    | Some _ -> Pending_map.remove key pending
    | None -> assert false

  let add_timer timers key =
    Timer_map.add key
      (1 + Option.value ~default:0 (Timer_map.find_opt key timers))
      timers

  let remove_timer timers key =
    match Timer_map.find_opt key timers with
    | Some c when c > 1 -> Timer_map.add key (c - 1) timers
    | Some _ -> Timer_map.remove key timers
    | None -> assert false

  (* A fresh stream per call: deterministic protocols never draw from
     it, and if one does, every branch sees the same draws. *)
  let fresh_rng label = Abc_prng.Stream.split (Abc_prng.Stream.root ~seed:0) ~label

  let context cfg i =
    {
      Protocol.Context.me = Node_id.of_int i;
      n = cfg.n;
      f = cfg.f;
      rng = fresh_rng i;
      (* Exploration never traces: states are marshalled for
         fingerprinting and a live sink would not survive that. *)
      sink = Abc_sim.Event.null_sink;
    }

  (* Canonical fingerprint of a system state.  Node states are
     marshalled as-is: for tree-backed states the AVL shape can differ
     for equal contents, which only weakens deduplication (more states
     revisited), never soundness. *)
  let fingerprint state =
    let buffer = Buffer.create 512 in
    Array.iter
      (fun node_state -> Buffer.add_string buffer (Marshal.to_string node_state []))
      state.nodes;
    Array.iter (fun a -> Buffer.add_string buffer (string_of_int a)) state.activations;
    Buffer.add_string buffer (Marshal.to_string state.outputs []);
    Pending_map.iter
      (fun key e ->
        Buffer.add_string buffer key;
        Buffer.add_string buffer (string_of_int e.count))
      state.pending;
    Timer_map.iter
      (fun (node, id) count ->
        Buffer.add_string buffer (Printf.sprintf "T%d.%d=%d" node id count))
      state.timers;
    Array.iter (fun c -> Buffer.add_string buffer (string_of_int c)) state.sent;
    Digest.string (Buffer.contents buffer)

  (* Put one transmission into the pool — unless the configured drop
     plan kills it at send time.  [sent] is the successor's private
     copy of the per-link counters ([nth] is 0-based). *)
  let transmit cfg sent pending src dst msg =
    match cfg.drop_plan with
    | None -> add_pending pending src dst msg
    | Some plan ->
      let cell = (Node_id.to_int src * cfg.n) + Node_id.to_int dst in
      let nth = sent.(cell) in
      sent.(cell) <- nth + 1;
      if plan ~src ~dst ~nth then pending else add_pending pending src dst msg

  (* Fold one node's emitted actions into the pool and timer multiset. *)
  let apply_actions cfg ~actor sent (pending, timers) actions =
    List.fold_left
      (fun (pending, timers) action ->
        match action with
        | Protocol.Broadcast msg ->
          ( List.fold_left
              (fun pending dst -> transmit cfg sent pending actor dst msg)
              pending (Node_id.all ~n:cfg.n),
            timers )
        | Protocol.Send (dst, msg) ->
          (transmit cfg sent pending actor dst msg, timers)
        | Protocol.Set_timer { id; after = _ } ->
          (* Durations are abstracted away: the timer just becomes
             eligible to fire at any later step. *)
          (pending, add_timer timers (Node_id.to_int actor, id)))
      (pending, timers) actions

  let behaviour_filter cfg ~id ~activation actions =
    match List.assoc_opt id cfg.faulty with
    | None -> actions
    | Some b ->
      Behaviour.apply b
        ~rng:(fresh_rng (1000 + Node_id.to_int id))
        ~n:cfg.n ~activation actions

  (* The successor in which node [i] runs [handle] on its own state:
     its actions pass through its behaviour into [pool], the pending
     messages and timers less the one just consumed. *)
  let step cfg state i pool handle =
    let node_state, actions, new_outputs = handle (context cfg i) state.nodes.(i) in
    let actor = Node_id.of_int i in
    let activation = state.activations.(i) in
    let actions = behaviour_filter cfg ~id:actor ~activation actions in
    let nodes = Array.copy state.nodes in
    nodes.(i) <- node_state;
    let activations = Array.copy state.activations in
    activations.(i) <- activation + 1;
    let outputs = Array.copy state.outputs in
    outputs.(i) <- state.outputs.(i) @ new_outputs;
    let sent = Array.copy state.sent in
    let pending, timers = apply_actions cfg ~actor sent pool actions in
    { nodes; activations; outputs; pending; timers; sent }

  (* [deliver cfg state key] is the successor in which that pending
     message is delivered next. *)
  let deliver cfg state key =
    let e = Pending_map.find key state.pending in
    step cfg state (Node_id.to_int e.dst)
      (remove_pending state.pending key, state.timers)
      (fun ctx node -> P.on_message ctx node ~src:e.src e.msg)

  (* [fire cfg state (node, id)] is the successor in which that pending
     timer fires next. *)
  let fire cfg state ((i, id) as tkey) =
    step cfg state i (state.pending, remove_timer state.timers tkey) (fun ctx node ->
        P.on_timeout ctx node ~id)

  let initial_state cfg =
    let nodes = Array.make cfg.n (fst (P.initial (context cfg 0) cfg.inputs.(0))) in
    let sent =
      Array.make (match cfg.drop_plan with Some _ -> cfg.n * cfg.n | None -> 0) 0
    in
    let pool = ref (Pending_map.empty, Timer_map.empty) in
    for i = 0 to cfg.n - 1 do
      let ctx = context cfg i in
      let node_state, actions = P.initial ctx cfg.inputs.(i) in
      nodes.(i) <- node_state;
      let actions =
        behaviour_filter cfg ~id:(Node_id.of_int i) ~activation:0 actions
      in
      pool := apply_actions cfg ~actor:(Node_id.of_int i) sent !pool actions
    done;
    let pending, timers = !pool in
    {
      nodes;
      activations = Array.make cfg.n 1;
      outputs = Array.make cfg.n [];
      pending;
      timers;
      sent;
    }

  (* Fingerprints are strings; hash them through an explicit functor so
     no polymorphic hashing hides in the checker's hot path. *)
  module Fp_tbl = Hashtbl.Make (struct
    type t = string

    let equal = String.equal
    let hash = String.hash
  end)

  (* Breadth-first from [start] until the frontier empties, a
     violation turns up or the state budget runs out. *)
  let bfs cfg start =
    let visited : unit Fp_tbl.t = Fp_tbl.create 4096 in
    (* parent edge per fingerprint, for counterexample reconstruction *)
    let parents : (string * (Node_id.t * Node_id.t * string)) Fp_tbl.t =
      Fp_tbl.create 4096
    in
    let queue = Queue.create () in
    let explored = ref 0 in
    let deadlocks = ref 0 in
    let violation = ref None in
    let start_fp = fingerprint start in
    Fp_tbl.add visited start_fp ();
    Queue.add (start, start_fp, 0) queue;
    let depth_reached = ref 0 in
    let truncated = ref false in
    let rebuild_schedule fp =
      let rec walk fp acc =
        match Fp_tbl.find_opt parents fp with
        | Some (parent_fp, step) -> walk parent_fp (step :: acc)
        | None -> acc
      in
      walk fp []
    in
    if not (cfg.invariant start.outputs) then violation := Some { schedule = [] };
    while (not (Queue.is_empty queue)) && !violation = None && !explored < cfg.max_states do
      let state, fp, depth = Queue.pop queue in
      incr explored;
      depth_reached := max !depth_reached depth;
      if Pending_map.is_empty state.pending && Timer_map.is_empty state.timers
      then incr deadlocks
      else if (match cfg.max_depth with Some d -> depth >= d | None -> false) then
        truncated := true
      else begin
        let visit successor step =
          let successor_fp = fingerprint successor in
          if not (Fp_tbl.mem visited successor_fp) then begin
            Fp_tbl.add visited successor_fp ();
            Fp_tbl.add parents successor_fp (fp, step);
            if not (cfg.invariant successor.outputs) then begin
              depth_reached := depth + 1;
              violation := Some { schedule = rebuild_schedule successor_fp }
            end
            else Queue.add (successor, successor_fp, depth + 1) queue
          end
        in
        Pending_map.iter
          (fun key e ->
            if !violation = None then
              visit (deliver cfg state key)
                (e.src, e.dst, Fmt.str "%a" P.pp_msg e.msg))
          state.pending;
        (* Every pending timer may fire next, too. *)
        Timer_map.iter
          (fun ((node_i, id) as tkey) _count ->
            if !violation = None then
              let actor = Node_id.of_int node_i in
              visit (fire cfg state tkey)
                (actor, actor, Printf.sprintf "timeout#%d" id))
          state.timers
      end
    done;
    {
      explored = !explored;
      exhausted = Queue.is_empty queue && !violation = None && not !truncated;
      deadlocks = !deadlocks;
      depth_reached = !depth_reached;
      violation = !violation;
    }

  let run cfg = bfs cfg (initial_state cfg)
end
