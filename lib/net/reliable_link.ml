module Int_map = Map.Make (Int)

module Make (P : Protocol.S) = struct
  type msg =
    | Data of { seq : int; retx : bool; inner : P.msg }
    | Ack of { upto : int }

  type input = P.input
  type output = P.output

  (* Per-destination sender side: a sliding window of everything not
     yet cumulatively acknowledged, plus the retransmission clock. *)
  type channel = {
    next_seq : int;
    unacked : P.msg Int_map.t;
    rto : int;  (* current retransmission timeout, in virtual ticks *)
    timer_armed : bool;
  }

  (* Per-source receiver side: the next in-order sequence number and a
     reorder buffer for everything that arrived early. *)
  type peer_in = { expected : int; buffered : P.msg Int_map.t }

  type state = {
    inner : P.state;
    out : channel Int_map.t;  (* keyed by destination node int *)
    inbound : peer_in Int_map.t;  (* keyed by source node int *)
    rto_initial : int;
    rto_cap : int;
  }

  let name = P.name ^ "+rl"

  (* The engine delivers roughly one in-flight message per tick, so a
     round trip under a uniform scheduler takes on the order of the
     pool size, which is O(n^2) messages for a broadcast protocol.
     Starting near that and backing off exponentially keeps spurious
     retransmissions (which are harmless — the receiver dedups and
     re-acks) from dominating traffic. *)
  let initial_rto n = 8 * n * n
  let cap_rto n = 1024 * n * n

  (* Wrapper timers use ids [0..n-1] (one per destination channel);
     the wrapped protocol's own timer ids are shifted up by [n]. *)
  let send_data st dst_i inner_msg =
    let ch = Int_map.find dst_i st.out in
    let seq = ch.next_seq in
    let arm = not ch.timer_armed in
    let ch =
      {
        ch with
        next_seq = seq + 1;
        unacked = Int_map.add seq inner_msg ch.unacked;
        timer_armed = true;
      }
    in
    let st = { st with out = Int_map.add dst_i ch st.out } in
    let send =
      Protocol.Send
        (Node_id.of_int dst_i, Data { seq; retx = false; inner = inner_msg })
    in
    let actions =
      if arm then [ send; Protocol.Set_timer { id = dst_i; after = ch.rto } ]
      else [ send ]
    in
    (st, actions)

  let wrap ctx st actions =
    let n = ctx.Protocol.Context.n in
    let st, rev =
      List.fold_left
        (fun (st, rev) action ->
          match action with
          | Protocol.Broadcast m ->
            let rec go st rev dst_i =
              if dst_i >= n then (st, rev)
              else begin
                let st, sends = send_data st dst_i m in
                go st (List.rev_append sends rev) (dst_i + 1)
              end
            in
            go st rev 0
          | Protocol.Send (dst, m) ->
            let st, sends = send_data st (Node_id.to_int dst) m in
            (st, List.rev_append sends rev)
          | Protocol.Set_timer { id; after } ->
            (st, Protocol.Set_timer { id = n + id; after } :: rev))
        (st, []) actions
    in
    (st, List.rev rev)

  let initial ctx input =
    let n = ctx.Protocol.Context.n in
    let channel =
      {
        next_seq = 0;
        unacked = Int_map.empty;
        rto = initial_rto n;
        timer_armed = false;
      }
    in
    let peer = { expected = 0; buffered = Int_map.empty } in
    let all = List.init n Fun.id in
    let inner, actions = P.initial ctx input in
    let st =
      {
        inner;
        out = List.fold_left (fun m i -> Int_map.add i channel m) Int_map.empty all;
        inbound =
          List.fold_left (fun m i -> Int_map.add i peer m) Int_map.empty all;
        rto_initial = initial_rto n;
        rto_cap = cap_rto n;
      }
    in
    wrap ctx st actions

  let on_message ctx st ~src msg =
    let src_i = Node_id.to_int src in
    match msg with
    | Ack { upto } ->
      let ch = Int_map.find src_i st.out in
      (* One split releases the acked prefix: everything up to [upto]. *)
      let acked, at_upto, unacked = Int_map.split upto ch.unacked in
      let progressed = Option.is_some at_upto || not (Int_map.is_empty acked) in
      (* Progress resets the backoff; the armed timer will find either
         nothing outstanding (and lapse) or retransmit at a fresh
         cadence next time it is re-armed. *)
      let ch =
        if progressed then { ch with unacked; rto = st.rto_initial }
        else { ch with unacked }
      in
      ({ st with out = Int_map.add src_i ch st.out }, [], [])
    | Data { seq; inner; retx = _ } ->
      let pi = Int_map.find src_i st.inbound in
      if seq < pi.expected || Int_map.mem seq pi.buffered then
        (* Duplicate (engine-level copy or retransmission already
           received): re-ack so the sender releases its window. *)
        (st, [ Protocol.Send (src, Ack { upto = pi.expected - 1 }) ], [])
      else begin
        let buffered = Int_map.add seq inner pi.buffered in
        (* Deliver the in-order prefix to the wrapped protocol — this
           is the reliable-FIFO channel the paper assumes. *)
        let rec drain st expected buffered rev_actions rev_outputs =
          match Int_map.find_opt expected buffered with
          | None -> (st, expected, buffered, rev_actions, rev_outputs)
          | Some m ->
            let buffered = Int_map.remove expected buffered in
            let inner_state, inner_actions, outs =
              P.on_message ctx st.inner ~src m
            in
            let st = { st with inner = inner_state } in
            let st, wrapped = wrap ctx st inner_actions in
            drain st (expected + 1) buffered
              (List.rev_append wrapped rev_actions)
              (List.rev_append outs rev_outputs)
        in
        let st, expected, buffered, rev_actions, rev_outputs =
          drain st pi.expected buffered [] []
        in
        let st =
          { st with inbound = Int_map.add src_i { expected; buffered } st.inbound }
        in
        let ack = Protocol.Send (src, Ack { upto = expected - 1 }) in
        (st, List.rev (ack :: rev_actions), List.rev rev_outputs)
      end

  let on_timeout ctx st ~id =
    let n = ctx.Protocol.Context.n in
    if id >= n then begin
      let inner_state, inner_actions, outputs =
        P.on_timeout ctx st.inner ~id:(id - n)
      in
      let st = { st with inner = inner_state } in
      let st, wrapped = wrap ctx st inner_actions in
      (st, wrapped, outputs)
    end
    else begin
      let ch = Int_map.find id st.out in
      if Int_map.is_empty ch.unacked then
        (* Everything acknowledged: let the timer lapse unarmed. *)
        ( { st with out = Int_map.add id { ch with timer_armed = false } st.out },
          [],
          [] )
      else begin
        let sink = ctx.Protocol.Context.sink in
        let dst = Node_id.of_int id in
        let resends =
          List.rev
            (Int_map.fold
               (fun seq inner acc ->
                 if sink.Abc_sim.Event.enabled then
                   sink.Abc_sim.Event.emit
                     (Abc_sim.Event.make (Abc_sim.Event.Retransmit { dst = id; seq }));
                 Protocol.Send (dst, Data { seq; retx = true; inner }) :: acc)
               ch.unacked [])
        in
        let rto = min (ch.rto * 2) st.rto_cap in
        let ch = { ch with rto } in
        let st = { st with out = Int_map.add id ch st.out } in
        (st, resends @ [ Protocol.Set_timer { id; after = rto } ], [])
      end
    end

  let is_terminal = P.is_terminal

  let msg_label = function
    | Data { retx = false; _ } -> "rl.data"
    | Data { retx = true; _ } -> "rl.retx"
    | Ack _ -> "rl.ack"

  let msg_bytes =
    let open Protocol.Wire_size in
    function
    | Data { seq = _; retx = _; inner } -> tag + int + tag + P.msg_bytes inner
    | Ack { upto = _ } -> tag + int

  let pp_msg ppf = function
    | Data { seq; retx; inner } ->
      Fmt.pf ppf "data[#%d%s]:%a" seq
        (if retx then " retx" else "")
        P.pp_msg inner
    | Ack { upto } -> Fmt.pf ppf "ack[<=%d]" upto

  let pp_output = P.pp_output
end
