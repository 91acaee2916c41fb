module Make (P : Protocol.S) = struct
  type msg = {
    origin : Node_id.t;
    sequence : int;
    target : Node_id.t option;
    inner : P.msg;
    label : string;
  }

  type input = P.input

  type output = P.output

  module Seen = Set.Make (Int)

  (* (origin, sequence) packed into one immediate int: origin in the
     high bits, sequence in the low 32.  Node ids are small and
     per-node sequence counters stay far below 2^32, so the packing is
     injective; membership tests then compare unboxed ints instead of
     allocating and walking tuples. *)
  let seen_key origin sequence = (Node_id.to_int origin lsl 32) lor sequence

  type state = {
    inner_state : P.state;
    seen : Seen.t;
    next_sequence : int;
    labels : (string * string) list;  (* child label, its prefixed string *)
  }

  let name = P.name ^ "+relay"

  (* A label is a shared string (see [Protocol.S.msg_label]), and [P]'s
     labels are not known here: a node builds ["relay." ^ l] once per
     child label [l] it sends, in its own state rather than in a table
     that engines on other domains would share, and each envelope
     carries that string to every hop. *)
  let relabel state inner =
    let child = P.msg_label inner in
    match List.find_opt (fun (l, _) -> String.equal l child) state.labels with
    | Some (_, label) -> (state, label)
    | None ->
      let label = "relay." ^ child in
      ({ state with labels = (child, label) :: state.labels }, label)

  let with_inner envelope inner =
    let child = P.msg_label inner in
    let label =
      if String.equal child (P.msg_label envelope.inner) then envelope.label else "relay." ^ child
    in
    { envelope with inner; label }

  (* Wrap the inner protocol's actions into flood envelopes.  Both
     broadcasts and targeted sends are flooded (the target may not be a
     direct neighbour); targeted payloads are delivered only at their
     target. *)
  let wrap me state actions =
    List.fold_left
      (fun (state, wrapped) action ->
        match action with
        | Protocol.Set_timer { id; after } ->
          (* Timers are node-local: nothing to flood. *)
          (state, Protocol.Set_timer { id; after } :: wrapped)
        | Protocol.Broadcast inner | Protocol.Send (_, inner) ->
          let sequence = state.next_sequence in
          let state, label = relabel { state with next_sequence = sequence + 1 } inner in
          let target =
            match action with
            | Protocol.Send (dst, _) -> Some dst
            | Protocol.Broadcast _ | Protocol.Set_timer _ -> None
          in
          (state, Protocol.Broadcast { origin = me; sequence; target; inner; label } :: wrapped))
      (state, []) actions
    |> fun (state, wrapped) -> (state, List.rev wrapped)

  let initial ctx input =
    let inner_state, actions = P.initial ctx input in
    let state = { inner_state; seen = Seen.empty; next_sequence = 0; labels = [] } in
    wrap ctx.Protocol.Context.me state actions
    |> fun (state, actions) -> (state, actions)

  let on_message ctx state ~src:_ envelope =
    let key = seen_key envelope.origin envelope.sequence in
    if Seen.mem key state.seen then (state, [], [])
    else begin
      let state = { state with seen = Seen.add key state.seen } in
      (* Forward first: relaying must not depend on whether the payload
         concerns us. *)
      let forward = Protocol.Broadcast envelope in
      let me = ctx.Protocol.Context.me in
      let addressed =
        match envelope.target with
        | None -> true
        | Some dst -> Node_id.equal dst me
      in
      if not addressed then (state, [ forward ], [])
      else begin
        let inner_state, inner_actions, outputs =
          P.on_message ctx state.inner_state ~src:envelope.origin envelope.inner
        in
        let state = { state with inner_state } in
        let state, wrapped = wrap me state inner_actions in
        (state, forward :: wrapped, outputs)
      end
    end

  let on_timeout ctx state ~id =
    let inner_state, inner_actions, outputs =
      P.on_timeout ctx state.inner_state ~id
    in
    let state = { state with inner_state } in
    let state, wrapped = wrap ctx.Protocol.Context.me state inner_actions in
    (state, wrapped, outputs)

  let is_terminal = P.is_terminal

  let msg_label envelope = envelope.label

  let msg_bytes envelope =
    let open Protocol.Wire_size in
    node_id + int
    + option (fun (_ : Node_id.t) -> node_id) envelope.target
    + P.msg_bytes envelope.inner

  let pp_msg ppf envelope =
    Fmt.pf ppf "relay[%a#%d%a]:%a" Node_id.pp envelope.origin envelope.sequence
      (Fmt.option (fun ppf t -> Fmt.pf ppf "->%a" Node_id.pp t))
      envelope.target P.pp_msg envelope.inner

  let pp_output = P.pp_output
end
