[@@@abc.resilience "n>3f"]

open Import

module Make (V : Value.PAYLOAD) = struct
  module Core = Rbc_core.Make (V)
  module Value_map = Map.Make (V)

  type input = { sender : Node_id.t; payload : V.t option }

  type output = Delivered of V.t

  type msg = Core.event

  type state = {
    n : int;
    f : int;
    sender : Node_id.t;
    echoed : bool;
    delivered : bool;
    echoes : Node_id.Set.t Value_map.t;
  }

  let name = "consistent-broadcast"

  let initial ctx (input : input) =
    let state =
      {
        n = ctx.Protocol.Context.n;
        f = ctx.Protocol.Context.f;
        sender = input.sender;
        echoed = false;
        delivered = false;
        echoes = Value_map.empty;
      }
    in
    let actions =
      match input.payload with
      | Some v ->
        assert (Node_id.equal ctx.Protocol.Context.me input.sender);
        [ Protocol.Broadcast (Core.Initial v) ]
      | None -> []
    in
    (state, actions)

  let on_message ctx state ~src msg =
    match msg with
    | Core.Initial v ->
      if Node_id.equal src state.sender && not state.echoed then
        ({ state with echoed = true }, [ Protocol.Broadcast (Core.Echo v) ], [])
      else (state, [], [])
    | Core.Echo v ->
      let supporters =
        match Value_map.find_opt v state.echoes with
        | Some s -> s
        | None -> Node_id.Set.empty
      in
      let supporters = Node_id.Set.add src supporters in
      let state = { state with echoes = Value_map.add v supporters state.echoes } in
      if
        (not state.delivered)
        && Node_id.Set.cardinal supporters
           >= Core.echo_threshold ~n:state.n ~f:state.f
      then begin
        let sink = ctx.Protocol.Context.sink in
        Event.quorum sink ~round:(-1) "echo" ~count:(Node_id.Set.cardinal supporters)
          ~threshold:(Core.echo_threshold ~n:state.n ~f:state.f);
        ({ state with delivered = true }, [], [ Delivered v ])
      end
      else (state, [], [])
    | Core.Ready _ -> (state, [], []) (* no third phase in this primitive *)

  let is_terminal (Delivered _) = true
  let on_timeout = Protocol.no_timeout

  let msg_label = Core.event_label

  let msg_bytes = Core.event_bytes

  let pp_msg = Core.pp_event

  let pp_output ppf (Delivered v) = Fmt.pf ppf "delivered(%a)" V.pp v

  let inputs ~n ~sender v =
    Array.init n (fun i ->
        let me = Node_id.of_int i in
        { sender; payload = (if Node_id.equal me sender then Some v else None) })
end

module Binary = Make (Value)
