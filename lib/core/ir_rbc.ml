[@@@abc.resilience "n>5f"]

open Import

module Make (V : Value.PAYLOAD) = struct
  module Value_map = Map.Make (V)
  module Value_set = Set.Make (V)

  type input = { sender : Node_id.t; payload : V.t option }

  type output = Delivered of V.t

  type msg = Init of V.t | Witness of V.t

  type state = {
    n : int;
    f : int;
    sender : Node_id.t;
    init_seen : bool;
    witnessed : Value_set.t; (* values whose WITNESS I already broadcast *)
    witnesses : Node_id.Set.t Value_map.t;
    delivered : bool;
  }

  let name = "ir-rbc"

  let support state v =
    match Value_map.find_opt v state.witnesses with
    | Some nodes -> Node_id.Set.cardinal nodes
    | None -> 0

  (* The WITNESS broadcast is guarded per value, not by a global latch:
     a node latched on the sender's INIT value must still amplify a
     different value once [n - 2f] witnesses vouch for it, or nodes
     that delivered could leave the stragglers short of their delivery
     quorum (totality would fail under an equivocating sender). *)
  let witness state v =
    if Value_set.mem v state.witnessed then (state, [])
    else
      ( { state with witnessed = Value_set.add v state.witnessed },
        [ Protocol.Broadcast (Witness v) ] )

  let progress (ctx : Protocol.Context.t) state v =
    let sink = ctx.Protocol.Context.sink in
    let count = support state v in
    let state, sends =
      if count >= Quorum.honest_support ~n:state.n ~f:state.f then begin
        let state, sends = witness state v in
        if sends <> [] then
          Event.quorum sink ~round:(-1) "witness-amplify" ~count
            ~threshold:(Quorum.honest_support ~n:state.n ~f:state.f);
        (state, sends)
      end
      else (state, [])
    in
    if
      (not state.delivered)
      && count >= Quorum.completeness ~n:state.n ~f:state.f
    then begin
      Event.quorum sink ~round:(-1) "witness" ~count
        ~threshold:(Quorum.completeness ~n:state.n ~f:state.f);
      ({ state with delivered = true }, sends, [ Delivered v ])
    end
    else (state, sends, [])

  let initial ctx (input : input) =
    let n = ctx.Protocol.Context.n and f = ctx.Protocol.Context.f in
    Quorum.assert_resilience_at ~ratio:5 ~n ~f;
    let state =
      {
        n;
        f;
        sender = input.sender;
        init_seen = false;
        witnessed = Value_set.empty;
        witnesses = Value_map.empty;
        delivered = false;
      }
    in
    let actions =
      match input.payload with
      | Some v ->
        assert (Node_id.equal ctx.Protocol.Context.me input.sender);
        [ Protocol.Broadcast (Init v) ]
      | None -> []
    in
    (state, actions)

  let on_message ctx state ~src = function
    | Init v ->
      (* Only the designated sender's first INIT counts. *)
      if (not (Node_id.equal src state.sender)) || state.init_seen then
        (state, [], [])
      else begin
        let state = { state with init_seen = true } in
        let state, sends = witness state v in
        (state, sends, [])
      end
    | Witness v ->
      let nodes =
        match Value_map.find_opt v state.witnesses with
        | Some nodes -> nodes
        | None -> Node_id.Set.empty
      in
      let state =
        {
          state with
          witnesses = Value_map.add v (Node_id.Set.add src nodes) state.witnesses;
        }
      in
      progress ctx state v

  let is_terminal (Delivered _) = true

  let on_timeout = Protocol.no_timeout

  let msg_label = function Init _ -> "init" | Witness _ -> "witness"

  let msg_bytes = function
    | Init v | Witness v -> Protocol.Wire_size.tag + V.bytes v

  let pp_msg ppf = function
    | Init v -> Fmt.pf ppf "init(%a)" V.pp v
    | Witness v -> Fmt.pf ppf "witness(%a)" V.pp v

  let pp_output ppf (Delivered v) = Fmt.pf ppf "delivered(%a)" V.pp v

  let max_faults ~n = Quorum.max_faults ~ratio:5 ~n

  module Fault = struct
    let map_payload forge rng = function
      | Init v -> Init (forge rng v)
      | Witness v -> Witness (forge rng v)

    let substitute forge rng msg = map_payload forge rng msg

    let equivocate forge rng ~dst msg =
      map_payload (fun rng v -> forge rng ~dst v) rng msg
  end

  let inputs ~n ~sender v =
    Array.init n (fun i ->
        let me = Node_id.of_int i in
        { sender; payload = (if Node_id.equal me sender then Some v else None) })
end

module Binary = Make (Value)
