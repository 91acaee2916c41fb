module Rbc = Rbc_core.Make (Consensus_msg.Payload)

type wire = { key : Consensus_msg.Key.t; event : Rbc.event }

type t = { n : int; f : int; live : Rbc.t Consensus_msg.Key.Map.t }

let create ~n ~f = { n; f; live = Consensus_msg.Key.Map.empty }

let broadcast_own key payload = { key; event = Rbc.Initial payload }

let instance t (key : Consensus_msg.Key.t) =
  match Consensus_msg.Key.Map.find_opt key t.live with
  | Some inst -> inst
  | None -> Rbc.create ~n:t.n ~f:t.f ~sender:key.origin

let handle ?(sink = Abc_sim.Event.null_sink) t ~src wire =
  (* Scope emitted events by the instance key; the label is only built
     when a consumer is attached and an event is actually emitted —
     most wires emit nothing. *)
  let sink =
    if sink.Abc_sim.Event.enabled then
      Abc_sim.Event.scoped sink
        ~instance:(lazy (Fmt.str "%a" Consensus_msg.Key.pp wire.key))
    else sink
  in
  let inst = instance t wire.key in
  let inst, events, delivered = Rbc.handle ~sink inst ~src wire.event in
  let t = { t with live = Consensus_msg.Key.Map.add wire.key inst t.live } in
  let outgoing = List.map (fun event -> { key = wire.key; event }) events in
  let delivery = Option.map (fun payload -> (wire.key, payload)) delivered in
  (t, outgoing, delivery)

let instances t = Consensus_msg.Key.Map.cardinal t.live

let pp_wire ppf { key; event } =
  Fmt.pf ppf "%a:%a" Consensus_msg.Key.pp key Rbc.pp_event event

let wire_label { event; _ } = Rbc.event_label event

let ba_wire_label { event; _ } =
  match event with
  | Rbc.Initial _ -> "ba.initial"
  | Rbc.Echo _ -> "ba.echo"
  | Rbc.Ready _ -> "ba.ready"

let wire_bytes { key; event } =
  Consensus_msg.Key.bytes key + Rbc.event_bytes event
