open Import

module Rbc = Rbc_core.Make (Consensus_msg.Payload)
module Int_map = Map.Make (Int)

type wire = { key : Consensus_msg.Key.t; event : Rbc.event }

(* One row per round: slot [(step - 1) * n + origin] holds the
   instance of (origin, round, step), [None] until its first wire.  A
   stored row is never written again; a wire that changes an instance
   stores a changed copy of its row. *)
type t = { n : int; f : int; rows : Rbc.t option array Int_map.t; created : int }

let create ~n ~f = { n; f; rows = Int_map.empty; created = 0 }

let broadcast_own key payload = { key; event = Rbc.Initial payload }

let handle ?(sink = Event.null_sink) t ~src wire =
  let key = wire.key in
  let origin = Node_id.to_int key.origin in
  (* No honest node names an origin outside [0, n), and f liars cannot
     bring an honest node to ready on one, so dropping it changes
     nothing an honest node does. *)
  if origin < 0 || origin >= t.n then (t, [], None)
  else
    let slot = ((Consensus_msg.Step.to_int key.step - 1) * t.n) + origin in
    let row = Int_map.find_opt key.round t.rows in
    let current = match row with Some row -> row.(slot) | None -> None in
    match current with
    | Some inst when Rbc.settled inst wire.event -> (t, [], None)
    | Some _ | None -> (
      (* Scope emitted events by the instance key; the label is only
         built when a consumer is attached and an event is actually
         emitted — most wires emit nothing. *)
      let sink =
        if sink.Event.enabled then
          Event.scoped sink ~instance:(lazy (Fmt.str "%a" Consensus_msg.Key.pp key))
        else sink
      in
      let before =
        match current with
        | Some inst -> inst
        | None -> Rbc.create ~n:t.n ~f:t.f ~sender:key.origin
      in
      match Rbc.handle ~sink before ~src wire.event with
      | inst, [], None when inst == before && Option.is_some current -> (t, [], None)
      | inst, events, delivered ->
        let row =
          match row with
          | Some row -> Array.copy row
          | None -> Array.make (3 * t.n) None
        in
        row.(slot) <- Some inst;
        let created = if Option.is_none current then t.created + 1 else t.created in
        let t = { t with rows = Int_map.add key.round row t.rows; created } in
        let outgoing = List.map (fun event -> { key; event }) events in
        (t, outgoing, Option.map (fun payload -> (key, payload)) delivered))

let instances t = t.created

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
