open Import

type event = Decided of Decision.t

type t = {
  n : int;
  f : int;
  me : Node_id.t;
  coin : Coin.t;
  mux : Rbc_mux.t;
  validation : Validation.t;
  core : Consensus_core.t option; (* None until [start] *)
  replay : Consensus_msg.vmsg list; (* validated before start, oldest first *)
}

let create ~n ~f ~me ~coin ~validation =
  {
    n;
    f;
    me;
    coin;
    mux = Rbc_mux.create ~n ~f;
    validation = Validation.create ~n ~f ~enabled:validation;
    core = None;
    replay = [];
  }

let started t = t.core <> None

let decided t =
  match t.core with Some core -> Consensus_core.decided core | None -> None

let round t = match t.core with Some core -> Consensus_core.round core | None -> 1

(* Turn core effects into wire broadcasts / decision events. *)
let interpret_effects effects =
  let split (wires, events) = function
    | Consensus_core.Broadcast_step vmsg ->
      let wire =
        Rbc_mux.broadcast_own
          (Consensus_msg.key_of_vmsg vmsg)
          (Consensus_msg.payload_of_vmsg vmsg)
      in
      (wire :: wires, events)
    | Consensus_core.Decide decision -> (wires, Decided decision :: events)
  in
  let wires, events = List.fold_left split ([], []) effects in
  (List.rev wires, List.rev events)

(* Feed a batch of validated messages into the core (buffering them
   when the instance has no input yet), collecting effects. *)
let drive ?(sink = Event.null_sink) t ~rng validated =
  match t.core with
  | None -> ({ t with replay = t.replay @ validated }, [], [])
  | Some core ->
    let core, effects =
      List.fold_left
        (fun (core, acc) vmsg ->
          let core, effects = Consensus_core.on_validated ~sink core ~rng vmsg in
          (core, acc @ effects))
        (core, []) validated
    in
    let wires, events = interpret_effects effects in
    ({ t with core = Some core }, wires, events)

let start ?(sink = Event.null_sink) t ~rng ~input =
  match t.core with
  | Some _ -> (t, [], [])
  | None ->
    let core, effects =
      Consensus_core.create ~n:t.n ~f:t.f ~me:t.me ~coin:t.coin ~input
    in
    let start_wires, start_events = interpret_effects effects in
    let replay = t.replay in
    let t = { t with core = Some core; replay = [] } in
    let t, replay_wires, replay_events = drive ~sink t ~rng replay in
    (t, start_wires @ replay_wires, start_events @ replay_events)

let on_wire ?(sink = Event.null_sink) t ~rng ~src wire =
  let mux, outgoing, delivery = Rbc_mux.handle ~sink t.mux ~src wire in
  match delivery with
  | None when mux == t.mux -> (t, [], [])
  | None -> ({ t with mux }, outgoing, [])
  | Some (key, payload) ->
    let vmsg = Consensus_msg.vmsg_of_delivery key payload in
    let validation, validated = Validation.submit t.validation vmsg in
    let t, wires, events = drive ~sink { t with mux; validation } ~rng validated in
    (t, outgoing @ wires, events)
