[@@@abc.resilience "n>3f"]

open Import

module Options = struct
  type transport = Reliable | Plain

  type t = { coin : Coin.t; validation : bool; transport : transport }

  let default = { coin = Coin.local; validation = true; transport = Reliable }

  let with_common_coin ~seed = { default with coin = Coin.common ~seed }

  let pp ppf { coin; validation; transport } =
    Fmt.pf ppf "coin=%a validation=%b transport=%s" Coin.pp coin validation
      (match transport with Reliable -> "rbc" | Plain -> "plain")
end

type input = { value : Value.t; options : Options.t }

type msg = Wire of Rbc_mux.wire | Direct of Consensus_msg.vmsg

type output = Decision.t

(* Plain transport: no RBC, just per-slot deduplication plus the same
   validation and core.  Byzantine nodes can equivocate freely. *)
type plain = {
  validation : Validation.t;
  core : Consensus_core.t;
}

type state = Reliable_state of Ba_instance.t | Plain_state of plain

let name = "bracha-consensus"

let broadcast_wires wires = List.map (fun w -> Protocol.Broadcast (Wire w)) wires

let effects_to_actions_outputs effects =
  List.fold_left
    (fun (actions, outputs) effect ->
      match effect with
      | Consensus_core.Broadcast_step vmsg ->
        (Protocol.Broadcast (Direct vmsg) :: actions, outputs)
      | Consensus_core.Decide decision -> (actions, decision :: outputs))
    ([], []) effects
  |> fun (actions, outputs) -> (List.rev actions, List.rev outputs)

let initial ctx input =
  let { Protocol.Context.me; n; f; rng; sink } = ctx in
  match input.options.Options.transport with
  | Options.Reliable ->
    let ba =
      Ba_instance.create ~n ~f ~me ~coin:input.options.Options.coin
        ~validation:input.options.Options.validation
    in
    let ba, wires, _events = Ba_instance.start ~sink ba ~rng ~input:input.value in
    (Reliable_state ba, broadcast_wires wires)
  | Options.Plain ->
    let validation =
      Validation.create ~n ~f ~enabled:input.options.Options.validation
    in
    let core, effects =
      Consensus_core.create ~n ~f ~me ~coin:input.options.Options.coin
        ~input:input.value
    in
    let actions, _outputs = effects_to_actions_outputs effects in
    (Plain_state { validation; core }, actions)

let on_message ctx state ~src msg =
  let rng = ctx.Protocol.Context.rng in
  let sink = ctx.Protocol.Context.sink in
  match (state, msg) with
  | Reliable_state ba, Wire wire -> (
    match Ba_instance.on_wire ~sink ba ~rng ~src wire with
    | ba', [], [] when ba' == ba -> (state, [], [])
    | ba, wires, events ->
      let outputs = List.map (fun (Ba_instance.Decided d) -> d) events in
      (Reliable_state ba, broadcast_wires wires, outputs))
  | Plain_state plain, Direct vmsg ->
    (* Authenticated channels: a message claiming another node's origin
       is discarded.  Equivocation (different payloads to different
       peers for the same slot) remains possible — that is the point of
       this ablation. *)
    if not (Node_id.equal vmsg.Consensus_msg.origin src) then (state, [], [])
    else begin
      let validation, validated = Validation.submit plain.validation vmsg in
      let core, effects =
        List.fold_left
          (fun (core, acc) m ->
            let core, effects = Consensus_core.on_validated ~sink core ~rng m in
            (core, acc @ effects))
          (plain.core, []) validated
      in
      let actions, outputs = effects_to_actions_outputs effects in
      (Plain_state { validation; core }, actions, outputs)
    end
  | Reliable_state _, Direct _ | Plain_state _, Wire _ ->
    (* Traffic of the other transport (a confused or malicious node):
       ignore. *)
    (state, [], [])

let is_terminal (_ : output) = true
let on_timeout = Protocol.no_timeout

let msg_label = function
  | Wire wire -> Rbc_mux.wire_label wire
  | Direct _ -> "direct"

let msg_bytes = function
  | Wire wire -> Protocol.Wire_size.tag + Rbc_mux.wire_bytes wire
  | Direct vmsg -> Protocol.Wire_size.tag + Consensus_msg.vmsg_bytes vmsg

let pp_msg ppf = function
  | Wire wire -> Rbc_mux.pp_wire ppf wire
  | Direct vmsg -> Consensus_msg.pp_vmsg ppf vmsg

let pp_output = Decision.pp

let inputs ~n ~options values =
  if Array.length values <> n then
    invalid_arg "Bracha_consensus.inputs: values length must equal n";
  Array.map (fun value -> { value; options }) values

let value_of_input input = input.value

module Fault = struct
  let map_value forge rng msg =
    let map_payload (p : Consensus_msg.Payload.t) =
      { p with Consensus_msg.Payload.value = forge rng p.Consensus_msg.Payload.value }
    in
    match msg with
    | Wire { key; event } ->
      let event =
        match event with
        | Rbc_mux.Rbc.Initial p -> Rbc_mux.Rbc.Initial (map_payload p)
        | Rbc_mux.Rbc.Echo p -> Rbc_mux.Rbc.Echo (map_payload p)
        | Rbc_mux.Rbc.Ready p -> Rbc_mux.Rbc.Ready (map_payload p)
      in
      Wire { key; event }
    | Direct vmsg ->
      Direct { vmsg with Consensus_msg.value = forge rng vmsg.Consensus_msg.value }

  let flip_value rng msg = map_value (fun _rng v -> Value.negate v) rng msg

  let random_value rng msg =
    map_value (fun rng _v -> Value.of_bool (Stream.bool rng)) rng msg

  let force_decide _rng msg =
    let arm (p : Consensus_msg.Payload.t) = { p with Consensus_msg.Payload.decide = true } in
    match msg with
    | Wire { key; event } ->
      let event =
        match event with
        | Rbc_mux.Rbc.Initial p -> Rbc_mux.Rbc.Initial (arm p)
        | Rbc_mux.Rbc.Echo p -> Rbc_mux.Rbc.Echo (arm p)
        | Rbc_mux.Rbc.Ready p -> Rbc_mux.Rbc.Ready (arm p)
      in
      Wire { key; event }
    | Direct vmsg -> Direct { vmsg with Consensus_msg.decide = true }
end
