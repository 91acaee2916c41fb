module Node_id = Abc_net.Node_id
module Protocol = Abc_net.Protocol
module Int_map = Map.Make (Int)

(* Each slot runs one ACS over string proposals. *)
module Slot_acs = Abc.Acs.Make (Abc.Payloads.String_payload)

type command = string

type input = { commands : command array; slots : int; coin : Abc.Coin.t }

type output =
  | Committed of { slot : int; commands : (Node_id.t * command) list }
  | Log_complete of command list

type msg = Slot of { slot : int; inner : Slot_acs.msg }

type state = {
  slots : int;
  coin : Abc.Coin.t;
  commands : command array;
  instances : Slot_acs.state Int_map.t; (* live slot agreements *)
  results : (Node_id.t * command) list Int_map.t; (* decided slots *)
  next_commit : int; (* first slot not yet committed *)
  complete : bool;
}

let name = "replicated-log"

(* A replica's proposal for a slot; replicas with fewer commands than
   slots propose an explicit no-op so agreement always has input. *)
let proposal state slot =
  if slot < Array.length state.commands then state.commands.(slot) else "<noop>"

let wrap slot actions =
  Protocol.map_actions (fun inner -> Slot { slot; inner }) actions

(* Scope a slot's observability under "slot<k>" so concurrent slot
   agreements stay distinguishable in traces (see OBSERVABILITY.md). *)
let slot_ctx ctx slot = Protocol.Context.scoped ctx ~prefix:"slot" slot

(* Open slot [slot]'s agreement (idempotent): instantiates the inner
   ACS with this replica's proposal, which broadcasts it. *)
let open_slot ctx state slot =
  if slot < 0 || slot >= state.slots || Int_map.mem slot state.instances then
    (state, [])
  else begin
    let inner_input =
      { Slot_acs.proposal = proposal state slot; coin = state.coin }
    in
    let inner_state, actions = Slot_acs.initial (slot_ctx ctx slot) inner_input in
    ({ state with instances = Int_map.add slot inner_state state.instances },
     wrap slot actions)
  end

(* Emit commits in slot order; finish with the complete log. *)
let drain_commits state =
  let rec loop state acc =
    match Int_map.find_opt state.next_commit state.results with
    | Some commands ->
      let output = Committed { slot = state.next_commit; commands } in
      loop { state with next_commit = state.next_commit + 1 } (output :: acc)
    | None ->
      if state.next_commit >= state.slots && not state.complete then begin
        let log =
          List.concat_map
            (fun slot ->
              List.map snd (Int_map.find slot state.results))
            (List.init state.slots (fun k -> k))
        in
        ({ state with complete = true }, List.rev (Log_complete log :: acc))
      end
      else (state, List.rev acc)
  in
  loop state []

let initial ctx (input : input) =
  let state =
    {
      slots = input.slots;
      coin = input.coin;
      commands = input.commands;
      instances = Int_map.empty;
      results = Int_map.empty;
      next_commit = 0;
      complete = false;
    }
  in
  (* Pipelined: every slot's agreement starts immediately. *)
  let state, actions =
    List.fold_left
      (fun (state, acc) slot ->
        let state, actions = open_slot ctx state slot in
        (state, acc @ actions))
      (state, [])
      (List.init input.slots (fun k -> k))
  in
  (state, actions)

let on_message ctx state ~src msg =
  let (Slot { slot; inner }) = msg in
  if slot < 0 || slot >= state.slots then (state, [], [])
  else begin
    (* Traffic can arrive for a slot we have not opened (it is opened
       at init in the current pipelined design, but keep the lazy path
       for robustness against reordering during shutdown). *)
    let state, open_actions = open_slot ctx state slot in
    let inner_state = Int_map.find slot state.instances in
    let inner_state, inner_actions, inner_outputs =
      Slot_acs.on_message (slot_ctx ctx slot) inner_state ~src inner
    in
    let state =
      { state with instances = Int_map.add slot inner_state state.instances }
    in
    let state =
      List.fold_left
        (fun state (Slot_acs.Accepted subset) ->
          if Int_map.mem slot state.results then state
          else { state with results = Int_map.add slot subset state.results })
        state inner_outputs
    in
    let state, outputs = drain_commits state in
    (state, open_actions @ wrap slot inner_actions, outputs)
  end

let is_terminal = function Log_complete _ -> true | Committed _ -> false
let on_timeout = Protocol.no_timeout

(* Labels are shared strings (see [Protocol.S.msg_label]): each of
   the slot ACS's labels maps to its prefixed literal, and only a
   label outside that set is built per call. *)
let msg_label (Slot { inner; _ }) =
  match Slot_acs.msg_label inner with
  | "prop.initial" -> "slot.prop.initial"
  | "prop.echo" -> "slot.prop.echo"
  | "prop.ready" -> "slot.prop.ready"
  | "ba.initial" -> "slot.ba.initial"
  | "ba.echo" -> "slot.ba.echo"
  | "ba.ready" -> "slot.ba.ready"
  | label -> "slot." ^ label

let msg_bytes (Slot { slot = _; inner }) =
  Protocol.Wire_size.int + Slot_acs.msg_bytes inner

let pp_msg ppf (Slot { slot; inner }) =
  Fmt.pf ppf "slot[%d]:%a" slot Slot_acs.pp_msg inner

let pp_output ppf = function
  | Committed { slot; commands } ->
    Fmt.pf ppf "committed[%d]{%a}" slot
      (Fmt.list ~sep:Fmt.comma (fun ppf (id, c) ->
           Fmt.pf ppf "%a:%s" Node_id.pp id c))
      commands
  | Log_complete log ->
    Fmt.pf ppf "log(%d commands: %a)" (List.length log)
      (Fmt.list ~sep:Fmt.semi Fmt.string) log

let inputs ~n ~slots ~coin command =
  Array.init n (fun i ->
      { commands = Array.init slots (fun k -> command i k); slots; coin })

let log_of_outputs outputs =
  List.find_map
    (fun (_, output) ->
      match output with Log_complete log -> Some log | Committed _ -> None)
    outputs
