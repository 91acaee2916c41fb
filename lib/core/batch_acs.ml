[@@@abc.resilience "n>3f"]

open Import

module Int_map = Map.Make (Int)

type input = { proposal : string; coin : Coin.t }

type output = Accepted of (Node_id.t * string) list

type msg =
  | Prop of { origin : Node_id.t; inner : Coded_rbc.msg }
  | Ba of { index : int; wire : Rbc_mux.wire }

type state = {
  n : int;
  f : int;
  me : Node_id.t;
  prop_instances : Coded_rbc.state Node_id.Map.t;
  proposals : string Node_id.Map.t; (* reliably delivered batches *)
  bas : Ba_instance.t Int_map.t; (* one BA per proposer index *)
  decisions : Value.t Int_map.t; (* BA results *)
  emitted : bool;
}

let name = "batch-acs"

let ba_validation = true

let make_ba ~n ~f ~me ~coin = Ba_instance.create ~n ~f ~me ~coin ~validation:ba_validation

let ba state index = Int_map.find index state.bas

let wrap_ba index wires =
  List.map (fun wire -> Protocol.Broadcast (Ba { index; wire })) wires

(* The dissemination layer point-sends Val fragments, so its actions
   must be wrapped target-preservingly (unlike the broadcast-only
   Bracha proposal RBC of {!Acs}). *)
let wrap_prop origin actions =
  List.map
    (fun action ->
      match action with
      | Protocol.Broadcast inner -> Protocol.Broadcast (Prop { origin; inner })
      | Protocol.Send (dst, inner) -> Protocol.Send (dst, Prop { origin; inner })
      | Protocol.Set_timer { id; after } ->
        (* Coded RBC never arms timers; if it ever does, the id must be
           origin-demultiplexed rather than forwarded. *)
        Protocol.Set_timer { id; after })
    actions

(* Events of the BA for proposer [index], scoped under "ba<index>". *)
let ba_sink (sink : Event.sink) index =
  if sink.Event.enabled then
    Event.scoped sink ~instance:(lazy (Printf.sprintf "ba%d" index))
  else sink

(* The dissemination instance for [origin]'s batch runs with the outer
   context, its events scoped under "prop@n<origin>". *)
let prop_ctx (ctx : Protocol.Context.t) origin =
  let sink = ctx.Protocol.Context.sink in
  if sink.Event.enabled then
    {
      ctx with
      Protocol.Context.sink =
        Event.scoped sink ~instance:(lazy (Fmt.str "prop@%a" Node_id.pp origin));
    }
  else ctx

(* Start [BA index] with [input], folding any immediate events back
   into the state.  No-op when already started. *)
let start_ba state ~rng ~sink index input =
  let instance = ba state index in
  if Ba_instance.started instance then (state, [])
  else begin
    let instance, wires, events =
      Ba_instance.start ~sink:(ba_sink sink index) instance ~rng ~input
    in
    let state = { state with bas = Int_map.add index instance state.bas } in
    let state =
      List.fold_left
        (fun state (Ba_instance.Decided d) ->
          if Int_map.mem index state.decisions then state
          else
            { state with decisions = Int_map.add index d.Decision.value state.decisions })
        state events
    in
    (state, wrap_ba index wires)
  end

let record_events state index events =
  List.fold_left
    (fun state (Ba_instance.Decided d) ->
      if Int_map.mem index state.decisions then state
      else { state with decisions = Int_map.add index d.Decision.value state.decisions })
    state events

let ones_decided state =
  Int_map.fold
    (fun _ v acc -> if Value.equal v Value.One then acc + 1 else acc)
    state.decisions 0

(* Apply the ACS rules to fixpoint: vote 1 for delivered batches, vote
   0 everywhere once n-f instances accepted, emit when all instances
   are decided and the accepted batches have arrived.  Identical to
   {!Acs.settle} — the agreement logic is independent of how batches
   are disseminated. *)
let rec settle state ~rng ~sink actions =
  (* Rule 1: batches that arrived but whose BA has no input yet. *)
  let pending_one =
    Node_id.Map.fold
      (fun origin _ acc ->
        let index = Node_id.to_int origin in
        if Ba_instance.started (ba state index) then acc else index :: acc)
      state.proposals []
  in
  match pending_one with
  | index :: _ ->
    let state, new_actions = start_ba state ~rng ~sink index Value.One in
    settle state ~rng ~sink (actions @ new_actions)
  | [] ->
    (* Rule 2: enough instances accepted — refuse the rest. *)
    let unstarted =
      List.filter
        (fun i -> not (Ba_instance.started (ba state i)))
        (List.init state.n (fun i -> i))
    in
    if
      ones_decided state >= Quorum.completeness ~n:state.n ~f:state.f
      && (match unstarted with [] -> false | _ :: _ -> true)
    then begin
      let state, new_actions =
        List.fold_left
          (fun (state, acc) index ->
            let state, actions = start_ba state ~rng ~sink index Value.Zero in
            (state, acc @ actions))
          (state, []) unstarted
      in
      settle state ~rng ~sink (actions @ new_actions)
    end
    else begin
      (* Rule 3: emit once everything is decided and every accepted
         batch has been delivered (RBC totality guarantees it will). *)
      if state.emitted || Int_map.cardinal state.decisions < state.n then
        (state, actions, [])
      else begin
        let accepted_indices =
          Int_map.fold
            (fun i v acc -> if Value.equal v Value.One then i :: acc else acc)
            state.decisions []
          |> List.sort Int.compare
        in
        let payloads =
          List.map
            (fun i -> Node_id.Map.find_opt (Node_id.of_int i) state.proposals)
            accepted_indices
        in
        if List.for_all Option.is_some payloads then begin
          let subset =
            List.map2
              (fun i payload ->
                match payload with
                | Some p -> (Node_id.of_int i, p)
                | None -> assert false)
              accepted_indices payloads
          in
          ({ state with emitted = true }, actions, [ Accepted subset ])
        end
        else (state, actions, [])
      end
    end

let initial ctx (input : input) =
  let { Protocol.Context.me; n; f; rng = _; sink = _ } = ctx in
  Quorum.assert_resilience ~n ~f;
  let bas =
    List.fold_left
      (fun bas i -> Int_map.add i (make_ba ~n ~f ~me ~coin:input.coin) bas)
      Int_map.empty
      (List.init n (fun i -> i))
  in
  (* One coded-RBC dissemination instance per proposer, all opened up
     front: mine broadcasts the Reed-Solomon dispersal of my batch, the
     others sit ready to receive. *)
  let prop_instances, actions =
    List.fold_left
      (fun (instances, acc) i ->
        let origin = Node_id.of_int i in
        let payload = if Node_id.equal origin me then Some input.proposal else None in
        let inst, inst_actions =
          Coded_rbc.initial (prop_ctx ctx origin)
            { Coded_rbc.sender = origin; payload }
        in
        (Node_id.Map.add origin inst instances, acc @ wrap_prop origin inst_actions))
      (Node_id.Map.empty, [])
      (List.init n (fun i -> i))
  in
  let state =
    {
      n;
      f;
      me;
      prop_instances;
      proposals = Node_id.Map.empty;
      bas;
      decisions = Int_map.empty;
      emitted = false;
    }
  in
  (state, actions)

let on_message ctx state ~src msg =
  let rng = ctx.Protocol.Context.rng in
  let sink = ctx.Protocol.Context.sink in
  match msg with
  | Prop { origin; inner } -> (
    match Node_id.Map.find_opt origin state.prop_instances with
    | None -> (state, [], []) (* origin out of range: forged wrapper *)
    | Some inst ->
      let inst, inst_actions, delivered =
        Coded_rbc.on_message (prop_ctx ctx origin) inst ~src inner
      in
      let state =
        { state with prop_instances = Node_id.Map.add origin inst state.prop_instances }
      in
      let state =
        List.fold_left
          (fun state (Coded_rbc.Delivered payload) ->
            if Node_id.Map.mem origin state.proposals then state
            else { state with proposals = Node_id.Map.add origin payload state.proposals })
          state delivered
      in
      settle state ~rng ~sink (wrap_prop origin inst_actions))
  | Ba { index; wire } ->
    if index < 0 || index >= state.n then (state, [], [])
    else begin
      let instance, wires, events =
        Ba_instance.on_wire ~sink:(ba_sink sink index) (ba state index) ~rng ~src
          wire
      in
      let state = { state with bas = Int_map.add index instance state.bas } in
      let state = record_events state index events in
      settle state ~rng ~sink (wrap_ba index wires)
    end

let is_terminal (Accepted _) = true
let on_timeout = Protocol.no_timeout

let msg_label = function
  | Prop { inner; _ } -> "prop." ^ Coded_rbc.msg_label inner
  | Ba { wire; _ } -> "ba." ^ Rbc_mux.wire_label wire

let msg_bytes =
  let open Protocol.Wire_size in
  function
  | Prop { origin = _; inner } -> tag + node_id + Coded_rbc.msg_bytes inner
  | Ba { index = _; wire } -> tag + int + Rbc_mux.wire_bytes wire

let pp_msg ppf = function
  | Prop { origin; inner } ->
    Fmt.pf ppf "prop[%a]:%a" Node_id.pp origin Coded_rbc.pp_msg inner
  | Ba { index; wire } -> Fmt.pf ppf "ba[%d]:%a" index Rbc_mux.pp_wire wire

let pp_output ppf (Accepted subset) =
  Fmt.pf ppf "accepted{%a}"
    (Fmt.list ~sep:Fmt.comma (fun ppf (id, p) ->
         Fmt.pf ppf "%a=%dB" Node_id.pp id (String.length p)))
    subset

let inputs ~n ~coin proposals =
  if Array.length proposals <> n then
    invalid_arg "Batch_acs.inputs: proposals length must equal n";
  Array.map (fun proposal -> { proposal; coin }) proposals
