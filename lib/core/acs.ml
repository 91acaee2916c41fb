[@@@abc.resilience "n>3f"]

open Import

module Int_map = Map.Make (Int)

module type BROADCAST = sig
  type payload

  type output = Delivered of payload

  include Protocol.S with type output := output

  val input : sender:Node_id.t -> payload option -> input

  val pp_payload : payload Fmt.t
end

module Over (B : BROADCAST) (Id : sig
  val name : string
end) =
struct
  type input = { proposal : B.payload; coin : Coin.t }

  type output = Accepted of (Node_id.t * B.payload) list

  type msg =
    | Prop of { origin : Node_id.t; inner : B.msg }
    | Ba of { index : int; wire : Rbc_mux.wire }

  type state = {
    n : int;
    f : int;
    me : Node_id.t;
    prop_instances : B.state Node_id.Map.t; (* one per proposer, opened at init *)
    proposals : B.payload Node_id.Map.t; (* reliably delivered proposals *)
    bas : Ba_instance.t Int_map.t; (* one BA per proposer index *)
    decisions : Value.t Int_map.t; (* BA results *)
    emitted : bool;
  }

  let name = Id.name

  let ba_validation = true

  let make_ba ~n ~f ~me ~coin = Ba_instance.create ~n ~f ~me ~coin ~validation:ba_validation

  let wrap_ba index wires =
    List.map (fun wire -> Protocol.Broadcast (Ba { index; wire })) wires

  (* The broadcast may point-send (the coded dispersal sends each node
     its own fragment), so its actions are rewrapped target-preservingly. *)
  let wrap_prop origin actions =
    Protocol.map_actions (fun inner -> Prop { origin; inner }) actions

  (* The broadcast of [origin]'s proposal runs with the outer context,
     its events scoped under "prop@n<origin>"; the BA for proposer
     [index] under "ba<index>". *)
  let prop_ctx ctx origin =
    Protocol.Context.scoped ctx ~prefix:"prop@n" (Node_id.to_int origin)

  let ba_sink ctx index =
    (Protocol.Context.scoped ctx ~prefix:"ba" index).Protocol.Context.sink

  let ones_decided state =
    Int_map.fold
      (fun _ v acc -> if Value.equal v Value.One then acc + 1 else acc)
      state.decisions 0

  let record_events state index events =
    List.fold_left
      (fun state (Ba_instance.Decided d) ->
        if Int_map.mem index state.decisions then state
        else { state with decisions = Int_map.add index d.Decision.value state.decisions })
      state events

  (* Start [BA_index] with [input], folding any immediate events back
     into the state.  No-op when already started. *)
  let start_ba ctx state index input =
    let instance = Int_map.find index state.bas in
    if Ba_instance.started instance then (state, [])
    else begin
      let instance, wires, events =
        Ba_instance.start ~sink:(ba_sink ctx index) instance
          ~rng:ctx.Protocol.Context.rng ~input
      in
      let state = { state with bas = Int_map.add index instance state.bas } in
      let state = record_events state index events in
      (state, wrap_ba index wires)
    end

  (* Apply the ACS rules to fixpoint: vote 1 for delivered proposals,
     vote 0 everywhere once n-f instances accepted, emit when all
     instances are decided and the accepted payloads have arrived.
     The agreement logic is independent of how proposals are
     disseminated.  The closures read [state.bas] directly: one that
     called a helper of this functor would capture it, a word more per
     message. *)
  let rec settle ctx state actions =
    (* Rule 1: proposals that arrived but whose BA has no input yet. *)
    let pending_one =
      Node_id.Map.fold
        (fun origin _ acc ->
          let index = Node_id.to_int origin in
          if Ba_instance.started (Int_map.find index state.bas) then acc
          else index :: acc)
        state.proposals []
    in
    match pending_one with
    | index :: _ ->
      let state, new_actions = start_ba ctx state index Value.One in
      settle ctx state (actions @ new_actions)
    | [] ->
      (* Rule 2: enough instances accepted — refuse the rest. *)
      let unstarted =
        List.filter
          (fun i -> not (Ba_instance.started (Int_map.find i state.bas)))
          (List.init state.n (fun i -> i))
      in
      if
        ones_decided state >= Quorum.completeness ~n:state.n ~f:state.f
        && unstarted <> []
      then begin
        let state, new_actions =
          List.fold_left
            (fun (state, acc) index ->
              let state, actions = start_ba ctx state index Value.Zero in
              (state, acc @ actions))
            (state, []) unstarted
        in
        settle ctx state (actions @ new_actions)
      end
      else begin
        (* Rule 3: emit once everything is decided and every accepted
           proposal has been delivered (totality guarantees it will). *)
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
    (* One proposal broadcast per proposer, all opened up front: mine
       sends my proposal, the others sit ready to receive. *)
    let prop_instances, actions =
      List.fold_left
        (fun (instances, acc) i ->
          let origin = Node_id.of_int i in
          let payload = if Node_id.equal origin me then Some input.proposal else None in
          let inst, inst_actions =
            B.initial (prop_ctx ctx origin) (B.input ~sender:origin payload)
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

  (* The rules run only when the message added a proposal or a
     decision.  This is exact: [settle] always runs to its fixpoint,
     its three rules read only [proposals], [decisions] and which BAs
     have started, and only [settle] starts a BA.  After a message
     that changed none of those, [settle] would return its input and
     no output. *)
  let settle_if_changed ctx ~before state actions =
    if state.proposals == before.proposals && state.decisions == before.decisions
    then (state, actions, [])
    else settle ctx state actions

  (* A child that returns its own state with no action and no output
     changed nothing here either, so the message returns [state]
     itself: most BA wires end this way (see {!Rbc_mux.handle}). *)
  let on_message ctx state ~src msg =
    match msg with
    | Prop { origin; inner } -> (
      match Node_id.Map.find_opt origin state.prop_instances with
      | None -> (state, [], []) (* origin out of range: forged wrapper *)
      | Some inst -> (
        match B.on_message (prop_ctx ctx origin) inst ~src inner with
        | inst', [], [] when inst' == inst -> (state, [], [])
        | inst, inst_actions, delivered ->
          let next =
            { state with prop_instances = Node_id.Map.add origin inst state.prop_instances }
          in
          let next =
            List.fold_left
              (fun next (B.Delivered payload) ->
                if Node_id.Map.mem origin next.proposals then next
                else { next with proposals = Node_id.Map.add origin payload next.proposals })
              next delivered
          in
          settle_if_changed ctx ~before:state next (wrap_prop origin inst_actions)))
    | Ba { index; wire } ->
      if index < 0 || index >= state.n then (state, [], [])
      else begin
        let instance = Int_map.find index state.bas in
        match
          Ba_instance.on_wire ~sink:(ba_sink ctx index) instance
            ~rng:ctx.Protocol.Context.rng ~src wire
        with
        | instance', [], [] when instance' == instance -> (state, [], [])
        | instance, wires, events ->
          let next = { state with bas = Int_map.add index instance state.bas } in
          let next = record_events next index events in
          settle_if_changed ctx ~before:state next (wrap_ba index wires)
      end

  let is_terminal (Accepted _) = true
  let on_timeout = Protocol.no_timeout

  (* Labels are shared strings (see [Protocol.S.msg_label]): each
     label of Bracha's RBC and of the coded RBC maps to its prefixed
     literal, and only a label outside that set is built per call. *)
  let msg_label = function
    | Prop { inner; _ } -> (
      match B.msg_label inner with
      | "val" -> "prop.val"
      | "initial" -> "prop.initial"
      | "echo" -> "prop.echo"
      | "ready" -> "prop.ready"
      | label -> "prop." ^ label)
    | Ba { wire; _ } -> Rbc_mux.ba_wire_label wire

  let msg_bytes =
    let open Protocol.Wire_size in
    function
    | Prop { origin = _; inner } -> tag + node_id + B.msg_bytes inner
    | Ba { index = _; wire } -> tag + int + Rbc_mux.wire_bytes wire

  let pp_msg ppf = function
    | Prop { origin; inner } ->
      Fmt.pf ppf "prop[%a]:%a" Node_id.pp origin B.pp_msg inner
    | Ba { index; wire } -> Fmt.pf ppf "ba[%d]:%a" index Rbc_mux.pp_wire wire

  let pp_output ppf (Accepted subset) =
    Fmt.pf ppf "accepted{%a}"
      (Fmt.list ~sep:Fmt.comma (fun ppf (id, p) ->
           Fmt.pf ppf "%a=%a" Node_id.pp id B.pp_payload p))
      subset
end

module Make (V : Value.PAYLOAD) = struct
  module Rbc = Bracha_rbc.Make (V)

  module Proposals = struct
    type payload = V.t

    include Rbc

    let input ~sender payload = { Rbc.sender; payload }
    let pp_payload = V.pp
  end

  module Id = struct
    let name = "acs"
  end

  include Over (Proposals) (Id)

  let inputs ~n ~coin proposals =
    if Array.length proposals <> n then
      invalid_arg "Acs.inputs: proposals length must equal n";
    Array.map (fun proposal -> { proposal; coin }) proposals

  let decide_value (Accepted subset) =
    match subset with
    | [] -> invalid_arg "Acs.decide_value: empty common subset"
    | (_, first) :: rest ->
      List.fold_left
        (fun best (_, p) -> if V.compare p best < 0 then p else best)
        first rest
end
