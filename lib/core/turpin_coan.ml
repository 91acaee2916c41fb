[@@@abc.resilience "n>4f"]

open Import

module Make (V : Value.PAYLOAD) = struct
  module Value_map = Map.Make (V)

  type input = { value : V.t; coin : Coin.t }

  type outcome = Agreed of V.t | Fallback

  type output = outcome

  type msg = Step1 of V.t | Step2 of V.t option | Ba of Rbc_mux.wire

  type state = {
    n : int;
    f : int;
    step1 : V.t Node_id.Map.t; (* sender -> proposed value *)
    step1_done : bool;
    step2 : V.t option Node_id.Map.t; (* sender -> candidate *)
    step2_done : bool;
    z : V.t option; (* the unique surviving candidate, if seen *)
    ba : Ba_instance.t;
    ba_decision : Value.t option;
    emitted : bool;
  }

  let name = "turpin-coan"

  let max_faults ~n = Quorum.max_faults ~ratio:4 ~n

  let quorum state = Quorum.completeness ~n:state.n ~f:state.f

  (* The value supported by at least [need] of the recorded entries;
     unique when it exists (see interface comment). *)
  let supported ~need entries =
    let tally =
      List.fold_left
        (fun tally v ->
          Value_map.update v
            (fun c -> Some (1 + Option.value c ~default:0))
            tally)
        Value_map.empty entries
    in
    Value_map.fold
      (fun v count acc -> if count >= need then Some v else acc)
      tally None

  let candidates state =
    Node_id.Map.fold (fun _ v acc -> v :: acc) state.step1 []

  let votes state =
    Node_id.Map.fold
      (fun _ c acc -> match c with Some v -> v :: acc | None -> acc)
      state.step2 []

  let wrap_ba wires = List.map (fun w -> Protocol.Broadcast (Ba w)) wires

  (* Events of the embedded binary-agreement stage, scoped under
     "ba". *)
  let ba_sink (sink : Event.sink) =
    if sink.Event.enabled then Event.scoped sink ~instance:(lazy "ba") else sink

  (* Fire the step transitions and the output rule that have become
     enabled. *)
  let settle state ~rng ~(sink : Event.sink) =
    let actions = ref [] in
    let state =
      if (not state.step1_done) && Node_id.Map.cardinal state.step1 >= quorum state
      then begin
        Event.quorum sink ~round:(-1) "tc-step1" ~count:(Node_id.Map.cardinal state.step1)
          ~threshold:(quorum state);
        let candidate =
          supported ~need:(Quorum.honest_support ~n:state.n ~f:state.f)
            (candidates state)
        in
        actions := Protocol.Broadcast (Step2 candidate) :: !actions;
        { state with step1_done = true }
      end
      else state
    in
    let state =
      if (not state.step2_done) && Node_id.Map.cardinal state.step2 >= quorum state
      then begin
        Event.quorum sink ~round:(-1) "tc-step2" ~count:(Node_id.Map.cardinal state.step2)
          ~threshold:(quorum state);
        let winner =
          supported ~need:(Quorum.honest_support ~n:state.n ~f:state.f)
            (votes state)
        in
        let vote = match winner with Some _ -> Value.One | None -> Value.Zero in
        let ba, wires, events =
          Ba_instance.start ~sink:(ba_sink sink) state.ba ~rng ~input:vote
        in
        actions := wrap_ba wires @ !actions;
        let ba_decision =
          List.fold_left
            (fun _ (Ba_instance.Decided d) -> Some d.Decision.value)
            state.ba_decision events
        in
        { state with step2_done = true; z = winner; ba; ba_decision }
      end
      else state
    in
    let state, outputs =
      if state.emitted then (state, [])
      else begin
        match state.ba_decision with
        | Some Value.Zero -> ({ state with emitted = true }, [ Fallback ])
        | Some Value.One -> (
          match state.z with
          | Some w -> ({ state with emitted = true }, [ Agreed w ])
          | None -> (
            (* Recovery: f+1 matching step-2 candidates identify the
               winner even through Byzantine noise. *)
            match supported ~need:(Quorum.one_honest ~f:state.f) (votes state) with
            | Some w -> ({ state with emitted = true }, [ Agreed w ])
            | None -> (state, [])))
        | None -> (state, [])
      end
    in
    (state, List.rev !actions, outputs)

  let initial ctx (input : input) =
    let { Protocol.Context.me; n; f; rng = _; sink = _ } = ctx in
    Quorum.assert_resilience_at ~ratio:4 ~n ~f;
    let state =
      {
        n;
        f;
        step1 = Node_id.Map.empty;
        step1_done = false;
        step2 = Node_id.Map.empty;
        step2_done = false;
        z = None;
        ba = Ba_instance.create ~n ~f ~me ~coin:input.coin ~validation:true;
        ba_decision = None;
        emitted = false;
      }
    in
    (state, [ Protocol.Broadcast (Step1 input.value) ])

  let on_message ctx state ~src msg =
    let rng = ctx.Protocol.Context.rng in
    let sink = ctx.Protocol.Context.sink in
    let state, ba_actions =
      match msg with
      | Step1 v ->
        if Node_id.Map.mem src state.step1 then (state, [])
        else ({ state with step1 = Node_id.Map.add src v state.step1 }, [])
      | Step2 c ->
        if Node_id.Map.mem src state.step2 then (state, [])
        else ({ state with step2 = Node_id.Map.add src c state.step2 }, [])
      | Ba wire ->
        let ba, wires, events =
          Ba_instance.on_wire ~sink:(ba_sink sink) state.ba ~rng ~src wire
        in
        let ba_decision =
          List.fold_left
            (fun _ (Ba_instance.Decided d) -> Some d.Decision.value)
            state.ba_decision events
        in
        ({ state with ba; ba_decision }, wrap_ba wires)
    in
    let state, actions, outputs = settle state ~rng ~sink in
    (state, ba_actions @ actions, outputs)

  let is_terminal (_ : output) = true
  let on_timeout = Protocol.no_timeout

  let msg_label = function
    | Step1 _ -> "step1"
    | Step2 _ -> "step2"
    | Ba wire -> Rbc_mux.ba_wire_label wire

  let msg_bytes =
    let open Protocol.Wire_size in
    function
    | Step1 v -> tag + V.bytes v
    | Step2 v -> tag + option V.bytes v
    | Ba wire -> tag + Rbc_mux.wire_bytes wire

  let pp_msg ppf = function
    | Step1 v -> Fmt.pf ppf "step1(%a)" V.pp v
    | Step2 (Some v) -> Fmt.pf ppf "step2(%a)" V.pp v
    | Step2 None -> Fmt.pf ppf "step2(⊥)"
    | Ba wire -> Fmt.pf ppf "ba:%a" Rbc_mux.pp_wire wire

  let pp_output ppf = function
    | Agreed v -> Fmt.pf ppf "agreed(%a)" V.pp v
    | Fallback -> Fmt.string ppf "fallback"

  let inputs ~n ~coin values =
    if Array.length values <> n then
      invalid_arg "Turpin_coan.inputs: values length must equal n";
    Array.map (fun value -> { value; coin }) values
end
