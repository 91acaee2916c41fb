[@@@abc.resilience "n>2f n>5f"]

open Import

module Mode = struct
  type t = Byzantine | Crash

  let max_faults t ~n =
    match t with
    | Byzantine -> Quorum.max_faults ~ratio:5 ~n
    | Crash -> Quorum.max_faults ~ratio:2 ~n

  let label = function Byzantine -> "byzantine" | Crash -> "crash"

  let pp ppf t = Fmt.string ppf (label t)
end

type input = { value : Value.t; mode : Mode.t; coin : Coin.t }

type msg =
  | Report of { round : int; value : Value.t }
  | Proposal of { round : int; value : Value.t option }

type output = Decision.t

type phase = Reporting | Proposing

(* Tally for one (round, phase): [c0]/[c1] count values, [cq] counts
   "?" proposals. *)
type tally = { origins : Node_id.Set.t; c0 : int; c1 : int; cq : int }

let empty_tally = { origins = Node_id.Set.empty; c0 = 0; c1 = 0; cq = 0 }

module Slot_map = Map.Make (struct
  type t = int * int (* round, phase as int *)

  let compare (r1, p1) (r2, p2) =
    match Int.compare r1 r2 with 0 -> Int.compare p1 p2 | c -> c
end)

type state = {
  n : int;
  f : int;
  mode : Mode.t;
  coin : Coin.t;
  value : Value.t;
  round : int;
  phase : phase;
  decided : Decision.t option;
  tallies : tally Slot_map.t;
}

let name = "ben-or"

let phase_index = function Reporting -> 1 | Proposing -> 2

let quorum state = Quorum.completeness ~n:state.n ~f:state.f

(* Minimum count for a report-phase majority claim (compare with >=):
   under Byzantine faults the majority must survive f forged votes. *)
let majority_threshold state =
  match state.mode with
  | Mode.Byzantine -> Quorum.faulty_majority ~n:state.n ~f:state.f
  | Mode.Crash -> Quorum.strict_majority state.n

let adopt_threshold state =
  match state.mode with
  | Mode.Byzantine -> Quorum.adopt_support ~f:state.f
  | Mode.Crash -> 1

let decide_threshold state =
  match state.mode with
  | Mode.Byzantine -> Quorum.decide_unanimity ~f:state.f
  | Mode.Crash -> Quorum.crash_decide ~f:state.f

let tally state ~round ~phase =
  match Slot_map.find_opt (round, phase_index phase) state.tallies with
  | Some tl -> tl
  | None -> empty_tally

let count tl v = match v with Value.Zero -> tl.c0 | Value.One -> tl.c1

let total tl = tl.c0 + tl.c1 + tl.cq

let own_message state =
  match state.phase with
  | Reporting -> Report { round = state.round; value = state.value }
  | Proposing ->
    let tl = tally state ~round:state.round ~phase:Reporting in
    let proposal =
      if count tl Value.Zero >= majority_threshold state then Some Value.Zero
      else if count tl Value.One >= majority_threshold state then Some Value.One
      else None
    in
    Proposal { round = state.round; value = proposal }

(* Fire every enabled phase transition; the recursion advances (round,
   phase) each time, so it stops at the first missing quorum. *)
let rec progress state ~rng ~(sink : Event.sink) acc_actions acc_outputs =
  let tl = tally state ~round:state.round ~phase:state.phase in
  if total tl < quorum state then (state, List.rev acc_actions, List.rev acc_outputs)
  else begin
    Event.quorum sink ~round:state.round
      (match state.phase with Reporting -> "report" | Proposing -> "proposal")
      ~count:(total tl) ~threshold:(quorum state);
    match state.phase with
    | Reporting ->
      let state = { state with phase = Proposing } in
      progress state ~rng ~sink
        (Protocol.Broadcast (own_message state) :: acc_actions)
        acc_outputs
    | Proposing ->
      let w =
        if count tl Value.Zero >= count tl Value.One then Value.Zero else Value.One
      in
      let support = count tl w in
      let state, acc_outputs =
        if support >= decide_threshold state then begin
          match state.decided with
          | Some _ -> ({ state with value = w }, acc_outputs)
          | None ->
            let decision = { Decision.value = w; round = state.round } in
            if sink.Event.enabled then
              sink.Event.emit
                (Event.make ~round:state.round
                   (Event.Decide { value = Fmt.str "%a" Value.pp w }));
            ( { state with value = w; decided = Some decision },
              decision :: acc_outputs )
        end
        else if support >= adopt_threshold state then
          ({ state with value = w }, acc_outputs)
        else begin
          let value =
            match state.decided with
            | Some d -> d.Decision.value
            | None ->
              let flip = Coin.flip state.coin ~rng ~round:state.round in
              if sink.Event.enabled then
                sink.Event.emit
                  (Event.make ~round:state.round
                     (Event.Coin_flip { value = Value.to_int flip }));
              flip
          in
          ({ state with value }, acc_outputs)
        end
      in
      let state = { state with round = state.round + 1; phase = Reporting } in
      if sink.Event.enabled then
        sink.Event.emit (Event.make ~round:state.round Event.Round_advance);
      progress state ~rng ~sink
        (Protocol.Broadcast (own_message state) :: acc_actions)
        acc_outputs
  end

let record state ~src msg =
  let slot, contribution =
    match msg with
    | Report { round; value } -> ((round, phase_index Reporting), Some value)
    | Proposal { round; value } -> ((round, phase_index Proposing), value)
  in
  let tl =
    match Slot_map.find_opt slot state.tallies with
    | Some tl -> tl
    | None -> empty_tally
  in
  if Node_id.Set.mem src tl.origins then state
  else begin
    let tl = { tl with origins = Node_id.Set.add src tl.origins } in
    let tl =
      match contribution with
      | Some Value.Zero -> { tl with c0 = tl.c0 + 1 }
      | Some Value.One -> { tl with c1 = tl.c1 + 1 }
      | None -> { tl with cq = tl.cq + 1 }
    in
    { state with tallies = Slot_map.add slot tl state.tallies }
  end

let initial ctx (input : input) =
  (* Floor only: the true Byzantine bound is n > 5f, deliberately not
     enforced so the resilience sweep (E2) can run past it and measure
     the failures; [Mode.max_faults] documents the real bound. *)
  Quorum.assert_resilience_at ~ratio:2 ~n:ctx.Protocol.Context.n
    ~f:ctx.Protocol.Context.f;
  let state =
    {
      n = ctx.Protocol.Context.n;
      f = ctx.Protocol.Context.f;
      mode = input.mode;
      coin = input.coin;
      value = input.value;
      round = 1;
      phase = Reporting;
      decided = None;
      tallies = Slot_map.empty;
    }
  in
  (state, [ Protocol.Broadcast (own_message state) ])

let on_message ctx state ~src msg =
  let state = record state ~src msg in
  progress state ~rng:ctx.Protocol.Context.rng ~sink:ctx.Protocol.Context.sink
    [] []

let is_terminal (_ : output) = true
let on_timeout = Protocol.no_timeout

let msg_label = function Report _ -> "report" | Proposal _ -> "proposal"

let msg_bytes =
  let open Protocol.Wire_size in
  function
  | Report { round = _; value } -> tag + int + Value.bytes value
  | Proposal { round = _; value } -> tag + int + option Value.bytes value

let pp_msg ppf = function
  | Report { round; value } -> Fmt.pf ppf "report(r%d, %a)" round Value.pp value
  | Proposal { round; value = Some v } -> Fmt.pf ppf "proposal(r%d, %a)" round Value.pp v
  | Proposal { round; value = None } -> Fmt.pf ppf "proposal(r%d, ?)" round

let pp_output = Decision.pp

let inputs ~n ~mode ~coin values =
  if Array.length values <> n then
    invalid_arg "Ben_or.inputs: values length must equal n";
  Array.map (fun value -> { value; mode; coin }) values

let value_of_input (input : input) = input.value

module Fault = struct
  let flip_value _rng = function
    | Report r -> Report { r with value = Value.negate r.value }
    | Proposal { round; value } ->
      Proposal { round; value = Option.map Value.negate value }
end
