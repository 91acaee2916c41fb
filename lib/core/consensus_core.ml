[@@@abc.resilience "n>3f"]

open Import
open Consensus_msg

type effect = Broadcast_step of vmsg | Decide of Decision.t

(* Tally of validated messages for one (round, step) slot; identical in
   shape to the validation layer's but counted independently, keeping
   the two modules' correctness arguments separate. *)
type tally = { origins : Node_id.Set.t; c0 : int; c1 : int; d0 : int; d1 : int }

let empty_tally = { origins = Node_id.Set.empty; c0 = 0; c1 = 0; d0 = 0; d1 = 0 }

module Slot_map = Map.Make (struct
  type t = int * int

  let compare (r1, s1) (r2, s2) =
    match Int.compare r1 r2 with 0 -> Int.compare s1 s2 | c -> c
end)

type t = {
  n : int;
  f : int;
  me : Node_id.t;
  coin : Coin.t;
  value : Value.t;
  round : int;
  step : Step.t; (* the step whose quorum we are waiting on *)
  decided : Decision.t option;
  tallies : tally Slot_map.t;
}

let quorum t = Quorum.completeness ~n:t.n ~f:t.f

let round t = t.round

let decided t = t.decided

let current_value t = t.value

let tally t ~round ~step =
  match Slot_map.find_opt (round, Step.to_int step) t.tallies with
  | Some tl -> tl
  | None -> empty_tally

let count tl v = match v with Value.Zero -> tl.c0 | Value.One -> tl.c1

let dcount tl v = match v with Value.Zero -> tl.d0 | Value.One -> tl.d1

let total tl = tl.c0 + tl.c1

let own_vmsg t ~step ~decide =
  { origin = t.me; round = t.round; step; value = t.value; decide }

(* The value with strictly more than half of the validated step-1
   messages, if any; [current] otherwise (possible only for even
   totals). *)
let majority tl ~current =
  if count tl Value.Zero >= Quorum.strict_majority (total tl) then Value.Zero
  else if count tl Value.One >= Quorum.strict_majority (total tl) then Value.One
  else current

(* Once decided, a node only needs to keep broadcasting long enough for
   the stragglers: every honest node decides at most one round after
   the first decision, so rounds beyond [decided + 2] serve nobody and
   the instance quiesces (essential when many instances run inside one
   composition, e.g. ACS). *)
let quiesced t =
  match t.decided with
  | Some d -> t.round > d.Decision.round + 2
  | None -> false

(* Take every transition enabled by the current tallies.  Each firing
   advances (round, step), so the recursion stops at the first missing
   quorum.  Effects accumulate in reverse. *)
let rec progress t ~rng ~(sink : Event.sink) acc =
  let tl = tally t ~round:t.round ~step:t.step in
  if quiesced t || total tl < quorum t then (t, List.rev acc)
  else begin
    Event.quorum sink ~round:t.round
      (match t.step with Step.S1 -> "step1" | Step.S2 -> "step2" | Step.S3 -> "step3")
      ~count:(total tl) ~threshold:(quorum t);
    match t.step with
    | Step.S1 ->
      let value = majority tl ~current:t.value in
      let t = { t with value; step = Step.S2 } in
      progress t ~rng ~sink
        (Broadcast_step (own_vmsg t ~step:Step.S2 ~decide:false) :: acc)
    | Step.S2 ->
      (* Arm the decide flag when one value exceeds n/2 — at most one
         value per round can, because each origin contributes a single
         step-2 message. *)
      let flagged, value =
        if count tl Value.Zero >= Quorum.strict_majority t.n then (true, Value.Zero)
        else if count tl Value.One >= Quorum.strict_majority t.n then (true, Value.One)
        else (false, t.value)
      in
      let t = { t with value; step = Step.S3 } in
      progress t ~rng ~sink
        (Broadcast_step (own_vmsg t ~step:Step.S3 ~decide:flagged) :: acc)
    | Step.S3 ->
      let w =
        if dcount tl Value.Zero >= dcount tl Value.One then Value.Zero else Value.One
      in
      let support = dcount tl w in
      let t, acc =
        if support >= Quorum.decide_support ~f:t.f then begin
          match t.decided with
          | Some _ -> ({ t with value = w }, acc)
          | None ->
            let decision = { Decision.value = w; round = t.round } in
            if sink.Event.enabled then
              sink.Event.emit
                (Event.make ~round:t.round
                   (Event.Decide { value = Fmt.str "%a" Value.pp w }));
            ({ t with value = w; decided = Some decision }, Decide decision :: acc)
        end
        else if support >= Quorum.adopt_support ~f:t.f then ({ t with value = w }, acc)
        else begin
          (* Neither rule fired: flip the round coin — unless decided
             already, in which case the value is locked forever. *)
          let value =
            match t.decided with
            | Some d -> d.Decision.value
            | None ->
              let flip = Coin.flip t.coin ~rng ~round:t.round in
              if sink.Event.enabled then
                sink.Event.emit
                  (Event.make ~round:t.round
                     (Event.Coin_flip { value = Value.to_int flip }));
              flip
          in
          ({ t with value }, acc)
        end
      in
      let t = { t with round = t.round + 1; step = Step.S1 } in
      if sink.Event.enabled then
        sink.Event.emit (Event.make ~round:t.round Event.Round_advance);
      progress t ~rng ~sink
        (Broadcast_step (own_vmsg t ~step:Step.S1 ~decide:false) :: acc)
  end

let record t (m : vmsg) =
  let slot = (m.round, Step.to_int m.step) in
  let tl =
    match Slot_map.find_opt slot t.tallies with
    | Some tl -> tl
    | None -> empty_tally
  in
  if Node_id.Set.mem m.origin tl.origins then t
  else begin
    let tl = { tl with origins = Node_id.Set.add m.origin tl.origins } in
    let tl =
      match (m.value, m.decide) with
      | Value.Zero, false -> { tl with c0 = tl.c0 + 1 }
      | Value.One, false -> { tl with c1 = tl.c1 + 1 }
      | Value.Zero, true -> { tl with c0 = tl.c0 + 1; d0 = tl.d0 + 1 }
      | Value.One, true -> { tl with c1 = tl.c1 + 1; d1 = tl.d1 + 1 }
    in
    { t with tallies = Slot_map.add slot tl t.tallies }
  end

let on_validated ?(sink = Event.null_sink) t ~rng m =
  let t = record t m in
  progress t ~rng ~sink []

let create ~n ~f ~me ~coin ~input =
  Quorum.assert_resilience ~n ~f;
  let t =
    {
      n;
      f;
      me;
      coin;
      value = input;
      round = 1;
      step = Step.S1;
      decided = None;
      tallies = Slot_map.empty;
    }
  in
  (t, [ Broadcast_step (own_vmsg t ~step:Step.S1 ~decide:false) ])
