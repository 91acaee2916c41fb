[@@@abc.resilience "n>3f"]

open Import

type coin_source = Flip of Coin.t | Shares of Rabin_coin.t

type input = { value : Value.t; coin : coin_source }

type msg =
  | Bval of { round : int; value : Value.t }
  | Aux of { round : int; value : Value.t }
  | Share of { round : int; share : Shamir.share }

type output = Decision.t

(* Per-round bookkeeping.  [bval_from] tracks the distinct senders per
   value, [aux_from] the senders of the single AUX vote each may cast;
   [bval_sent] marks each value this node has broadcast in the round,
   on entering it or by the f+1 rule, so it sends each once.  Quorum
   rules read [Node_id.Set.cardinal], which is O(1); [aux_counts] and
   [share_count] mirror counts no set can give in O(1) (see
   PERFORMANCE.md). *)
type round_state = {
  bval_from : Node_id.Set.t array; (* indexed by Value.to_int *)
  bval_sent : bool array;
  bin_values : bool array;
  aux_from : Node_id.Set.t;
  aux_counts : int array; (* AUX votes per value *)
  aux_sent : bool;
  share_sent : bool;
  shares : Shamir.share Node_id.Map.t; (* verified coin shares *)
  share_count : int; (* cardinal of shares *)
  completed : bool;
}

let fresh_round () =
  {
    bval_from = [| Node_id.Set.empty; Node_id.Set.empty |];
    bval_sent = [| false; false |];
    bin_values = [| false; false |];
    aux_from = Node_id.Set.empty;
    aux_counts = [| 0; 0 |];
    aux_sent = false;
    share_sent = false;
    shares = Node_id.Map.empty;
    share_count = 0;
    completed = false;
  }

module Int_map = Map.Make (Int)

type state = {
  n : int;
  f : int;
  me : Node_id.t;
  coin : coin_source;
  est : Value.t;
  round : int;
  decided : Decision.t option;
  rounds : round_state Int_map.t;
}

let name = "mmr-consensus"

let quorum state = Quorum.completeness ~n:state.n ~f:state.f

let round_state state r =
  match Int_map.find_opt r state.rounds with
  | Some rs -> rs
  | None -> fresh_round ()

let set_round state r rs = { state with rounds = Int_map.add r rs state.rounds }

(* Mutation helpers on the immutable round record (arrays are copied
   before update to keep states value-semantic). *)
let with_set arr i v =
  let arr = Array.copy arr in
  arr.(i) <- v;
  arr

let add_bval rs ~src value =
  let i = Value.to_int value in
  let senders = Node_id.Set.add src rs.bval_from.(i) in
  if senders == rs.bval_from.(i) then rs
  else { rs with bval_from = with_set rs.bval_from i senders }

let add_aux rs ~src value =
  let aux_from = Node_id.Set.add src rs.aux_from in
  if aux_from == rs.aux_from then rs
  else
    let i = Value.to_int value in
    { rs with aux_from; aux_counts = with_set rs.aux_counts i (rs.aux_counts.(i) + 1) }

let add_share rs ~src share =
  if Node_id.Map.mem src rs.shares then rs
  else
    {
      rs with
      shares = Node_id.Map.add src share rs.shares;
      share_count = rs.share_count + 1;
    }

(* The threshold tests.  Each is written once and read both by the
   rules below and by [on_message], which runs the rules only for a
   vote that makes one of them hold. *)

(* f+1 distinct BVAL(v): broadcast v, unless this node already has. *)
let echo_due state rs i =
  (not rs.bval_sent.(i))
  && Node_id.Set.cardinal rs.bval_from.(i) >= Quorum.ready_amplify ~f:state.f

(* 2f+1 distinct BVAL(v): v enters bin_values. *)
let deliver_due state rs i =
  (not rs.bin_values.(i))
  && Node_id.Set.cardinal rs.bval_from.(i) >= Quorum.ready_deliver ~f:state.f

(* An AUX vote is "supported" when its value sits in bin_values;
   counting per-value tallies against the bin_values flags gives the
   filtered cardinality without materialising a filtered map. *)
let aux_for rs i = if rs.bin_values.(i) then rs.aux_counts.(i) else 0

let aux_support rs = aux_for rs 0 + aux_for rs 1

(* n-f supported AUX votes: the round can end once its coin is known. *)
let aux_due state rs = aux_support rs >= quorum state

(* The BV-broadcast rules plus the AUX trigger for round [r]; returns
   the messages this node must broadcast now, and [state] itself when
   no rule fired. *)
let bv_progress state ~(sink : Event.sink) r =
  let unchanged = round_state state r in
  let sends = ref [] in
  let rs = ref unchanged in
  List.iter
    (fun value ->
      let i = Value.to_int value in
      let support = Node_id.Set.cardinal !rs.bval_from.(i) in
      if echo_due state !rs i then begin
        Event.quorum sink ~round:r "bval-echo" ~count:support
          ~threshold:(Quorum.ready_amplify ~f:state.f);
        sends := Bval { round = r; value } :: !sends;
        rs := { !rs with bval_sent = with_set !rs.bval_sent i true }
      end;
      if deliver_due state !rs i then begin
        Event.quorum sink ~round:r "bval-deliver" ~count:support
          ~threshold:(Quorum.ready_deliver ~f:state.f);
        rs := { !rs with bin_values = with_set !rs.bin_values i true }
      end)
    [ Value.Zero; Value.One ];
  (* First value entering bin_values triggers the single AUX vote. *)
  let rs = !rs in
  let rs, sends =
    if (not rs.aux_sent) && (rs.bin_values.(0) || rs.bin_values.(1)) then begin
      let value = if rs.bin_values.(0) then Value.Zero else Value.One in
      ({ rs with aux_sent = true }, Aux { round = r; value } :: !sends)
    end
    else (rs, !sends)
  in
  if rs == unchanged then (state, []) else (set_round state r rs, List.rev sends)

(* Entering its current round, a node broadcasts BVAL(round, est),
   unless the f+1 rule has already sent that value there; either way
   the value is marked sent, so the f+1 rule never repeats it. *)
let enter_round state =
  let r = state.round in
  let rs = round_state state r in
  let i = Value.to_int state.est in
  if rs.bval_sent.(i) then (state, [])
  else
    ( set_round state r { rs with bval_sent = with_set rs.bval_sent i true },
      [ Bval { round = r; value = state.est } ] )

(* Obtain the round coin.  The [Flip] sources answer immediately; the
   share-based source reveals this node's share (once) and waits for
   f+1 verified shares — exactly Rabin's protocol, on the wire. *)
let obtain_coin state ~rng rs r =
  match state.coin with
  | Flip c -> (rs, [], Some (Coin.flip c ~rng ~round:r))
  | Shares dealer ->
    let rs, sends =
      if rs.share_sent then (rs, [])
      else begin
        let my_share = Rabin_coin.share dealer ~round:r ~node:state.me in
        (* Count our own share immediately; the broadcast copy that
           loops back is deduplicated. *)
        let rs = add_share { rs with share_sent = true } ~src:state.me my_share in
        (rs, [ Share { round = r; share = my_share } ])
      end
    in
    if rs.share_count >= Rabin_coin.threshold dealer then begin
      let shares = List.map snd (Node_id.Map.bindings rs.shares) in
      (rs, sends, Some (Rabin_coin.reconstruct dealer shares))
    end
    else (rs, sends, None)

(* End-of-round rule: enough AUX votes with values inside bin_values,
   then the round coin.  The quorum is reported once per round, on the
   first call, the one that reveals this node's coin share. *)
let try_complete_round state ~rng ~(sink : Event.sink) =
  let r = state.round in
  let rs = round_state state r in
  if rs.completed || not (aux_due state rs) then (state, [], [])
  else begin
    if not rs.share_sent then
      Event.quorum sink ~round:r "aux" ~count:(aux_support rs) ~threshold:(quorum state);
    let has v = aux_for rs (Value.to_int v) > 0 in
    let rs, coin_sends, coin = obtain_coin state ~rng rs r in
    let state = set_round state r rs in
    match coin with
    | None -> (state, coin_sends, [])
    | Some coin_value ->
      if sink.Event.enabled then
        sink.Event.emit
          (Event.make ~round:r
             (Event.Coin_flip { value = Value.to_int coin_value }));
      let singleton =
        match (has Value.Zero, has Value.One) with
        | true, false -> Some Value.Zero
        | false, true -> Some Value.One
        | true, true | false, false -> None
      in
      let state, outputs =
        match singleton with
        | Some v ->
          let state = { state with est = v } in
          if Value.equal v coin_value && state.decided = None then begin
            let decision = { Decision.value = v; round = r } in
            if sink.Event.enabled then
              sink.Event.emit
                (Event.make ~round:r
                   (Event.Decide { value = Fmt.str "%a" Value.pp v }));
            ({ state with decided = Some decision }, [ decision ])
          end
          else (state, [])
        | None ->
          let est =
            match state.decided with
            | Some d -> d.Decision.value (* the decided value is locked *)
            | None -> coin_value
          in
          ({ state with est }, [])
      in
      let state = set_round state r { rs with completed = true } in
      let state = { state with round = r + 1 } in
      if sink.Event.enabled then
        sink.Event.emit (Event.make ~round:state.round Event.Round_advance);
      let state, entry_sends = enter_round state in
      (state, entry_sends @ coin_sends, outputs)
  end

(* Fire everything that is enabled: BV rules for the current round may
   unlock the round completion, whose round switch may find the next
   round's tallies already over quorum.  A switch may send nothing (the
   new round's value already echoed), so the loop runs while the round
   advances. *)
let rec settle state ~rng ~sink actions outputs =
  let state, bv_sends = bv_progress state ~sink state.round in
  let round = state.round in
  let state, round_sends, round_outputs = try_complete_round state ~rng ~sink in
  let actions = actions @ bv_sends @ round_sends in
  let outputs = outputs @ round_outputs in
  if state.round = round then (state, actions, outputs)
  else settle state ~rng ~sink actions outputs

let initial ctx (input : input) =
  Quorum.assert_resilience ~n:ctx.Protocol.Context.n ~f:ctx.Protocol.Context.f;
  let state =
    {
      n = ctx.Protocol.Context.n;
      f = ctx.Protocol.Context.f;
      me = ctx.Protocol.Context.me;
      coin = input.coin;
      est = input.value;
      round = 1;
      decided = None;
      rounds = Int_map.empty;
    }
  in
  let state, entry_sends = enter_round state in
  let state, actions, _ =
    settle state ~rng:ctx.Protocol.Context.rng ~sink:ctx.Protocol.Context.sink entry_sends []
  in
  (state, List.map (fun m -> Protocol.Broadcast m) actions)

(* The rules for a vote of round [touched]. *)
let rules ctx state touched =
  let sink = ctx.Protocol.Context.sink in
  (* The BV re-broadcast and AUX rules are per-round instances that
     must fire even for rounds this node has already left (stragglers
     depend on our echoes) or has not reached yet. *)
  let state, instance_sends = bv_progress state ~sink touched in
  let state, actions, outputs =
    settle state ~rng:ctx.Protocol.Context.rng ~sink instance_sends []
  in
  (state, List.map (fun m -> Protocol.Broadcast m) actions, outputs)

(* [on_message] counts the vote first and runs the rules only for a
   vote that can make one of them fire.  That is exact because of one
   invariant: between messages, every round is at a fixpoint of
   [bv_progress], and the current round is at a fixpoint of
   [try_complete_round].  [initial] and every call of the rules end in
   [settle], which establishes it; a vote that makes none of the
   threshold tests above hold leaves both functions nothing to do.
   Three routes:
   - no change: a sender counted before, a BVAL whose value was both
     sent and delivered into bin_values (no rule reads its senders
     again), or an AUX of a completed round (nothing reads a past
     round's AUX votes).  The state comes back physically unchanged.
   - sub-threshold: the vote is stored and no rule runs.
   - rules: a vote that makes [echo_due], [deliver_due] or, in the
     current round, [aux_due] hold, and every [Share].
   A skipped vote answers nothing, whether or not a sink is enabled:
   [try_complete_round] reports a round's AUX quorum once. *)
let on_message ctx state ~src msg =
  match msg with
  | Bval { round; value } ->
    let rs = round_state state round in
    let i = Value.to_int value in
    if rs.bval_sent.(i) && rs.bin_values.(i) then (state, [], [])
    else
      let counted = add_bval rs ~src value in
      if counted == rs then (state, [], [])
      else
        let state = set_round state round counted in
        if echo_due state counted i || deliver_due state counted i then rules ctx state round
        else (state, [], [])
  | Aux { round; value } ->
    let rs = round_state state round in
    if rs.completed then (state, [], [])
    else
      let counted = add_aux rs ~src value in
      if counted == rs then (state, [], [])
      else
        let state = set_round state round counted in
        if round = state.round && aux_due state counted then rules ctx state round
        else (state, [], [])
  | Share { round; share } ->
    (* Only dealer-certified shares count (the VSS check): a forged or
       replayed share is dropped here. *)
    let state =
      match state.coin with
      | Shares dealer when Rabin_coin.verify dealer ~round ~node:src share ->
        set_round state round (add_share (round_state state round) ~src share)
      | Shares _ | Flip _ -> state
    in
    rules ctx state round

let is_terminal (_ : output) = true
let on_timeout = Protocol.no_timeout

let msg_label = function Bval _ -> "bval" | Aux _ -> "aux" | Share _ -> "share"

let msg_bytes =
  let open Protocol.Wire_size in
  function
  | Bval { round = _; value } | Aux { round = _; value } ->
    tag + int + Value.bytes value
  | Share _ -> tag + int + int + int (* round, share.x, share.y *)

let pp_msg ppf = function
  | Bval { round; value } -> Fmt.pf ppf "bval(r%d, %a)" round Value.pp value
  | Aux { round; value } -> Fmt.pf ppf "aux(r%d, %a)" round Value.pp value
  | Share { round; share } ->
    Fmt.pf ppf "share(r%d, x=%d)" round share.Shamir.x

let pp_output = Decision.pp

let inputs ~n ~coin values =
  if Array.length values <> n then
    invalid_arg "Mmr_consensus.inputs: values length must equal n";
  Array.map (fun value -> { value; coin = Flip coin }) values

let inputs_with_shared_coin ~n ~f ~seed values =
  if Array.length values <> n then
    invalid_arg "Mmr_consensus.inputs_with_shared_coin: values length must equal n";
  let dealer = Rabin_coin.create ~n ~f ~seed in
  Array.map (fun value -> { value; coin = Shares dealer }) values

let value_of_input (input : input) = input.value

module Fault = struct
  let flip_value _rng = function
    | Bval { round; value } -> Bval { round; value = Value.negate value }
    | Aux { round; value } -> Aux { round; value = Value.negate value }
    | Share { round; share } ->
      (* Corrupt the share value: the dealer-certification check must
         reject it downstream. *)
      Share { round; share = { share with Shamir.y = Gf.add share.Shamir.y Gf.one } }
end
