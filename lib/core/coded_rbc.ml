[@@@abc.resilience "n>3f"]

open Import
module Root_map = Map.Make (Int)
module Frag_map = Map.Make (Int)

type input = { sender : Node_id.t; payload : string option }

type output = Delivered of string

type msg =
  | Val of {
      root : Rs.Merkle.root;
      len : int;
      branch : Rs.Merkle.branch;
      fragment : Rs.fragment;
    }
  | Echo of {
      root : Rs.Merkle.root;
      len : int;
      branch : Rs.Merkle.branch;
      fragment : Rs.fragment;
    }
  | Ready of { root : Rs.Merkle.root }

(* Per-root echo bookkeeping.  [len] is fixed by the first verified
   echo: a root whose leaves disagree on the length cannot pass the
   re-encode check below, so keeping one length per root is safe. *)
type tally = { len : int; fragments : Rs.fragment Frag_map.t }

type state = {
  n : int;
  f : int;
  sender : Node_id.t;
  val_seen : bool;
  readied : bool;
  delivered : bool;
  echoes : tally Root_map.t;
  readies : Node_id.Set.t Root_map.t;
  (* Memoized validation per root: [Some payload] decodes and
     re-encodes back to the root, [None] is a proven-inconsistent
     dispersal.  The verdict cannot depend on which fragments are used
     (all verified fragments are committed leaves; either the
     committed set is a codeword or no subset re-encodes to the root),
     so the first attempt is final. *)
  checked : string option Root_map.t;
}

let name = "coded-rbc"

(* Reconstruction threshold: with [k = n - 2f] data shards, the
   [n - f] echoes a node can safely await still contain [k] honest
   ones, and each shard carries [|m| / (n - 2f)] of the payload. *)
let data_shards ~n ~f = Quorum.honest_support ~n ~f

let fragment_count tally = Frag_map.cardinal tally.fragments

let validate state root =
  match Root_map.find_opt root state.checked with
  | Some result -> (state, result)
  | None -> (
    match Root_map.find_opt root state.echoes with
    | Some tally
      when fragment_count tally >= data_shards ~n:state.n ~f:state.f -> (
      let k = data_shards ~n:state.n ~f:state.f in
      let fragments =
        List.filteri (fun i _ -> i < k)
          (List.map snd (Frag_map.bindings tally.fragments))
      in
      match Rs.decode ~k ~len:tally.len fragments with
      | exception Invalid_argument _ ->
        (* Fragment shapes inconsistent with the claimed length: a
           malformed dispersal, never deliverable. *)
        ({ state with checked = Root_map.add root None state.checked }, None)
      | payload ->
        let root', _ =
          Rs.Merkle.commit ~len:tally.len
            (Rs.encode ~k ~n:state.n payload)
        in
        let result = if root' = root then Some payload else None in
        ({ state with checked = Root_map.add root result state.checked }, result))
    | Some _ | None -> (state, None))

let ready_support state root =
  match Root_map.find_opt root state.readies with
  | Some nodes -> Node_id.Set.cardinal nodes
  | None -> 0

let echo_support state root =
  match Root_map.find_opt root state.echoes with
  | Some tally -> fragment_count tally
  | None -> 0

(* Fire whichever rules newly became enabled for [root]: the two
   Ready-send rules (echo quorum with a validated decode, or ready
   amplification) and the delivery rule. *)
let progress (ctx : Protocol.Context.t) state root =
  let sink = ctx.Protocol.Context.sink in
  let state, sends =
    if state.readied then (state, [])
    else begin
      let echoes = echo_support state root in
      let state, validated =
        if echoes >= Quorum.completeness ~n:state.n ~f:state.f then
          validate state root
        else (state, None)
      in
      if validated <> None then begin
        Event.quorum sink ~round:(-1) "echo" ~count:echoes
          ~threshold:(Quorum.completeness ~n:state.n ~f:state.f);
        ({ state with readied = true }, [ Protocol.Broadcast (Ready { root }) ])
      end
      else if ready_support state root >= Quorum.ready_amplify ~f:state.f then begin
        Event.quorum sink ~round:(-1) "ready-amplify" ~count:(ready_support state root)
          ~threshold:(Quorum.ready_amplify ~f:state.f);
        ({ state with readied = true }, [ Protocol.Broadcast (Ready { root }) ])
      end
      else (state, [])
    end
  in
  let state, outputs =
    if
      (not state.delivered)
      && ready_support state root >= Quorum.ready_deliver ~f:state.f
      && echo_support state root >= data_shards ~n:state.n ~f:state.f
    then begin
      let state, validated = validate state root in
      match validated with
      | Some payload ->
        Event.quorum sink ~round:(-1) "ready" ~count:(ready_support state root)
          ~threshold:(Quorum.ready_deliver ~f:state.f);
        ({ state with delivered = true }, [ Delivered payload ])
      | None -> (state, [])
    end
    else (state, [])
  in
  (state, sends, outputs)

let initial (ctx : Protocol.Context.t) (input : input) =
  let n = ctx.Protocol.Context.n and f = ctx.Protocol.Context.f in
  Quorum.assert_resilience ~n ~f;
  let state =
    {
      n;
      f;
      sender = input.sender;
      val_seen = false;
      readied = false;
      delivered = false;
      echoes = Root_map.empty;
      readies = Root_map.empty;
      checked = Root_map.empty;
    }
  in
  let actions =
    match input.payload with
    | None -> []
    | Some payload ->
      assert (Node_id.equal ctx.Protocol.Context.me input.sender);
      let len = String.length payload in
      let fragments = Rs.encode ~k:(data_shards ~n ~f) ~n payload in
      let root, branches = Rs.Merkle.commit ~len fragments in
      List.init n (fun i ->
          Protocol.Send
            ( Node_id.of_int i,
              Val { root; len; branch = branches.(i); fragment = fragments.(i) }
            ))
  in
  (state, actions)

let on_message (ctx : Protocol.Context.t) state ~src = function
  | Val { root; len; branch; fragment } ->
    (* Only the designated sender's first Val counts, it must carry
       this node's own fragment, and the Merkle branch must check out
       — then the fragment is echoed to everyone. *)
    if
      (not (Node_id.equal src state.sender))
      || state.val_seen
      || fragment.Rs.index <> Node_id.to_int ctx.Protocol.Context.me
      || not (Rs.Merkle.verify ~root ~len ~index:fragment.Rs.index branch fragment)
    then (state, [], [])
    else
      ( { state with val_seen = true },
        [ Protocol.Broadcast (Echo { root; len; branch; fragment }) ],
        [] )
  | Echo { root; len; branch; fragment } ->
    (* Each node may echo only its own fragment (the leaf index is the
       node id), so a Byzantine echoer cannot stuff the tally. *)
    if
      fragment.Rs.index <> Node_id.to_int src
      || not (Rs.Merkle.verify ~root ~len ~index:fragment.Rs.index branch fragment)
    then (state, [], [])
    else begin
      let tally =
        match Root_map.find_opt root state.echoes with
        | Some tally -> tally
        | None -> { len; fragments = Frag_map.empty }
      in
      if tally.len <> len then (state, [], [])
      else begin
        let tally =
          {
            tally with
            fragments = Frag_map.add fragment.Rs.index fragment tally.fragments;
          }
        in
        let state = { state with echoes = Root_map.add root tally state.echoes } in
        progress ctx state root
      end
    end
  | Ready { root } ->
    let nodes =
      match Root_map.find_opt root state.readies with
      | Some nodes -> nodes
      | None -> Node_id.Set.empty
    in
    let state =
      { state with readies = Root_map.add root (Node_id.Set.add src nodes) state.readies }
    in
    progress ctx state root

let is_terminal (Delivered _) = true

let on_timeout = Protocol.no_timeout

let msg_label = function
  | Val _ -> "val"
  | Echo _ -> "echo"
  | Ready _ -> "ready"

(* The whole point of the construction: Val and Echo carry one
   O(|m|/(n-2f))-sized fragment plus a log-depth Merkle proof, and
   Ready carries a bare digest — nobody ever sends the full payload. *)
let msg_bytes =
  let open Protocol.Wire_size in
  function
  | Val { branch; fragment; _ } | Echo { branch; fragment; _ } ->
    tag + Rs.Merkle.root_wire_bytes + int
    + Rs.Merkle.branch_wire_bytes branch
    + Rs.fragment_wire_bytes fragment
  | Ready _ -> tag + Rs.Merkle.root_wire_bytes

let pp_msg ppf = function
  | Val { root; len; fragment; _ } ->
    Fmt.pf ppf "val[#%d len=%d root=%x]" fragment.Rs.index len (root land 0xFFFF)
  | Echo { root; len; fragment; _ } ->
    Fmt.pf ppf "echo[#%d len=%d root=%x]" fragment.Rs.index len (root land 0xFFFF)
  | Ready { root } -> Fmt.pf ppf "ready[root=%x]" (root land 0xFFFF)

let pp_output ppf (Delivered payload) =
  Fmt.pf ppf "delivered(%d bytes)" (String.length payload)

module Fault = struct
  let corrupt_fragment rng fragment =
    let data = Array.copy fragment.Rs.data in
    if Array.length data > 0 then begin
      let i = Stream.int rng ~bound:(Array.length data) in
      data.(i) <- Gf.add data.(i) Gf.one
    end;
    { fragment with Rs.data = data }

  let tamper rng = function
    | Val ({ fragment; _ } as m) ->
      Val { m with fragment = corrupt_fragment rng fragment }
    | Echo ({ fragment; _ } as m) ->
      Echo { m with fragment = corrupt_fragment rng fragment }
    | Ready { root } -> Ready { root = root + 1 }

  let equivocate rng ~dst msg =
    if Node_id.to_int dst mod 2 = 0 then msg else tamper rng msg
end

let inputs ~n ~sender payload =
  Array.init n (fun i ->
      let me = Node_id.of_int i in
      { sender; payload = (if Node_id.equal me sender then Some payload else None) })
