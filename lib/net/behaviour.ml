type 'msg t =
  | Honest
  | Silent
  | Crash_after of int
  | Mutate of (Abc_prng.Stream.t -> 'msg -> 'msg)
  | Equivocate of (Abc_prng.Stream.t -> dst:Node_id.t -> 'msg -> 'msg)
  | Replay of int
  | Corrupt_after of int * 'msg t
  | Crash_recover of (int * int) list

let rec label = function
  | Honest -> "honest"
  | Silent -> "silent"
  | Crash_after _ -> "crash"
  | Mutate _ -> "mutate"
  | Equivocate _ -> "equivocate"
  | Replay _ -> "replay"
  | Corrupt_after (_, inner) -> "adaptive:" ^ label inner
  | Crash_recover _ -> "crash-recover"

let two_faced ~n lie rng ~dst m = if Node_id.to_int dst < n / 2 then m else lie rng m

let rec apply b ~rng ~n ~activation actions =
  match b with
  | Honest -> actions
  | Silent -> []
  | Crash_after k -> if activation < k then actions else []
  | Mutate corrupt ->
    (* Timers are node-local, not wire: map_actions passes them through. *)
    Protocol.map_actions (fun msg -> corrupt rng msg) actions
  | Equivocate corrupt ->
    let corrupt_action = function
      | Protocol.Broadcast msg ->
        List.map
          (fun dst -> Protocol.Send (dst, corrupt rng ~dst msg))
          (Node_id.all ~n)
      | Protocol.Send (dst, msg) -> [ Protocol.Send (dst, corrupt rng ~dst msg) ]
      | Protocol.Set_timer _ as a -> [ a ]
    in
    List.concat_map corrupt_action actions
  | Replay k ->
    List.concat_map
      (fun a ->
        match a with
        | Protocol.Set_timer _ -> [ a ] (* replaying a timer arm is meaningless *)
        | Protocol.Broadcast _ | Protocol.Send _ ->
          List.init (1 + k) (fun _ -> a))
      actions
  | Corrupt_after (k, inner) ->
    if activation < k then actions else apply inner ~rng ~n ~activation actions
  | Crash_recover _ ->
    (* Crash-recovery is a *tick*-driven fault, not an activation-driven
       traffic corruption: the engine tears the node down (dropping its
       volatile state and in-flight deliveries) and later restarts it
       from its durable store.  While the node is up it behaves
       honestly, so the outgoing-traffic transform is the identity. *)
    actions

let crash_schedule = function
  | Crash_recover schedule -> Some schedule
  | Honest | Silent | Crash_after _ | Mutate _ | Equivocate _ | Replay _
  | Corrupt_after _ ->
    None

let validate_schedule schedule =
  let rec check last = function
    | [] -> true
    | (crash, rejoin) :: rest ->
      crash > last && rejoin > crash && check rejoin rest
  in
  (match schedule with [] -> false | _ :: _ -> true) && check (-1) schedule
