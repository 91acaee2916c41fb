[@@@abc.resilience "n>3f"]

open Import

module Make (V : Value.PAYLOAD) = struct
  type event = Initial of V.t | Echo of V.t | Ready of V.t

  module Value_map = Map.Make (V)

  type t = {
    n : int;
    f : int;
    sender : Node_id.t;
    initial_seen : bool;
    echoed : bool;
    readied : bool;
    delivered : V.t option;
    echoes : Node_id.Set.t Value_map.t;
    readies : Node_id.Set.t Value_map.t;
  }

  let create ~n ~f ~sender =
    Quorum.assert_resilience ~n ~f;
    {
      n;
      f;
      sender;
      initial_seen = false;
      echoed = false;
      readied = false;
      delivered = None;
      echoes = Value_map.empty;
      readies = Value_map.empty;
    }

  let delivered t = t.delivered

  let echoed t = t.echoed

  let readied t = t.readied

  (* An echo feeds the echo rule, which the [readied] latch switches
     off.  Its [progress] also runs the delivery rule, but that reads
     the readies of the echo's value, and no value's readies reach
     2f+1 without delivering, since every ready runs the rule on its
     own value.  A ready feeds the amplify and delivery rules, and a
     delivered instance has readied: the ready that delivered ran the
     amplify rule first. *)
  let settled t = function
    | Initial _ -> false
    | Echo _ -> t.readied
    | Ready _ -> Option.is_some t.delivered

  (* Thin re-exports kept for the public interface; the formulas and
     their intersection arguments live in [Quorum]. *)
  let echo_threshold ~n ~f = Quorum.echo_quorum ~n ~f

  let ready_amplify_threshold ~f = Quorum.ready_amplify ~f

  let deliver_threshold ~f = Quorum.ready_deliver ~f

  (* A quorum check is a map lookup plus [Node_id.Set.cardinal], which
     is O(1). *)
  let support map v =
    match Value_map.find_opt v map with
    | Some nodes -> Node_id.Set.cardinal nodes
    | None -> 0

  let note map v src =
    match Value_map.find_opt v map with
    | Some nodes ->
      let added = Node_id.Set.add src nodes in
      if added == nodes then map else Value_map.add v added map
    | None -> Value_map.add v (Node_id.Set.singleton src) map

  (* After any counter moves, fire whichever of the two send rules and
     the delivery rule have newly become enabled.  Each rule fires at
     most once per instance, guarded by the [echoed] / [readied] /
     [delivered] latches. *)
  let progress ~(sink : Event.sink) t v =
    let sends = ref [] in
    (* Each count is looked up once, by the rule that needs it, and the
       quorum event reuses it: an untraced run looks up nothing more. *)
    let t =
      if t.readied then t
      else
        let echoes = support t.echoes v in
        if echoes >= echo_threshold ~n:t.n ~f:t.f then begin
          Event.quorum sink ~round:(-1) "echo" ~count:echoes
            ~threshold:(echo_threshold ~n:t.n ~f:t.f);
          sends := Ready v :: !sends;
          { t with readied = true }
        end
        else
          let readies = support t.readies v in
          if readies >= ready_amplify_threshold ~f:t.f then begin
            Event.quorum sink ~round:(-1) "ready-amplify" ~count:readies
              ~threshold:(ready_amplify_threshold ~f:t.f);
            sends := Ready v :: !sends;
            { t with readied = true }
          end
          else t
    in
    let t, delivery =
      if t.delivered <> None then (t, None)
      else
        let readies = support t.readies v in
        if readies < deliver_threshold ~f:t.f then (t, None)
        else begin
          Event.quorum sink ~round:(-1) "ready" ~count:readies
            ~threshold:(deliver_threshold ~f:t.f);
          ({ t with delivered = Some v }, Some v)
        end
    in
    (t, List.rev !sends, delivery)

  let handle ?(sink = Event.null_sink) t ~src event =
    match event with
    | Initial v ->
      (* Only the designated sender's first Initial counts; an echo is
         sent exactly once even if the sender equivocates. *)
      if (not (Node_id.equal src t.sender)) || t.initial_seen then (t, [], None)
      else begin
        let t = { t with initial_seen = true } in
        if t.echoed then (t, [], None)
        else ({ t with echoed = true }, [ Echo v ], None)
      end
    | Echo v ->
      let t = { t with echoes = note t.echoes v src } in
      progress ~sink t v
    | Ready v ->
      let t = { t with readies = note t.readies v src } in
      progress ~sink t v

  let pp_event ppf = function
    | Initial v -> Fmt.pf ppf "initial(%a)" V.pp v
    | Echo v -> Fmt.pf ppf "echo(%a)" V.pp v
    | Ready v -> Fmt.pf ppf "ready(%a)" V.pp v

  let event_label = function
    | Initial _ -> "initial"
    | Echo _ -> "echo"
    | Ready _ -> "ready"

  (* Every phase of Bracha's RBC re-sends the full payload — the
     O(n·|m|) per-node cost the erasure-coded variant attacks. *)
  let event_bytes = function
    | Initial v | Echo v | Ready v -> Protocol.Wire_size.tag + V.bytes v
end
