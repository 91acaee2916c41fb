module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Metrics = Abc_sim.Metrics
module Value = Abc.Value

let node = Node_id.of_int

let ( let* ) = Result.bind

(* ---- Tokens: every decoder is total, and every error quotes its token ---- *)

type adversary =
  | Fifo | Uniform | Split | Latency of float | Target of int | Source of int | Eclipse of int

type topology = Complete | Ring | Star | Circulant of int list

type inputs = Halves | Unanimous of Value.t | Alternating

type fault_kind =
  | Silent | Crash of int | Replay | Flip | Balanced_flip | Equivocate | Force_decide | Corrupt

type fault =
  | No_fault
  | Faulty of (fault_kind * int) list
  | Placed of fault_kind * int list
  | Silent_sender | Crash_sender | Flip_relay | Equivocate_sender

type partition = { from_tick : int; until_tick : int; island : int list }

type crash = int * (int * int) list

type coin = Local | Common

let bad kind tok fmt =
  Printf.ksprintf (fun m -> Error (Printf.sprintf "%s %S: %s" kind tok m)) fmt

let nat s = match int_of_string_opt s with Some i when i >= 0 -> Some i | _ -> None

(* The shortest %g that reads back as the same float. *)
let float_token x =
  let rec go p = let s = Printf.sprintf "%.*g" p x in if p >= 17 || float_of_string s = x then s else go (p + 1) in
  go 1

let adversary tok =
  let bad fmt = bad "adversary" tok fmt in
  match String.split_on_char ':' tok with
  | [ "fifo" ] -> Ok Fifo
  | [ "uniform" ] -> Ok Uniform
  | [ "split" ] -> Ok Split
  | [ "latency"; m ] -> (
    match float_of_string_opt m with
    | Some m when m > 0. -> Ok (Latency m)
    | _ -> bad "latency wants a positive mean")
  | [ ("target" | "source") as k; i ] -> (
    match nat i with
    | Some i -> Ok (if k = "target" then Target i else Source i)
    | None -> bad "want %s:ID" k)
  | [ "eclipse"; p ] -> (
    match nat p with Some p when p > 0 -> Ok (Eclipse p) | _ -> bad "eclipse wants a positive period")
  | _ -> bad "unknown adversary (fifo | uniform | split | latency:MEAN | target:ID | source:ID | eclipse:PERIOD)"

let adversary_token = function
  | Fifo -> "fifo"
  | Uniform -> "uniform"
  | Split -> "split"
  | Latency m -> "latency:" ^ float_token m
  | Target i -> Printf.sprintf "target:%d" i
  | Source i -> Printf.sprintf "source:%d" i
  | Eclipse p -> Printf.sprintf "eclipse:%d" p

let topology tok =
  match String.split_on_char ':' tok with
  | [ "complete" ] -> Ok Complete
  | [ "ring" ] -> Ok Ring
  | [ "star" ] -> Ok Star
  | [ "circulant"; offsets ] ->
    let offs = List.map int_of_string_opt (String.split_on_char ',' offsets) in
    if List.for_all Option.is_some offs then Ok (Circulant (List.filter_map Fun.id offs))
    else bad "topology" tok "circulant wants comma-separated offsets"
  | _ -> bad "topology" tok "unknown topology (complete | ring | star | circulant:D,D,...)"

let topology_token = function
  | Complete -> "complete"
  | Ring -> "ring"
  | Star -> "star"
  | Circulant offsets -> "circulant:" ^ String.concat "," (List.map string_of_int offsets)

let inputs = function
  | "split" -> Ok Halves
  | "unanimous0" -> Ok (Unanimous Value.Zero)
  | "unanimous1" -> Ok (Unanimous Value.One)
  | "alternate" -> Ok Alternating
  | tok -> bad "inputs" tok "unknown inputs (split | unanimous0 | unanimous1 | alternate)"

let inputs_token = function
  | Halves -> "split"
  | Unanimous v -> Printf.sprintf "unanimous%d" (Value.to_int v)
  | Alternating -> "alternate"

let kinds =
  [ ("none", None); ("silent", Some Silent); ("crash", Some (Crash 5)); ("replay", Some Replay);
    ("flip", Some Flip); ("balanced-flip", Some Balanced_flip); ("equivocate", Some Equivocate);
    ("force-decide", Some Force_decide); ("corrupt", Some Corrupt) ]

(* [crash] stops a node after 5 activations, [crash-after-K] after K. *)
let crash_after = "crash-after-"

let kind name =
  match List.assoc_opt name kinds with
  | None when String.starts_with ~prefix:crash_after name ->
    let at = String.length crash_after in
    Option.map (fun k -> Some (Crash k)) (nat (String.sub name at (String.length name - at)))
  | found -> found

let kind_token = function
  | Crash k when k <> 5 -> crash_after ^ string_of_int k
  | k -> fst (List.find (fun (_, k') -> k' = Some k) kinds)

let named =
  [ ("silent-sender", Silent_sender); ("crash-sender", Crash_sender); ("flip-relay", Flip_relay);
    ("equivocate-sender", Equivocate_sender) ]

let unknown_fault tok =
  bad "fault" tok
    "unknown fault (KIND[:COUNT] or KIND@ID,ID,... for KIND in %s, %sK, or counted kinds joined \
     with +; or %s)"
    (String.concat ", " (List.map fst kinds)) crash_after (String.concat ", " (List.map fst named))

let counted tok =
  let kind, count =
    match String.split_on_char ':' tok with
    | [ name ] -> (kind name, Some 1)
    | [ name; k ] -> (kind name, nat k)
    | _ -> (None, None)
  in
  match (List.assoc_opt tok named, kind, count) with
  | Some f, _, _ -> Ok f
  | None, Some None, Some _ -> Ok No_fault
  | None, Some (Some kind), Some k -> Ok (Faulty [ (kind, k) ])
  | None, Some _, None -> bad "fault" tok "the count must be a non-negative integer"
  | None, None, _ -> unknown_fault tok

let placed tok =
  match String.split_on_char '@' tok with
  | [ name; ids ] -> (
    let ids = List.map nat (String.split_on_char ',' ids) in
    match kind name with
    | Some (Some Balanced_flip) -> bad "fault" tok "balanced-flip places itself"
    | Some (Some kind) when List.for_all Option.is_some ids -> Ok (Placed (kind, List.filter_map Fun.id ids))
    | Some (Some _) -> bad "fault" tok "want KIND@ID,ID,... with non-negative ids"
    | Some None | None -> unknown_fault tok)
  | _ -> unknown_fault tok

let single tok = if String.contains tok '@' then placed tok else counted tok

(* A [+] battery joins counted kinds; [balanced-flip], placed kinds and
   the named faults place themselves, so they stand alone. *)
let fault tok =
  match String.split_on_char '+' tok with
  | [ _ ] -> single tok
  | parts ->
    let join part acc =
      match single part with
      | Ok (Faulty [ (kind, k) ]) when kind <> Balanced_flip -> Result.map (List.cons (kind, k)) acc
      | Ok _ ->
        bad "fault" tok
          "%S cannot join a + battery (none, balanced-flip, KIND@ID,... and the named faults stand \
           alone)"
          part
      | Error msg -> bad "fault" tok "%s" msg
    in
    Result.map (fun kinds -> Faulty kinds) (List.fold_right join parts (Ok []))

let fault_token = function
  | No_fault -> "none"
  | Faulty kinds ->
    String.concat "+" (List.map (fun (k, count) -> Printf.sprintf "%s:%d" (kind_token k) count) kinds)
  | Placed (k, ids) -> kind_token k ^ "@" ^ String.concat "," (List.map string_of_int ids)
  | f -> fst (List.find (fun (_, f') -> f' = f) named)

let crash tok =
  let rec pairs = function
    | [] -> Some []
    | Some c :: Some r :: rest -> Option.map (List.cons (c, r)) (pairs rest)
    | _ -> None
  in
  let plan part =
    match List.map int_of_string_opt (String.split_on_char ':' part) with
    | Some i :: (_ :: _ as rest) when i >= 0 -> (
      match pairs rest with
      | Some s when Behaviour.validate_schedule s -> Ok (i, s)
      | _ -> bad "crash" tok "%S: want increasing down < up ticks" part)
    | _ -> bad "crash" tok "%S: want id:down:up[:down:up...]" part
  in
  if tok = "none" then Ok []
  else
    List.fold_right
      (fun part acc -> let* p = plan part in Result.map (List.cons p) acc)
      (String.split_on_char ',' tok) (Ok [])

let crash_token = function
  | [] -> "none"
  | plans ->
    let plan (i, schedule) =
      String.concat ":"
        (string_of_int i :: List.concat_map (fun (c, r) -> [ string_of_int c; string_of_int r ]) schedule)
    in
    String.concat "," (List.map plan plans)

let partition tok =
  match String.split_on_char ':' tok with
  | [ from_s; until_s; ids ] -> (
    let island = List.map (fun s -> nat (String.trim s)) (String.split_on_char ',' ids) in
    match (int_of_string_opt from_s, int_of_string_opt until_s) with
    | Some from_tick, Some until_tick
      when 0 <= from_tick && from_tick <= until_tick && List.for_all Option.is_some island ->
      Ok { from_tick; until_tick; island = List.filter_map Fun.id island }
    | _ -> bad "partition" tok "want FROM:UNTIL:id,id,... with FROM <= UNTIL")
  | _ -> bad "partition" tok "want FROM:UNTIL:id,id,..."

let partition_token p =
  Printf.sprintf "%d:%d:%s" p.from_tick p.until_tick (String.concat "," (List.map string_of_int p.island))

(* ---- Scenarios, outcomes, runs ---- *)

type scenario = {
  protocol : string; n : int; f : int;
  inputs : inputs; adversary : adversary; fault : fault; topology : topology;
  loss : float; dup : float; partition : partition option; reliable : bool; budget : int option;
  payload : int; batch : int; epochs : int; window : int; checkpoint : int; tx_rate : float;
  crash : crash list; coin : coin option; validation : bool; plain : bool; crash_mode : bool;
}

let scenario ~protocol ~n ~f =
  { protocol; n; f; inputs = Halves; adversary = Uniform; fault = No_fault; topology = Complete;
    loss = 0.; dup = 0.; partition = None; reliable = false; budget = None; payload = 64;
    batch = 16; epochs = 2; window = 2; checkpoint = 0; tx_rate = 1.0; crash = []; coin = None;
    validation = true; plain = false; crash_mode = false }

type replica = { max_live : int; checkpoints : int; transfers : int; catch_up : int }

type outcome = {
  decided : bool; agreement : bool; validity : bool; totality : bool;
  rounds : int; messages : int; bytes : int; ticks : int; committed : int; shares : int;
  replicas : replica array;
}

let decides o = o.decided && o.agreement && o.validity

let failed =
  { decided = false; agreement = false; validity = false; totality = false; rounds = 0;
    messages = 0; bytes = 0; ticks = 0; committed = 0; shares = 0; replicas = [||] }

type run = {
  outcome : outcome; stop : Abc_net.Engine.stop_reason; deliveries : int; metrics : Metrics.t;
  lines : string list Lazy.t;
}

let policy ~n = function
  | Fifo -> Abc_net.Adversary.fifo
  | Uniform -> Abc_net.Adversary.uniform
  | Split -> Abc_net.Adversary.split ~n
  | Latency mean -> Abc_net.Adversary.latency ~mean
  | Target i -> Abc_net.Adversary.targeted_delay ~victims:[ node i ]
  | Source i -> Abc_net.Adversary.source_starve ~victims:[ node i ]
  | Eclipse period -> Abc_net.Adversary.rotating_eclipse ~n ~period

let graph ~n = function
  | Complete -> None
  | Ring -> Some (Abc_net.Topology.ring ~n)
  | Star -> Some (Abc_net.Topology.star ~n)
  | Circulant offsets -> Some (Abc_net.Topology.circulant ~n ~offsets)

let link_faults sc =
  let cut p =
    Abc_net.Link_faults.cut ~from_tick:p.from_tick ~until_tick:p.until_tick (List.map node p.island)
  in
  let cuts = Option.to_list (Option.map cut sc.partition) in
  let plan = Abc_net.Link_faults.make ~drop:sc.loss ~dup:sc.dup ~cuts () in
  if Abc_net.Link_faults.active plan then Some plan else None

let values sc =
  match sc.inputs with
  | Halves -> Array.init sc.n (fun i -> if i < sc.n / 2 then Value.Zero else Value.One)
  | Unanimous v -> Array.make sc.n v
  | Alternating -> Array.init sc.n (fun i -> if i mod 2 = 0 then Value.Zero else Value.One)

(* [common] is the common coin keyed by seed 7. *)
let round_coin sc ~default =
  match Option.value sc.coin ~default with Local -> Abc.Coin.local | Common -> Abc.Coin.common ~seed:7

let payload_bytes ~bytes ~seed = String.init bytes (fun i -> Char.chr ((seed + (131 * i)) land 0xFF))

(* A run may end in one exception: the protocol's own init-time
   rejection of (n, f).  That is the run's result, not a bug. *)
let guard run =
  match run () with
  | r -> Ok r
  | exception Invalid_argument msg when String.starts_with ~prefix:"Quorum." msg -> Error msg

(* ---- Fault batteries ---- *)

(* Counted faults take the highest-numbered nodes, kind after kind in
   battery order ([balanced-flip] alternates between both ends); a
   broadcast moves its first liar onto the designated sender, node 0.
   All the nodes of one kind share one behaviour.  [lie] tells the
   protocol's lies, named by their fault tokens ("flip", "equivocate",
   "force-decide", and E1's "flip-relay" and "equivocate-sender", the
   ["!" ^ payload] corruptions of a relay and of the sender); [refuse]
   explains a lie it cannot tell.  A [corrupt] node is honest for 3
   activations, then tells the flip lie. *)
let battery ~n ~broadcast ~lie ~refuse fault =
  let behaviour = function
    | `Mute -> Ok Behaviour.Silent
    | `Stop k -> Ok (Behaviour.Crash_after k)
    | `Spam -> Ok (Behaviour.Replay 2)
    | `Lie l -> Option.fold (lie l) ~some:(fun b -> Ok (b ~n)) ~none:(Error (refuse l))
    | `Corrupt ->
      Option.fold (lie "flip")
        ~some:(fun b -> Ok (Behaviour.Corrupt_after (3, b ~n)))
        ~none:(Error (refuse "corrupt"))
  in
  let sender i how =
    if broadcast then Result.map (fun b -> [ (node i, b) ]) (behaviour how)
    else Error "sender and relay faults are for the broadcasts"
  in
  let how = function
    | Silent -> `Mute
    | Crash k -> `Stop k
    | Replay -> `Spam
    | Flip | Balanced_flip -> `Lie "flip"
    | Equivocate -> `Lie "equivocate"
    | Force_decide -> `Lie "force-decide"
    | Corrupt -> `Corrupt
  in
  match fault with
  | No_fault -> Ok []
  | Silent_sender -> sender 0 `Mute
  | Crash_sender -> sender 0 (`Stop 2)
  | Flip_relay -> sender 1 (`Lie "flip-relay")
  | Equivocate_sender -> sender 0 (`Lie "equivocate-sender")
  | Faulty kinds ->
    let count = List.fold_left (fun acc (_, k) -> acc + k) 0 kinds in
    if List.exists (fun (_, k) -> k < 0) kinds || count > n then
      Error (Printf.sprintf "%d faulty nodes, but n=%d" count n)
    else
      let place (kind, k) acc =
        let* b = behaviour (how kind) in
        Result.map (( @ ) (List.init k (fun _ -> (kind, b)))) acc
      in
      let id j kind =
        if j = 0 && broadcast then 0
        else if kind <> Balanced_flip then n - 1 - j
        else if j mod 2 = 0 then j / 2
        else n - 1 - (j / 2)
      in
      Result.map (List.mapi (fun j (kind, b) -> (node (id j kind), b)))
        (List.fold_right place kinds (Ok []))
  | Placed (kind, ids) -> (
    match List.find_opt (fun i -> i >= n) ids with
    | Some i -> Error (Printf.sprintf "fault names node %d, but n=%d" i n)
    | None when List.length (List.sort_uniq Int.compare ids) < List.length ids ->
      Error "fault names a node twice"
    | None -> Result.map (fun b -> List.map (fun i -> (node i, b)) ids) (behaviour (how kind)))

let agnostic _ = None

let agnostic_only transport l =
  Printf.sprintf "the %s supports only message-agnostic faults (none, silent, crash, replay), not %S"
    transport l

(* Where a protocol's messages cannot be forged, a liar sends them
   unchanged: [Mutate] and [Equivocate] with the identity. *)
let identity_lie = function
  | "flip" | "force-decide" -> Some (fun ~n:_ -> Behaviour.Mutate (fun _ m -> m))
  | "equivocate" -> Some (fun ~n:_ -> Behaviour.Equivocate (fun _ ~dst:_ m -> m))
  | _ -> None

let consensus_lie ~flip ~force = function
  | "flip" -> Some (fun ~n:_ -> Behaviour.Mutate flip)
  | "equivocate" -> Some (fun ~n -> Behaviour.Equivocate (Behaviour.two_faced ~n flip))
  | "force-decide" -> Some (fun ~n:_ -> Behaviour.Mutate force)
  | _ -> None

(* A broadcast lies about its payload: [garble] for the counted faults,
   E1's [bang] (where the protocol has it) for the named ones. *)
let rbc_lie ~substitute ~equivocate ~garble ?bang lie =
  let mutate corrupt ~n:_ = Behaviour.Mutate (substitute (fun _ v -> corrupt v)) in
  let two_faced corrupt ~n =
    Behaviour.Equivocate (equivocate (Behaviour.two_faced ~n (fun _ v -> corrupt v)))
  in
  match (lie, bang) with
  | "flip", _ -> Some (mutate garble)
  | "equivocate", _ -> Some (two_faced garble)
  | "force-decide", _ -> Some (mutate Fun.id)
  | "flip-relay", Some bang -> Some (mutate bang)
  | "equivocate-sender", Some bang -> Some (two_faced bang)
  | _ -> None

let garble s = String.map (fun c -> Char.chr (Char.code c lxor 0x5A)) s

(* ---- Subjects: what the generic run needs from each protocol ---- *)

(* What a finished run shows the subject's [judge]. *)
type 'out view = {
  seed : int; honest : Node_id.t list; outputs : (int * 'out) list array;
  stop : Abc_net.Engine.stop_reason; deliveries : int; duration : int; counter : string -> int;
}

(* [broadcast] places counted faults sender first; [recovery] restores
   crash-recovering replicas (the atomic broadcast's). *)
module type SUBJECT = sig
  include Abc_net.Protocol.S

  val broadcast : bool
  val lie : string -> (n:int -> msg Behaviour.t) option
  val inputs : scenario -> seed:int -> input array
  val judge : scenario -> input array -> output view -> outcome * string list Lazy.t

  val recovery :
    ((state -> string)
    * (Abc_net.Protocol.Context.t -> input -> durable:string ->
       state * msg Abc_net.Protocol.action list * output list))
    option
end

(* The counts every verdict reports, from the engine. *)
let counts v =
  { failed with messages = v.counter "sent"; bytes = v.counter "bytes.sent"; ticks = v.duration;
                shares = v.counter "sent.share" }

let consensus_judge ~value_of_input _ inputs v =
  let verdict =
    Abc.Harness.judge ~value_of_input ~inputs ~honest:v.honest ~stop:v.stop ~outputs:v.outputs
      ~messages:(v.counter "sent") ~deliveries:v.deliveries ~duration:v.duration
  in
  let open Abc.Harness in
  ( { (counts v) with decided = verdict.terminated; agreement = verdict.agreement;
      validity = verdict.validity; totality = true; rounds = verdict.max_round },
    let line (id, time, d) = Fmt.str "  %a: %a at t=%d" Node_id.pp id Abc.Decision.pp d time in
    lazy (List.map line verdict.decisions) )

(* E1's verdict over the honest nodes' deliveries of node 0's [sent]:
   validity (each carries [sent], when node 0 is honest), agreement (no
   node delivers twice, and all deliveries are equal) and totality
   (every node delivers once, or none does). *)
let broadcast_judge ~value ~equal ~sent ~show v =
  let deliveries =
    List.map (fun id -> List.map (fun (_, d) -> value d) v.outputs.(Node_id.to_int id)) v.honest
  in
  let delivered = List.concat deliveries in
  let count = List.length (List.filter (fun ds -> List.compare_length_with ds 1 = 0) deliveries) in
  let all = count = List.length v.honest in
  let report i = function
    | [ (time, d) ] -> [ Printf.sprintf "  node %d: delivered %s at t=%d" i (show (value d)) time ]
    | [] -> [ Printf.sprintf "  node %d: no delivery" i ]
    | _ -> []
  in
  ( { (counts v) with decided = all; totality = count = 0 || all;
      agreement =
        List.for_all (fun ds -> List.compare_length_with ds 1 <= 0) deliveries
        && (match delivered with d :: rest -> List.for_all (equal d) rest | [] -> true);
      validity =
        (not (List.exists (Node_id.equal (node 0)) v.honest)) || List.for_all (equal sent) delivered },
    lazy (List.concat (List.mapi report (Array.to_list v.outputs))) )

(* One line per node: its single output, or none. *)
let output_lines pp outputs =
  let line i = function
    | [ (_, out) ] -> [ Fmt.str "  node %d: %a" i pp out ]
    | [] -> [ Printf.sprintf "  node %d: no output" i ]
    | _ -> []
  in
  lazy (List.concat (List.mapi line (Array.to_list outputs)))

(* A tiny FNV-1a digest, so payloads and logs compare at a glance. *)
let fnv s =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

module Bracha = struct
  include Abc.Bracha_consensus
  let broadcast = false and recovery = None
  let judge = consensus_judge ~value_of_input
  let lie = consensus_lie ~flip:Fault.flip_value ~force:Fault.force_decide
  let inputs sc ~seed:_ =
    let transport = if sc.plain then Options.Plain else Options.Reliable in
    let coin = round_coin sc ~default:Local in
    inputs ~n:sc.n ~options:{ Options.coin; validation = sc.validation; transport } (values sc)
end

(* Ben-Or and MMR cannot force a decision: their [force-decide] tells
   the flip lie, as abc-run always has. *)
module Ben_or = struct
  include Abc.Ben_or
  let broadcast = false and recovery = None
  let judge = consensus_judge ~value_of_input
  let lie = consensus_lie ~flip:Fault.flip_value ~force:Fault.flip_value
  let inputs sc ~seed:_ =
    let mode = if sc.crash_mode then Mode.Crash else Mode.Byzantine in
    inputs ~n:sc.n ~mode ~coin:(round_coin sc ~default:Local) (values sc)
end

module Mmr = struct
  include Abc.Mmr_consensus
  let broadcast = false and recovery = None
  let judge = consensus_judge ~value_of_input
  let lie = consensus_lie ~flip:Fault.flip_value ~force:Fault.flip_value
  let inputs sc ~seed:_ =
    inputs ~n:sc.n ~coin:(round_coin sc ~default:Common) (values sc)
end

(* The wire-level Rabin coin that E11 prices against the ideal one. *)
module Mmr_rabin = struct
  include Mmr
  let inputs sc ~seed:_ = inputs_with_shared_coin ~n:sc.n ~f:sc.f ~seed:7 (values sc)
end

(* A common subset's verdict: every honest node accepts one subset of
   at least n-f entries, each its proposer's input. *)
let subset_judge ~subset ~proposal sc inputs v =
  let subset id = match v.outputs.(Node_id.to_int id) with [ (_, o) ] -> Some (subset o) | _ -> None in
  let subsets = List.filter_map subset v.honest in
  let kept (id, p) = p = proposal inputs.(Node_id.to_int id) in
  { (counts v) with decided = List.length subsets = List.length v.honest; totality = true;
    agreement = (match subsets with s :: rest -> List.for_all (( = ) s) rest | [] -> true);
    validity =
      List.for_all
        (fun s -> List.length s >= Abc.Quorum.completeness ~n:sc.n ~f:sc.f && List.for_all kept s)
        subsets }

(* The asynchronous common subset over node i's proposal 100+i, local
   coin. *)
module Acs = struct
  include Abc.Acs.Make (Abc.Payloads.Int_payload)
  let broadcast = false and recovery = None and lie = identity_lie
  let inputs sc ~seed:_ = inputs ~n:sc.n ~coin:Abc.Coin.local (Array.init sc.n (( + ) 100))
  let judge sc inputs v =
    ( subset_judge ~subset:(fun (Accepted s) -> s) ~proposal:(fun i -> i.proposal) sc inputs v,
      output_lines pp_output v.outputs )
end

(* The batched common subset over node i's batch "batch-I:" padded
   with 8i bytes, local coin. *)
module Batch_acs = struct
  include Abc.Batch_acs
  let broadcast = false and recovery = None and lie = identity_lie
  let inputs sc ~seed:_ =
    inputs ~n:sc.n ~coin:Abc.Coin.local
      (Array.init sc.n (fun i -> Printf.sprintf "batch-%d:%s" i (String.make (8 * i) 'x')))
  let judge sc inputs v =
    ( subset_judge ~subset:(fun (Accepted s) -> s) ~proposal:(fun i -> i.proposal) sc inputs v,
      output_lines pp_output v.outputs )
end

(* Turpin-Coan's one-BA reduction, local coin, over E13's
   near-unanimous proposals for [split] (node 0 9, every other node 5),
   every node's 0 or 1 for [unanimous0] and [unanimous1], and n
   distinct proposals 100+i for [alternate]: every honest node outputs
   one outcome, the same; an agreed value was proposed, and only
   [alternate]'s distinct proposals may fall back, so a fallback on
   E13's near-unanimous [split] fails as it did before inputs were
   read. *)
module Turpin_coan = struct
  include Abc.Turpin_coan.Make (Abc.Payloads.Int_payload)
  let broadcast = false and recovery = None and lie = identity_lie
  let inputs sc ~seed:_ =
    inputs ~n:sc.n ~coin:Abc.Coin.local
      (match sc.inputs with
      | Halves -> Array.init sc.n (fun i -> if i = 0 then 9 else 5)
      | Unanimous v -> Array.make sc.n (Value.to_int v)
      | Alternating -> Array.init sc.n (( + ) 100))
  let judge sc inputs v =
    let outcome id = match v.outputs.(Node_id.to_int id) with [ (_, o) ] -> Some o | _ -> None in
    let outcomes = List.filter_map outcome v.honest in
    let valid = function
      | Agreed x -> Array.exists (fun (i : input) -> i.value = x) inputs
      | Fallback -> sc.inputs = Alternating
    in
    ( { (counts v) with decided = List.length outcomes = List.length v.honest;
        agreement = (match outcomes with o :: rest -> List.for_all (( = ) o) rest | [] -> true);
        validity = List.for_all valid outcomes; totality = true },
      output_lines pp_output v.outputs )
end

module Bit_rbc = struct
  include Abc.Bracha_rbc.Binary
  let broadcast = true and recovery = None
  let lie = rbc_lie ~substitute:Fault.substitute ~equivocate:Fault.equivocate ~garble:Value.negate ?bang:None
  let inputs sc ~seed:_ = inputs ~n:sc.n ~sender:(node 0) Value.One
  let value (Delivered b) = b
  let judge _ _ = broadcast_judge ~value ~equal:Value.equal ~sent:Value.One ~show:(Fmt.str "%a" Value.pp)
end

(* The string broadcasts send a [payload]-byte message from node 0. *)
let payload_inputs inputs sc ~seed = inputs ~n:sc.n ~sender:(node 0) (payload_bytes ~bytes:sc.payload ~seed)

let payload_judge value sc _ v =
  broadcast_judge ~value ~equal:String.equal ~sent:(payload_bytes ~bytes:sc.payload ~seed:v.seed)
    ~show:(fun s -> Printf.sprintf "%dB (fnv %08x)" (String.length s) (fnv s))
    v

module Bracha_rbc = struct
  include Abc.Bracha_rbc.Make (Abc.Payloads.String_payload)
  let broadcast = true and recovery = None
  let lie = rbc_lie ~substitute:Fault.substitute ~equivocate:Fault.equivocate ~garble ~bang:(( ^ ) "!")
  let inputs = payload_inputs inputs
  let judge = payload_judge (fun (Delivered s) -> s)
end

module Ir_rbc = struct
  include Abc.Ir_rbc.Make (Abc.Payloads.String_payload)
  let broadcast = true and recovery = None
  let lie = rbc_lie ~substitute:Fault.substitute ~equivocate:Fault.equivocate ~garble ?bang:None
  let inputs = payload_inputs inputs
  let judge = payload_judge (fun (Delivered s) -> s)
end

(* Consistent broadcast promises validity and agreement, not totality;
   it has no forged messages, so it tells no lie. *)
module Consistent_rbc = struct
  include Abc.Consistent_broadcast.Make (Abc.Payloads.String_payload)
  let broadcast = true and recovery = None and lie = agnostic
  let inputs = payload_inputs inputs
  let judge = payload_judge (fun (Delivered s) -> s)
end

module Coded_rbc = struct
  include Abc.Coded_rbc
  let broadcast = true and recovery = None
  let inputs = payload_inputs inputs
  let judge = payload_judge (fun (Delivered s) -> s)
  let lie = function
    | "flip" | "force-decide" -> Some (fun ~n:_ -> Behaviour.Mutate Fault.tamper)
    | "equivocate" -> Some (fun ~n:_ -> Behaviour.Equivocate Fault.equivocate)
    | _ -> None
end

(* A replicated ledger's verdict: every correct replica (honest, or
   crashed and recovered) completes one agreeing log, and every
   complete log is [valid]; [committed] is the first one's length. *)
let ledger ?(valid = fun _ -> true) sc v log_of_outputs =
  let crashed = List.map (fun (i, _) -> node i) sc.crash in
  let correct = v.honest @ List.filter (fun id -> not (List.exists (Node_id.equal id) v.honest)) crashed in
  let logs = List.map (fun id -> log_of_outputs v.outputs.(Node_id.to_int id)) correct in
  { (counts v) with
    decided = v.stop = Abc_net.Engine.All_terminal && List.for_all Option.is_some logs;
    agreement =
      (match logs with
      | first :: rest -> List.for_all (fun l -> l = None || l = first || first = None) rest
      | [] -> true);
    validity = List.for_all (Option.fold ~none:true ~some:valid) logs; totality = true;
    committed = (match logs with Some l :: _ -> List.length l | _ -> 0) }

(* The batched atomic broadcast: [batch * epochs] transactions of
   [payload] bytes per node arriving at [tx_rate]; crashed replicas
   come back from their durable store. *)
module Atomic = struct
  include Abc_smr.Atomic_broadcast
  let broadcast = false and lie = identity_lie
  let recovery = Some (snapshot, restore)
  let inputs sc ~seed =
    let txs i =
      Abc_smr.Workload.txs
        (Abc_smr.Workload.generate ~seed ~node:(node i) ~count:(sc.batch * sc.epochs)
           ~rate:sc.tx_rate ~tx_bytes:sc.payload)
    in
    inputs ~n:sc.n ~window:sc.window ~checkpoint_interval:sc.checkpoint ~batch_size:sc.batch
      ~epochs:sc.epochs ~coin_seed:(seed + 7919) (Array.init sc.n txs)
  let commit_line sc v log =
    let committed = List.length log and duration = max 1 v.duration in
    Printf.sprintf
      "  committed %d/%d txs in %d epochs (%.1f ticks/epoch, %.2f tx/ktick, %d B/tx per node)"
      committed (sc.n * sc.batch * sc.epochs) sc.epochs
      (float_of_int duration /. float_of_int sc.epochs)
      (1000. *. float_of_int committed /. float_of_int duration)
      (if committed = 0 then 0 else v.counter "bytes.sent" / (sc.n * committed))
  let replica i outputs =
    match log_of_outputs outputs with
    | Some log ->
      Printf.sprintf "  replica %d: txs=%d digest=%08x" i (List.length log) (fnv (String.concat ";" log))
    | None -> Printf.sprintf "  replica %d: incomplete" i
  (* Node [i]'s recovery measures; [catch_up] runs from its last rejoin
     to its first commit (an epoch, or the whole log by state transfer)
     at or after that rejoin. *)
  let measures sc i outputs =
    let max_live, checkpoints, transfers =
      Option.value (stats_of_outputs outputs) ~default:(0, 0, 0)
    in
    let catch_up =
      match List.assoc_opt i sc.crash with
      | None -> 0
      | Some plan ->
        let rejoin = List.fold_left (fun _ (_, up) -> up) 0 plan in
        let commit (t, out) =
          match out with
          | (Epoch_committed _ | Log_complete _) when t >= rejoin -> Some (t - rejoin)
          | _ -> None
        in
        Option.value (List.find_map commit outputs) ~default:0
    in
    { max_live; checkpoints; transfers; catch_up }
  (* No tx commits twice and every committed tx was offered.  With no
     faulty node, no crash plan and no link fault, under a scheduler
     that starves no proposer (fifo, uniform, latency), every node's
     first batch * (epochs - 1) txs commit: the last epoch is slack for
     a batch left out of some subset and proposed again.  An unfair
     scheduler may starve a proposer; resisting that needs
     threshold-encrypted batches (PROTOCOLS.md). *)
  let valid sc inputs v =
    let module S = Set.Make (String) in
    let offered =
      Array.fold_left (fun s i -> Array.fold_left (fun s tx -> S.add tx s) s i.mempool) S.empty inputs
    in
    let fair =
      match sc.adversary with
      | Fifo | Uniform | Latency _ -> true
      | Split | Target _ | Source _ | Eclipse _ -> false
    in
    let owed =
      List.length v.honest = sc.n && sc.crash = [] && Option.is_none (link_faults sc) && fair
    in
    fun log ->
      let committed = S.of_list log in
      let included i =
        Array.for_all (fun tx -> S.mem tx committed) (Array.sub i.mempool 0 (sc.batch * (sc.epochs - 1)))
      in
      S.cardinal committed = List.length log
      && S.subset committed offered
      && ((not owed) || Array.for_all included inputs)
  let judge sc inputs v =
    let all = Array.to_list v.outputs in
    let replicas = Array.mapi (measures sc) v.outputs in
    (* A node that emitted no Gc_stats gets no line. *)
    let gc i outputs =
      let r = replicas.(i) in
      Option.map
        (fun _ ->
          Printf.sprintf "  replica %d gc: max-live=%d checkpoints=%d transfers=%d" i r.max_live
            r.checkpoints r.transfers)
        (stats_of_outputs outputs)
    in
    let recovery () =
      Printf.sprintf "  recovery: crashes=%d recoveries=%d dropped-while-down=%d stale-timers=%d"
        (v.counter "node.crashed") (v.counter "node.recovered") (v.counter "dropped.crashed")
        (v.counter "timer.stale")
      :: List.filter_map Fun.id (List.mapi gc all)
    in
    ( { (ledger ~valid:(valid sc inputs v) sc v log_of_outputs) with replicas },
      lazy
        (Option.to_list (Option.map (commit_line sc v) (log_of_outputs v.outputs.(0)))
        @ List.mapi replica all
        @ if sc.checkpoint > 0 then recovery () else []) )
end

(* The slot-per-command replicated log, local coin: [epochs] slots, one
   ACS each, replica i proposing "cmd-I.K" for slot k. *)
module Log = struct
  include Abc_smr.Replicated_log
  let broadcast = false and recovery = None and lie = identity_lie
  let inputs sc ~seed:_ =
    inputs ~n:sc.n ~slots:sc.epochs ~coin:Abc.Coin.local (Printf.sprintf "cmd-%d.%d")
  let replica i outputs =
    match log_of_outputs outputs with
    | Some log -> Printf.sprintf "  replica %d: %s" i (String.concat " -> " log)
    | None -> Printf.sprintf "  replica %d: incomplete" i
  let judge sc _ v = (ledger sc v log_of_outputs, lazy (List.mapi replica (Array.to_list v.outputs)))
end

(* ---- The generic run and exploration ---- *)

(* What [prepare] hands back: one seed's run, and the exploration of
   every schedule, which only the raw complete graph has. *)
type prepared = {
  run : seed:int -> trace:Abc_sim.Trace.t option -> (run, string) result;
  explore : max_depth:int option -> max_states:int -> (Abc_check.Explore.outcome, string) result;
}

let unexplored ~max_depth:_ ~max_states:_ =
  Error "the model checker explores the complete graph without reliable links, link faults or crash plans"

module Make (S : SUBJECT) = struct
  module Go (P : Abc_net.Protocol.S with type input = S.input and type output = S.output) = struct
    module E = Abc_net.Engine.Make (P)

    let run ?recovery sc ~faulty ~seed ~trace =
      guard (fun () ->
          let inputs = S.inputs sc ~seed in
          let cfg =
            E.config ~n:sc.n ~f:sc.f ~inputs ~faulty ~adversary:(policy ~n:sc.n sc.adversary)
              ?topology:(graph ~n:sc.n sc.topology) ?link_faults:(link_faults sc)
              ?max_deliveries:sc.budget ?recovery ?trace ~seed ()
          in
          let r = E.run cfg in
          let outcome, lines =
            S.judge sc inputs
              { seed; honest = E.honest cfg; outputs = r.E.outputs; stop = r.E.stop;
                deliveries = r.E.deliveries; duration = r.E.duration;
                counter = Metrics.counter r.E.metrics }
          in
          { outcome; stop = r.E.stop; deliveries = r.E.deliveries; metrics = r.E.metrics; lines })
  end

  module Raw = Go (S)
  module Rl = Go (Abc_net.Reliable_link.Make (S))
  module X = Abc_check.Explore.Make (S)

  (* Every schedule from seed 0's inputs, with the run's faults and, at
     each state, the run's verdict on agreement and validity over the
     honest nodes' outputs so far.  No adversary, budget or seed
     applies. *)
  let explore sc ~faulty ~max_depth ~max_states =
    if sc.crash <> [] || Option.is_some (link_faults sc) then unexplored ~max_depth ~max_states
    else
      guard (fun () ->
          let inputs = S.inputs sc ~seed:0 in
          let honest =
            List.filter (fun id -> not (List.exists (fun (j, _) -> Node_id.equal j id) faulty))
              (Node_id.all ~n:sc.n)
          in
          let invariant outputs =
            let o, _ =
              S.judge sc inputs
                { seed = 0; honest; outputs = Array.map (List.map (fun out -> (0, out))) outputs;
                  stop = Abc_net.Engine.Quiescent; deliveries = 0; duration = 0; counter = (fun _ -> 0) }
            in
            o.agreement && o.validity
          in
          X.run { n = sc.n; f = sc.f; inputs; faulty; invariant; max_states; max_depth; drop_plan = None })

  (* Faults are placed and checked before anything runs; the closure
     runs one seed.  An explicit graph floods every message over its
     edges: the relay, like the reliable link, forwards what any node
     sends, so only message-agnostic faults keep their meaning.  A
     crash plan restarts its replica from the subject's durable store,
     which only the raw transport hands to the engine. *)
  let prepare ~name sc =
    let battery ~lie ~refuse =
      Result.map_error (fun msg -> ("fault", msg))
        (battery ~n:sc.n ~broadcast:S.broadcast ~lie ~refuse sc.fault)
    in
    let no_crash over =
      if sc.crash = [] then Ok ()
      else
        Error
          ( "crash",
            "crash plans do not run over " ^ over
            ^ ": a replica would restart without its durable store" )
    in
    let* () =
      if sc.crash = [] then Ok ()
      else if Option.is_none S.recovery then
        Error ("crash", name ^ " keeps no durable store to restart a crashed replica from")
      else if sc.checkpoint <= 0 then
        Error
          ( "crash",
            "a crash plan needs checkpoint > 0: a recovered replica catches up from a stable checkpoint" )
      else Ok ()
    in
    match sc.topology with
    | Complete when sc.reliable ->
      let* () = no_crash "reliable links" in
      let* faulty = battery ~lie:agnostic ~refuse:(agnostic_only "reliable transport") in
      Ok { run = Rl.run sc ~faulty; explore = unexplored }
    | Ring | Star | Circulant _ when sc.reliable ->
      Error ("topology", "reliable links do not run over an explicit topology")
    | Ring | Star | Circulant _ ->
      let module Relayed = Go (Abc_net.Relay.Make (S)) in
      let* () = no_crash "the flood relay" in
      let* faulty = battery ~lie:agnostic ~refuse:(agnostic_only "flood relay") in
      Ok { run = Relayed.run sc ~faulty; explore = unexplored }
    | Complete ->
      let refuse l = Printf.sprintf "fault %S is not defined for %s" l name in
      let* faulty = battery ~lie:S.lie ~refuse in
      let recovery = Option.map (fun (snapshot, restore) -> { Raw.E.snapshot; restore }) S.recovery in
      let crashes = List.map (fun (i, plan) -> (node i, Behaviour.Crash_recover plan)) sc.crash in
      Ok { run = Raw.run ?recovery sc ~faulty:(faulty @ crashes); explore = explore sc ~faulty }
end

(* An entry's resilience class is n > [ratio] f, and n > [crash_ratio] f
   in crash mode, which only Ben-Or reads. *)
type entry = {
  name : string; ratio : int; crash_ratio : int; prepare : scenario -> (prepared, string * string) result }

let entry ?(preset = Fun.id) ?crash_ratio name ratio (module S : SUBJECT) =
  let module M = Make (S) in
  { name; ratio; crash_ratio = Option.value crash_ratio ~default:ratio;
    prepare = (fun sc -> M.prepare ~name (preset sc)) }

let entries =
  let common sc = { sc with coin = Some (Option.value sc.coin ~default:Common) } in
  [ entry "bracha" 3 (module Bracha);
    entry "bracha-cc" 3 (module Bracha) ~preset:common;
    entry "ben-or" 5 ~crash_ratio:2 (module Ben_or);
    entry "mmr" 3 (module Mmr);
    entry "mmr-rabin" 3 (module Mmr_rabin);
    entry "bracha-rbc" 3 (module Bracha_rbc);
    entry "bracha-rbc-bit" 3 (module Bit_rbc);
    entry "coded-rbc" 3 (module Coded_rbc);
    entry "ir-rbc" 5 (module Ir_rbc);
    entry "consistent-rbc" 3 (module Consistent_rbc);
    entry "acs" 3 (module Acs);
    entry "batch-acs" 3 (module Batch_acs);
    entry "turpin-coan" 4 (module Turpin_coan);
    entry "log" 3 (module Log);
    entry "atomic" 3 (module Atomic) ]

let find protocol = List.find_opt (fun e -> String.equal e.name protocol) entries

let resilience sc =
  Option.map
    (fun e ->
      let ratio = if sc.crash_mode then e.crash_ratio else e.ratio in
      (Printf.sprintf "n>%df" ratio, (sc.n - 1) / ratio))
    (find sc.protocol)

let unknown_protocol p =
  Printf.sprintf "unknown protocol %S (%s)" p (String.concat " | " (List.map (fun e -> e.name) entries))

(* ---- The scenario grammar: one axis per field ---- *)

type ty = Int | Num | Token

(* A field's axis: its name, its value type, a decoder into the record
   and an encoder from it ([None] for an unset option, only ever its
   default). *)
type axis = {
  name : string; ty : ty; decode : string -> scenario -> (scenario, string) result; encode : scenario -> string option }

let axis name ty (decode, encode) get set =
  { name; ty; decode = (fun tok sc -> Result.map (set sc) (decode tok)); encode = (fun sc -> encode (get sc)) }

let some (decode, encode) = (decode, fun v -> Some (encode v))
let opt (decode, encode) = ((fun tok -> Result.map Option.some (decode tok)), Option.map encode)

(* A codec whose decoder is [parse], and whose errors say what the axis
   wants. *)
let parsed name what parse print =
  ((fun tok -> Option.fold (parse tok) ~none:(bad name tok "want %s" what) ~some:Result.ok), print)

let integer name = parsed name "an integer" int_of_string_opt string_of_int

let enum name choices =
  parsed name (String.concat " | " (List.map fst choices)) (fun tok -> List.assoc_opt tok choices)
    (fun v -> fst (List.find (fun (_, v') -> v' = v) choices))

let protocol tok = if find tok = None then Error (unknown_protocol tok) else Ok tok

let table =
  let int name = axis name Int (some (integer name))
  and num name = axis name Num (some (parsed name "a number" float_of_string_opt float_token)) in
  let tok name codec = axis name Token (some codec) in
  let flag name = tok name (enum name [ ("true", true); ("false", false) ]) in
  [ tok "protocol" (protocol, Fun.id) (fun sc -> sc.protocol) (fun sc protocol -> { sc with protocol });
    int "n" (fun sc -> sc.n) (fun sc n -> { sc with n });
    int "f" (fun sc -> sc.f) (fun sc f -> { sc with f });
    tok "inputs" (inputs, inputs_token) (fun sc -> sc.inputs) (fun sc inputs -> { sc with inputs });
    tok "adversary" (adversary, adversary_token) (fun sc -> sc.adversary)
      (fun sc adversary -> { sc with adversary });
    tok "fault" (fault, fault_token) (fun sc -> sc.fault) (fun sc fault -> { sc with fault });
    tok "topology" (topology, topology_token) (fun sc -> sc.topology) (fun sc topology -> { sc with topology });
    num "loss" (fun sc -> sc.loss) (fun sc loss -> { sc with loss });
    num "dup" (fun sc -> sc.dup) (fun sc dup -> { sc with dup });
    axis "partition" Token (opt (partition, partition_token)) (fun sc -> sc.partition)
      (fun sc partition -> { sc with partition });
    flag "reliable" (fun sc -> sc.reliable) (fun sc reliable -> { sc with reliable });
    axis "budget" Int (opt (integer "budget")) (fun sc -> sc.budget) (fun sc budget -> { sc with budget });
    int "payload" (fun sc -> sc.payload) (fun sc payload -> { sc with payload });
    int "batch" (fun sc -> sc.batch) (fun sc batch -> { sc with batch });
    int "epochs" (fun sc -> sc.epochs) (fun sc epochs -> { sc with epochs });
    int "window" (fun sc -> sc.window) (fun sc window -> { sc with window });
    int "checkpoint" (fun sc -> sc.checkpoint) (fun sc checkpoint -> { sc with checkpoint });
    num "tx-rate" (fun sc -> sc.tx_rate) (fun sc tx_rate -> { sc with tx_rate });
    tok "crash" (crash, crash_token) (fun sc -> sc.crash) (fun sc crash -> { sc with crash });
    axis "coin" Token (opt (enum "coin" [ ("local", Local); ("common", Common) ])) (fun sc -> sc.coin)
      (fun sc coin -> { sc with coin });
    flag "validation" (fun sc -> sc.validation) (fun sc validation -> { sc with validation });
    tok "transport" (enum "transport" [ ("rbc", false); ("plain", true) ]) (fun sc -> sc.plain)
      (fun sc plain -> { sc with plain });
    tok "mode" (enum "mode" [ ("byzantine", false); ("crash", true) ]) (fun sc -> sc.crash_mode)
      (fun sc crash_mode -> { sc with crash_mode }) ]

let axes = List.map (fun a -> (a.name, a.ty)) table

let row name = List.find_opt (fun a -> String.equal a.name name) table

let unset = scenario ~protocol:"" ~n:0 ~f:0

let token ~axis sc = Option.bind (row axis) (fun a -> a.encode sc)

let check_token ~axis tok =
  Option.fold (row axis) ~none:(Ok ()) ~some:(fun a -> Result.map ignore (a.decode tok unset))

let of_tokens tokens =
  let decode acc (name, tok) =
    let* sc = acc in
    let* a = Option.to_result (row name) ~none:(name, Printf.sprintf "unknown axis %S" name) in
    Result.map_error (fun msg -> (name, msg)) (a.decode tok sc)
  in
  match List.find_opt (fun name -> not (List.mem_assoc name tokens)) [ "protocol"; "n"; "f" ] with
  | Some name -> Error (name, Printf.sprintf "missing axis %S" name)
  | None -> List.fold_left decode (Ok unset) tokens

let to_tokens sc =
  let base = scenario ~protocol:sc.protocol ~n:sc.n ~f:sc.f in
  let shown a = List.mem a.name [ "protocol"; "n"; "f" ] || a.encode sc <> a.encode base in
  List.filter_map (fun a -> if shown a then Option.map (fun tok -> (a.name, tok)) (a.encode sc) else None) table

(* The checks across axes: numbers in range, node ids below n, graphs
   that exist at n, probabilities, and the protocol's fault battery. *)
let prepare sc =
  let fail axis fmt = Printf.ksprintf (fun msg -> Error (axis, msg)) fmt in
  let at_least acc (axis, v, least) =
    let* () = acc in
    if v >= least then Ok () else fail axis "need %s >= %d, got %s=%d" axis least axis v
  in
  let below axis ids =
    match List.find_opt (fun i -> i >= sc.n) ids with
    | Some i -> fail axis "%s names node %d, but n=%d" axis i sc.n
    | None -> Ok ()
  in
  let prob axis p = if p >= 0. && p <= 1. then Ok () else fail axis "%s %g is not in [0,1]" axis p in
  let* e =
    match find sc.protocol with Some e -> Ok e | None -> Error ("protocol", unknown_protocol sc.protocol)
  in
  let* () =
    List.fold_left at_least (Ok ())
      [ ("n", sc.n, 1); ("f", sc.f, 0); ("payload", sc.payload, 0);
        ("budget", Option.value sc.budget ~default:1, 1); ("batch", sc.batch, 1);
        ("epochs", sc.epochs, 1); ("window", sc.window, 1); ("checkpoint", sc.checkpoint, 0) ]
  in
  let* () =
    if sc.tx_rate > 0. then Ok () else fail "tx-rate" "need tx-rate > 0, got tx-rate=%g" sc.tx_rate
  in
  let* () =
    match sc.adversary with Target i | Source i -> below "adversary" [ i ] | _ -> Ok ()
  in
  let* () =
    match sc.topology with
    | Ring when sc.n < 3 -> fail "topology" "a ring needs n >= 3"
    | Star when sc.n < 2 -> fail "topology" "a star needs n >= 2"
    | Circulant offs when List.exists (fun d -> d <= 0 || d >= sc.n) offs ->
      fail "topology" "circulant offsets must lie in [1, n) at n=%d" sc.n
    | _ -> Ok ()
  in
  let* () = prob "loss" sc.loss in
  let* () = prob "dup" sc.dup in
  let* () = below "crash" (List.map fst sc.crash) in
  let* () = below "partition" (Option.fold sc.partition ~none:[] ~some:(fun p -> p.island)) in
  e.prepare sc

let check sc = Result.map ignore (prepare sc)

let run ?trace sc ~seed =
  match prepare sc with Ok p -> p.run ~seed ~trace | Error (_, msg) -> Error msg

let explore sc ~max_depth ~max_states =
  match prepare sc with Ok p -> p.explore ~max_depth ~max_states | Error (_, msg) -> Error msg
