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

type fault_kind = Silent | Crash | Replay | Flip | Balanced_flip | Equivocate | Force_decide

type fault =
  | No_fault | Faulty of fault_kind * int | Silent_sender | Crash_sender | Flip_relay | Equivocate_sender

type partition = { from_tick : int; until_tick : int; island : int list }

type crash = int * (int * int) list

let bad kind tok fmt =
  Printf.ksprintf (fun m -> Error (Printf.sprintf "%s %S: %s" kind tok m)) fmt

let nat s = match int_of_string_opt s with Some i when i >= 0 -> Some i | _ -> None

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

let inputs = function
  | "split" -> Ok Halves
  | "unanimous0" -> Ok (Unanimous Value.Zero)
  | "unanimous1" -> Ok (Unanimous Value.One)
  | "alternate" -> Ok Alternating
  | tok -> bad "inputs" tok "unknown inputs (split | unanimous0 | unanimous1 | alternate)"

let kinds =
  [ ("none", None); ("silent", Some Silent); ("crash", Some Crash); ("replay", Some Replay);
    ("flip", Some Flip); ("balanced-flip", Some Balanced_flip); ("equivocate", Some Equivocate);
    ("force-decide", Some Force_decide) ]

let named =
  [ ("silent-sender", Silent_sender); ("crash-sender", Crash_sender); ("flip-relay", Flip_relay);
    ("equivocate-sender", Equivocate_sender) ]

let fault tok =
  let kind, count =
    match String.split_on_char ':' tok with
    | [ kind ] -> (List.assoc_opt kind kinds, Some 1)
    | [ kind; k ] -> (List.assoc_opt kind kinds, nat k)
    | _ -> (None, None)
  in
  match (List.assoc_opt tok named, kind, count) with
  | Some f, _, _ -> Ok f
  | None, Some None, Some _ -> Ok No_fault
  | None, Some (Some kind), Some k -> Ok (Faulty (kind, k))
  | None, Some _, None -> bad "fault" tok "the count must be a non-negative integer"
  | None, None, _ ->
    bad "fault" tok "unknown fault (KIND[:COUNT] for KIND in %s; or %s)"
      (String.concat ", " (List.map fst kinds)) (String.concat ", " (List.map fst named))

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

(* ---- Scenarios, outcomes, runs ---- *)

type scenario = {
  protocol : string; n : int; f : int;
  inputs : inputs; adversary : adversary; fault : fault; topology : topology;
  loss : float; dup : float; partition : partition option; reliable : bool; budget : int option;
  payload : int; batch : int; epochs : int; window : int; checkpoint : int; tx_rate : float;
  crash : crash list; coin : Abc.Coin.t option; validation : bool; plain : bool; crash_mode : bool;
}

let scenario ~protocol ~n ~f =
  { protocol; n; f; inputs = Halves; adversary = Uniform; fault = No_fault; topology = Complete;
    loss = 0.; dup = 0.; partition = None; reliable = false; budget = None; payload = 64;
    batch = 16; epochs = 2; window = 2; checkpoint = 0; tx_rate = 1.0; crash = []; coin = None;
    validation = true; plain = false; crash_mode = false }

type outcome = {
  decided : bool; agreement : bool; validity : bool; totality : bool;
  rounds : int; messages : int; bytes : int; ticks : int; committed : int;
}

let decides o = o.decided && o.agreement && o.validity

let failed =
  { decided = false; agreement = false; validity = false; totality = false; rounds = 0;
    messages = 0; bytes = 0; ticks = 0; committed = 0 }

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

let payload_bytes ~bytes ~seed = String.init bytes (fun i -> Char.chr ((seed + (131 * i)) land 0xFF))

(* A run may end in one exception: the protocol's own init-time
   rejection of (n, f).  That is the run's result, not a bug. *)
let guard run =
  match run () with
  | r -> Ok r
  | exception Invalid_argument msg when String.starts_with ~prefix:"Quorum." msg -> Error msg

(* ---- Fault batteries ---- *)

(* Counted faults take the highest-numbered nodes ([balanced-flip]
   alternates between both ends); a broadcast moves its first liar onto
   the designated sender, node 0.  All the nodes of one fault share one
   behaviour.  [lie] tells the protocol's lies, named by their fault
   tokens ("flip", "equivocate", "force-decide", and E1's "flip-relay"
   and "equivocate-sender", the ["!" ^ payload] corruptions of a relay
   and of the sender); [refuse] explains a lie it cannot tell. *)
let battery ~n ~broadcast ~lie ~refuse fault =
  let placed ids how =
    let* b =
      match how with
      | `Mute -> Ok Behaviour.Silent
      | `Stop k -> Ok (Behaviour.Crash_after k)
      | `Spam -> Ok (Behaviour.Replay 2)
      | `Lie l -> Option.fold (lie l) ~some:(fun b -> Ok (b ~n)) ~none:(Error (refuse l))
    in
    Ok (List.map (fun i -> (node i, b)) ids)
  in
  let sender ids how =
    if broadcast then placed ids how else Error "sender and relay faults are for the broadcasts"
  in
  match fault with
  | No_fault -> Ok []
  | Silent_sender -> sender [ 0 ] `Mute
  | Crash_sender -> sender [ 0 ] (`Stop 2)
  | Flip_relay -> sender [ 1 ] (`Lie "flip-relay")
  | Equivocate_sender -> sender [ 0 ] (`Lie "equivocate-sender")
  | Faulty (_, count) when count < 0 || count > n ->
    Error (Printf.sprintf "%d faulty nodes, but n=%d" count n)
  | Faulty (kind, count) ->
    let how =
      match kind with
      | Silent -> `Mute
      | Crash -> `Stop 5
      | Replay -> `Spam
      | Flip | Balanced_flip -> `Lie "flip"
      | Equivocate -> `Lie "equivocate"
      | Force_decide -> `Lie "force-decide"
    in
    let id k =
      if kind <> Balanced_flip then n - 1 - k else if k mod 2 = 0 then k / 2 else n - 1 - (k / 2)
    in
    placed (match List.init count id with _ :: rest when broadcast -> 0 :: rest | ids -> ids) how

let agnostic _ = None

let agnostic_only l =
  Printf.sprintf
    "the reliable transport supports only message-agnostic faults (none, silent, crash, \
     replay), not %S"
    l

(* Where a protocol's messages cannot be forged, a liar sends them
   unchanged: [Mutate] and [Equivocate] with the identity. *)
let identity_lie = function
  | "flip" | "force-decide" -> Some (fun ~n:_ -> Behaviour.Mutate (fun _ m -> m))
  | "equivocate" -> Some (fun ~n:_ -> Behaviour.Equivocate (fun _ ~dst:_ m -> m))
  | _ -> None

let faulty ~n ~reliable fault =
  battery ~n ~broadcast:false ~lie:(if reliable then agnostic else identity_lie) ~refuse:agnostic_only
    fault

let consensus_lie ~flip ~equivocate ~force = function
  | "flip" -> Some (fun ~n:_ -> Behaviour.Mutate flip)
  | "equivocate" -> Some (fun ~n -> Behaviour.Equivocate (equivocate ~n))
  | "force-decide" -> Some (fun ~n:_ -> Behaviour.Mutate force)
  | _ -> None

(* A broadcast lies about its payload: [garble] for the counted faults,
   E1's [bang] (where the protocol has it) for the named ones. *)
let rbc_lie ~substitute ~equivocate ~garble ?bang lie =
  let mutate corrupt ~n:_ = Behaviour.Mutate (substitute (fun _ v -> corrupt v)) in
  let two_faced corrupt ~n =
    Behaviour.Equivocate
      (equivocate (fun _ ~dst v -> if Node_id.to_int dst < n / 2 then v else corrupt v))
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
  { failed with messages = v.counter "sent"; bytes = v.counter "bytes.sent"; ticks = v.duration }

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

(* E1's verdict: validity, agreement and totality over the honest
   nodes' single deliveries of node 0's [sent]. *)
let broadcast_judge ~value ~equal ~sent ~show v =
  let delivered =
    List.filter_map
      (fun id -> match v.outputs.(Node_id.to_int id) with [ (_, d) ] -> Some (value d) | _ -> None)
      v.honest
  in
  let count = List.length delivered in
  let all = count = List.length v.honest in
  let report i = function
    | [ (time, d) ] -> [ Printf.sprintf "  node %d: delivered %s at t=%d" i (show (value d)) time ]
    | [] -> [ Printf.sprintf "  node %d: no delivery" i ]
    | _ -> []
  in
  ( { (counts v) with decided = all; totality = count = 0 || all;
      agreement = (match delivered with d :: rest -> List.for_all (equal d) rest | [] -> true);
      validity =
        (not (List.exists (Node_id.equal (node 0)) v.honest)) || List.for_all (equal sent) delivered },
    lazy (List.concat (List.mapi report (Array.to_list v.outputs))) )

(* A tiny FNV-1a digest, so payloads and logs compare at a glance. *)
let fnv s =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

module Bracha = struct
  include Abc.Bracha_consensus
  let broadcast = false and recovery = None
  let judge = consensus_judge ~value_of_input
  let lie =
    consensus_lie ~flip:Fault.flip_value ~equivocate:Fault.equivocate_by_half ~force:Fault.force_decide
  let inputs sc ~seed:_ =
    let transport = if sc.plain then Options.Plain else Options.Reliable in
    let coin = Option.value sc.coin ~default:Abc.Coin.local in
    inputs ~n:sc.n ~options:{ Options.coin; validation = sc.validation; transport } (values sc)
end

(* Ben-Or and MMR cannot force a decision: their [force-decide] tells
   the flip lie, as abc-run always has. *)
module Ben_or = struct
  include Abc.Ben_or
  let broadcast = false and recovery = None
  let judge = consensus_judge ~value_of_input
  let lie =
    consensus_lie ~flip:Fault.flip_value ~equivocate:Fault.equivocate_by_half ~force:Fault.flip_value
  let inputs sc ~seed:_ =
    let mode = if sc.crash_mode then Mode.Crash else Mode.Byzantine in
    inputs ~n:sc.n ~mode ~coin:(Option.value sc.coin ~default:Abc.Coin.local) (values sc)
end

module Mmr = struct
  include Abc.Mmr_consensus
  let broadcast = false and recovery = None
  let judge = consensus_judge ~value_of_input
  let lie =
    consensus_lie ~flip:Fault.flip_value ~equivocate:Fault.equivocate_by_half ~force:Fault.flip_value
  let inputs sc ~seed:_ =
    inputs ~n:sc.n ~coin:(Option.value sc.coin ~default:(Abc.Coin.common ~seed:7)) (values sc)
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
  let gc i outputs =
    let line (live, cps, transfers) =
      Printf.sprintf "  replica %d gc: max-live=%d checkpoints=%d transfers=%d" i live cps transfers
    in
    Option.map line (stats_of_outputs outputs)
  let judge sc _ v =
    let crashed = List.map (fun (i, _) -> node i) sc.crash in
    let correct =
      v.honest @ List.filter (fun id -> not (List.exists (Node_id.equal id) v.honest)) crashed
    in
    let logs = List.map (fun id -> log_of_outputs v.outputs.(Node_id.to_int id)) correct in
    let all = Array.to_list v.outputs in
    let recovery () =
      Printf.sprintf "  recovery: crashes=%d recoveries=%d dropped-while-down=%d stale-timers=%d"
        (v.counter "node.crashed") (v.counter "node.recovered") (v.counter "dropped.crashed")
        (v.counter "timer.stale")
      :: List.filter_map Fun.id (List.mapi gc all)
    in
    ( { (counts v) with
        decided = v.stop = Abc_net.Engine.All_terminal && List.for_all Option.is_some logs;
        agreement =
          (match logs with
          | first :: rest -> List.for_all (fun l -> l = None || l = first || first = None) rest
          | [] -> true);
        validity = true; totality = true;
        committed = (match logs with Some l :: _ -> List.length l | _ -> 0) },
      lazy
        (Option.to_list (Option.map (commit_line sc v) (log_of_outputs v.outputs.(0)))
        @ List.mapi replica all
        @ if sc.checkpoint > 0 then recovery () else []) )
end

(* ---- The generic run ---- *)

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

  (* Faults are placed and checked before anything runs; the closure
     runs one seed. *)
  let prepare ~name sc =
    let battery ~lie ~refuse = battery ~n:sc.n ~broadcast:S.broadcast ~lie ~refuse sc.fault in
    let crashes () =
      if Option.is_none S.recovery then []
      else List.map (fun (i, plan) -> (node i, Behaviour.Crash_recover plan)) sc.crash
    in
    if sc.reliable then
      let* faulty = battery ~lie:agnostic ~refuse:agnostic_only in
      Ok (Rl.run sc ~faulty:(faulty @ crashes ()))
    else
      let refuse l = Printf.sprintf "fault %S is not defined for %s" l name in
      let* faulty = battery ~lie:S.lie ~refuse in
      let recovery = Option.map (fun (snapshot, restore) -> { Raw.E.snapshot; restore }) S.recovery in
      Ok (Raw.run ?recovery sc ~faulty:(faulty @ crashes ()))
end

type entry = {
  name : string;
  cls : string;
  prepare :
    scenario -> (seed:int -> trace:Abc_sim.Trace.t option -> (run, string) result, string) result;
}

let entry ?(preset = Fun.id) name cls (module S : SUBJECT) =
  let module M = Make (S) in
  { name; cls; prepare = (fun sc -> M.prepare ~name (preset sc)) }

let entries =
  let common sc = { sc with coin = Some (Option.value sc.coin ~default:(Abc.Coin.common ~seed:7)) } in
  [ entry "bracha" "n>3f" (module Bracha);
    entry "bracha-cc" "n>3f" (module Bracha) ~preset:common;
    entry "bracha-rl" "n>3f" (module Bracha) ~preset:(fun sc -> { sc with reliable = true });
    entry "ben-or" "n>5f" (module Ben_or);
    entry "mmr" "n>3f" (module Mmr);
    entry "bracha-rbc" "n>3f" (module Bracha_rbc);
    entry "bracha-rbc-bit" "n>3f" (module Bit_rbc);
    entry "coded-rbc" "n>3f" (module Coded_rbc);
    entry "ir-rbc" "n>5f" (module Ir_rbc);
    entry "atomic" "n>3f" (module Atomic) ]

let find protocol = List.find_opt (fun e -> String.equal e.name protocol) entries

let resilience protocol =
  Option.map (fun e -> (e.cls, fun n -> (n - 1) / if e.cls = "n>5f" then 5 else 3)) (find protocol)

let unknown_protocol p =
  Printf.sprintf "unknown protocol %S (%s)" p (String.concat " | " (List.map (fun e -> e.name) entries))

let check_token ~axis tok =
  let known r = Result.map ignore r in
  match axis with
  | "protocol" -> if find tok = None then Error (unknown_protocol tok) else Ok ()
  | "adversary" -> known (adversary tok)
  | "fault" -> known (fault tok)
  | "topology" -> known (topology tok)
  | "inputs" -> known (inputs tok)
  | "crash" -> known (crash tok)
  | _ -> Ok ()

(* The checks across axes: node ids below n, graphs that exist at n,
   probabilities, and the protocol's fault battery. *)
let prepare sc =
  let fail axis fmt = Printf.ksprintf (fun msg -> Error (axis, msg)) fmt in
  let below axis ids =
    match List.find_opt (fun i -> i >= sc.n) ids with
    | Some i -> fail axis "%s names node %d, but n=%d" axis i sc.n
    | None -> Ok ()
  in
  let prob axis p = if p >= 0. && p <= 1. then Ok () else fail axis "%s %g is not in [0,1]" axis p in
  let* e = Option.to_result ~none:("protocol", unknown_protocol sc.protocol) (find sc.protocol) in
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
  Result.map_error (fun msg -> ("fault", msg)) (e.prepare sc)

let check sc = Result.map ignore (prepare sc)

let run ?trace sc ~seed =
  match prepare sc with Ok go -> go ~seed ~trace | Error (_, msg) -> Error msg
