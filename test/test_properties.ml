(* The randomized campaign suite: one scenario vocabulary (size,
   resilience, fault placement and kind, scheduler, inputs, optional
   lossy links), one campaign runner, one subject functor applied once
   per protocol in the library, and one judge per promise.  A row is a
   subject, a scenario generator and a count.  Each protocol is held to
   what it actually promises: totality for the reliable broadcasts
   (Bracha, erasure-coded, Imbs-Raynal) but not for consistent
   broadcast, full consensus for Bracha/Ben-Or/MMR,
   agreement-or-joint-fallback for Turpin–Coan, identical common
   subsets for ACS over either proposal broadcast (Bracha's and the
   erasure-coded one), one ledger for the atomic broadcast.

   Rows run on the Exec.Pool at jobs > 1 on purpose: scenarios are
   generated up front on the main domain from a pinned seed
   (QCHECK_SEED, default 421984) and evaluated concurrently, so the
   suite doubles as a standing check that concurrent engine runs do not
   interfere with each other.  Each job builds its own engine from its
   scenario, so the worker count never changes which scenarios run or
   how they behave. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
module Engine = Abc_net.Engine
module Link_faults = Abc_net.Link_faults
module Value = Abc.Value
module Pool = Abc_exec.Pool

let node = Node_id.of_int

(* At least two workers even on a single-core machine: correctness
   under concurrent evaluation is the point, speed is a bonus. *)
let pool = Pool.create ~jobs:(max 2 (Pool.default_jobs ())) ()

let battery_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some seed -> seed
  | None -> 421984

(* ---- campaign runner ---- *)

(* Generate [count] scenarios sequentially (Random.State is not domain
   safe), evaluate them on the pool, and report every failing scenario
   so a red run is replayable without shrinking. *)
let campaign ~name ~count gen print prop =
  Alcotest.test_case name `Slow (fun () ->
      let rand = Random.State.make [| battery_seed |] in
      let scenarios = List.init count (fun _ -> QCheck.Gen.generate1 ~rand gen) in
      let verdicts = Pool.map_list pool (fun s -> prop s) scenarios in
      let failures =
        List.filter_map
          (fun (s, ok) -> if ok then None else Some (print s))
          (List.combine scenarios verdicts)
      in
      if failures <> [] then
        Alcotest.failf "%d/%d scenarios failed (QCHECK_SEED=%d): %s"
          (List.length failures) count battery_seed
          (String.concat " " failures))

(* ---- scenario vocabulary ---- *)

(* How the faulty nodes misbehave.  The lies are forged by the
   protocol under test; Recover nodes crash and rejoin from their
   durable store, and count as correct. *)
type fault =
  | Silent
  | Crash of int  (** fail-stop after [seed mod k] activations *)
  | Flip  (** the same lie to every recipient *)
  | Equivocate  (** a different lie per recipient *)
  | Corrupt  (** honest for 3 activations, then Flip *)
  | Recover of (int * int) list list  (** a crash/rejoin schedule per victim *)

(* An atomic-broadcast workload: [txs] client transactions of
   [tx_bytes] each per mempool, [epochs] batches of [batch], a
   checkpoint every [checkpoint] epochs (0: none). *)
type log = { batch : int; epochs : int; txs : int; tx_bytes : int; checkpoint : int }

(* What the nodes start from.  Binary subjects read the patterns as
   all-Zero, all-One and split at n/2; the others map them onto their
   own domain. *)
type inputs = Zeros | Ones | Split | Bytes of int  (** payload length *) | Log of log

(* Bounded loss and duplication plus an optional partition.  Cuts
   always heal: a link that stays dead defeats any transport, so
   permanent cuts belong to the targeted tests, not a liveness
   campaign. *)
type links = {
  loss_pct : int;
  dup_pct : int;
  cut : (int * int * int) option; (* from, length, island node *)
  raw : bool; (* no Reliable_link under the plan: only safety is owed *)
}

type scenario = {
  n : int;
  f : int;
  faults : int; (* faulty nodes, the highest ids *)
  fault : fault;
  adversary : string; (* a [schedulers] name *)
  inputs : inputs;
  links : links option; (* carried by Reliable_link unless [raw] *)
  budget : int option; (* delivery budget; [None] is the engine's default *)
  seed : int;
}

(* Every row that draws a scheduler draws from this table, so a new
   one is one line here.  fifo, uniform and latency starve no proposer,
   which the ledger's inclusion check relies on. *)
let schedulers =
  [
    ("fifo", fun _ -> Adversary.fifo);
    ("uniform", fun _ -> Adversary.uniform);
    ("latency", fun _ -> Adversary.latency ~mean:6.);
    ("targeted", fun _ -> Adversary.targeted_delay ~victims:[ node 0 ]);
    ("split", fun n -> Adversary.split ~n);
    ("eclipse", fun n -> Adversary.rotating_eclipse ~n ~period:5);
  ]

let plan_of l =
  let cuts =
    match l.cut with
    | None -> []
    | Some (from_tick, len, v) ->
      [ Link_faults.cut ~from_tick ~until_tick:(from_tick + len) [ node v ] ]
  in
  Link_faults.make
    ~drop:(float_of_int l.loss_pct /. 100.)
    ~dup:(float_of_int l.dup_pct /. 100.)
    ~cuts ()

let print_scenario s =
  let pairs plan = List.map (fun (c, r) -> Printf.sprintf "%d-%d" c r) plan in
  let fault =
    match s.fault with
    | Silent -> "silent"
    | Crash k -> Printf.sprintf "crash@%d" (s.seed mod k)
    | Flip -> "flip"
    | Equivocate -> "equivocate"
    | Corrupt -> "corrupt@3"
    | Recover plans ->
      "recover:" ^ String.concat ";" (List.map (fun p -> String.concat "," (pairs p)) plans)
  in
  let inputs =
    match s.inputs with
    | Zeros -> "zeros"
    | Ones -> "ones"
    | Split -> "split"
    | Bytes k -> Printf.sprintf "%dB" k
    | Log l ->
      Printf.sprintf "log:%dx%d,%dx%dB,ckpt%d" l.epochs l.batch l.txs l.tx_bytes l.checkpoint
  in
  let links =
    match s.links with
    | None -> "clean"
    | Some l ->
      Printf.sprintf "%s%d%%/%d%%%s" (if l.raw then "raw:" else "") l.loss_pct l.dup_pct
        (match l.cut with
        | None -> ""
        | Some (a, len, v) -> Printf.sprintf "+cut[%d,%d)@%d" a (a + len) v)
  in
  Printf.sprintf "{n=%d f=%d faults=%d %s adv=%s inputs=%s links=%s budget=%s seed=%d}" s.n s.f
    s.faults fault s.adversary inputs links
    (Option.fold ~none:"default" ~some:string_of_int s.budget)
    s.seed

(* ---- generators ---- *)

(* Each generator keeps the draw order, combinators and ranges of the
   campaign it came from, so a row samples the same scenarios at a
   given QCHECK_SEED whichever suite it once lived in. *)

let scheduler =
  QCheck.Gen.(map (fun i -> fst (List.nth schedulers i)) (int_range 0 (List.length schedulers - 1)))

let pattern = QCheck.Gen.(map (fun i -> [| Zeros; Ones; Split |].(i)) (int_range 0 2))

let crash_or_silent silent = if silent then Silent else Crash 7

(* Silent or crashing faults under any scheduler; half the scenarios
   get lossy links, carried by Reliable_link under [budget]. *)
let battery_gen ?(budget = 4_000_000) ~max_n ~max_loss ~max_f () =
  QCheck.Gen.(
    int_range 4 max_n >>= fun n ->
    int_range 0 (max 0 (max_f ~n)) >>= fun f ->
    int_range 0 f >>= fun faults ->
    bool >>= fun silent ->
    scheduler >>= fun adversary ->
    pattern >>= fun inputs ->
    bool >>= fun lossy ->
    int_range 0 max_loss >>= fun loss_pct ->
    int_range 0 ((max_loss * 2) / 3) >>= fun dup_pct ->
    bool >>= fun with_cut ->
    int_range 0 40 >>= fun cut_from ->
    int_range 1 150 >>= fun cut_len ->
    int_range 0 (n - 1) >>= fun cut_node ->
    int_range 0 1000 >>= fun seed ->
    let cut = if with_cut then Some (cut_from, cut_len, cut_node) else None in
    return
      {
        n;
        f;
        faults;
        fault = crash_or_silent silent;
        adversary;
        inputs;
        links = (if lossy then Some { loss_pct; dup_pct; cut; raw = false } else None);
        budget = (if lossy then Some budget else None);
        seed;
      })

(* Any of [kinds] under any scheduler on clean links. *)
let chaos_gen ~max_f ~kinds =
  QCheck.Gen.(
    int_range 4 10 >>= fun n ->
    int_range 0 (max 0 (max_f ~n)) >>= fun f ->
    int_range 0 f >>= fun faults ->
    int_range 0 (Array.length kinds - 1) >>= fun kind ->
    scheduler >>= fun adversary ->
    pattern >>= fun inputs ->
    int_range 0 1000 >>= fun seed ->
    return
      { n; f; faults; fault = kinds.(kind); adversary; inputs; links = None; budget = None; seed })

let lying = [| Silent; Crash 7; Flip; Equivocate; Corrupt |]

(* ACS's message type is abstract, so its faults stay message-agnostic:
   lie-free kinds in the same five slots. *)
let benign = [| Silent; Crash 5; Silent; Crash 5; Silent |]

(* Silent or crashing faults under the uniform scheduler on lossy links
   with split inputs.  [over] is the Reliable_link delivery budget, or
   [None] for the raw transport under the engine's default budget. *)
let lossy_gen ~max_n ~max_pct ~over =
  QCheck.Gen.(
    int_range 4 max_n >>= fun n ->
    int_range 0 ((n - 1) / 3) >>= fun f ->
    int_range 0 f >>= fun faults ->
    bool >>= fun silent ->
    int_range 0 max_pct >>= fun loss_pct ->
    int_range 0 max_pct >>= fun dup_pct ->
    bool >>= fun with_cut ->
    int_range 0 50 >>= fun cut_from ->
    int_range 1 200 >>= fun cut_len ->
    int_range 0 (n - 1) >>= fun cut_node ->
    int_range 0 1000 >>= fun seed ->
    let cut = if with_cut then Some (cut_from, cut_len, cut_node) else None in
    return
      {
        n;
        f;
        faults;
        fault = crash_or_silent silent;
        adversary = "uniform";
        inputs = Split;
        links = Some { loss_pct; dup_pct; cut; raw = Option.is_none over };
        budget = over;
        seed;
      })

(* Random crash/rejoin schedules for the checkpointed atomic broadcast
   under the uniform scheduler on clean links. *)
let crash_gen =
  QCheck.Gen.(
    int_range 4 7 >>= fun n ->
    let f = (n - 1) / 3 in
    int_range 1 f >>= fun victims ->
    int_range 1 3 >>= fun checkpoint ->
    int_range 3 4 >>= fun epochs ->
    int_range 0 1000 >>= fun seed ->
    (* Schedules may outlive the run: a crash scheduled after the last
       commit still executes (the engine keeps a run alive while
       transitions are pending), and the rejoined replica must finish
       from its durable log or via transfer from terminal peers. *)
    let pair lo span =
      int_range lo (lo + span) >>= fun crash ->
      int_range (crash + 100) (crash + 5000) >>= fun rejoin ->
      return (crash, rejoin)
    in
    list_repeat victims
      ( int_range 1 2 >>= fun pairs ->
        pair 20 3000 >>= fun (c1, r1) ->
        if pairs = 1 then return [ (c1, r1) ]
        else pair (r1 + 50) 2000 >>= fun p2 -> return [ (c1, r1); p2 ] )
    >>= fun plans ->
    return
      {
        n;
        f;
        faults = victims;
        fault = Recover plans;
        adversary = "uniform";
        inputs = Log { batch = 2; epochs; txs = 2 * epochs; tx_bytes = 16; checkpoint };
        links = None;
        budget = Some 12_000_000;
        seed;
      })

(* Pins a row's inputs without drawing anything. *)
let pin inputs gen = QCheck.Gen.map (fun s -> { s with inputs = inputs s }) gen

(* ---- subjects ---- *)

(* A protocol's forgeries behind Flip, Equivocate and Corrupt. *)
type 'msg lies = {
  flip : Abc_prng.Stream.t -> 'msg -> 'msg;
  equivocate : Abc_prng.Stream.t -> dst:Node_id.t -> 'msg -> 'msg;
}

let faulty_of s lies =
  let lie () = match lies with Some l -> l | None -> invalid_arg "fault needs a protocol lie" in
  List.init s.faults (fun k ->
      ( node (s.n - 1 - k),
        match s.fault with
        | Silent -> Behaviour.Silent
        | Crash m -> Behaviour.Crash_after (s.seed mod m)
        | Flip -> Behaviour.Mutate (lie ()).flip
        | Equivocate -> Behaviour.Equivocate (lie ()).equivocate
        | Corrupt -> Behaviour.Corrupt_after (3, Behaviour.Mutate (lie ()).flip)
        | Recover plans -> Behaviour.Crash_recover (List.nth plans k) ))

(* The nodes a judge holds to the promise. *)
let correct s =
  List.init (match s.fault with Recover _ -> s.n | _ -> s.n - s.faults) Fun.id

module type SUBJECT = sig
  include Abc_net.Protocol.S

  val inputs : scenario -> input array

  val lies : scenario -> msg lies option

  (* How a Recover node comes back: snapshot and restore. *)
  val recovery :
    ((state -> string)
    * (Abc_net.Protocol.Context.t ->
      input ->
      durable:string ->
      state * msg Abc_net.Protocol.action list * output list))
    option

  val judge : scenario -> input array -> (int * output) list array -> Engine.stop_reason -> bool
end

(* Builds the protocol's raw and Reliable_link engines once; [check]
   places a scenario's faults, runs it and judges the outcome.  Lies
   need the protocol's own message type, so they go on the raw
   transport only. *)
module Subject (P : SUBJECT) = struct
  module Raw = Engine.Make (P)
  module Rl = Engine.Make (Abc_net.Reliable_link.Make (P))

  let check s =
    let inputs = P.inputs s in
    let adversary = List.assoc s.adversary schedulers s.n in
    let link_faults = Option.map plan_of s.links in
    match s.links with
    | Some { raw = false; _ } ->
      let r =
        Rl.run
          (Rl.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s None) ~adversary ~seed:s.seed
             ?link_faults ?max_deliveries:s.budget ())
      in
      P.judge s inputs r.Rl.outputs r.Rl.stop
    | None | Some { raw = true; _ } ->
      let recovery =
        Option.map (fun (snapshot, restore) -> { Raw.snapshot; restore }) P.recovery
      in
      let r =
        Raw.run
          (Raw.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s (P.lies s)) ~adversary
             ~seed:s.seed ?link_faults ?max_deliveries:s.budget ?recovery ())
      in
      P.judge s inputs r.Raw.outputs r.Raw.stop
end

(* No lies (an abstract message type) and no durable store. *)
module Plain = struct
  let lies _ = None

  let recovery = None
end

(* ---- judges: one per promise ---- *)

(* Broadcast from node 0, which faults never reach.  With [totality],
   every correct node delivers the sent value exactly once and the run
   ends All_terminal.  Without it (consistent broadcast), every
   delivery carries the sent value and who delivers is free. *)
let broadcast ~totality ~sent ~delivered s inputs outputs stop =
  let v = sent inputs.(0) in
  if totality then
    stop = Engine.All_terminal
    && List.for_all
         (fun i -> match outputs.(i) with [ (_, o) ] -> delivered o = v | _ -> false)
         (correct s)
  else List.for_all (fun i -> List.for_all (fun (_, o) -> delivered o = v) outputs.(i)) (correct s)

(* Termination, agreement and validity over the correct nodes.  A lossy
   network without the transport may (and does) kill liveness, but it
   must never break safety: whichever nodes decide still agree, and
   validity still binds decisions to correct inputs. *)
let consensus value_of_input s inputs outputs stop =
  let v =
    Abc.Harness.judge ~value_of_input ~inputs ~honest:(List.map node (correct s)) ~stop
      ~outputs ~messages:0 ~deliveries:0 ~duration:0
  in
  match s.links with
  | Some { raw = true; _ } -> v.Abc.Harness.agreement && v.Abc.Harness.validity
  | _ -> Abc.Harness.ok v

(* Every correct node outputs the same subset, with at least n - f
   entries, each the proposal its node made. *)
let common_subset ~proposal ~subset s inputs outputs stop =
  let correct = correct s in
  stop = Engine.All_terminal
  &&
  let subsets =
    List.filter_map
      (fun i -> match outputs.(i) with [ (_, o) ] -> Some (subset o) | _ -> None)
      correct
  in
  List.length subsets = List.length correct
  &&
  match subsets with
  | [] -> false
  | first :: rest ->
    List.for_all (( = ) first) rest
    && List.length first >= s.n - s.f
    && List.for_all (fun (j, v) -> v = proposal inputs.(Node_id.to_int j)) first

(* ---- the protocols ---- *)

let bit s = if s.inputs = Ones then Value.One else Value.Zero

let binary_values s =
  match s.inputs with
  | Zeros -> Array.make s.n Value.Zero
  | Ones -> Array.make s.n Value.One
  | _ -> Array.init s.n (fun i -> if i < s.n / 2 then Value.Zero else Value.One)

module Rbc_args = struct
  include Abc.Bracha_rbc.Binary
  include Plain

  let inputs s = inputs ~n:s.n ~sender:(node 0) (bit s)

  let judge =
    broadcast ~totality:true ~sent:(fun i -> Option.get i.payload) ~delivered:(fun (Delivered v) -> v)
end

module Rbc = Subject (Rbc_args)

module Cb_args = struct
  include Abc.Consistent_broadcast.Binary
  include Plain

  let inputs s = inputs ~n:s.n ~sender:(node 0) (bit s)

  let judge =
    broadcast ~totality:false ~sent:(fun i -> Option.get i.payload)
      ~delivered:(fun (Delivered v) -> v)
end

module Cb = Subject (Cb_args)

(* Same promise as Bracha's RBC, different wire format: the payload is
   a byte string dispersed as Reed-Solomon fragments, so the judge also
   asserts it survives reconstruction bit-for-bit. *)
module Coded_args = struct
  include Abc.Coded_rbc

  let inputs s =
    let length = match s.inputs with Zeros -> 1 | Ones -> 64 | Bytes k -> k | _ -> 777 in
    inputs ~n:s.n ~sender:(node 0)
      (String.init length (fun i -> Char.chr ((s.seed + (13 * i)) land 0xFF)))

  let lies _ = Some { flip = Fault.tamper; equivocate = Fault.equivocate }

  let recovery = None

  let judge =
    broadcast ~totality:true ~sent:(fun i -> Option.get i.payload) ~delivered:(fun (Delivered p) -> p)
end

module Coded = Subject (Coded_args)

module Ir_args = struct
  include Abc.Ir_rbc.Binary

  let inputs s = inputs ~n:s.n ~sender:(node 0) (bit s)

  let lies s =
    let two_faced _rng ~dst v = if Node_id.to_int dst < s.n / 2 then v else Value.negate v in
    Some { flip = Fault.substitute (fun _ v -> Value.negate v); equivocate = Fault.equivocate two_faced }

  let recovery = None

  let judge =
    broadcast ~totality:true ~sent:(fun i -> Option.get i.payload) ~delivered:(fun (Delivered v) -> v)
end

module Ir = Subject (Ir_args)

module Bracha_args = struct
  include Abc.Bracha_consensus

  let inputs s = inputs ~n:s.n ~options:Options.default (binary_values s)

  let lies s = Some { flip = Fault.flip_value; equivocate = Fault.equivocate_by_half ~n:s.n }

  let recovery = None

  let judge = consensus value_of_input
end

module Bracha = Subject (Bracha_args)

module Benor_args = struct
  include Abc.Ben_or

  let inputs s = inputs ~n:s.n ~mode:Mode.Byzantine ~coin:Abc.Coin.local (binary_values s)

  let lies s = Some { flip = Fault.flip_value; equivocate = Fault.equivocate_by_half ~n:s.n }

  let recovery = None

  let judge = consensus value_of_input
end

module Benor = Subject (Benor_args)

module Mmr_args = struct
  include Abc.Mmr_consensus

  let inputs s = inputs ~n:s.n ~coin:(Abc.Coin.common ~seed:9) (binary_values s)

  let lies s = Some { flip = Fault.flip_value; equivocate = Fault.equivocate_by_half ~n:s.n }

  let recovery = None

  let judge = consensus value_of_input
end

module Mmr = Subject (Mmr_args)

module Mmr_rabin_args = struct
  include Mmr_args

  let inputs s = Abc.Mmr_consensus.inputs_with_shared_coin ~n:s.n ~f:s.f ~seed:9 (binary_values s)
end

module Mmr_rabin = Subject (Mmr_rabin_args)

module TC = Abc.Turpin_coan.Make (Abc.Payloads.Int_payload)

module Turpin_args = struct
  include TC
  include Plain

  (* Two unanimous patterns and one fully split. *)
  let inputs s =
    inputs ~n:s.n ~coin:Abc.Coin.local
      (match s.inputs with
      | Zeros -> Array.make s.n 7
      | Ones -> Array.make s.n 9
      | _ -> Array.init s.n (fun i -> 100 + i))

  (* One outcome at every correct node; an agreed value was proposed;
     a unanimous input is agreed, never fallen back on. *)
  let judge s inputs outputs stop =
    let correct = correct s in
    stop = Engine.All_terminal
    &&
    let outcomes =
      List.filter_map (fun i -> match outputs.(i) with [ (_, o) ] -> Some o | _ -> None) correct
    in
    List.length outcomes = List.length correct
    &&
    match outcomes with
    | [] -> false
    | first :: rest ->
      List.for_all (( = ) first) rest
      &&
      (match first with
      | Agreed w -> Array.exists (fun i -> i.value = w) inputs
      | Fallback -> s.inputs = Split)
end

module Turpin = Subject (Turpin_args)

module Acs_args = struct
  include Abc.Acs.Make (Abc.Payloads.Int_payload)
  include Plain

  let inputs s = inputs ~n:s.n ~coin:Abc.Coin.local (Array.init s.n (fun i -> 100 + i))

  let judge = common_subset ~proposal:(fun i -> i.proposal) ~subset:(fun (Accepted l) -> l)
end

module Acs = Subject (Acs_args)

module Batch_acs_args = struct
  include Abc.Batch_acs
  include Plain

  let inputs s =
    inputs ~n:s.n ~coin:Abc.Coin.local
      (Array.init s.n (fun i -> Printf.sprintf "batch-%d:%s" i (String.make (8 * i) 'x')))

  let judge = common_subset ~proposal:(fun i -> i.proposal) ~subset:(fun (Accepted l) -> l)
end

module Batch_acs = Subject (Batch_acs_args)

module Atomic = Abc_smr.Atomic_broadcast

let atomic_inputs s =
  match s.inputs with
  | Log l ->
    Atomic.inputs ~n:s.n ~window:2 ~checkpoint_interval:l.checkpoint ~batch_size:l.batch
      ~epochs:l.epochs ~coin_seed:(s.seed + 7919)
      (Array.init s.n (fun i ->
           Abc_smr.Workload.txs
             (Abc_smr.Workload.generate ~seed:s.seed ~node:(node i) ~count:l.txs ~rate:0.2
                ~tx_bytes:l.tx_bytes)))
  | _ -> invalid_arg "atomic broadcast runs a Log workload"

module Ledger_args = struct
  include Atomic

  let inputs = atomic_inputs

  let lies _ = None

  let recovery = Some (snapshot, restore)

  (* Complete, identical logs at the correct nodes, no duplicate tx,
     every tx some client's.  Censorship inclusion: under fault-free
     fair scheduling on clean links, every correct node's transactions
     commit within the run's epochs.  Unfair schedulers (targeted,
     split, eclipse) may legitimately starve a proposer — full
     resistance needs threshold-encrypted batches, which is out of
     scope (see PROTOCOLS.md). *)
  let judge s inputs outputs stop =
    let correct = correct s in
    stop = Engine.All_terminal
    &&
    let logs = List.filter_map (fun i -> log_of_outputs outputs.(i)) correct in
    List.length logs = List.length correct
    &&
    match logs with
    | [] -> false
    | first :: rest ->
      let offered = Array.to_list inputs |> List.concat_map (fun i -> Array.to_list i.mempool) in
      List.for_all (( = ) first) rest
      && List.length first = List.length (List.sort_uniq String.compare first)
      && List.for_all (fun tx -> List.mem tx offered) first
      && (s.faults > 0 || s.links <> None
         || not (List.mem s.adversary [ "fifo"; "uniform"; "latency" ])
         || Array.for_all (fun i -> Array.for_all (fun tx -> List.mem tx first) i.mempool) inputs)
end

module Ledger = Subject (Ledger_args)
(* ---- trace decoder totality ---- *)

(* Mutations of test/golden/dup_trace.jsonl.  [Trace_file.of_string]
   must never raise on any of them, and must agree with [reference], a
   decoder restated over [Json.of_string] line by line: the same
   header and entries, or two errors that say the same place
   ([header: ...] or [line N: ...]).  Edits that keep the meaning
   (whitespace between tokens, [\u] escapes, reordered fields, a field
   repeated after its first occurrence, unknown fields, leading zeros
   on an int) must decode to the golden's entries. *)
module Json = Abc_sim.Json
module Event = Abc_sim.Event
module Trace = Abc_sim.Trace
module Trace_file = Abc_sim.Trace_file

let golden_trace =
  lazy
    (In_channel.with_open_bin "golden/dup_trace.jsonl" In_channel.input_all)

type mutation =
  | Truncate of int  (** keep the first [k] bytes *)
  | Flip of int * int  (** set byte [k] to [v] *)
  | Drop_field of int * int  (** line, field index *)
  | Add_field of int * int * int  (** line, position, extra-value index *)
  | Retype of int * int * int  (** line, field index, extra-value index *)
  | Space of int * int * int  (** line, token boundary, whitespace index *)
  | Escape of int * int * bool  (** line, string byte, upper-case hex *)
  | Repeat_after of int * int * int  (** line, field, gap: a copy with another value after it *)
  | Repeat_before of int * int  (** line, field: a copy with another value just before it *)
  | Reorder of int * int  (** line, rotation *)
  | Int_form of int * int * int  (** line, number lexeme, rewrite *)

let extra_values =
  [|
    Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Null ]) ];
    Json.List [ Json.Int 1; Json.String "x,\"y\"}"; Json.Obj [] ];
    Json.Float 2.5;
    Json.Float (-1e-7);
    Json.Bool true;
    Json.Bool false;
    Json.Null;
    Json.List [];
  |]

let whitespace = [| " "; "\t"; "\r"; " \t\r  " |]

(* An int lexeme rewritten: a leading [+], leading zeros, 19 digits
   (zero-padded, [max_int], [max_int + 1]), an exponent, a fraction. *)
let int_forms = 8

let int_form lexeme form =
  let sign, digits =
    if String.length lexeme > 0 && Char.equal lexeme.[0] '-' then
      ("-", String.sub lexeme 1 (String.length lexeme - 1))
    else ("", lexeme)
  in
  match form with
  | 0 -> "+" ^ lexeme
  | 1 -> sign ^ "00" ^ digits
  | 2 -> sign ^ String.make (max 0 (19 - String.length digits)) '0' ^ digits
  | 3 -> string_of_int max_int
  | 4 -> "4611686018427387904"
  | 5 -> lexeme ^ "e0"
  | 6 -> lexeme ^ ".0"
  | _ -> lexeme ^ "E+1"

let mutation_gen =
  let size = String.length (Lazy.force golden_trace) in
  QCheck.Gen.(
    (* one edit in ten lands on the header *)
    let line = frequency [ (1, return 0); (9, int_range 1 1200) ] in
    let extra = int_range 0 (Array.length extra_values - 1) in
    list_size (int_range 1 3)
      (oneof
         [
           map (fun k -> Truncate k) (int_range 0 size);
           map2 (fun k v -> Flip (k, v)) (int_range 0 (size - 1)) (int_range 0 255);
           map2 (fun l j -> Drop_field (l, j)) line (int_range 0 12);
           map3 (fun l j v -> Add_field (l, j, v)) line (int_range 0 12) extra;
           map3 (fun l j v -> Retype (l, j, v)) line (int_range 0 12) extra;
           map3
             (fun l k w -> Space (l, k, w))
             line (int_range 0 40)
             (int_range 0 (Array.length whitespace - 1));
           map3 (fun l k upper -> Escape (l, k, upper)) line (int_range 0 120) bool;
           map3 (fun l j g -> Repeat_after (l, j, g)) line (int_range 0 12) (int_range 0 12);
           map2 (fun l j -> Repeat_before (l, j)) line (int_range 0 12);
           map2 (fun l k -> Reorder (l, k)) line (int_range 1 12);
           map3 (fun l k form -> Int_form (l, k, form)) line (int_range 0 12) (int_range 0 (int_forms - 1));
         ]))

let print_mutation = function
  | Truncate k -> Printf.sprintf "truncate %d" k
  | Flip (k, v) -> Printf.sprintf "flip %d=%d" k v
  | Drop_field (l, j) -> Printf.sprintf "drop %d.%d" l j
  | Add_field (l, j, v) -> Printf.sprintf "add %d.%d=%d" l j v
  | Retype (l, j, v) -> Printf.sprintf "retype %d.%d=%d" l j v
  | Space (l, k, w) -> Printf.sprintf "space %d.%d=%S" l k whitespace.(w)
  | Escape (l, k, upper) -> Printf.sprintf "escape %d.%d%s" l k (if upper then " upper" else "")
  | Repeat_after (l, j, g) -> Printf.sprintf "repeat %d.%d+%d" l j g
  | Repeat_before (l, j) -> Printf.sprintf "repeat %d.%d first" l j
  | Reorder (l, k) -> Printf.sprintf "rotate %d by %d" l k
  | Int_form (l, k, form) -> Printf.sprintf "int %d.%d form %d" l k form

let print_mutations ms = "[" ^ String.concat "; " (List.map print_mutation ms) ^ "]"

(* Leading zeros (forms 1 and 2) keep an int's value whatever its
   sign; they pin the reading of numbers that [Json] shares with the
   reference. *)
let keeps_meaning = function
  | Add_field _ | Space _ | Escape _ | Repeat_after _ | Reorder _ -> true
  | Int_form (_, _, form) -> form = 1 || form = 2
  | Truncate _ | Flip _ | Drop_field _ | Retype _ | Repeat_before _ -> false

(* Rewrites line [l] of [text] with [f]. *)
let map_line text l f =
  let lines = String.split_on_char '\n' text in
  String.concat "\n"
    (List.mapi (fun i line -> if i <> l mod List.length lines then line else f line) lines)

(* Rewrites one line's object through [Json]; a line that is not an
   object (already mangled) is left alone. *)
let edit_line text l f =
  map_line text l (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj fields) -> Json.to_string (Json.Obj (f fields))
      | Ok _ | Error _ -> line)

(* The raw bytes of a line, outside [Json]: the offsets of structural
   characters outside strings, of the string bytes that are not part
   of an escape, and of the number lexemes, as (start, stop). *)
let scan_raw line =
  let structural = ref [] and plain = ref [] and numbers = ref [] in
  let len = String.length line in
  let in_string = ref false and escape = ref 0 and i = ref 0 in
  while !i < len do
    let c = line.[!i] in
    if !in_string then begin
      if !escape > 0 then begin
        if !escape = 1 && Char.equal c 'u' then escape := 5;
        decr escape
      end
      else if Char.equal c '\\' then escape := 1
      else if Char.equal c '"' then in_string := false
      else plain := !i :: !plain;
      incr i
    end
    else begin
      (match c with
      | '"' -> in_string := true
      | '{' | '}' | '[' | ']' | ':' | ',' -> structural := !i :: !structural
      | _ -> ());
      (match c with
      | '0' .. '9' | '-' | '+' ->
        let start = !i in
        while
          !i < len
          && match line.[!i] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr i
        done;
        numbers := (start, !i) :: !numbers
      | _ -> incr i)
    end
  done;
  (List.rev !structural, List.rev !plain, List.rev !numbers)

let nth_mod l k = List.nth l (k mod List.length l)

(* A value of the same field that decodes differently. *)
let other_value = function
  | Json.Int i -> Json.Int (i + 1)
  | Json.String s -> Json.String (s ^ "~")
  | Json.Null -> Json.Bool true
  | _ -> Json.Null

let apply text = function
  | Truncate k -> String.sub text 0 (min k (String.length text))
  | Flip (k, v) ->
    if String.length text = 0 then text
    else
      String.mapi
        (fun i c -> if i = k mod String.length text then Char.chr v else c)
        text
  | Drop_field (l, j) ->
    edit_line text l (fun fields ->
        let j = j mod max 1 (List.length fields) in
        List.filteri (fun i _ -> i <> j) fields)
  | Add_field (l, j, v) ->
    edit_line text l (fun fields ->
        let j = j mod (List.length fields + 1) in
        let extra = (Printf.sprintf "extra%d" v, extra_values.(v)) in
        List.filteri (fun i _ -> i < j) fields
        @ (extra :: List.filteri (fun i _ -> i >= j) fields))
  | Retype (l, j, v) ->
    edit_line text l (fun fields ->
        let j = j mod max 1 (List.length fields) in
        List.mapi (fun i (name, value) -> (name, if i = j then extra_values.(v) else value)) fields)
  | Space (l, k, w) ->
    map_line text l (fun line ->
        match scan_raw line with
        | [], _, _ -> line
        | structural, _, _ ->
          (* before or after a structural character *)
          let at = nth_mod structural (k / 2) + (k mod 2) in
          String.sub line 0 at ^ whitespace.(w) ^ String.sub line at (String.length line - at))
  | Escape (l, k, upper) ->
    map_line text l (fun line ->
        match scan_raw line with
        | _, [], _ -> line
        | _, plain, _ ->
          let at = nth_mod plain k in
          let code = Char.code line.[at] in
          String.sub line 0 at
          ^ (if upper then Printf.sprintf "\\u%04X" code else Printf.sprintf "\\u%04x" code)
          ^ String.sub line (at + 1) (String.length line - at - 1))
  | Repeat_after (l, j, g) ->
    edit_line text l (fun fields ->
        match fields with
        | [] -> fields
        | _ ->
          let len = List.length fields in
          let j = j mod len in
          let at = j + 1 + (g mod (len - j)) in
          let name, value = List.nth fields j in
          List.filteri (fun i _ -> i < at) fields
          @ ((name, other_value value) :: List.filteri (fun i _ -> i >= at) fields))
  | Repeat_before (l, j) ->
    edit_line text l (fun fields ->
        match fields with
        | [] -> fields
        | _ ->
          let j = j mod List.length fields in
          let name, value = List.nth fields j in
          List.filteri (fun i _ -> i < j) fields
          @ ((name, other_value value) :: List.filteri (fun i _ -> i >= j) fields))
  | Reorder (l, k) ->
    edit_line text l (fun fields ->
        let names = List.map fst fields in
        (* a repeated key stays behind its first occurrence *)
        if List.length (List.sort_uniq String.compare names) < List.length names then fields
        else
          let k = k mod max 1 (List.length fields) in
          List.filteri (fun i _ -> i >= k) fields @ List.filteri (fun i _ -> i < k) fields)
  | Int_form (l, k, form) ->
    map_line text l (fun line ->
        match scan_raw line with
        | _, _, [] -> line
        | _, _, numbers ->
          let start, stop = nth_mod numbers k in
          String.sub line 0 start
          ^ int_form (String.sub line start (stop - start)) form
          ^ String.sub line stop (String.length line - stop))

(* The reference decoder: each line through [Json.of_string], fields
   looked up with [List.assoc_opt] (the first of a repeated key wins). *)
exception Bad of string

let reference_header line =
  match Json.of_string line with
  | Error m -> Error m
  | Ok json -> (
    match (Json.member "schema" json, Json.member "version" json) with
    | Some (Json.String "abc.trace"), Some (Json.Int version) when version <= Trace.schema_version -> (
      (* a count is optional but an int, and the three must add up *)
      let count name =
        match Json.member name json with
        | None -> Some None
        | Some (Json.Int i) -> Some (Some i)
        | Some _ -> None
      in
      let meta = match Json.member "meta" json with Some (Json.Obj fields) -> fields | _ -> [] in
      match (count "recorded", count "retained", count "dropped") with
      | Some (Some r), Some (Some k), Some (Some d) when r <> k + d -> Error "counts do not add up"
      | Some recorded, Some retained, Some dropped ->
        let zero = Option.value ~default:0 in
        Ok (version, zero recorded, retained, zero dropped, meta)
      | _ -> Error "a count is not an int")
    | _ -> Error "not a readable abc.trace header")

let reference_entry fields =
  let find name = List.assoc_opt name fields in
  let int name = match find name with Some (Json.Int i) -> i | _ -> raise (Bad name) in
  let str name = match find name with Some (Json.String s) -> s | _ -> raise (Bad name) in
  let int_or name default =
    match find name with None -> default | Some (Json.Int i) -> i | Some _ -> raise (Bad name)
  in
  let str_or name default =
    match find name with None -> default | Some (Json.String s) -> s | Some _ -> raise (Bad name)
  in
  let time = int "t" and node = int "node" and kind_name = str "kind" in
  let instance = str_or "instance" "" and round = int_or "round" (-1) in
  let kind =
    match kind_name with
    | "send" ->
      Event.Send
        { dst = int "dst"; label = str "label"; detail = str_or "detail" ""; bytes = int_or "bytes" 0 }
    | "deliver" ->
      Event.Deliver
        { src = int "src"; label = str "label"; detail = str_or "detail" ""; bytes = int_or "bytes" 0 }
    | "quorum" ->
      Event.Quorum { quorum = str "quorum"; count = int "count"; threshold = int "threshold" }
    | "coin" -> Event.Coin_flip { value = int "value" }
    | "round" -> Event.Round_advance
    | "decide" -> Event.Decide { value = str "value" }
    | "output" -> Event.Output { label = str "label" }
    | "note" -> Event.Note { tag = str "tag"; detail = str "detail" }
    | "link-drop" ->
      Event.Link_drop { src = int "src"; dst = int "dst"; label = str "label"; reason = str "reason" }
    | "link-dup" -> Event.Link_dup { src = int "src"; dst = int "dst"; label = str "label" }
    | "timer-set" -> Event.Timer_set { id = int "id"; due = int "due" }
    | "timeout" -> Event.Timer_fire { id = int "id" }
    | "retransmit" -> Event.Retransmit { dst = int "dst"; seq = int "seq" }
    | "epoch-start" -> Event.Epoch_start { epoch = int "epoch" }
    | "batch-proposed" ->
      Event.Batch_proposed { epoch = int "epoch"; txs = int "txs"; bytes = int_or "bytes" 0 }
    | "batch-committed" ->
      Event.Batch_committed { epoch = int "epoch"; proposer = int "proposer"; txs = int "txs" }
    | "tx-committed" -> Event.Tx_committed { epoch = int "epoch"; id = str "id" }
    | "node-crashed" -> Event.Node_crash
    | "node-recovered" -> Event.Node_recover
    | "checkpoint-stable" -> Event.Checkpoint_stable { epoch = int "epoch"; len = int "len" }
    | "state-transfer-start" -> Event.Transfer_start { have = int "have" }
    | "state-transfer-done" -> Event.Transfer_done { epoch = int "epoch"; len = int "len" }
    | _ -> raise (Bad "kind")
  in
  { Trace.time; node; event = Event.make ~instance ~round kind }

let blank_line = String.for_all (function ' ' | '\t' | '\r' | '\012' -> true | _ -> false)

let reference text =
  match String.split_on_char '\n' text with
  | [ "" ] | [] -> Error "header: empty trace file"
  | header :: lines -> (
    match reference_header header with
    | Error m -> Error ("header: " ^ m)
    | Ok (version, recorded, retained, dropped, meta) ->
      let rec entries lineno acc = function
        | [] -> (
          match retained with
          | Some k when k <> List.length acc -> Error "header: retained is not the entry count"
          | _ -> Ok { Trace_file.version; recorded; dropped; meta; entries = List.rev acc })
        | line :: rest when blank_line line -> entries (lineno + 1) acc rest
        | line :: rest -> (
          match Json.of_string line with
          | Ok (Json.Obj fields) -> (
            match reference_entry fields with
            | entry -> entries (lineno + 1) (entry :: acc) rest
            | exception Bad name -> Error (Printf.sprintf "line %d: bad %S" lineno name))
          | Ok _ -> Error (Printf.sprintf "line %d: not an object" lineno)
          | Error m -> Error (Printf.sprintf "line %d: %s" lineno m))
      in
      entries 2 [] lines)

let positioned msg =
  String.starts_with ~prefix:"header: " msg
  || String.starts_with ~prefix:"line " msg
     &&
     match String.index_opt msg ':' with
     | Some i ->
       i > 5 && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub msg 5 (i - 5))
     | None -> false

(* [header:] or [line N:] *)
let place msg = match String.index_opt msg ':' with Some i -> String.sub msg 0 i | None -> msg

let same_entries (a : Trace_file.t) (b : Trace_file.t) =
  List.equal
    (fun (x : Trace.entry) (y : Trace.entry) ->
      x.Trace.time = y.Trace.time && x.Trace.node = y.Trace.node
      && Event.equal x.Trace.event y.Trace.event)
    a.Trace_file.entries b.Trace_file.entries

let same_file (a : Trace_file.t) (b : Trace_file.t) =
  a.Trace_file.version = b.Trace_file.version
  && a.Trace_file.recorded = b.Trace_file.recorded
  && a.Trace_file.dropped = b.Trace_file.dropped
  && List.equal
       (fun (k, v) (k', v') -> String.equal k k' && Json.equal v v')
       a.Trace_file.meta b.Trace_file.meta
  && same_entries a b

let decoder_agrees mutations =
  let golden = Lazy.force golden_trace in
  let text = List.fold_left apply golden mutations in
  match Trace_file.of_string text with
  | exception _ -> false
  | decoded -> (
    (match (decoded, reference text) with
    | Ok a, Ok b -> same_file a b
    | Error m, Error m' -> positioned m && String.equal (place m) (place m')
    | Ok _, Error _ | Error _, Ok _ -> false)
    && ((not (List.for_all keeps_meaning mutations))
       ||
       match (decoded, Trace_file.of_string golden) with
       | Ok file, Ok reference -> same_entries reference file
       | _ -> false))

let trace_decoder_test =
  campaign ~name:"trace decoder: total on mutated JSONL" ~count:600 mutation_gen
    print_mutations decoder_agrees

(* ---- registry token decoders ---- *)

(* The scenario registry's decoders read spec files and CLI flags:
   random strings and mutations of valid tokens must never raise, and
   every [Error] must quote the offending token. *)
module Registry = Abc_matrix.Registry

let token_decoders =
  let total decode s = Result.map ignore (decode s) in
  [|
    ( "adversary",
      total Registry.adversary,
      [ "fifo"; "uniform"; "split"; "latency:8"; "target:3"; "source:1"; "eclipse:32" ] );
    ( "fault",
      total Registry.fault,
      [ "none"; "silent:2"; "crash"; "balanced-flip:3"; "force-decide"; "replay:2"; "flip-relay";
        "equivocate-sender"; "force-decide:1+flip:1"; "silent:2+crash+replay:1"; "silent@1,5";
        "crash@0" ] );
    ("topology", total Registry.topology, [ "complete"; "ring"; "star"; "circulant:1,2" ]);
    ("inputs", total Registry.inputs, [ "split"; "unanimous0"; "unanimous1"; "alternate" ]);
    ("crash", total Registry.crash, [ "none"; "3:400:2500"; "1:10:20:30:40,2:5:9" ]);
    ("partition", total Registry.partition, [ "10:80:0,1"; "0:0:3"; "5:9: 2 , 4" ]);
  |]

let token_chars = "abcdefilnoprstuvxz0123456789:,-_. +@\"\\\000\255"

let token_gen =
  QCheck.Gen.(
    int_bound (Array.length token_decoders - 1) >>= fun d ->
    let _, _, valid = token_decoders.(d) in
    let char = map (String.get token_chars) (int_bound (String.length token_chars - 1)) in
    let random = string_size ~gen:char (int_bound 12) in
    let mutate s =
      let at = if s = "" then return 0 else int_bound (String.length s) in
      oneof
        [
          map2 (fun i c -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)) at char;
          map (fun i -> String.sub s 0 i) at;
          map (fun i -> if i < String.length s then String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1) else s) at;
          map (fun t -> s ^ ":" ^ t) (oneofl valid);
          map (fun t -> s ^ "," ^ t) (oneofl valid);
        ]
    in
    map (fun s -> (d, s)) (oneof [ random; oneofl valid >>= mutate; oneofl valid >>= mutate >>= mutate ]))

let print_token (d, s) =
  let name, _, _ = token_decoders.(d) in
  Printf.sprintf "%s %S" name s

let token_total (d, s) =
  let _, decode, _ = token_decoders.(d) in
  match decode s with
  | exception _ -> false
  | Ok () -> true
  | Error msg -> Astring.String.is_infix ~affix:(Printf.sprintf "%S" s) msg

let token_decoder_test =
  campaign ~name:"registry decoders: total, errors quote the token" ~count:2000 token_gen
    print_token token_total

(* ---- spec and result-set decoders ---- *)

(* Mutations of every committed bench/specs/*.matrix and
   bench_results/BENCH_MATRIX_*.json: truncate, set a byte, insert or
   delete one.  Nothing may raise through [Spec.of_string] then
   [Runner.check], or through [Json.of_string] then [Diff.load_json],
   and every spec error points at a line >= 1. *)
module Spec = Abc_matrix.Spec

let committed dir ~prefix ~suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix f && String.ends_with ~suffix f)
  |> List.sort String.compare
  |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
  |> Array.of_list

let specs = lazy (committed "../bench/specs" ~prefix:"" ~suffix:".matrix")

let result_sets = lazy (committed "../bench_results" ~prefix:"BENCH_MATRIX_" ~suffix:".json")

type edit = Cut of int | Set of int * char | Insert of int * char | Delete of int

let edit_gen =
  QCheck.Gen.(
    let at = int_bound 1_000_000 and char = map Char.chr (int_bound 255) in
    oneof
      [ map (fun k -> Cut k) at; map2 (fun k c -> Set (k, c)) at char;
        map2 (fun k c -> Insert (k, c)) at char; map (fun k -> Delete k) at ])

(* Edits are placed modulo the text's length as it stands. *)
let apply_edit text e =
  let len = String.length text in
  let at k = if len = 0 then 0 else k mod len in
  match e with
  | Cut k -> String.sub text 0 (at k)
  | Set (k, c) -> if len = 0 then text else String.mapi (fun i x -> if i = at k then c else x) text
  | Insert (k, c) -> String.sub text 0 (at k) ^ String.make 1 c ^ String.sub text (at k) (len - at k)
  | Delete k -> if len = 0 then text else String.sub text 0 (at k) ^ String.sub text (at k + 1) (len - at k - 1)

(* Files are read and mutated while scenarios are generated, on the
   main domain; the pool only decodes. *)
let document_gen =
  QCheck.Gen.(
    map
      (fun ((is_spec, i), edits) ->
        let files = Lazy.force (if is_spec then specs else result_sets) in
        let name, text = files.(i mod Array.length files) in
        (is_spec, name, edits, List.fold_left apply_edit text edits))
      (pair (pair bool (int_bound 1_000)) (list_size (int_range 1 3) edit_gen)))

let show_edit = function
  | Cut k -> Printf.sprintf "cut %d" k
  | Set (k, c) -> Printf.sprintf "set %d=%d" k (Char.code c)
  | Insert (k, c) -> Printf.sprintf "insert %d=%d" k (Char.code c)
  | Delete k -> Printf.sprintf "delete %d" k

let print_document (_, name, edits, _) =
  Printf.sprintf "%s [%s]" name (String.concat "; " (List.map show_edit edits))

let document_total (is_spec, name, _, text) =
  let positioned (e : Abc_matrix.Sexp.error) = e.pos.line >= 1 in
  match
    if is_spec then
      match Spec.of_string ~file:name text with
      | Error e -> positioned e
      | Ok spec -> Result.fold (Abc_matrix.Runner.check spec) ~ok:(fun () -> true) ~error:positioned
    else
      match Json.of_string text with
      | Error _ -> true
      | Ok json ->
        ignore (Abc_matrix.Diff.load_json json);
        true
  with
  | ok -> ok
  | exception _ -> false

let document_decoder_test =
  campaign ~name:"spec and result-set decoders: total on mutated files" ~count:4000 document_gen
    print_document document_total

(* ---- durable-store decoder ---- *)

(* [Atomic_broadcast.restore] reads a replica's durable store, which is
   outside input.  The campaign takes real snapshots, one per crash of
   a replica that crashes six times across a checkpointed run, and
   mutates them: the edits above, or one field of the store set to
   "-1".  Three transactions per mempool run dry by epoch 2, so the
   restored window draws from the mempool at the stored cursor.
   [restore] must never raise; whatever it cannot read is a cold
   restart. *)
let durable_n = 4

let durable_inputs =
  lazy
    (Atomic.inputs ~n:durable_n ~checkpoint_interval:2 ~batch_size:2 ~epochs:8 ~coin_seed:17
       (Array.init durable_n (fun i ->
            Abc_smr.Workload.txs
              (Abc_smr.Workload.generate ~seed:5 ~node:(node i) ~count:3 ~rate:0.05
                 ~tx_bytes:16))))

let durable_snapshots =
  lazy
    (let taken = ref [] in
     let snapshot state =
       let blob = Atomic.snapshot state in
       taken := blob :: !taken;
       blob
     in
     let crashes = List.map (fun t -> (t, t + 100)) [ 300; 2500; 3600; 4800; 6000; 7200 ] in
     ignore
       (Ledger.Raw.run
          (Ledger.Raw.config ~n:durable_n ~f:1 ~inputs:(Lazy.force durable_inputs) ~seed:3
             ~faulty:[ (node 2, Behaviour.Crash_recover crashes) ]
             ~recovery:{ Ledger.Raw.snapshot; restore = Atomic.restore }
             ()));
     Array.of_list (List.rev !taken))

type durable_edit = Edit of edit | Negative of int

let set_negative blob k =
  match Atomic.decode_batch blob with
  | Some fields ->
    let k = k mod List.length fields in
    Atomic.encode_batch (List.mapi (fun i field -> if i = k then "-1" else field) fields)
  | None -> blob

(* Snapshots are taken and mutated while scenarios are generated, on
   the main domain; the pool only restores. *)
let durable_gen =
  QCheck.Gen.(
    map
      (fun (i, edits) ->
        let blobs = Lazy.force durable_snapshots in
        let i = i mod Array.length blobs in
        let apply blob = function Edit e -> apply_edit blob e | Negative k -> set_negative blob k in
        (i, edits, List.fold_left apply blobs.(i) edits))
      (pair (int_bound 1_000)
         (list_size (int_range 1 2)
            (oneof [ map (fun e -> Edit e) edit_gen; map (fun k -> Negative k) (int_bound 100) ]))))

let print_durable (i, edits, blob) =
  let show = function Edit e -> show_edit e | Negative k -> Printf.sprintf "field %d=-1" k in
  Printf.sprintf "snapshot %d [%s] %S" i (String.concat "; " (List.map show edits)) blob

let durable_total (_, _, blob) =
  let ctx =
    {
      Abc_net.Protocol.Context.me = node 2;
      n = durable_n;
      f = 1;
      rng = Abc_prng.Stream.root ~seed:1;
      sink = Abc_sim.Event.null_sink;
    }
  in
  match Atomic.restore ctx (Lazy.force durable_inputs).(2) ~durable:blob with
  | _ -> true
  | exception _ -> false

let durable_decoder_test =
  campaign ~name:"durable-store decoder: restore total on mutated snapshots" ~count:1500
    durable_gen print_durable durable_total

(* ---- engine scale smoke ---- *)

(* One deterministic large-n run through the arena-based engine: the
   rows stay at n <= 12, so this is the only tier-1 check that the hot
   path still completes (and delivers everywhere) at the n=128 scale
   E19 benchmarks. *)
let test_scale_bracha_rbc_n128 () =
  Alcotest.(check bool) "every node delivers One once" true
    (Rbc.check
       { n = 128; f = 42; faults = 0; fault = Silent; adversary = "uniform"; inputs = Ones;
         links = None; budget = None; seed = 1 })

(* MMR at the same scale: the consensus rows stop at n = 10, so this is
   the only tier-1 run of MMR's per-round sender sets at a committee
   size E19 measures. *)
let test_scale_mmr_n128 () =
  let s =
    { n = 128; f = 42; faults = 0; fault = Silent; adversary = "uniform"; inputs = Split;
      links = None; budget = None; seed = 1 }
  in
  let inputs = Abc.Mmr_consensus.inputs ~n:s.n ~coin:(Abc.Coin.common ~seed:7) (binary_values s) in
  let r = Mmr.Raw.run (Mmr.Raw.config ~n:s.n ~f:s.f ~inputs ~adversary:Adversary.uniform ~seed:s.seed ()) in
  Alcotest.(check bool) "termination, agreement, validity" true
    (consensus Abc.Mmr_consensus.value_of_input s inputs r.Mmr.Raw.outputs r.Mmr.Raw.stop)

(* ---- rows ---- *)

let row name count gen check = campaign ~name ~count gen print_scenario check

let third ~n = (n - 1) / 3

let fifth ~n = (n - 1) / 5

let wide = battery_gen ~max_n:10 ~max_loss:15 ~max_f:third ()

(* ACS multiplies n broadcasts by n binary agreements, so its lossy
   runs stay small enough for the retransmission traffic to fit the
   delivery budget: correctness is the point, not a race against the
   cap. *)
let acs_gen = battery_gen ~max_n:6 ~max_loss:8 ~max_f:third ()

(* Each battery scenario runs four ACS-over-coded-RBC epochs, so the
   space stays smaller than the plain ACS rows', and overlapping
   agreements need a deeper budget.  Mempools hold one epoch less than
   pipeline capacity: the spare epoch absorbs a batch excluded from
   some subset and re-proposed, so inclusion has its "within k epochs"
   slack. *)
let ledger_gen =
  pin
    (fun _ -> Log { batch = 3; epochs = 4; txs = 3 * (4 - 1); tx_bytes = 24; checkpoint = 0 })
    (battery_gen ~budget:12_000_000 ~max_n:5 ~max_loss:6 ~max_f:third ())

(* The rows go out as two Alcotest runs, the property battery and the
   fault campaigns.  Alcotest pads the group column to the longest group
   name of a run and cuts each case name to what is left of 80 columns,
   so in one run the campaigns' "crash recovery" group would shorten
   every battery case's printed name, the name a test log knows it by.
   A [test NAME] filter reaches the first run only: Alcotest exits after
   a filtered run, and rejects a filter that matches none of its
   groups. *)
let battery =
  [
    ( "broadcast",
      [
        row "bracha rbc: validity, agreement, totality" 60 wide Rbc.check;
        row "consistent broadcast: validity and consistency (no totality)" 60 wide Cb.check;
        row "coded rbc: validity, agreement, totality" 50 wide Coded.check;
        (* The efficiency trade: only f < n/5 tolerated. *)
        row "imbs-raynal rbc: validity, agreement, totality at n>5f" 50
          (battery_gen ~max_n:12 ~max_loss:15 ~max_f:fifth ())
          Ir.check;
      ] );
    ( "consensus",
      [
        row "bracha consensus: termination, agreement, validity" 60 wide Bracha.check;
        row "ben-or: termination, agreement, validity" 50
          (battery_gen ~max_n:10 ~max_loss:15 ~max_f:fifth ())
          Benor.check;
        row "mmr: termination, agreement, validity (common coin)" 50 wide Mmr.check;
      ] );
    ( "multivalued",
      [
        row "turpin-coan: joint outcome, unanimity carries" 50
          (battery_gen ~max_n:10 ~max_loss:15 ~max_f:TC.max_faults ())
          Turpin.check;
        row "acs: identical common subset of proposed values" 30 acs_gen Acs.check;
        row "batch acs: identical common subset of proposed batches" 24 acs_gen Batch_acs.check;
      ] );
    ("smr", [ row "atomic broadcast: total order, no dup tx, inclusion" 20 ledger_gen Ledger.check ]);
    ( "decoders",
      [ trace_decoder_test; token_decoder_test; document_decoder_test; durable_decoder_test ] );
    ( "scale",
      [
        Alcotest.test_case "bracha rbc n=128 delivers" `Quick test_scale_bracha_rbc_n128;
        Alcotest.test_case "mmr n=128 decides" `Quick test_scale_mmr_n128;
      ] );
  ]

let campaigns =
  [
    ( "campaigns",
      [
        row "bracha consensus survives arbitrary scenarios" 120
          (chaos_gen ~max_f:third ~kinds:lying) Bracha.check;
        row "mmr consensus survives arbitrary scenarios" 120
          (chaos_gen ~max_f:third ~kinds:lying) Mmr.check;
        row "mmr over the rabin coin survives arbitrary scenarios" 60
          (chaos_gen ~max_f:third ~kinds:lying) Mmr_rabin.check;
        row "ben-or survives arbitrary in-bound scenarios" 80
          (chaos_gen ~max_f:fifth ~kinds:lying) Benor.check;
        row "acs produces a common subset in arbitrary scenarios" 40
          (chaos_gen ~max_f:third ~kinds:benign) Acs.check;
        row "coded rbc delivers the payload in arbitrary scenarios" 100
          (pin (fun s -> Bytes (1 + (s.seed mod 200))) (chaos_gen ~max_f:third ~kinds:lying))
          Coded.check;
        row "imbs-raynal rbc delivers the payload in arbitrary scenarios" 100
          (pin (fun _ -> Ones) (chaos_gen ~max_f:fifth ~kinds:lying))
          Ir.check;
      ] );
    ( "link faults",
      [
        row "reliable-link bracha decides under loss, dup and healing cuts" 40
          (lossy_gen ~max_n:7 ~max_pct:20 ~over:(Some 4_000_000))
          Bracha.check;
        row "raw bracha stays safe under loss (no agreement break)" 60
          (lossy_gen ~max_n:7 ~max_pct:20 ~over:None)
          Bracha.check;
        (* Milder loss and more budget than Bracha's, as for acs_gen. *)
        row "reliable-link acs agrees on a common subset under lossy links" 15
          (lossy_gen ~max_n:5 ~max_pct:10 ~over:(Some 4_000_000))
          Acs.check;
        (* Loss, duplication, a healing cut and crash faults that land
           mid-epoch, while early epochs are still being agreed. *)
        row "atomic broadcast keeps one log under loss and mid-epoch crashes" 12
          (pin
             (fun _ -> Log { batch = 2; epochs = 3; txs = 6; tx_bytes = 16; checkpoint = 0 })
             (lossy_gen ~max_n:5 ~max_pct:10 ~over:(Some 12_000_000)))
          Ledger.check;
      ] );
    (* Recover replicas are correct but amnesic: all n logs must be
       complete, identical and duplicate-free, so recovery must come
       from the durable snapshot plus state transfer, never from
       replayed commits. *)
    ( "crash recovery",
      [ row "atomic broadcast recovers crashed replicas to one identical log" 12 crash_gen Ledger.check ] );
  ]

(* Both runs go ahead whatever the first one's verdict. *)
let passes name groups =
  match Alcotest.run ~and_exit:false name groups with
  | () -> true
  | exception Alcotest.Test_error -> false

let () =
  let battery_ok = passes "properties" battery in
  if not (passes "campaigns" campaigns && battery_ok) then exit 1
