(* Cross-protocol property battery: one scenario vocabulary (size,
   resilience, fault placement, adversary, inputs, optional lossy
   links), one campaign runner, instantiated over all nine protocols
   in the library.  Each protocol asserts the properties it actually
   promises — totality for the reliable broadcasts (Bracha, erasure-
   coded, Imbs-Raynal) but not for consistent broadcast, full
   consensus for Bracha/Ben-Or/MMR, agreement-or-joint-fallback for
   Turpin–Coan, identical common subsets for ACS over either proposal
   broadcast (Bracha's and the erasure-coded one).

   The battery runs on the Exec.Pool at jobs > 1 on purpose: scenarios
   are generated up front on the main domain from a pinned seed
   (QCHECK_SEED, default 421984) and evaluated concurrently, so the
   suite doubles as a standing check that concurrent engine runs do not
   interfere with each other. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Adversary = Abc_net.Adversary
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

(* ---- scenario vocabulary ---- *)

type loss = {
  loss_pct : int; (* 0..15 *)
  dup_pct : int; (* 0..10 *)
  cut : (int * int * int) option; (* from, length, island node *)
}

type scenario = {
  n : int;
  f : int;
  faults : int; (* actual faulty nodes, highest ids *)
  silent : bool; (* silent vs crash behaviour *)
  adversary_kind : int; (* 0..5 *)
  input_pattern : int; (* 0..2 *)
  loss : loss option; (* lossy links => reliable-channel transport *)
  seed : int;
}

let scenario_gen ~max_n ~max_loss ~max_f_of =
  QCheck.Gen.(
    int_range 4 max_n >>= fun n ->
    let fmax = max 0 (max_f_of n) in
    int_range 0 fmax >>= fun f ->
    int_range 0 f >>= fun faults ->
    bool >>= fun silent ->
    int_range 0 5 >>= fun adversary_kind ->
    int_range 0 2 >>= fun input_pattern ->
    bool >>= fun lossy ->
    int_range 0 max_loss >>= fun loss_pct ->
    int_range 0 ((max_loss * 2) / 3) >>= fun dup_pct ->
    bool >>= fun with_cut ->
    int_range 0 40 >>= fun cut_from ->
    int_range 1 150 >>= fun cut_len ->
    int_range 0 (n - 1) >>= fun cut_node ->
    int_range 0 1000 >>= fun seed ->
    let loss =
      if lossy then
        Some
          {
            loss_pct;
            dup_pct;
            cut = (if with_cut then Some (cut_from, cut_len, cut_node) else None);
          }
      else None
    in
    return { n; f; faults; silent; adversary_kind; input_pattern; loss; seed })

let print_scenario s =
  Printf.sprintf "{n=%d f=%d faults=%d silent=%b adv=%d inputs=%d loss=%s seed=%d}"
    s.n s.f s.faults s.silent s.adversary_kind s.input_pattern
    (match s.loss with
    | None -> "none"
    | Some l ->
      Printf.sprintf "%d%%/%d%%%s" l.loss_pct l.dup_pct
        (match l.cut with
        | None -> ""
        | Some (a, len, v) -> Printf.sprintf "+cut[%d,%d)@%d" a (a + len) v))
    s.seed

let adversary_of s =
  match s.adversary_kind with
  | 0 -> Adversary.fifo
  | 1 -> Adversary.uniform
  | 2 -> Adversary.latency ~mean:6.
  | 3 -> Adversary.targeted_delay ~victims:[ node 0 ]
  | 4 -> Adversary.split ~n:s.n
  | _ -> Adversary.rotating_eclipse ~n:s.n ~period:5

(* Cuts always heal: permanent partitions defeat any transport and
   belong to the targeted lossy tests, not a liveness battery. *)
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

(* Faults stay message-agnostic (silence and crashes): mutator faults
   are protocol-specific and exercised by the chaos campaigns; this
   battery keeps one behaviour vocabulary across all seven subjects. *)
let faulty_of s =
  let behaviour =
    if s.silent then Behaviour.Silent else Behaviour.Crash_after (s.seed mod 7)
  in
  List.init s.faults (fun k -> (node (s.n - 1 - k), behaviour))

let binary_values s =
  match s.input_pattern with
  | 0 -> Array.make s.n Value.Zero
  | 1 -> Array.make s.n Value.One
  | _ -> Array.init s.n (fun i -> if i < s.n / 2 then Value.Zero else Value.One)

let honest_indices s = List.init (s.n - s.faults) (fun i -> i)

(* ---- campaign runner ---- *)

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

(* One battery subject = a resilience bound plus a property checker.
   The checker sees scenarios already inside the bound and decides
   whether the protocol kept its promises on that run.  [max_n] and
   [max_loss] bound the scenario space per subject: ACS multiplies n
   broadcasts by n binary agreements, so its lossy runs must stay
   small enough for the retransmission traffic to fit the delivery
   budget (correctness is the point, not a race against the cap). *)
module type SUBJECT = sig
  val name : string

  val count : int

  val max_n : int

  val max_loss : int

  val max_f : n:int -> int

  val check : scenario -> bool
end

module Battery (S : SUBJECT) = struct
  let test =
    campaign ~name:S.name ~count:S.count
      (scenario_gen ~max_n:S.max_n ~max_loss:S.max_loss
         ~max_f_of:(fun n -> S.max_f ~n))
      print_scenario S.check
end

(* Engines: each subject needs the raw protocol and its reliable-link
   wrapping (used whenever the scenario draws a lossy plan). *)

let budget l = match l with Some _ -> Some 4_000_000 | None -> None

(* ---- 1. Bracha reliable broadcast ---- *)

module Rbc = Abc.Bracha_rbc.Binary
module RbcE = Abc_net.Engine.Make (Rbc)
module RbcRL = Abc_net.Reliable_link.Make (Rbc)
module RbcRLE = Abc_net.Engine.Make (RbcRL)

module Rbc_subject = struct
  let name = "bracha rbc: validity, agreement, totality"

  let count = 60

  let max_n = 10

  let max_loss = 15

  let max_f ~n = (n - 1) / 3

  (* Honest designated sender (node 0; faults sit at the tail), so the
     full promise applies: every honest node delivers exactly the
     broadcast value. *)
  let check s =
    let v = if s.input_pattern = 1 then Value.One else Value.Zero in
    let inputs = Rbc.inputs ~n:s.n ~sender:(node 0) v in
    let delivered_ok outputs stop =
      stop = Abc_net.Engine.All_terminal
      && List.for_all
           (fun i ->
             match outputs.(i) with
             | [ (_, Rbc.Delivered d) ] -> d = v
             | _ -> false)
           (honest_indices s)
    in
    match s.loss with
    | None ->
      let r =
        RbcE.run
          (RbcE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ())
      in
      delivered_ok r.RbcE.outputs r.RbcE.stop
    | Some l ->
      let r =
        RbcRLE.run
          (RbcRLE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
             ?max_deliveries:(budget s.loss) ())
      in
      delivered_ok r.RbcRLE.outputs r.RbcRLE.stop
end

module Rbc_battery = Battery (Rbc_subject)

(* ---- 2. Consistent (echo-only) broadcast ---- *)

module Cb = Abc.Consistent_broadcast.Binary
module CbE = Abc_net.Engine.Make (Cb)
module CbRL = Abc_net.Reliable_link.Make (Cb)
module CbRLE = Abc_net.Engine.Make (CbRL)

module Cb_subject = struct
  let name = "consistent broadcast: validity and consistency (no totality)"

  let count = 60

  let max_n = 10

  let max_loss = 15

  let max_f ~n = (n - 1) / 3

  (* The weaker primitive promises only that delivered values agree —
     so the property checks every honest delivery carries the broadcast
     value and stays silent about who delivered. *)
  let check s =
    let v = if s.input_pattern = 1 then Value.One else Value.Zero in
    let inputs = Cb.inputs ~n:s.n ~sender:(node 0) v in
    let consistent outputs =
      List.for_all
        (fun i ->
          List.for_all (fun (_, Cb.Delivered d) -> d = v) outputs.(i))
        (honest_indices s)
    in
    match s.loss with
    | None ->
      let r =
        CbE.run
          (CbE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ())
      in
      consistent r.CbE.outputs
    | Some l ->
      let r =
        CbRLE.run
          (CbRLE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
             ?max_deliveries:(budget s.loss) ())
      in
      consistent r.CbRLE.outputs
end

module Cb_battery = Battery (Cb_subject)

(* ---- 2b. Erasure-coded reliable broadcast ---- *)

module Coded = Abc.Coded_rbc
module CodedE = Abc_net.Engine.Make (Coded)
module CodedRL = Abc_net.Reliable_link.Make (Coded)
module CodedRLE = Abc_net.Engine.Make (CodedRL)

module Coded_subject = struct
  let name = "coded rbc: validity, agreement, totality"

  let count = 50

  let max_n = 10

  let max_loss = 15

  let max_f ~n = (n - 1) / 3

  (* Same promise as Bracha's RBC, different wire format: the payload
     is a byte string dispersed as Reed-Solomon fragments, so the
     checker also asserts it survives reconstruction bit-for-bit. *)
  let check s =
    let payload =
      String.init
        (match s.input_pattern with 0 -> 1 | 1 -> 64 | _ -> 777)
        (fun i -> Char.chr ((s.seed + (13 * i)) land 0xFF))
    in
    let inputs = Coded.inputs ~n:s.n ~sender:(node 0) payload in
    let delivered_ok outputs stop =
      stop = Abc_net.Engine.All_terminal
      && List.for_all
           (fun i ->
             match outputs.(i) with
             | [ (_, Coded.Delivered d) ] -> String.equal d payload
             | _ -> false)
           (honest_indices s)
    in
    match s.loss with
    | None ->
      let r =
        CodedE.run
          (CodedE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ())
      in
      delivered_ok r.CodedE.outputs r.CodedE.stop
    | Some l ->
      let r =
        CodedRLE.run
          (CodedRLE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
             ?max_deliveries:(budget s.loss) ())
      in
      delivered_ok r.CodedRLE.outputs r.CodedRLE.stop
end

module Coded_battery = Battery (Coded_subject)

(* ---- 2c. Imbs-Raynal two-phase reliable broadcast ---- *)

module Ir = Abc.Ir_rbc.Binary
module IrE = Abc_net.Engine.Make (Ir)
module IrRL = Abc_net.Reliable_link.Make (Ir)
module IrRLE = Abc_net.Engine.Make (IrRL)

module Ir_subject = struct
  let name = "imbs-raynal rbc: validity, agreement, totality at n>5f"

  let count = 50

  let max_n = 12

  let max_loss = 15

  (* The efficiency trade: only f < n/5 tolerated. *)
  let max_f ~n = (n - 1) / 5

  let check s =
    let v = if s.input_pattern = 1 then Value.One else Value.Zero in
    let inputs = Ir.inputs ~n:s.n ~sender:(node 0) v in
    let delivered_ok outputs stop =
      stop = Abc_net.Engine.All_terminal
      && List.for_all
           (fun i ->
             match outputs.(i) with
             | [ (_, Ir.Delivered d) ] -> d = v
             | _ -> false)
           (honest_indices s)
    in
    match s.loss with
    | None ->
      let r =
        IrE.run
          (IrE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ())
      in
      delivered_ok r.IrE.outputs r.IrE.stop
    | Some l ->
      let r =
        IrRLE.run
          (IrRLE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
             ?max_deliveries:(budget s.loss) ())
      in
      delivered_ok r.IrRLE.outputs r.IrRLE.stop
end

module Ir_battery = Battery (Ir_subject)

(* ---- consensus subjects share the harness verdict ---- *)

module B = Abc.Bracha_consensus

module BH = Abc.Harness.Make (struct
  include B

  let value_of_input = B.value_of_input
end)

module BRL = Abc_net.Reliable_link.Make (B)

module BRLH = Abc.Harness.Make (struct
  include BRL

  let value_of_input = B.value_of_input
end)

(* ---- 3. Bracha consensus ---- *)

module Bracha_subject = struct
  let name = "bracha consensus: termination, agreement, validity"

  let count = 60

  let max_n = 10

  let max_loss = 15

  let max_f ~n = (n - 1) / 3

  let check s =
    let inputs = B.inputs ~n:s.n ~options:B.Options.default (binary_values s) in
    match s.loss with
    | None ->
      let cfg =
        BH.E.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
          ~adversary:(adversary_of s) ~seed:s.seed ()
      in
      Abc.Harness.ok (snd (BH.run cfg))
    | Some l ->
      let cfg =
        BRLH.E.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
          ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
          ?max_deliveries:(budget s.loss) ()
      in
      Abc.Harness.ok (snd (BRLH.run cfg))
end

module Bracha_battery = Battery (Bracha_subject)

(* ---- 4. Ben-Or ---- *)

module BO = Abc.Ben_or

module BOH = Abc.Harness.Make (struct
  include BO

  let value_of_input = BO.value_of_input
end)

module BORL = Abc_net.Reliable_link.Make (BO)

module BORLH = Abc.Harness.Make (struct
  include BORL

  let value_of_input = BO.value_of_input
end)

module Benor_subject = struct
  let name = "ben-or: termination, agreement, validity"

  let count = 50

  let max_n = 10

  let max_loss = 15

  let max_f ~n = (n - 1) / 5

  let check s =
    let inputs =
      BO.inputs ~n:s.n ~mode:BO.Mode.Byzantine ~coin:Abc.Coin.local
        (binary_values s)
    in
    match s.loss with
    | None ->
      let cfg =
        BOH.E.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
          ~adversary:(adversary_of s) ~seed:s.seed ()
      in
      Abc.Harness.ok (snd (BOH.run cfg))
    | Some l ->
      let cfg =
        BORLH.E.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
          ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
          ?max_deliveries:(budget s.loss) ()
      in
      Abc.Harness.ok (snd (BORLH.run cfg))
end

module Benor_battery = Battery (Benor_subject)

(* ---- 5. MMR ---- *)

module M = Abc.Mmr_consensus

module MH = Abc.Harness.Make (struct
  include M

  let value_of_input = M.value_of_input
end)

module MRL = Abc_net.Reliable_link.Make (M)

module MRLH = Abc.Harness.Make (struct
  include MRL

  let value_of_input = M.value_of_input
end)

module Mmr_subject = struct
  let name = "mmr: termination, agreement, validity (common coin)"

  let count = 50

  let max_n = 10

  let max_loss = 15

  let max_f ~n = (n - 1) / 3

  let check s =
    let inputs = M.inputs ~n:s.n ~coin:(Abc.Coin.common ~seed:9) (binary_values s) in
    match s.loss with
    | None ->
      let cfg =
        MH.E.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
          ~adversary:(adversary_of s) ~seed:s.seed ()
      in
      Abc.Harness.ok (snd (MH.run cfg))
    | Some l ->
      let cfg =
        MRLH.E.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
          ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
          ?max_deliveries:(budget s.loss) ()
      in
      Abc.Harness.ok (snd (MRLH.run cfg))
end

module Mmr_battery = Battery (Mmr_subject)

(* ---- 6. Turpin–Coan reduction ---- *)

module TC = Abc.Turpin_coan.Make (Abc.Payloads.Int_payload)
module TcE = Abc_net.Engine.Make (TC)
module TcRL = Abc_net.Reliable_link.Make (TC)
module TcRLE = Abc_net.Engine.Make (TcRL)

module Turpin_subject = struct
  let name = "turpin-coan: joint outcome, unanimity carries"

  let count = 50

  let max_n = 10

  let max_loss = 15

  let max_f ~n = TC.max_faults ~n

  (* Multivalued inputs: two unanimous patterns and one fully split.
     All honest nodes must reach the same outcome; a unanimous input
     must be agreed (never fallback); any agreed value must have been
     proposed. *)
  let check s =
    let values =
      match s.input_pattern with
      | 0 -> Array.make s.n 7
      | 1 -> Array.make s.n 9
      | _ -> Array.init s.n (fun i -> 100 + i)
    in
    let inputs = TC.inputs ~n:s.n ~coin:Abc.Coin.local values in
    let judge outputs stop =
      stop = Abc_net.Engine.All_terminal
      &&
      let honest_outcomes =
        List.filter_map
          (fun i ->
            match outputs.(i) with [ (_, o) ] -> Some o | _ -> None)
          (honest_indices s)
      in
      List.length honest_outcomes = s.n - s.faults
      &&
      match honest_outcomes with
      | [] -> false
      | first :: rest ->
        List.for_all (( = ) first) rest
        && (match first with
           | TC.Agreed w -> Array.exists (( = ) w) values
           | TC.Fallback -> s.input_pattern = 2)
    in
    match s.loss with
    | None ->
      let r =
        TcE.run
          (TcE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ())
      in
      judge r.TcE.outputs r.TcE.stop
    | Some l ->
      let r =
        TcRLE.run
          (TcRLE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
             ?max_deliveries:(budget s.loss) ())
      in
      judge r.TcRLE.outputs r.TcRLE.stop
end

module Turpin_battery = Battery (Turpin_subject)

(* ---- 7. ACS, over Bracha's and over the coded broadcast ---- *)

(* An ACS instance under test and node i's proposal.  The judge is the
   same for either proposal broadcast: every honest node outputs the
   same subset, with at least n-f entries, each proposal unchanged. *)
module type ACS = sig
  type payload

  type output = Accepted of (Node_id.t * payload) list

  include Abc_net.Protocol.S with type output := output

  val inputs : n:int -> coin:Abc.Coin.t -> payload array -> input array
end

module Acs_subject
    (A : ACS) (P : sig
      val name : string
      val count : int
      val proposal : int -> A.payload
    end) =
struct
  module E = Abc_net.Engine.Make (A)
  module RL = Abc_net.Reliable_link.Make (A)
  module RLE = Abc_net.Engine.Make (RL)

  let name = P.name

  let count = P.count

  let max_n = 6

  let max_loss = 8

  let max_f ~n = (n - 1) / 3

  let check s =
    let inputs =
      A.inputs ~n:s.n ~coin:Abc.Coin.local (Array.init s.n P.proposal)
    in
    let judge outputs stop =
      stop = Abc_net.Engine.All_terminal
      &&
      let honest_subsets =
        List.filter_map
          (fun i ->
            match outputs.(i) with
            | [ (_, A.Accepted subset) ] -> Some subset
            | _ -> None)
          (honest_indices s)
      in
      List.length honest_subsets = s.n - s.faults
      &&
      match honest_subsets with
      | [] -> false
      | first :: rest ->
        List.for_all (( = ) first) rest
        && List.length first >= s.n - s.f
        && List.for_all
             (fun (j, v) -> v = P.proposal (Node_id.to_int j))
             first
    in
    match s.loss with
    | None ->
      let r =
        E.run
          (E.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ())
      in
      judge r.E.outputs r.E.stop
    | Some l ->
      let r =
        RLE.run
          (RLE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
             ?max_deliveries:(budget s.loss) ())
      in
      judge r.RLE.outputs r.RLE.stop
end

module Acs = struct
  type payload = int

  include Abc.Acs.Make (Abc.Payloads.Int_payload)
end

module Acs_battery = Battery (Acs_subject (Acs) (struct
  let name = "acs: identical common subset of proposed values"
  let count = 30
  let proposal i = 100 + i
end))

module Batch_acs = struct
  type payload = string

  include Abc.Batch_acs
end

module Batch_acs_battery = Battery (Acs_subject (Batch_acs) (struct
  let name = "batch acs: identical common subset of proposed batches"
  let count = 24
  let proposal i = Printf.sprintf "batch-%d:%s" i (String.make (8 * i) 'x')
end))

(* ---- 10. atomic broadcast (batched, pipelined SMR) ---- *)

module Atomic = Abc_smr.Atomic_broadcast
module AtomicE = Abc_net.Engine.Make (Atomic)
module AtomicRL = Abc_net.Reliable_link.Make (Atomic)
module AtomicRLE = Abc_net.Engine.Make (AtomicRL)

module Atomic_subject = struct
  let name = "atomic broadcast: total order, no dup tx, inclusion"

  (* Each scenario runs [epochs] ACS-over-coded-RBC instances, so the
     space stays smaller than the plain ACS subject's. *)
  let count = 20

  let max_n = 5

  let max_loss = 6

  let max_f ~n = (n - 1) / 3

  let batch_size = 3

  let epochs = 4

  (* Mempools hold one epoch less than pipeline capacity: the spare
     epoch absorbs a batch excluded from some subset and re-proposed,
     so the inclusion property below has its "within k epochs" slack. *)
  let mempools s =
    Array.init s.n (fun i ->
        Abc_smr.Workload.txs
          (Abc_smr.Workload.generate ~seed:s.seed ~node:(node i)
             ~count:(batch_size * (epochs - 1)) ~rate:0.2 ~tx_bytes:24))

  let check s =
    let mempools = mempools s in
    let inputs =
      Atomic.inputs ~n:s.n ~window:2 ~batch_size ~epochs
        ~coin_seed:(s.seed + 7919) mempools
    in
    let judge outputs stop =
      stop = Abc_net.Engine.All_terminal
      &&
      let honest_logs =
        List.filter_map
          (fun i -> Atomic.log_of_outputs outputs.(i))
          (honest_indices s)
      in
      List.length honest_logs = s.n - s.faults
      &&
      match honest_logs with
      | [] -> false
      | first :: rest ->
        (* total order agreement *)
        List.for_all (( = ) first) rest
        (* no duplicate transaction in the log *)
        && List.length first
           = List.length (List.sort_uniq String.compare first)
        (* every committed transaction was some node's client input *)
        && (let offered =
              Array.to_list mempools |> List.concat_map Array.to_list
            in
            List.for_all (fun tx -> List.mem tx offered) first)
        (* censorship inclusion: under fault-free fair scheduling on
           clean links, every correct node's transactions commit
           within the run's epochs.  Unfair schedulers (targeted,
           split, eclipse) may legitimately starve a proposer — full
           resistance needs threshold-encrypted batches, which is out
           of scope (see PROTOCOLS.md). *)
        && (s.faults > 0 || s.loss <> None || s.adversary_kind > 2
           || Array.for_all
                (fun mempool ->
                  Array.for_all (fun tx -> List.mem tx first) mempool)
                mempools)
    in
    match s.loss with
    | None ->
      let r =
        AtomicE.run
          (AtomicE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ())
      in
      judge r.AtomicE.outputs r.AtomicE.stop
    | Some l ->
      let r =
        AtomicRLE.run
          (AtomicRLE.config ~n:s.n ~f:s.f ~inputs ~faulty:(faulty_of s)
             ~adversary:(adversary_of s) ~seed:s.seed ~link_faults:(plan_of l)
             (* [epochs] overlapping agreements need a deeper delivery
                budget than the single-shot subjects *)
             ~max_deliveries:12_000_000 ())
      in
      judge r.AtomicRLE.outputs r.AtomicRLE.stop
end

module Atomic_battery = Battery (Atomic_subject)

(* ---- trace decoder totality ---- *)

(* Mutations of test/golden/dup_trace.jsonl.  [Trace_file.of_string]
   must never raise on any of them, and every [Error] must say where:
   [header: ...] or [line N: ...].  Unknown fields alone must not change
   what decodes. *)
module Json = Abc_sim.Json
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

let mutation_gen =
  let size = String.length (Lazy.force golden_trace) in
  QCheck.Gen.(
    let line = int_range 0 1200 in
    list_size (int_range 1 3)
      (oneof
         [
           map (fun k -> Truncate k) (int_range 0 size);
           map2 (fun k v -> Flip (k, v)) (int_range 0 (size - 1)) (int_range 0 255);
           map2 (fun l j -> Drop_field (l, j)) line (int_range 0 12);
           map3
             (fun l j v -> Add_field (l, j, v))
             line (int_range 0 12)
             (int_range 0 (Array.length extra_values - 1));
           map3
             (fun l j v -> Retype (l, j, v))
             line (int_range 0 12)
             (int_range 0 (Array.length extra_values - 1));
         ]))

let print_mutation = function
  | Truncate k -> Printf.sprintf "truncate %d" k
  | Flip (k, v) -> Printf.sprintf "flip %d=%d" k v
  | Drop_field (l, j) -> Printf.sprintf "drop %d.%d" l j
  | Add_field (l, j, v) -> Printf.sprintf "add %d.%d=%d" l j v
  | Retype (l, j, v) -> Printf.sprintf "retype %d.%d=%d" l j v

let print_mutations ms = "[" ^ String.concat "; " (List.map print_mutation ms) ^ "]"

(* Rewrites one line's object through [Json]; a line that is not an
   object (already mangled) is left alone. *)
let edit_line text l f =
  let lines = String.split_on_char '\n' text in
  String.concat "\n"
    (List.mapi
       (fun i line ->
         if i <> l mod List.length lines then line
         else
           match Json.of_string line with
           | Ok (Json.Obj fields) -> Json.to_string (Json.Obj (f fields))
           | Ok _ | Error _ -> line)
       lines)

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

let positioned msg =
  String.starts_with ~prefix:"header: " msg
  || String.starts_with ~prefix:"line " msg
     &&
     match String.index_opt msg ':' with
     | Some i ->
       i > 5 && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub msg 5 (i - 5))
     | None -> false

let same_entries (a : Trace_file.t) (b : Trace_file.t) =
  List.equal
    (fun (x : Trace.entry) (y : Trace.entry) ->
      x.Trace.time = y.Trace.time && x.Trace.node = y.Trace.node
      && Abc_sim.Event.equal x.Trace.event y.Trace.event)
    a.Trace_file.entries b.Trace_file.entries

let decoder_total mutations =
  let golden = Lazy.force golden_trace in
  let text = List.fold_left apply golden mutations in
  let only_additions =
    List.for_all (function Add_field _ -> true | _ -> false) mutations
  in
  match Trace_file.of_string text with
  | exception _ -> false
  | Error msg -> positioned msg && not only_additions
  | Ok file -> (
    (not only_additions)
    ||
    match Trace_file.of_string golden with
    | Ok reference -> same_entries reference file
    | Error _ -> false)

let trace_decoder_test =
  campaign ~name:"trace decoder: total on mutated JSONL" ~count:400 mutation_gen
    print_mutations decoder_total

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
       (AtomicE.run
          (AtomicE.config ~n:durable_n ~f:1 ~inputs:(Lazy.force durable_inputs) ~seed:3
             ~faulty:[ (node 2, Behaviour.Crash_recover crashes) ]
             ~recovery:{ AtomicE.snapshot; restore = Atomic.restore }
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
   batteries above randomize shape but stay at n <= 10, so this is
   the only tier-1 check that the hot path still completes (and
   delivers everywhere) at the n=128 scale E19 benchmarks. *)
let test_scale_bracha_rbc_n128 () =
  let n = 128 and f = 42 in
  let inputs = Rbc.inputs ~n ~sender:(node 0) Value.One in
  let r =
    RbcE.run
      (RbcE.config ~n ~f ~inputs ~adversary:Abc_net.Adversary.uniform ~seed:1
         ())
  in
  Alcotest.(check bool) "all terminal" true
    (r.RbcE.stop = Abc_net.Engine.All_terminal);
  Array.iteri
    (fun i outputs ->
      match outputs with
      | [ (_, Rbc.Delivered v) ] ->
        if v <> Value.One then Alcotest.failf "node %d delivered Zero" i
      | _ -> Alcotest.failf "node %d did not deliver exactly once" i)
    r.RbcE.outputs

(* MMR at the same scale: the consensus battery stops at n = 10, so
   this is the only tier-1 run of MMR's per-round sender sets at a
   committee size E19 measures. *)
let test_scale_mmr_n128 () =
  let n = 128 and f = 42 in
  let values = Array.init n (fun i -> if i < n / 2 then Value.Zero else Value.One) in
  let inputs = M.inputs ~n ~coin:(Abc.Coin.common ~seed:7) values in
  let _, verdict =
    MH.run (MH.E.config ~n ~f ~inputs ~adversary:Abc_net.Adversary.uniform ~seed:1 ())
  in
  Alcotest.(check bool) "terminated" true verdict.Abc.Harness.terminated;
  Alcotest.(check bool) "agreement" true verdict.Abc.Harness.agreement;
  Alcotest.(check bool) "validity" true verdict.Abc.Harness.validity

let () =
  Alcotest.run "properties"
    [
      ( "broadcast",
        [ Rbc_battery.test; Cb_battery.test; Coded_battery.test; Ir_battery.test ] );
      ( "consensus",
        [ Bracha_battery.test; Benor_battery.test; Mmr_battery.test ] );
      ( "multivalued",
        [ Turpin_battery.test; Acs_battery.test; Batch_acs_battery.test ] );
      ( "smr",
        [ Atomic_battery.test ] );
      ( "decoders",
        [ trace_decoder_test; token_decoder_test; document_decoder_test; durable_decoder_test ] );
      ( "scale",
        [
          Alcotest.test_case "bracha rbc n=128 delivers" `Quick
            test_scale_bracha_rbc_n128;
          Alcotest.test_case "mmr n=128 decides" `Quick test_scale_mmr_n128;
        ] );
    ]
