(** The protocol registry: the only code that turns a scenario into an
    engine run, for {!Runner}'s matrix cells and for [abc-run]'s flags.

    One entry per protocol: [bracha], [bracha-cc] (common coin),
    [bracha-rl] (reliable links), [ben-or], [mmr]; [bracha-rbc],
    [coded-rbc], [ir-rbc] broadcasting [payload] bytes, [bracha-rbc-bit]
    one bit; [atomic].  Each carries its resilience class, its engine
    (raw and {!Abc_net.Reliable_link}-wrapped), inputs, fault battery,
    verdict and per-node report lines; one generic run applies the
    adversary, topology, link faults, delivery budget, crash-recovery
    and trace. *)

(** {1 Tokens}: total decoders, whose errors quote the token. *)

type adversary =
  | Fifo | Uniform | Split | Latency of float | Target of int | Source of int | Eclipse of int
      (** [fifo], [uniform], [split], [latency:MEAN], [target:ID],
          [source:ID], [eclipse:PERIOD] *)

type topology = Complete | Ring | Star | Circulant of int list  (** [circulant:D,D,...] *)

type inputs = Halves | Unanimous of Abc.Value.t | Alternating
(** [split] (low half 0), [unanimous0], [unanimous1], [alternate] *)

type fault_kind = Silent | Crash | Replay | Flip | Balanced_flip | Equivocate | Force_decide

type fault =
  | No_fault
  | Faulty of fault_kind * int
      (** [KIND[:COUNT]] over the highest-numbered nodes ([balanced-flip]:
          both ends); a crash after 5 activations; a broadcast's first
          liar is its sender, node 0, and garbles with XOR 0x5A *)
  | Silent_sender  (** E1's faults: a silent sender, ... *)
  | Crash_sender  (** ... one that crashes after 2 activations, ... *)
  | Flip_relay  (** ... node 1 relaying ["!" ^ payload] ([bracha-rbc]), ... *)
  | Equivocate_sender  (** ... or ["!" ^ payload] to the high half *)

type partition = { from_tick : int; until_tick : int; island : int list }
(** [FROM:UNTIL:id,id,...] *)

type crash = int * (int * int) list
(** A node and its [(crash, rejoin)] ticks: [NODE:CRASH:REJOIN[:...]]. *)

val adversary : string -> (adversary, string) result
val topology : string -> (topology, string) result
val inputs : string -> (inputs, string) result
val fault : string -> (fault, string) result

val crash : string -> (crash list, string) result
(** [none], or comma-separated plans. *)

val partition : string -> (partition, string) result

(** {1 Scenarios} *)

(** [reliable] wraps the protocol in the reliable-link transport;
    [budget] caps deliveries ([None]: the engine's cap); [payload] is a
    broadcast's message or an atomic transaction, in bytes; [batch],
    [epochs], [window], [checkpoint], [tx_rate] (transactions per tick
    per node) and [crash] (recovering replicas) are the atomic
    broadcast's; [coin] ([None]: the protocol's default), [validation]
    and [plain] (plain broadcasts, not RBC) Bracha's; [crash_mode]
    Ben-Or's. *)
type scenario = {
  protocol : string; n : int; f : int;
  inputs : inputs; adversary : adversary; fault : fault; topology : topology;
  loss : float; dup : float; partition : partition option; reliable : bool; budget : int option;
  payload : int; batch : int; epochs : int; window : int; checkpoint : int; tx_rate : float;
  crash : crash list; coin : Abc.Coin.t option; validation : bool; plain : bool; crash_mode : bool;
}

val scenario : protocol:string -> n:int -> f:int -> scenario
(** The matrix defaults: split inputs, uniform adversary, no faults,
    reliable links, 64-byte payloads, batch 16 over 2 epochs in a window
    of 2, no checkpoints, tx-rate 1.0. *)

(** [rounds] is the slowest honest decision round, [committed] the
    atomic broadcast's committed transactions. *)
type outcome = {
  decided : bool; agreement : bool; validity : bool; totality : bool;
  rounds : int; messages : int; bytes : int; ticks : int; committed : int;
}

val decides : outcome -> bool
(** Decided, with agreement and validity. *)

val failed : outcome

(** [lines] are the per-node report lines: deliveries, decisions, logs. *)
type run = {
  outcome : outcome; stop : Abc_net.Engine.stop_reason; deliveries : int;
  metrics : Abc_sim.Metrics.t; lines : string list Lazy.t;
}

(** {1 The registry} *)

val resilience : string -> (string * (int -> int)) option
(** The class (["n>3f"]) and the largest tolerated [f] at [n], as the
    protocol modules declare in [[@@@abc.resilience]]. *)

val check_token : axis:string -> string -> (unit, string) result
(** Decode one value of a token axis ([protocol], [adversary], [fault],
    [topology], [inputs], [crash]); other axes are [Ok]. *)

val check : scenario -> (unit, string * string) result
(** Checks across axes (node ids below [n], graphs that exist at [n],
    probabilities, the fault battery): the offending axis, a message. *)

val run : ?trace:Abc_sim.Trace.t -> scenario -> seed:int -> (run, string) result
(** {!check}, then one seed; also [Error] when the protocol rejects
    [(n, f)] at init. *)

(** {1 For protocols outside the registry} *)

val policy : n:int -> adversary -> Abc_net.Adversary.t

val link_faults : scenario -> Abc_net.Link_faults.t option

val faulty :
  n:int -> reliable:bool -> fault -> ((Abc_net.Node_id.t * 'msg Abc_net.Behaviour.t) list, string) result
(** A counted fault whose lies leave messages unchanged; under
    [reliable], the message-agnostic kinds only. *)

val guard : (unit -> 'a) -> ('a, string) result
(** [Error] when the protocol rejects [(n, f)] at init. *)
