(** The protocol registry: the only code that turns a scenario into an
    engine run or an exploration, for {!Runner}'s matrix cells,
    [abc-run]'s flags, its model checker, every bench table and the
    randomized campaign suite's rows.

    One entry per protocol: [bracha], [bracha-cc] (common coin),
    [ben-or], [mmr], [mmr-rabin] (the wire-level Rabin coin); [bracha-rbc], [coded-rbc], [ir-rbc] and
    [consistent-rbc] (echo-only, no totality) broadcasting [payload]
    bytes, [bracha-rbc-bit] one bit; [acs] over proposals [100+i];
    [batch-acs] over batches ["batch-I:"] padded with [8i] bytes;
    [turpin-coan] over node 0's 9 and everyone else's 5 ([split]),
    every node's 0 or 1 ([unanimous0], [unanimous1]) or proposals
    [100+i] ([alternate]); [log] (one ACS per slot, [epochs] slots) and
    [atomic].
    Each carries its resilience class, its engine (raw,
    {!Abc_net.Reliable_link}-wrapped, or {!Abc_net.Relay}-flooded over
    an explicit topology), inputs, fault battery, verdict and per-node
    report lines; one generic run applies the adversary, topology, link
    faults, delivery budget, crash-recovery and trace. *)

(** {1 Tokens}: total decoders, whose errors quote the token, and
    their encoders: [decode (encode v) = Ok v] for every value a
    decoder returns. *)

type adversary =
  | Fifo | Uniform | Split | Latency of float | Target of int | Source of int | Eclipse of int
      (** [fifo], [uniform], [split], [latency:MEAN], [target:ID],
          [source:ID], [eclipse:PERIOD] *)

type topology = Complete | Ring | Star | Circulant of int list  (** [circulant:D,D,...] *)

type inputs = Halves | Unanimous of Abc.Value.t | Alternating
(** [split] (low half 0), [unanimous0], [unanimous1], [alternate] *)

type fault_kind =
  | Silent
  | Crash of int
      (** stops after [K] activations: [crash-after-K], and [crash]
          for 5 *)
  | Replay
  | Flip
  | Balanced_flip
  | Equivocate
  | Force_decide
  | Corrupt  (** honest for 3 activations, then the flip lie *)

type fault =
  | No_fault
  | Faulty of (fault_kind * int) list
      (** [KIND[:COUNT]], or kinds joined with [+]
          ([force-decide:1+flip:1]), over the highest-numbered nodes in
          order ([balanced-flip], alone: both ends); a broadcast's
          first liar is its sender, node 0, and garbles with XOR 0x5A *)
  | Placed of fault_kind * int list
      (** [KIND@ID,ID,...] ([silent@1,5]), alone: the kind on exactly
          those nodes, each below [n] and named once; not
          [balanced-flip] *)
  | Silent_sender  (** E1's faults: a silent sender, ... *)
  | Crash_sender  (** ... one that crashes after 2 activations, ... *)
  | Flip_relay  (** ... node 1 relaying ["!" ^ payload] ([bracha-rbc]), ... *)
  | Equivocate_sender  (** ... or ["!" ^ payload] to the high half *)

type partition = { from_tick : int; until_tick : int; island : int list }
(** [FROM:UNTIL:id,id,...] *)

type crash = int * (int * int) list
(** A node and its [(crash, rejoin)] ticks: [NODE:CRASH:REJOIN[:...]]. *)

type coin = Local | Common  (** [local], or [common]: the common coin keyed by seed 7 *)

val adversary : string -> (adversary, string) result
val adversary_token : adversary -> string
val topology : string -> (topology, string) result
val topology_token : topology -> string
val inputs : string -> (inputs, string) result
val inputs_token : inputs -> string
val fault : string -> (fault, string) result
val fault_token : fault -> string

val crash : string -> (crash list, string) result
(** [none], or comma-separated plans. *)

val crash_token : crash list -> string
val partition : string -> (partition, string) result
val partition_token : partition -> string

val float_token : float -> string
(** The shortest [%g] that reads back as the same float: how every
    number prints, here and in a spec cell's key. *)

(** {1 Scenarios} *)

(** [topology] other than [Complete] floods every message over the
    graph ({!Abc_net.Relay}), which takes only message-agnostic faults
    and no [reliable] links; [reliable] wraps the protocol in the
    reliable-link transport;
    [budget] caps deliveries ([None]: the engine's cap); [payload] is a
    broadcast's message or an atomic transaction, in bytes; [batch],
    [epochs], [window], [checkpoint], [tx_rate] (transactions per tick
    per node) and [crash] (recovering replicas) are the atomic
    broadcast's; [coin] ([None]: the protocol's default, local but for
    MMR's common coin) Bracha's, Ben-Or's and MMR's; [validation] and
    [plain] (plain broadcasts, not RBC) Bracha's; [crash_mode]
    Ben-Or's. *)
type scenario = {
  protocol : string; n : int; f : int;
  inputs : inputs; adversary : adversary; fault : fault; topology : topology;
  loss : float; dup : float; partition : partition option; reliable : bool; budget : int option;
  payload : int; batch : int; epochs : int; window : int; checkpoint : int; tx_rate : float;
  crash : crash list; coin : coin option; validation : bool; plain : bool; crash_mode : bool;
}

val scenario : protocol:string -> n:int -> f:int -> scenario
(** The matrix defaults: split inputs, uniform adversary, no faults,
    the complete graph, no link faults and no reliable-link transport,
    64-byte payloads, batch 16 over 2 epochs in a window of 2, no
    checkpoints, tx-rate 1.0. *)

(** One [atomic] replica's recovery measures: [max_live],
    [checkpoints] and [transfers] from its [Gc_stats] (zeros without
    one), and [catch_up], the ticks from its last rejoin to its first
    commit at or after it (0 for a node that never crashed, or never
    committed again). *)
type replica = { max_live : int; checkpoints : int; transfers : int; catch_up : int }

(** The verdict over the honest nodes (and, for [log] and [atomic],
    the crashed and recovered replicas).  [validity]: consensus decides
    a unanimous honest input; a broadcast's every delivery carries the
    sender's payload, when the sender is honest; a common subset has at
    least n-f entries, each its proposer's input; Turpin–Coan agrees on
    a proposed value, or falls back on [alternate]'s distinct proposals
    only;
    [atomic] commits no tx twice and only offered ones, and on a run
    with no faulty node, crash plan or link fault under [fifo],
    [uniform] or [latency], every node's first [batch * (epochs - 1)]
    txs.  A broadcast node that delivers twice breaks [agreement].
    [rounds] is the slowest honest decision round, [committed] the
    first correct replica's log length ([log]: commands, [atomic]:
    transactions), [shares] the run's [sent.share] count (the Rabin
    coin's share messages: 0 for every protocol but [mmr-rabin]),
    [replicas] one record per node ([atomic] only, else empty). *)
type outcome = {
  decided : bool; agreement : bool; validity : bool; totality : bool;
  rounds : int; messages : int; bytes : int; ticks : int; committed : int; shares : int;
  replicas : replica array;
}

val decides : outcome -> bool
(** Decided, with agreement and validity. *)

val failed : outcome

(** [lines] are the per-node report lines: deliveries, decisions, logs. *)
type run = {
  outcome : outcome; stop : Abc_net.Engine.stop_reason; deliveries : int;
  metrics : Abc_sim.Metrics.t; lines : string list Lazy.t;
}

(** {1 The grammar}

    One table row per field of {!scenario}, in record order: the axis
    name, its value type, a decoder into the record and an encoder from
    it.  [protocol], [n], [f], [inputs], [adversary], [fault],
    [topology], [loss], [dup], [partition], [reliable] ([true] |
    [false]), [budget], [payload], [batch], [epochs], [window],
    [checkpoint], [tx-rate], [crash], [coin] ([local] | [common]),
    [validation] ([true] | [false]), [transport] ([rbc] | [plain]: the
    field [plain]) and [mode] ([byzantine] | [crash]: the field
    [crash_mode]).  The token decoders above spell the token axes; the
    defaults are {!scenario}'s. *)

type ty = Int | Num | Token

val axes : (string * ty) list
(** The table's axis names and value types, in record order. *)

val of_tokens : (string * string) list -> (scenario, string * string) result
(** Decode [(axis, value)] pairs over {!scenario}'s defaults.  Total:
    an unknown axis, a missing [protocol], [n] or [f], or a value that
    does not decode is an error naming the axis.  Decoding checks no
    range: {!check} does. *)

val to_tokens : scenario -> (string * string) list
(** [protocol], [n] and [f], then every field that differs from
    {!scenario}'s default, in record order; floats print as the
    shortest decimal that reads back as the same float, so
    [of_tokens (to_tokens sc) = Ok sc]. *)

val token : axis:string -> scenario -> string option
(** One axis's token for [sc], at its default or not; [None] for an
    unset option or an axis outside the table. *)

val check_token : axis:string -> string -> (unit, string) result
(** Decode one value of a table axis on its own; an axis outside the
    table is [Ok]. *)

(** {1 The registry} *)

val resilience : string -> (string * (int -> int)) option
(** The class (["n>3f"], ["n>4f"], ["n>5f"]) and the largest tolerated
    [f] at [n], as the protocol modules declare in
    [[@@@abc.resilience]].  [Runner.check] refuses a spec cell past it
    unless the cell expects [expect-fail]. *)

val check : scenario -> (unit, string * string) result
(** Checks across axes (n >= 1, f >= 0, payload >= 0, budget >= 1,
    batch, epochs and window >= 1, checkpoint >= 0, tx-rate > 0; node
    ids below [n], graphs that exist at [n] and carry no reliable
    links, probabilities, the fault battery with its placed ids below
    [n] and distinct; crash plans only for a protocol with a durable
    store, with checkpoint > 0, over the complete graph without
    reliable links): the offending axis, a message. *)

val run : ?trace:Abc_sim.Trace.t -> scenario -> seed:int -> (run, string) result
(** {!check}, then one seed; also [Error] when the protocol rejects
    [(n, f)] at init. *)

val explore :
  scenario -> max_depth:int option -> max_states:int -> (Abc_check.Explore.outcome, string) result
(** {!check}, then every schedule of the scenario up to [max_depth]
    steps ([None]: to quiescence) within [max_states] states, each
    state judged by the verdict's [agreement && validity] over the
    honest nodes' outputs so far: seed 0's inputs and the faults a run
    places.  [adversary], [budget] and the seed do not apply, since
    every schedule is explored.  Reliable links, an explicit topology,
    a link fault or a crash plan is refused with one message; also
    [Error] when the protocol rejects [(n, f)] at init. *)

val link_faults : scenario -> Abc_net.Link_faults.t option
(** The scenario's loss, duplication and partition, [None] when it has
    none. *)
