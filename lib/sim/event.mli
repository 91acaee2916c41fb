(** Typed protocol events.

    The vocabulary of the structured observability layer: the engine
    and every protocol module report progress as values of {!t}, which
    {!Trace} buffers, the JSONL exporter serializes (schema documented
    in [OBSERVABILITY.md]) and the [abc-trace] analyzer consumes.

    Events are deliberately protocol-agnostic: quorum names, message
    labels and decision values are short strings so one event type (and
    one stable schema) covers Bracha RBC, the consensus family, ACS and
    the replicated log alike. *)

type kind =
  | Send of { dst : int; label : string; detail : string; bytes : int }
      (** a point-to-point transmission was enqueued ([detail] may be
          empty — sends are high-volume); [bytes] is the estimated wire
          size of the message (see {!Abc_net.Protocol.S.msg_bytes}) *)
  | Deliver of { src : int; label : string; detail : string; bytes : int }
      (** a message was delivered to this node; [detail] is the
          pretty-printed payload and [bytes] its estimated wire size *)
  | Quorum of { quorum : string; count : int; threshold : int }
      (** a named quorum rule fired with [count >= threshold] (e.g.
          ["echo"], ["ready"], ["decide"]) *)
  | Coin_flip of { value : int }  (** the round coin came up [value] *)
  | Round_advance  (** the node entered round [round] (see {!t}) *)
  | Decide of { value : string }  (** irrevocable decision on [value] *)
  | Output of { label : string }
      (** an externally visible protocol output was emitted *)
  | Note of { tag : string; detail : string }
      (** free-form escape hatch for events outside the vocabulary *)
  | Link_drop of { src : int; dst : int; label : string; reason : string }
      (** the link-fault model discarded an in-flight message; [reason]
          is ["loss"] (random drop) or ["partition"] (severed link) *)
  | Link_dup of { src : int; dst : int; label : string }
      (** the link-fault model re-enqueued a duplicate copy of a
          delivered message *)
  | Timer_set of { id : int; due : int }
      (** the node armed a virtual timer [id] firing at tick [due] *)
  | Timer_fire of { id : int }  (** timer [id] fired on this node *)
  | Retransmit of { dst : int; seq : int }
      (** a transport layer re-sent an unacknowledged envelope *)
  | Epoch_start of { epoch : int }
      (** the atomic-broadcast pipeline opened epoch [epoch] on this
          node (its batch agreement began; schema v4) *)
  | Batch_proposed of { epoch : int; txs : int; bytes : int }
      (** this node proposed its batch for [epoch]: [txs] transactions
          totalling [bytes] encoded bytes (schema v4) *)
  | Batch_committed of { epoch : int; proposer : int; txs : int }
      (** [epoch]'s agreed subset committed [proposer]'s batch, adding
          [txs] previously-uncommitted transactions (schema v4) *)
  | Tx_committed of { epoch : int; id : string }
      (** transaction [id] entered the replicated log in [epoch]
          (schema v4; high-volume — emitted once per tx per node) *)
  | Node_crash
      (** this node crashed: all volatile protocol state is lost and
          in-flight deliveries to it are dropped (schema v5) *)
  | Node_recover
      (** this node rejoined after a crash, restarting from its durable
          store (schema v5) *)
  | Checkpoint_stable of { epoch : int; len : int }
      (** this node collected a stable-checkpoint quorum for [epoch]
          covering the first [len] log entries; instances below are
          garbage-collected (schema v5) *)
  | Transfer_start of { have : int }
      (** this node began state transfer, holding [have] committed log
          entries (schema v5) *)
  | Transfer_done of { epoch : int; len : int }
      (** this node installed a transferred snapshot at checkpoint
          [epoch] with [len] log entries (schema v5) *)

type t = {
  kind : kind;
  instance : string;
      (** protocol sub-instance path (e.g. ["ba.3"], ["n2@r1s2"]); [""]
          for the top-level protocol *)
  round : int;  (** protocol round the event belongs to; [-1] when n/a *)
}

val make : ?instance:string -> ?round:int -> kind -> t
(** [make kind] is an event with [instance ""] and [round (-1)] unless
    overridden. *)

val kind_label : kind -> string
(** Stable one-word name of the event kind — the JSONL ["kind"] field:
    ["send"], ["deliver"], ["quorum"], ["coin"], ["round"], ["decide"],
    ["output"], ["note"], ["link-drop"], ["link-dup"], ["timer-set"],
    ["timeout"], ["retransmit"], ["epoch-start"], ["batch-proposed"],
    ["batch-committed"], ["tx-committed"], ["node-crashed"],
    ["node-recovered"], ["checkpoint-stable"], ["state-transfer-start"]
    or ["state-transfer-done"]. *)

val kind_count : int
(** Number of event kinds; [kind_ord] ranges over
    [0 .. kind_count - 1]. *)

val kind_ord : kind -> int
(** Dense ordinal of the kind, in declaration order.  The sampling
    trace sink uses it to keep exact per-kind counts in a flat int
    array without hashing a label per event (see PERFORMANCE.md). *)

val ord_label : int -> string
(** [ord_label (kind_ord k) = kind_label k] — the label table indexed
    by ordinal.  Raises [Invalid_argument] outside
    [0 .. kind_count - 1]. *)

val equal : t -> t -> bool
(** Structural equality (used by the JSONL round-trip tests). *)

val pp : t Fmt.t
(** Human-readable one-line rendering. *)

(** {1 Sinks}

    A sink is the cheap hook protocol code emits events into.  The
    [enabled] flag lets call sites skip event construction entirely
    when observability is off — the contract is

    {[ if sink.enabled then sink.emit (Event.make ...) ]}

    so a disabled run performs one boolean test per potential event and
    allocates nothing. *)

type sink = {
  enabled : bool;  (** whether [emit] does anything *)
  emit : t -> unit;  (** deliver one event (stamps time/node upstream) *)
}

val null_sink : sink
(** The disabled sink: [enabled = false], [emit = ignore]. *)

val sink_to : (t -> unit) -> sink
(** [sink_to f] is an enabled sink forwarding to [f]. *)

val quorum : sink -> round:int -> string -> count:int -> threshold:int -> unit
(** [quorum sink ~round name ~count ~threshold] emits a {!Quorum} event
    (top-level instance; [round] is [-1] where there is none) and
    returns at once when [sink] is disabled.  Its arguments are
    evaluated either way, so [name] should be a literal and [count] and
    [threshold] cheap. *)

val scoped : sink -> instance:string Lazy.t -> sink
(** [scoped sink ~instance] prefixes [instance] onto the instance path
    of every event emitted (["outer/inner"] when nested).  [instance]
    is forced on the first emit, so a scope that emits nothing never
    renders its name.  Returns [sink] unchanged when disabled, so
    scoping costs nothing on the disabled path. *)
