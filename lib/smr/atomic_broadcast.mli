[@@@abc.resilience "n>3f"]

(** Batched, pipelined atomic broadcast — HoneyBadger-style state
    machine replication from the paper's primitives.

    {b Paper source:} HoneyBadgerBFT (Miller et al. 2016, §4): each
    epoch runs one asynchronous common subset over every node's
    transaction batch; Bracha's 1984 RBC+BA toolbox supplies the
    agreement core ({!Abc.Batch_acs}) and the PR-5 erasure-coded RBC
    supplies O(|batch|/n + lambda log n) per-link dissemination.
    Checkpoints and state transfer follow PBFT (Castro & Liskov 1999,
    §4.4): periodic log-digest votes make a prefix {e stable} at
    [2f + 1] matching votes, enabling garbage collection, and a
    crash-recovered or lagging replica catches up by fetching a stable
    prefix vouched by [f + 1] matching responders.

    {b Resilience:} [n > 3f].

    {b Message type:} [Epoch] wraps a {!Abc.Batch_acs} message tagged
    with its epoch number; epochs within the pipeline window run
    concurrently, so the tag demultiplexes overlapping agreements.
    When [checkpoint_interval > 0] three recovery messages join it:
    [Checkpoint] (a log-digest vote at a checkpoint boundary),
    [Transfer_req] (a catch-up request carrying the requester's log
    length) and [Transfer_resp] (a stable checkpoint plus the missing
    log suffix).

    Per epoch, every node proposes a batch drawn from its local
    mempool (a {!Workload} schedule), ACS selects an agreed subset of
    at least [n - f] batches, and each node appends the subset —
    deduplicated against the whole log, in (proposer, arrival) order —
    to its replicated log.  Epochs overlap: epoch [e+1]'s dispersal
    starts as soon as the window above the last locally-committed
    epoch admits it (or lazily when a faster peer's traffic arrives),
    while epoch [e]'s binary agreements are still finishing.  A node
    whose batch was excluded from a subset requeues those transactions
    at the front of its next proposal, so under fair scheduling every
    correct node's transactions commit within a bounded number of
    epochs.  (Full censorship resilience against an adversarial
    scheduler needs threshold-encrypted batches — HoneyBadgerBFT §4.3
    — which is out of scope here; see PROTOCOLS.md.)

    Every [checkpoint_interval] epochs — and always at the final epoch,
    so the last checkpoint covers the whole log and a straggler can
    finish via transfer alone — each node broadcasts the digest
    of its committed log; once a checkpoint is stable the node prunes
    every per-epoch structure below it (bounding live agreement state
    to O(window + checkpoint_interval) epochs regardless of run
    length) and, if the stable point is ahead of its own commits,
    starts a state transfer.  The transfer retries on a capped
    exponential backoff timer, so a node that crashed and rejoined
    (see {!Abc_net.Behaviour.Crash_recover}) eventually rebuilds the
    full log even though epoch agreements it slept through are never
    retransmitted. *)

type tx = Workload.tx

type input = {
  mempool : tx array;  (** this node's client transactions, arrival order *)
  batch_size : int;  (** transactions proposed per epoch *)
  epochs : int;  (** total epochs to run *)
  window : int;  (** pipeline width: epochs in flight above [next_commit] *)
  coin_seed : int;  (** epoch [e]'s BAs use coin seed [coin_seed + e] *)
  checkpoint_interval : int;
      (** broadcast a checkpoint vote every this many epochs; [0]
          disables checkpoints, garbage collection and state transfer
          (the pre-recovery behaviour, byte-identical on the wire) *)
}

type output =
  | Epoch_committed of {
      epoch : int;
      batches : (Abc_net.Node_id.t * tx list) list;
          (** the agreed subset, sorted by proposer — identical at
              every correct node *)
      fresh : tx list;
          (** this epoch's log extension after deduplication *)
    }
  | Gc_stats of { max_live : int; checkpoints : int; transfers : int }
      (** emitted once just before {!Log_complete} when
          [checkpoint_interval > 0]: the high-water mark of concurrently
          live epoch agreements, stable checkpoints observed, and state
          transfers completed by this node *)
  | Log_complete of tx list
      (** all [epochs] committed; the full ordered log *)

type msg

include
  Abc_net.Protocol.S
    with type input := input
     and type output := output
     and type msg := msg

val snapshot : state -> string
(** The durable subset of a node's state — what a real replica would
    have written ahead to stable storage by crash time: the committed
    log, commit/mempool cursors, latest stable checkpoint record, and
    the batches it proposed (WAL-logged before dispersal).  Volatile
    agreement instances, digest votes and transfer progress are {e
    not} included.  Plug into {!Abc_net.Engine.Make}'s [recovery]
    record together with {!restore}. *)

val restore :
  Abc_net.Protocol.Context.t ->
  input ->
  durable:string ->
  state * msg Abc_net.Protocol.action list * output list
(** Rebuild a crash-recovered node from its durable store (a
    {!snapshot}, or [""] for a node that crashed before ever
    snapshotting — then it cold-starts).  Re-opens the pipeline window
    above the durable commit point, requeues the node's own
    transactions whose pre-crash fate is unknown, and starts a state
    transfer (when [checkpoint_interval > 0]) to fetch the commits it
    slept through.  If the durable log was already complete, re-emits
    the terminal output immediately.  A store that does not parse,
    numbers that are not plain decimal digits included, is read as
    [""]: it never raises. *)

val inputs :
  n:int ->
  ?window:int ->
  ?checkpoint_interval:int ->
  batch_size:int ->
  epochs:int ->
  coin_seed:int ->
  tx array array ->
  input array
(** One mempool per node ([window] defaults to 2,
    [checkpoint_interval] to 0 = disabled).  Raises
    [Invalid_argument] when the outer array length differs from
    [n]. *)

val log_of_outputs : ('a * output) list -> tx list option
(** The first [Log_complete] payload in a harness output list. *)

val stats_of_outputs : ('a * output) list -> (int * int * int) option
(** The first {!Gc_stats} payload, as [(max_live, checkpoints,
    transfers)]. *)

val encode_batch : tx list -> string
(** The batch wire encoding ACS agrees on (["<count>" then
    ":<len>:<tx>" per transaction] — never empty, so the
    Reed-Solomon dispersal always has a payload). *)

val decode_batch : string -> tx list option
(** Total inverse of {!encode_batch}; [None] on malformed (Byzantine)
    batches, which every correct node skips identically. *)
