type kind =
  | Send of { dst : int; label : string; detail : string; bytes : int }
  | Deliver of { src : int; label : string; detail : string; bytes : int }
  | Quorum of { quorum : string; count : int; threshold : int }
  | Coin_flip of { value : int }
  | Round_advance
  | Decide of { value : string }
  | Output of { label : string }
  | Note of { tag : string; detail : string }
  | Link_drop of { src : int; dst : int; label : string; reason : string }
  | Link_dup of { src : int; dst : int; label : string }
  | Timer_set of { id : int; due : int }
  | Timer_fire of { id : int }
  | Retransmit of { dst : int; seq : int }
  | Epoch_start of { epoch : int }
  | Batch_proposed of { epoch : int; txs : int; bytes : int }
  | Batch_committed of { epoch : int; proposer : int; txs : int }
  | Tx_committed of { epoch : int; id : string }
  | Node_crash
  | Node_recover
  | Checkpoint_stable of { epoch : int; len : int }
  | Transfer_start of { have : int }
  | Transfer_done of { epoch : int; len : int }

type t = { kind : kind; instance : string; round : int }

let make ?(instance = "") ?(round = -1) kind = { kind; instance; round }

let kind_label = function
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Quorum _ -> "quorum"
  | Coin_flip _ -> "coin"
  | Round_advance -> "round"
  | Decide _ -> "decide"
  | Output _ -> "output"
  | Note _ -> "note"
  | Link_drop _ -> "link-drop"
  | Link_dup _ -> "link-dup"
  | Timer_set _ -> "timer-set"
  | Timer_fire _ -> "timeout"
  | Retransmit _ -> "retransmit"
  | Epoch_start _ -> "epoch-start"
  | Batch_proposed _ -> "batch-proposed"
  | Batch_committed _ -> "batch-committed"
  | Tx_committed _ -> "tx-committed"
  | Node_crash -> "node-crashed"
  | Node_recover -> "node-recovered"
  | Checkpoint_stable _ -> "checkpoint-stable"
  | Transfer_start _ -> "state-transfer-start"
  | Transfer_done _ -> "state-transfer-done"

(* Dense ordinal per kind, used by the sampling trace sink to keep
   exact per-kind counts in a flat int array (no hashing per event).
   [kind_ord] follows declaration order; [ord_label] is the matching
   [kind_label] table. *)
let kind_count = 22

let kind_ord = function
  | Send _ -> 0
  | Deliver _ -> 1
  | Quorum _ -> 2
  | Coin_flip _ -> 3
  | Round_advance -> 4
  | Decide _ -> 5
  | Output _ -> 6
  | Note _ -> 7
  | Link_drop _ -> 8
  | Link_dup _ -> 9
  | Timer_set _ -> 10
  | Timer_fire _ -> 11
  | Retransmit _ -> 12
  | Epoch_start _ -> 13
  | Batch_proposed _ -> 14
  | Batch_committed _ -> 15
  | Tx_committed _ -> 16
  | Node_crash -> 17
  | Node_recover -> 18
  | Checkpoint_stable _ -> 19
  | Transfer_start _ -> 20
  | Transfer_done _ -> 21

let ord_labels =
  [|
    "send"; "deliver"; "quorum"; "coin"; "round"; "decide"; "output"; "note";
    "link-drop"; "link-dup"; "timer-set"; "timeout"; "retransmit";
    "epoch-start"; "batch-proposed"; "batch-committed"; "tx-committed";
    "node-crashed"; "node-recovered"; "checkpoint-stable";
    "state-transfer-start"; "state-transfer-done";
  |]

let ord_label ord = ord_labels.(ord)

let kind_equal a b =
  match (a, b) with
  | Send a, Send b ->
    Int.equal a.dst b.dst && String.equal a.label b.label
    && String.equal a.detail b.detail
    && Int.equal a.bytes b.bytes
  | Deliver a, Deliver b ->
    Int.equal a.src b.src && String.equal a.label b.label
    && String.equal a.detail b.detail
    && Int.equal a.bytes b.bytes
  | Quorum a, Quorum b ->
    String.equal a.quorum b.quorum && Int.equal a.count b.count
    && Int.equal a.threshold b.threshold
  | Coin_flip a, Coin_flip b -> Int.equal a.value b.value
  | Round_advance, Round_advance -> true
  | Decide a, Decide b -> String.equal a.value b.value
  | Output a, Output b -> String.equal a.label b.label
  | Note a, Note b -> String.equal a.tag b.tag && String.equal a.detail b.detail
  | Link_drop a, Link_drop b ->
    Int.equal a.src b.src && Int.equal a.dst b.dst
    && String.equal a.label b.label
    && String.equal a.reason b.reason
  | Link_dup a, Link_dup b ->
    Int.equal a.src b.src && Int.equal a.dst b.dst
    && String.equal a.label b.label
  | Timer_set a, Timer_set b -> Int.equal a.id b.id && Int.equal a.due b.due
  | Timer_fire a, Timer_fire b -> Int.equal a.id b.id
  | Retransmit a, Retransmit b -> Int.equal a.dst b.dst && Int.equal a.seq b.seq
  | Epoch_start a, Epoch_start b -> Int.equal a.epoch b.epoch
  | Batch_proposed a, Batch_proposed b ->
    Int.equal a.epoch b.epoch && Int.equal a.txs b.txs
    && Int.equal a.bytes b.bytes
  | Batch_committed a, Batch_committed b ->
    Int.equal a.epoch b.epoch
    && Int.equal a.proposer b.proposer
    && Int.equal a.txs b.txs
  | Tx_committed a, Tx_committed b ->
    Int.equal a.epoch b.epoch && String.equal a.id b.id
  | Node_crash, Node_crash -> true
  | Node_recover, Node_recover -> true
  | Checkpoint_stable a, Checkpoint_stable b ->
    Int.equal a.epoch b.epoch && Int.equal a.len b.len
  | Transfer_start a, Transfer_start b -> Int.equal a.have b.have
  | Transfer_done a, Transfer_done b ->
    Int.equal a.epoch b.epoch && Int.equal a.len b.len
  | ( ( Send _ | Deliver _ | Quorum _ | Coin_flip _ | Round_advance | Decide _
      | Output _ | Note _ | Link_drop _ | Link_dup _ | Timer_set _
      | Timer_fire _ | Retransmit _ | Epoch_start _ | Batch_proposed _
      | Batch_committed _ | Tx_committed _ | Node_crash | Node_recover
      | Checkpoint_stable _ | Transfer_start _ | Transfer_done _ ),
      _ ) ->
    false

let equal a b =
  kind_equal a.kind b.kind
  && String.equal a.instance b.instance
  && Int.equal a.round b.round

let pp_kind ppf = function
  | Send { dst; label; detail; bytes = _ } ->
    if String.length detail = 0 then Fmt.pf ppf "send -> n%d %s" dst label
    else Fmt.pf ppf "send -> n%d %s" dst detail
  | Deliver { src; label; detail; bytes = _ } ->
    if String.length detail = 0 then Fmt.pf ppf "deliver <- n%d %s" src label
    else Fmt.pf ppf "deliver <- n%d %s" src detail
  | Quorum { quorum; count; threshold } ->
    Fmt.pf ppf "quorum %s %d/%d" quorum count threshold
  | Coin_flip { value } -> Fmt.pf ppf "coin %d" value
  | Round_advance -> Fmt.string ppf "round-advance"
  | Decide { value } -> Fmt.pf ppf "decide %s" value
  | Output { label } -> Fmt.pf ppf "output: %s" label
  | Note { tag; detail } -> Fmt.pf ppf "%s %s" tag detail
  | Link_drop { src; dst; label; reason } ->
    Fmt.pf ppf "link-drop n%d -> n%d %s (%s)" src dst label reason
  | Link_dup { src; dst; label } ->
    Fmt.pf ppf "link-dup n%d -> n%d %s" src dst label
  | Timer_set { id; due } -> Fmt.pf ppf "timer-set #%d due t=%d" id due
  | Timer_fire { id } -> Fmt.pf ppf "timeout #%d" id
  | Retransmit { dst; seq } -> Fmt.pf ppf "retransmit -> n%d seq=%d" dst seq
  | Epoch_start { epoch } -> Fmt.pf ppf "epoch-start e%d" epoch
  | Batch_proposed { epoch; txs; bytes } ->
    Fmt.pf ppf "batch-proposed e%d txs=%d bytes=%d" epoch txs bytes
  | Batch_committed { epoch; proposer; txs } ->
    Fmt.pf ppf "batch-committed e%d proposer=n%d txs=%d" epoch proposer txs
  | Tx_committed { epoch; id } -> Fmt.pf ppf "tx-committed e%d %s" epoch id
  | Node_crash -> Fmt.string ppf "node-crashed"
  | Node_recover -> Fmt.string ppf "node-recovered"
  | Checkpoint_stable { epoch; len } ->
    Fmt.pf ppf "checkpoint-stable e%d len=%d" epoch len
  | Transfer_start { have } -> Fmt.pf ppf "state-transfer-start have=%d" have
  | Transfer_done { epoch; len } ->
    Fmt.pf ppf "state-transfer-done e%d len=%d" epoch len

let pp ppf t =
  if String.length t.instance > 0 then Fmt.pf ppf "[%s] " t.instance;
  if t.round >= 0 then Fmt.pf ppf "r%d " t.round;
  pp_kind ppf t.kind

(* ----------------------------------------------------------------- *)
(* Sinks                                                             *)
(* ----------------------------------------------------------------- *)

type sink = { enabled : bool; emit : t -> unit }

let null_sink = { enabled = false; emit = ignore }

let sink_to emit = { enabled = true; emit }

let quorum sink ~round quorum ~count ~threshold =
  if sink.enabled then
    sink.emit { kind = Quorum { quorum; count; threshold }; instance = ""; round }

let scoped sink ~instance =
  if not sink.enabled then sink
  else
    {
      sink with
      emit =
        (fun e ->
          let instance = Lazy.force instance in
          let instance =
            if String.length e.instance = 0 then instance
            else instance ^ "/" ^ e.instance
          in
          sink.emit { e with instance });
    }
