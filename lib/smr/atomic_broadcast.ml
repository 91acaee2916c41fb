[@@@abc.resilience "n>3f"]

module Node_id = Abc_net.Node_id
module Protocol = Abc_net.Protocol
module Event = Abc_sim.Event
module Int_map = Map.Make (Int)
module String_set = Set.Make (String)

type tx = Workload.tx

type input = {
  mempool : tx array;
  batch_size : int;
  epochs : int;
  window : int;
  coin_seed : int;
  checkpoint_interval : int; (* 0 disables checkpoints/GC/transfer *)
}

type output =
  | Epoch_committed of {
      epoch : int;
      batches : (Node_id.t * tx list) list;
      fresh : tx list;
    }
  | Gc_stats of { max_live : int; checkpoints : int; transfers : int }
  | Log_complete of tx list

type msg =
  | Epoch of { epoch : int; inner : Abc.Batch_acs.msg }
  | Checkpoint of { epoch : int; len : int; digest : int }
  | Transfer_req of { have : int }
  | Transfer_resp of {
      epoch : int; (* stable checkpoint epoch the snapshot reaches *)
      len : int; (* log length at that checkpoint *)
      digest : int; (* its agreed log digest *)
      base : int; (* echo of the request's [have] *)
      suffix : string; (* encoded log entries [base, len) *)
    }

(* A checkpoint certificate key: (epoch, log length, log digest).
   Votes for distinct keys never mix. *)
module Cp_key = struct
  type t = int * int * int

  let compare (e1, l1, d1) (e2, l2, d2) =
    let c = Int.compare e1 e2 in
    if c <> 0 then c
    else
      let c = Int.compare l1 l2 in
      if c <> 0 then c else Int.compare d1 d2
end

module Cp_map = Map.Make (Cp_key)

(* In-flight catch-up state: the outstanding request's [have] (so stale
   responses are ignored after local progress), the retry timeout, and
   the response groups collected so far. *)
type transfer = {
  req_base : int;
  rto : int;
  resps : ((int * int * int * int * string) * Node_id.t list) list;
}

type state = {
  me : Node_id.t;
  batch_size : int;
  epochs : int;
  window : int;
  coin_seed : int;
  checkpoint_interval : int;
  mempool : tx array;
  cursor : int; (* next mempool index not yet proposed *)
  requeue : tx list; (* txs from excluded batches, re-propose first *)
  proposed : tx list Int_map.t; (* epoch -> my batch *)
  instances : Abc.Batch_acs.state Int_map.t; (* live epoch agreements *)
  results : (Node_id.t * string) list Int_map.t; (* decided epochs *)
  committed : String_set.t; (* dedup set over the whole log *)
  log : tx list; (* committed txs, newest first *)
  log_len : int; (* List.length log, maintained incrementally *)
  next_commit : int; (* first epoch not yet committed *)
  complete : bool;
  (* checkpoint / GC / state-transfer machinery (checkpoint_interval > 0) *)
  cp_votes : Node_id.Set.t Cp_map.t; (* digest votes per certificate key *)
  stable : (int * int * int) option; (* highest stable checkpoint *)
  gc_floor : int; (* epochs below this are garbage-collected *)
  max_live : int; (* high-water mark of live epoch agreements *)
  checkpoints_stable : int;
  transfers_done : int;
  transfer : transfer option;
}

let name = "atomic-broadcast"

(* The catch-up retry timer (the only timer this protocol arms). *)
let catchup_timer = 0

(* Retry/backoff idiom shared with Reliable_link: start at 8n^2 virtual
   ticks (a broadcast round costs ~n^2 deliveries), cap at 1024n^2. *)
let initial_rto nodes = 8 * nodes * nodes
let max_rto nodes = 1024 * nodes * nodes

(* ----------------------------------------------------------------- *)
(* Batch encoding: "<count>" then ":<len>:<tx>" per transaction.     *)
(* Never empty (an empty batch is "0"), so the Reed-Solomon coder    *)
(* always has a payload to disperse.                                 *)
(* ----------------------------------------------------------------- *)

let encode_batch txs =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (string_of_int (List.length txs));
  List.iter
    (fun tx ->
      Buffer.add_char buffer ':';
      Buffer.add_string buffer (string_of_int (String.length tx));
      Buffer.add_char buffer ':';
      Buffer.add_string buffer tx)
    txs;
  Buffer.contents buffer

(* Total: a Byzantine proposer can commit an arbitrary string, which
   every honest node must skip identically. *)
let decode_batch s =
  let len = String.length s in
  let int_until pos =
    let rec scan i =
      if i < len && s.[i] >= '0' && s.[i] <= '9' then scan (i + 1) else i
    in
    let stop = scan pos in
    if stop = pos || stop - pos > 9 then None
    else Some (int_of_string (String.sub s pos (stop - pos)), stop)
  in
  match int_until 0 with
  | None -> None
  | Some (count, pos) ->
    let rec txs remaining pos acc =
      if remaining = 0 then if pos = len then Some (List.rev acc) else None
      else if pos >= len || s.[pos] <> ':' then None
      else
        match int_until (pos + 1) with
        | None -> None
        | Some (tx_len, pos) ->
          if pos >= len || s.[pos] <> ':' || pos + 1 + tx_len > len then None
          else
            txs (remaining - 1) (pos + 1 + tx_len)
              (String.sub s (pos + 1) tx_len :: acc)
    in
    txs count pos []

(* FNV-1a over the encoded log, folded into 30 bits so digests stay
   well inside OCaml's int on every platform.  Checkpoint digests only
   need to disagree when logs disagree — they are vote-matching keys,
   not cryptographic commitments (the simulated network is
   authenticated). *)
let digest_string s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let log_digest state = digest_string (encode_batch (List.rev state.log))

let rec list_drop k l =
  match l with _ :: rest when k > 0 -> list_drop (k - 1) rest | l -> l

let list_take k l =
  let rec go k acc = function
    | x :: rest when k > 0 -> go (k - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go k [] l

(* ----------------------------------------------------------------- *)
(* Epoch plumbing                                                    *)
(* ----------------------------------------------------------------- *)

(* The catch-up timer is armed outside [wrap]: epoch agreements arm
   none. *)
let wrap epoch actions =
  Protocol.map_actions (fun inner -> Epoch { epoch; inner }) actions

(* Scope an epoch's observability under "epoch<e>" so overlapping
   epoch agreements stay distinguishable in traces. *)
let epoch_ctx ctx epoch = Protocol.Context.scoped ctx ~prefix:"epoch" epoch

(* Draw this node's next batch: requeued (previously excluded) txs
   first, then fresh mempool arrivals.  The cursor only ever moves
   forward — an excluded batch re-enters via [requeue], not by
   rewinding. *)
let draw_batch state =
  let rec take k cursor requeue acc =
    if k = 0 then (List.rev acc, cursor, requeue)
    else
      match requeue with
      | tx :: rest -> take (k - 1) cursor rest (tx :: acc)
      | [] ->
        if cursor < Array.length state.mempool then
          take (k - 1) (cursor + 1) [] (state.mempool.(cursor) :: acc)
        else (List.rev acc, cursor, [])
  in
  take state.batch_size state.cursor state.requeue []

(* Open epoch [epoch]'s agreement (idempotent): draws a batch from the
   mempool and starts ACS-over-coded-RBC on it, which disperses the
   batch.  Epochs open either proactively (inside the pipeline window
   above [next_commit]) or lazily when traffic for them arrives — a
   peer that commits faster than us may legitimately be an epoch
   ahead.  Epochs below the GC floor stay dead: reopening one would
   resurrect state a stable checkpoint already covers. *)
let open_epoch ctx state epoch =
  if
    epoch < state.gc_floor || epoch >= state.epochs
    || Int_map.mem epoch state.instances
  then (state, [])
  else begin
    let batch, cursor, requeue = draw_batch state in
    let proposal = encode_batch batch in
    let sink = ctx.Protocol.Context.sink in
    if sink.Event.enabled then begin
      sink.Event.emit (Event.make (Event.Epoch_start { epoch }));
      sink.Event.emit
        (Event.make
           (Event.Batch_proposed
              { epoch; txs = List.length batch; bytes = String.length proposal }))
    end;
    let inner_input =
      {
        Abc.Batch_acs.proposal;
        coin = Abc.Coin.common ~seed:(state.coin_seed + epoch);
      }
    in
    let inner_state, actions =
      Abc.Batch_acs.initial (epoch_ctx ctx epoch) inner_input
    in
    let instances = Int_map.add epoch inner_state state.instances in
    ( {
        state with
        cursor;
        requeue;
        proposed = Int_map.add epoch batch state.proposed;
        instances;
        max_live = max state.max_live (Int_map.cardinal instances);
      },
      wrap epoch actions )
  end

(* Open every epoch the pipeline window admits: [next_commit] up to
   [next_commit + window) — epoch e+1's dispersal starts while epoch
   e's agreement is still running. *)
let open_window ctx state =
  List.fold_left
    (fun (state, acc) epoch ->
      let state, actions = open_epoch ctx state epoch in
      (state, acc @ actions))
    (state, [])
    (List.init state.window (fun k -> state.next_commit + k))

(* ----------------------------------------------------------------- *)
(* Checkpoints, garbage collection, state transfer                   *)
(* ----------------------------------------------------------------- *)

(* Drop every per-epoch structure below the GC floor: everything up to
   the stable checkpoint that this node has also committed locally.
   A lagging node (next_commit behind the stable epoch) only GCs up to
   its own commit point — the gap is closed by state transfer, not by
   discarding agreements it still needs. *)
let collect_garbage state =
  match state.stable with
  | None -> state
  | Some (stable_epoch, _, _) ->
    let floor =
      max state.gc_floor (min state.next_commit (stable_epoch + 1))
    in
    if floor = state.gc_floor then state
    else
      let prune m = Int_map.filter (fun epoch _ -> epoch >= floor) m in
      {
        state with
        gc_floor = floor;
        instances = prune state.instances;
        results = prune state.results;
        proposed = prune state.proposed;
        cp_votes =
          Cp_map.filter
            (fun (epoch, _, _) _ -> epoch > stable_epoch)
            state.cp_votes;
      }

(* Begin (or keep running) the catch-up loop: broadcast a transfer
   request carrying how much log we hold and arm the retry timer.
   Idempotent while a transfer is in flight. *)
let start_transfer ctx state =
  match state.transfer with
  | Some _ -> (state, [])
  | None ->
    if state.complete || state.checkpoint_interval <= 0 then (state, [])
    else begin
      let nodes = ctx.Protocol.Context.n in
      let have = state.log_len in
      let sink = ctx.Protocol.Context.sink in
      if sink.Event.enabled then sink.Event.emit (Event.make (Event.Transfer_start { have }));
      let rto = initial_rto nodes in
      ( { state with transfer = Some { req_base = have; rto; resps = [] } },
        [
          Protocol.Broadcast (Transfer_req { have });
          Protocol.Set_timer { id = catchup_timer; after = rto };
        ] )
    end

(* Count one checkpoint digest vote.  2f+1 matching votes make the
   checkpoint stable (PBFT's stability condition): at least f+1 honest
   nodes hold the digest, so the prefix below it can be
   garbage-collected — and if the stable point is ahead of our own
   commits, we are the lagging replica and start a state transfer. *)
let record_checkpoint ctx state ~voter ((epoch, len, _digest) as key) =
  if state.checkpoint_interval <= 0 then (state, [])
  else
    let stale =
      match state.stable with
      | Some (stable_epoch, _, _) -> epoch <= stable_epoch
      | None -> false
    in
    if stale then (state, [])
    else
      let votes =
        match Cp_map.find_opt key state.cp_votes with
        | Some set -> Node_id.Set.add voter set
        | None -> Node_id.Set.singleton voter
      in
      let state = { state with cp_votes = Cp_map.add key votes state.cp_votes } in
      let threshold =
        Abc.Quorum.checkpoint_stable ~f:ctx.Protocol.Context.f
      in
      let count = Node_id.Set.cardinal votes in
      if count < threshold then (state, [])
      else begin
        let sink = ctx.Protocol.Context.sink in
        Event.quorum sink ~round:(-1) "checkpoint" ~count ~threshold;
        if sink.Event.enabled then
          sink.Event.emit (Event.make (Event.Checkpoint_stable { epoch; len }));
        let state =
          {
            state with
            stable = Some key;
            checkpoints_stable = state.checkpoints_stable + 1;
          }
        in
        let state = collect_garbage state in
        if epoch + 1 > state.next_commit then start_transfer ctx state
        else (state, [])
      end

(* ----------------------------------------------------------------- *)
(* Commit path                                                       *)
(* ----------------------------------------------------------------- *)

(* Commit decided epochs in order: deduplicate each epoch's agreed
   subset against the whole log, append the survivors in (proposer,
   arrival) order, and requeue my own batch if the subset excluded
   it.  Every honest node processes identical subsets in identical
   epoch order against an identical dedup set, so the logs agree.
   Crossing a checkpoint boundary (every [checkpoint_interval] epochs)
   broadcasts this node's digest vote for the boundary. *)
let drain_commits ctx state =
  let rec loop state actions acc =
    match Int_map.find_opt state.next_commit state.results with
    | Some subset ->
      let epoch = state.next_commit in
      let state, batches, fresh_rev =
        List.fold_left
          (fun (state, batches, fresh_rev) (proposer, raw) ->
            match decode_batch raw with
            | None ->
              (* Malformed (Byzantine) batch: skipped identically
                 everywhere. *)
              (state, batches, fresh_rev)
            | Some txs ->
              let fresh =
                List.filter
                  (fun tx -> not (String_set.mem tx state.committed))
                  txs
              in
              let sink = ctx.Protocol.Context.sink in
              if sink.Event.enabled then begin
                sink.Event.emit
                  (Event.make
                     (Event.Batch_committed
                        { epoch; proposer = Node_id.to_int proposer; txs = List.length fresh }));
                List.iter
                  (fun tx ->
                    sink.Event.emit
                      (Event.make (Event.Tx_committed { epoch; id = Workload.tx_id tx })))
                  fresh
              end;
              let state =
                {
                  state with
                  committed =
                    List.fold_left
                      (fun set tx -> String_set.add tx set)
                      state.committed fresh;
                  log = List.rev_append fresh state.log;
                  log_len = state.log_len + List.length fresh;
                }
              in
              (state, (proposer, txs) :: batches, List.rev_append fresh fresh_rev))
          (state, [], []) subset
      in
      (* If my batch was excluded, its uncommitted txs go back to the
         front of the queue for the next epoch I open. *)
      let included =
        List.exists (fun (proposer, _) -> Node_id.equal proposer state.me) subset
      in
      let state =
        if included then state
        else
          match Int_map.find_opt epoch state.proposed with
          | None -> state
          | Some mine ->
            let missing =
              List.filter
                (fun tx -> not (String_set.mem tx state.committed))
                mine
            in
            { state with requeue = state.requeue @ missing }
      in
      let output =
        Epoch_committed
          { epoch; batches = List.rev batches; fresh = List.rev fresh_rev }
      in
      let state = { state with next_commit = epoch + 1 } in
      let state, cp_actions =
        (* The final epoch is always a boundary: the last checkpoint
           then covers the whole log, so a replica rejoining after the
           run finished can complete via state transfer alone (nobody
           retransmits the tail's epoch agreements). *)
        if
          state.checkpoint_interval > 0
          && ((epoch + 1) mod state.checkpoint_interval = 0
             || epoch + 1 = state.epochs)
        then begin
          (* The digest is computed at the boundary — the log as of
             this commit, before any later epoch extends it. *)
          let len = state.log_len in
          let digest = log_digest state in
          let state, stable_actions =
            record_checkpoint ctx state ~voter:state.me (epoch, len, digest)
          in
          ( state,
            Protocol.Broadcast (Checkpoint { epoch; len; digest })
            :: stable_actions )
        end
        else (state, [])
      in
      loop state (actions @ cp_actions) (output :: acc)
    | None ->
      if state.next_commit >= state.epochs && not state.complete then begin
        let stats =
          if state.checkpoint_interval > 0 then
            [
              Gc_stats
                {
                  max_live = state.max_live;
                  checkpoints = state.checkpoints_stable;
                  transfers = state.transfers_done;
                };
            ]
          else []
        in
        ( { state with complete = true },
          actions,
          List.rev acc @ stats @ [ Log_complete (List.rev state.log) ] )
      end
      else (state, actions, List.rev acc)
  in
  loop state [] []

(* ----------------------------------------------------------------- *)
(* State transfer: serving and installing snapshots                  *)
(* ----------------------------------------------------------------- *)

(* Serve a transfer request: ship our latest stable checkpoint plus
   the log entries the requester is missing up to it.  We only serve
   prefixes we both hold and have a stability certificate for — the
   f+1 matching-response rule on the requester side does the
   vouching. *)
let serve_transfer_req state ~src ~have =
  if state.checkpoint_interval <= 0 then (state, [], [])
  else
    match state.stable with
    | None -> (state, [], [])
    | Some (epoch, len, digest) ->
      if len <= have || state.log_len < len then (state, [], [])
      else begin
        let suffix =
          encode_batch (list_take (len - have) (list_drop have (List.rev state.log)))
        in
        ( state,
          [ Protocol.Send (src, Transfer_resp { epoch; len; digest; base = have; suffix }) ],
          [] )
      end

(* Install a vouched snapshot: splice the suffix onto our log, jump
   [next_commit] past the checkpoint, requeue our own transactions
   whose epochs were transferred over, and drop the per-epoch state
   those epochs held.  Then drain any already-decided later epochs and
   re-request if the log is still incomplete — progress-gated, with
   the armed retry timer as the fallback. *)
let install_snapshot ctx state ~cp:(epoch, len, digest) ~suffix =
  match decode_batch suffix with
  | None -> (state, [], [])
  | Some txs ->
    if state.log_len + List.length txs <> len then (state, [], [])
    else begin
      let sink = ctx.Protocol.Context.sink in
      if sink.Event.enabled then sink.Event.emit (Event.make (Event.Transfer_done { epoch; len }));
      let committed =
        List.fold_left (fun set tx -> String_set.add tx set) state.committed txs
      in
      let log = List.fold_left (fun l tx -> tx :: l) state.log txs in
      let next_commit = epoch + 1 in
      let requeue_extra =
        Int_map.fold
          (fun e batch acc ->
            if e < next_commit then
              acc @ List.filter (fun tx -> not (String_set.mem tx committed)) batch
            else acc)
          state.proposed []
      in
      let keep m = Int_map.filter (fun e _ -> e >= next_commit) m in
      let stable =
        match state.stable with
        | Some (stable_epoch, _, _) when stable_epoch >= epoch -> state.stable
        | Some _ | None -> Some (epoch, len, digest)
      in
      let state =
        {
          state with
          committed;
          log;
          log_len = len;
          next_commit;
          requeue = state.requeue @ requeue_extra;
          proposed = keep state.proposed;
          results = keep state.results;
          instances = keep state.instances;
          stable;
          transfers_done = state.transfers_done + 1;
          transfer =
            (match state.transfer with
            | Some t -> Some { t with resps = [] }
            | None -> None);
        }
      in
      let state, drain_actions, outputs = drain_commits ctx state in
      let state = collect_garbage state in
      let state, window_actions = open_window ctx state in
      let state, rereq =
        if state.complete then (state, [])
        else
          ( {
              state with
              transfer =
                (match state.transfer with
                | Some t -> Some { t with req_base = state.log_len; resps = [] }
                | None -> None);
            },
            [ Protocol.Broadcast (Transfer_req { have = state.log_len }) ] )
      in
      (state, drain_actions @ window_actions @ rereq, outputs)
    end

(* Collect a transfer response into its content group; f+1 distinct
   senders with byte-identical content vouch at least one honest
   holder of that committed prefix, which is when we install. *)
let accept_transfer_resp ctx state ~src ~resp:(epoch, len, digest, base, suffix) =
  match state.transfer with
  | None -> (state, [], [])
  | Some t ->
    if base <> t.req_base || base <> state.log_len || len <= state.log_len then
      (state, [], [])
    else begin
      let key = (epoch, len, digest, base, suffix) in
      let key_equal (e1, l1, d1, b1, s1) (e2, l2, d2, b2, s2) =
        Int.equal e1 e2 && Int.equal l1 l2 && Int.equal d1 d2 && Int.equal b1 b2
        && String.equal s1 s2
      in
      let rec add = function
        | [] -> [ (key, [ src ]) ]
        | (k, senders) :: rest when key_equal k key ->
          let senders =
            if List.exists (Node_id.equal src) senders then senders
            else src :: senders
          in
          (k, senders) :: rest
        | entry :: rest -> entry :: add rest
      in
      let resps = add t.resps in
      let state = { state with transfer = Some { t with resps } } in
      let vouched =
        List.exists
          (fun (k, senders) ->
            key_equal k key
            && List.length senders
               >= Abc.Quorum.transfer_vouch ~f:ctx.Protocol.Context.f)
          resps
      in
      if vouched then
        install_snapshot ctx state ~cp:(epoch, len, digest) ~suffix
      else (state, [], [])
    end

(* ----------------------------------------------------------------- *)
(* Protocol.S                                                        *)
(* ----------------------------------------------------------------- *)

let base_state ctx (input : input) =
  {
    me = ctx.Protocol.Context.me;
    batch_size = input.batch_size;
    epochs = input.epochs;
    window = input.window;
    coin_seed = input.coin_seed;
    checkpoint_interval = input.checkpoint_interval;
    mempool = input.mempool;
    cursor = 0;
    requeue = [];
    proposed = Int_map.empty;
    instances = Int_map.empty;
    results = Int_map.empty;
    committed = String_set.empty;
    log = [];
    log_len = 0;
    next_commit = 0;
    complete = false;
    cp_votes = Cp_map.empty;
    stable = None;
    gc_floor = 0;
    max_live = 0;
    checkpoints_stable = 0;
    transfers_done = 0;
    transfer = None;
  }

let initial ctx (input : input) =
  if input.batch_size <= 0 then
    invalid_arg "Atomic_broadcast: batch_size must be positive";
  if input.epochs <= 0 then invalid_arg "Atomic_broadcast: epochs must be positive";
  if input.window <= 0 then invalid_arg "Atomic_broadcast: window must be positive";
  if input.checkpoint_interval < 0 then
    invalid_arg "Atomic_broadcast: checkpoint_interval must be >= 0";
  open_window ctx (base_state ctx input)

(* The commit path runs only when the message added a result for its
   epoch.  This is exact because three invariants hold between
   messages: no result sits at [next_commit] (and [complete] is set
   once [next_commit] reaches [epochs]), [gc_floor] is what
   [collect_garbage] would compute, and every epoch of the window is
   open.  [initial], [restore], [install_snapshot] and the commit path
   below each end by establishing them, and a message that adds no
   result leaves [drain_commits], [collect_garbage] and [open_window]
   nothing to do.  An epoch agreement that returns its own state with
   no action and no output leaves this state as [open_epoch] left it. *)
let on_message ctx state ~src msg =
  match msg with
  | Epoch { epoch; inner } ->
    if epoch < state.gc_floor || epoch >= state.epochs then (state, [], [])
    else begin
      (* Lazily open epochs driven by faster peers (see [open_epoch]). *)
      let state, open_actions = open_epoch ctx state epoch in
      match Int_map.find_opt epoch state.instances with
      | None -> (state, open_actions, [])
      | Some inner_state -> (
        match Abc.Batch_acs.on_message (epoch_ctx ctx epoch) inner_state ~src inner with
        | inner', [], [] when inner' == inner_state -> (state, open_actions, [])
        | inner_state, inner_actions, inner_outputs ->
          let state =
            { state with instances = Int_map.add epoch inner_state state.instances }
          in
          let results = state.results in
          let state =
            List.fold_left
              (fun state (Abc.Batch_acs.Accepted subset) ->
                if Int_map.mem epoch state.results then state
                else { state with results = Int_map.add epoch subset state.results })
              state inner_outputs
          in
          if state.results == results then
            (state, open_actions @ wrap epoch inner_actions, [])
          else begin
            let state, drain_actions, outputs = drain_commits ctx state in
            let state = collect_garbage state in
            (* Committing an epoch slides the pipeline window forward. *)
            let state, window_actions = open_window ctx state in
            ( state,
              open_actions @ wrap epoch inner_actions @ drain_actions
              @ window_actions,
              outputs )
          end)
    end
  | Checkpoint { epoch; len; digest } ->
    let state, actions = record_checkpoint ctx state ~voter:src (epoch, len, digest) in
    (state, actions, [])
  | Transfer_req { have } -> serve_transfer_req state ~src ~have
  | Transfer_resp { epoch; len; digest; base; suffix } ->
    accept_transfer_resp ctx state ~src ~resp:(epoch, len, digest, base, suffix)

let on_timeout ctx state ~id =
  if id <> catchup_timer || state.complete then (state, [], [])
  else
    match state.transfer with
    | None -> (state, [], [])
    | Some t ->
      (* Capped exponential backoff; re-request with the current log
         length so responders serve exactly the missing suffix. *)
      let nodes = ctx.Protocol.Context.n in
      let rto = min (2 * t.rto) (max_rto nodes) in
      let have = state.log_len in
      ( { state with transfer = Some { req_base = have; rto; resps = [] } },
        [
          Protocol.Broadcast (Transfer_req { have });
          Protocol.Set_timer { id = catchup_timer; after = rto };
        ],
        [] )

let is_terminal = function
  | Log_complete _ -> true
  | Epoch_committed _ | Gc_stats _ -> false

(* ----------------------------------------------------------------- *)
(* Durable store (crash recovery)                                    *)
(* ----------------------------------------------------------------- *)

(* What a real replica would have written ahead by crash time: the
   committed log, the commit/mempool cursors, the latest stable
   checkpoint record, and the batches it proposed (a proposal is
   WAL-logged before dispersal so its transactions survive the
   crash).  Everything else — live agreement instances, digest votes,
   transfer progress — is volatile and rebuilt after rejoin. *)
let snapshot state =
  let stable_fields =
    match state.stable with
    | None -> [ "0"; "0"; "0" ]
    | Some (epoch, len, digest) ->
      [ string_of_int (epoch + 1); string_of_int len; string_of_int digest ]
  in
  let proposed =
    encode_batch
      (List.concat_map
         (fun (epoch, batch) -> [ string_of_int epoch; encode_batch batch ])
         (Int_map.bindings state.proposed))
  in
  encode_batch
    ([ "1"; string_of_int state.next_commit; string_of_int state.cursor ]
    @ stable_fields
    @ [ encode_batch (List.rev state.log); encode_batch state.requeue; proposed ]
    )

(* A number in the durable store: plain decimal digits, as [snapshot]
   writes them.  [int_of_string_opt] would also take "-1", "+1", "0x1f"
   and "1_0", and a negative cursor or epoch makes [restore] index out
   of bounds.  Eighteen digits always fit an int; a checkpoint digest
   has at most ten. *)
let decimal s =
  let len = String.length s in
  if len = 0 || len > 18 || not (String.for_all (fun c -> c >= '0' && c <= '9') s)
  then None
  else Some (int_of_string s)

let decode_proposed s =
  match decode_batch s with
  | None -> None
  | Some fields ->
    let rec pairs acc = function
      | [] -> Some (List.rev acc)
      | epoch :: batch :: rest -> (
        match (decimal epoch, decode_batch batch) with
        | Some epoch, Some txs -> pairs ((epoch, txs) :: acc) rest
        | _, _ -> None)
      | _ :: [] -> None
    in
    pairs [] fields

let restore ctx (input : input) ~durable =
  let cold = base_state ctx input in
  let parsed =
    match decode_batch durable with
    | Some
        [ "1"; next_commit; cursor; stable_e; stable_len; stable_digest;
          log_s; requeue_s; proposed_s ] -> (
      match
        ( decimal next_commit,
          decimal cursor,
          decimal stable_e,
          decimal stable_len,
          decimal stable_digest,
          decode_batch log_s,
          decode_batch requeue_s,
          decode_proposed proposed_s )
      with
      | ( Some next_commit,
          Some cursor,
          Some stable_e,
          Some stable_len,
          Some stable_digest,
          Some log_txs,
          Some requeue,
          Some proposed ) ->
        Some
          (next_commit, cursor, stable_e, stable_len, stable_digest, log_txs,
           requeue, proposed)
      | _, _, _, _, _, _, _, _ -> None)
    | Some _ | None -> None
  in
  match parsed with
  | None ->
    (* Unreadable durable store: cold restart plus catch-up.  (Only
       reachable if the store was corrupted — [snapshot] output always
       parses.) *)
    let state, actions = open_window ctx cold in
    let state, transfer_actions = start_transfer ctx state in
    (state, actions @ transfer_actions, [])
  | Some
      (next_commit, cursor, stable_e, stable_len, stable_digest, log_txs,
       requeue, proposed) ->
    let committed =
      List.fold_left (fun set tx -> String_set.add tx set) String_set.empty
        log_txs
    in
    let stable =
      if stable_e = 0 then None
      else Some (stable_e - 1, stable_len, stable_digest)
    in
    (* Transactions this node proposed before the crash whose fate is
       unknown re-enter the queue; the commit-time dedup keeps the ones
       the old dispersal still manages to commit from appearing twice. *)
    let requeue =
      requeue
      @ List.concat_map
          (fun (_, batch) ->
            List.filter (fun tx -> not (String_set.mem tx committed)) batch)
          proposed
    in
    let state =
      {
        cold with
        cursor;
        requeue;
        committed;
        log = List.rev log_txs;
        log_len = List.length log_txs;
        next_commit;
        stable;
        gc_floor =
          (match stable with
          | Some (epoch, _, _) -> min next_commit (epoch + 1)
          | None -> 0);
      }
    in
    if state.next_commit >= state.epochs then begin
      (* The durable log was already complete: re-emit the terminal
         output so the engine sees this incarnation finish too. *)
      let state = { state with complete = true } in
      let stats =
        if state.checkpoint_interval > 0 then
          [ Gc_stats { max_live = 0; checkpoints = 0; transfers = 0 } ]
        else []
      in
      (state, [], stats @ [ Log_complete (List.rev state.log) ])
    end
    else begin
      let state, actions = open_window ctx state in
      let state, transfer_actions = start_transfer ctx state in
      (state, actions @ transfer_actions, [])
    end

(* ----------------------------------------------------------------- *)
(* Wire metadata / pretty-printing                                   *)
(* ----------------------------------------------------------------- *)

(* Labels are shared strings (see [Protocol.S.msg_label]): each of
   Batch_acs's labels maps to its prefixed literal, and only a label
   outside that set is built per call. *)
let msg_label = function
  | Epoch { inner; _ } -> (
    match Abc.Batch_acs.msg_label inner with
    | "prop.val" -> "epoch.prop.val"
    | "prop.echo" -> "epoch.prop.echo"
    | "prop.ready" -> "epoch.prop.ready"
    | "ba.initial" -> "epoch.ba.initial"
    | "ba.echo" -> "epoch.ba.echo"
    | "ba.ready" -> "epoch.ba.ready"
    | label -> "epoch." ^ label)
  | Checkpoint _ -> "checkpoint"
  | Transfer_req _ -> "transfer.req"
  | Transfer_resp _ -> "transfer.resp"

let msg_bytes = function
  | Epoch { epoch = _; inner } ->
    Protocol.Wire_size.int + Abc.Batch_acs.msg_bytes inner
  | Checkpoint _ -> Protocol.Wire_size.tag + (3 * Protocol.Wire_size.int)
  | Transfer_req _ -> Protocol.Wire_size.tag + Protocol.Wire_size.int
  | Transfer_resp { suffix; _ } ->
    Protocol.Wire_size.tag + (4 * Protocol.Wire_size.int)
    + String.length suffix

let pp_msg ppf = function
  | Epoch { epoch; inner } ->
    Fmt.pf ppf "epoch[%d]:%a" epoch Abc.Batch_acs.pp_msg inner
  | Checkpoint { epoch; len; digest } ->
    Fmt.pf ppf "checkpoint[e%d len=%d digest=%x]" epoch len digest
  | Transfer_req { have } -> Fmt.pf ppf "transfer-req[have=%d]" have
  | Transfer_resp { epoch; len; base; _ } ->
    Fmt.pf ppf "transfer-resp[e%d len=%d base=%d]" epoch len base

let pp_output ppf = function
  | Epoch_committed { epoch; batches; fresh } ->
    Fmt.pf ppf "epoch[%d]committed{%a} +%d txs" epoch
      (Fmt.list ~sep:Fmt.comma (fun ppf (id, txs) ->
           Fmt.pf ppf "%a:%d" Node_id.pp id (List.length txs)))
      batches (List.length fresh)
  | Gc_stats { max_live; checkpoints; transfers } ->
    Fmt.pf ppf "gc-stats[max-live=%d checkpoints=%d transfers=%d]" max_live
      checkpoints transfers
  | Log_complete log -> Fmt.pf ppf "log(%d txs)" (List.length log)

let inputs ~n ?(window = 2) ?(checkpoint_interval = 0) ~batch_size ~epochs
    ~coin_seed mempools =
  if Array.length mempools <> n then
    invalid_arg "Atomic_broadcast.inputs: mempools length must equal n";
  Array.map
    (fun mempool ->
      { mempool; batch_size; epochs; window; coin_seed; checkpoint_interval })
    mempools

let log_of_outputs outputs =
  List.find_map
    (fun (_, output) ->
      match output with
      | Log_complete log -> Some log
      | Epoch_committed _ | Gc_stats _ -> None)
    outputs

let stats_of_outputs outputs =
  List.find_map
    (fun (_, output) ->
      match output with
      | Gc_stats { max_live; checkpoints; transfers } ->
        Some (max_live, checkpoints, transfers)
      | Epoch_committed _ | Log_complete _ -> None)
    outputs
