(* The randomized campaign suite.  A row is a name, a count, a
   generator of registry scenarios with their seeds, and the matrix
   oracle that judges them: every run goes through [Registry.run] and
   [Runner.satisfies], the path of every abc-bench cell, every abc-run
   subcommand and every bench table, so a cell can pass no run that a
   row would fail.  Each protocol is held to what it actually promises
   ([decide]): totality for the reliable broadcasts (Bracha,
   erasure-coded, Imbs-Raynal), full consensus for Bracha/Ben-Or/MMR,
   one outcome with unanimity carried for Turpin-Coan, identical common
   subsets for ACS and batch ACS, one complete, duplicate-free ledger
   for the atomic broadcast; only agreement and validity ([agree]) for
   consistent broadcast, which promises no totality, and for raw Bracha
   under loss.

   Rows run on the Exec.Pool at jobs > 1 on purpose: scenarios are
   generated up front on the main domain from a pinned seed
   (QCHECK_SEED, default 421984) and evaluated concurrently, so the
   suite doubles as a standing check that concurrent engine runs do not
   interfere with each other.  Each job runs its own scenario, so the
   worker count never changes which scenarios run or how they behave. *)

module Node_id = Abc_net.Node_id
module Behaviour = Abc_net.Behaviour
module Pool = Abc_exec.Pool
module Registry = Abc_matrix.Registry
module Runner = Abc_matrix.Runner
module Spec = Abc_matrix.Spec
module Atomic = Abc_smr.Atomic_broadcast

let node = Node_id.of_int

(* At least two workers even on a single-core machine: correctness
   under concurrent evaluation is the point, speed is a bonus. *)
let pool = Pool.create ~jobs:(max 2 (Pool.default_jobs ())) ()

let battery_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some seed -> seed
  | None -> 421984

(* ---- campaign runner ---- *)

(* [count] scenarios generated sequentially from the pinned seed
   (Random.State is not domain safe). *)
let draw ~count gen =
  let rand = Random.State.make [| battery_seed |] in
  List.init count (fun _ -> QCheck.Gen.generate1 ~rand gen)

(* Report every failing scenario, so a red run is replayable without
   shrinking. *)
let fail_on ~count failures =
  if failures <> [] then
    Alcotest.failf "%d/%d scenarios failed (QCHECK_SEED=%d):\n%s"
      (List.length failures) count battery_seed
      (String.concat "\n" failures)

(* Evaluate [count] scenarios on the pool. *)
let campaign ~name ~count gen print prop =
  Alcotest.test_case name `Slow (fun () ->
      let scenarios = draw ~count gen in
      let verdicts = Pool.map_list pool (fun s -> prop s) scenarios in
      fail_on ~count
        (List.filter_map
           (fun (s, ok) -> if ok then None else Some (print s))
           (List.combine scenarios verdicts)))

(* ---- generators ---- *)

(* Each generator keeps the draw order, combinators and ranges of the
   campaign it came from; f ranges up to the protocol's resilience
   class.  [faults] nodes of one kind take the highest ids, so a
   broadcast's sender, node 0, stays honest.  A kind is a function of
   the seed: crashes land after [seed mod k] activations. *)

let schedulers = Registry.[ Fifo; Uniform; Latency 6.; Target 0; Split; Eclipse 5 ]

let scheduler = QCheck.Gen.(map (List.nth schedulers) (int_range 0 (List.length schedulers - 1)))

let pattern =
  QCheck.Gen.(
    map
      (fun i -> Registry.[| Unanimous Abc.Value.Zero; Unanimous Abc.Value.One; Halves |].(i))
      (int_range 0 2))

let max_f protocol = snd (Option.get (Registry.resilience protocol))

let on_highest ~n faults kind =
  if faults = 0 then Registry.No_fault else Registry.Placed (kind, List.init faults (fun k -> n - 1 - k))

let crash m seed = Registry.Crash (seed mod m)

let silent_or_crash silent = if silent then Fun.const Registry.Silent else crash 7

let lying =
  [| Fun.const Registry.Silent; crash 7; Fun.const Registry.Flip; Fun.const Registry.Equivocate;
     Fun.const Registry.Corrupt |]

(* ACS's faults stay message-agnostic: lie-free kinds in the same five
   slots. *)
let benign =
  [| Fun.const Registry.Silent; crash 5; Fun.const Registry.Silent; crash 5; Fun.const Registry.Silent |]

(* Bounded loss and duplication plus an optional partition of one
   node.  Cuts always heal: a link that stays dead defeats any
   transport, so permanent cuts belong to the targeted tests, not a
   liveness campaign. *)
let links ~loss ~dup ~cut (sc : Registry.scenario) =
  let partition (from_tick, len, v) = { Registry.from_tick; until_tick = from_tick + len; island = [ v ] } in
  { sc with
    loss = float_of_int loss /. 100.; dup = float_of_int dup /. 100.; partition = Option.map partition cut }

(* Silent or crashing faults under any scheduler; half the scenarios
   get lossy links, carried by the reliable transport under [budget]. *)
let battery ?(budget = 4_000_000) ~max_n ~max_loss protocol =
  QCheck.Gen.(
    int_range 4 max_n >>= fun n ->
    int_range 0 (max 0 (max_f protocol n)) >>= fun f ->
    int_range 0 f >>= fun faults ->
    bool >>= fun silent ->
    scheduler >>= fun adversary ->
    pattern >>= fun inputs ->
    bool >>= fun lossy ->
    int_range 0 max_loss >>= fun loss ->
    int_range 0 ((max_loss * 2) / 3) >>= fun dup ->
    bool >>= fun with_cut ->
    int_range 0 40 >>= fun cut_from ->
    int_range 1 150 >>= fun cut_len ->
    int_range 0 (n - 1) >>= fun cut_node ->
    int_range 0 1000 >>= fun seed ->
    let sc =
      { (Registry.scenario ~protocol ~n ~f) with
        adversary; inputs; fault = on_highest ~n faults (silent_or_crash silent seed) }
    in
    let cut = if with_cut then Some (cut_from, cut_len, cut_node) else None in
    return
      ( (if lossy then { (links ~loss ~dup ~cut sc) with reliable = true; budget = Some budget } else sc),
        seed ))

(* Any of [kinds] under any scheduler on clean links. *)
let chaos ~kinds protocol =
  QCheck.Gen.(
    int_range 4 10 >>= fun n ->
    int_range 0 (max 0 (max_f protocol n)) >>= fun f ->
    int_range 0 f >>= fun faults ->
    int_range 0 (Array.length kinds - 1) >>= fun kind ->
    scheduler >>= fun adversary ->
    pattern >>= fun inputs ->
    int_range 0 1000 >>= fun seed ->
    return
      ( { (Registry.scenario ~protocol ~n ~f) with
          adversary; inputs; fault = on_highest ~n faults (kinds.(kind) seed) },
        seed ))

(* Silent or crashing faults under the uniform scheduler on lossy links
   with split inputs.  [over] is the reliable transport's delivery
   budget, or [None] for the raw transport under the engine's default
   budget. *)
let lossy ~max_n ~max_pct ~over protocol =
  QCheck.Gen.(
    int_range 4 max_n >>= fun n ->
    int_range 0 (max_f protocol n) >>= fun f ->
    int_range 0 f >>= fun faults ->
    bool >>= fun silent ->
    int_range 0 max_pct >>= fun loss ->
    int_range 0 max_pct >>= fun dup ->
    bool >>= fun with_cut ->
    int_range 0 50 >>= fun cut_from ->
    int_range 1 200 >>= fun cut_len ->
    int_range 0 (n - 1) >>= fun cut_node ->
    int_range 0 1000 >>= fun seed ->
    let cut = if with_cut then Some (cut_from, cut_len, cut_node) else None in
    return
      ( links ~loss ~dup ~cut
          { (Registry.scenario ~protocol ~n ~f) with
            adversary = Uniform; inputs = Halves; fault = on_highest ~n faults (silent_or_crash silent seed);
            reliable = Option.is_some over; budget = over },
        seed ))

(* An atomic-broadcast workload: [epochs] batches of [batch]
   transactions of [tx_bytes] each, arriving at 0.2 per tick. *)
let ledger ~batch ~epochs ~tx_bytes (sc : Registry.scenario) =
  { sc with batch; epochs; payload = tx_bytes; tx_rate = 0.2 }

(* Random crash/rejoin schedules for the checkpointed atomic broadcast
   under the uniform scheduler on clean links. *)
let recovering =
  QCheck.Gen.(
    int_range 4 7 >>= fun n ->
    let f = max_f "atomic" n in
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
      ( { (ledger ~batch:2 ~epochs ~tx_bytes:16 (Registry.scenario ~protocol:"atomic" ~n ~f)) with
          checkpoint; crash = List.mapi (fun k plan -> (n - 1 - k, plan)) plans; budget = Some 12_000_000 },
        seed ))

(* Rewrites a row's scenarios without drawing anything. *)
let pin f gen = QCheck.Gen.map (fun (sc, seed) -> (f sc seed, seed)) gen

(* The string broadcasts read the input patterns as payload lengths. *)
let payload_of (sc : Registry.scenario) _ =
  { sc with
    payload = (match sc.inputs with Unanimous Zero -> 1 | Unanimous One -> 64 | Halves | Alternating -> 777) }

(* The Turpin-Coan row's split pattern is n distinct proposals, not
   E13's near-unanimous split. *)
let distinct (sc : Registry.scenario) _ =
  match sc.inputs with Halves -> { sc with inputs = Alternating } | _ -> sc

(* A scenario and its seed as registry tokens: pasted as the axes of a
   one-cell .matrix, they replay the run. *)
let show ((sc : Registry.scenario), seed) =
  String.concat " "
    (List.map
       (fun (axis, token) -> axis ^ "=" ^ token)
       (Registry.to_tokens sc @ [ ("seed", string_of_int seed); ("seeds", "1") ]))

let row name count oracle gen =
  campaign ~name ~count gen show (fun (sc, seed) -> Runner.satisfies oracle (Runner.run_seed sc ~seed))

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
   every [Error] must quote the offending token.  Each token axis is
   decoded as a spec value is, by [Registry.check_token]. *)
let token_decoders =
  [|
    ("adversary", [ "fifo"; "uniform"; "split"; "latency:8"; "target:3"; "source:1"; "eclipse:32" ]);
    ( "fault",
      [ "none"; "silent:2"; "crash"; "balanced-flip:3"; "force-decide"; "replay:2"; "flip-relay";
        "equivocate-sender"; "force-decide:1+flip:1"; "silent:2+crash+replay:1"; "silent@1,5";
        "crash@0"; "corrupt"; "corrupt:2+silent"; "crash-after-3:2"; "crash-after-0@5" ] );
    ("topology", [ "complete"; "ring"; "star"; "circulant:1,2" ]);
    ("inputs", [ "split"; "unanimous0"; "unanimous1"; "alternate" ]);
    ("crash", [ "none"; "3:400:2500"; "1:10:20:30:40,2:5:9" ]);
    ("partition", [ "10:80:0,1"; "0:0:3"; "5:9: 2 , 4" ]);
    ("reliable", [ "true"; "false" ]);
    ("coin", [ "local"; "common" ]);
    ("transport", [ "rbc"; "plain" ]);
    ("validation", [ "true"; "false" ]);
    ("mode", [ "byzantine"; "crash" ]);
  |]

let token_chars = "abcdefilnoprstuvxz0123456789:,-_. +@\"\\\000\255"

let token_gen =
  QCheck.Gen.(
    int_bound (Array.length token_decoders - 1) >>= fun d ->
    let _, valid = token_decoders.(d) in
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

let print_token (d, s) = Printf.sprintf "%s %S" (fst token_decoders.(d)) s

let token_total (d, s) =
  match Registry.check_token ~axis:(fst token_decoders.(d)) s with
  | exception _ -> false
  | Ok () -> true
  | Error msg -> Astring.String.is_infix ~affix:(Printf.sprintf "%S" s) msg

let token_decoder_test =
  campaign ~name:"registry decoders: total, errors quote the token" ~count:2000 token_gen
    print_token token_total

(* Each encoder's output decodes back to the value it encodes. *)
let roundtrip name encode decode =
  QCheck.Gen.map (fun v -> (name, encode v, fun () -> decode (encode v) = Ok v))

(* A field set to a drawn value comes back from its scenario's tokens. *)
let field name set =
  QCheck.Gen.map (fun v ->
      let sc = set (Registry.scenario ~protocol:"bracha" ~n:4 ~f:1) v in
      let tokens = Registry.to_tokens sc in
      ( name,
        String.concat " " (List.map (fun (axis, token) -> axis ^ "=" ^ token) tokens),
        fun () -> Registry.of_tokens tokens = Ok sc ))

let token_values =
  let open QCheck.Gen in
  let id = int_bound 40 in
  let joinable =
    oneof
      [ oneofl Registry.[ Silent; Replay; Flip; Equivocate; Force_decide; Corrupt ];
        map (fun k -> Registry.Crash k) (int_bound 9) ]
  in
  let kind = frequency [ (6, joinable); (1, return Registry.Balanced_flip) ] in
  let partition =
    triple (int_bound 500) (int_bound 500) (list_size (int_range 1 4) id) >|= fun (a, len, island) ->
    { Registry.from_tick = a; until_tick = a + len; island }
  in
  let schedule =
    list_size (int_range 1 3) (pair (int_range 1 500) (int_range 1 500)) >|= fun steps ->
    List.rev
      (snd
         (List.fold_left
            (fun (t, acc) (down, up) -> (t + down + up, (t + down, t + down + up) :: acc))
            (0, []) steps))
  in
  oneof
    [ roundtrip "fault" Registry.fault_token Registry.fault
        (oneof
           [ oneofl Registry.[ No_fault; Silent_sender; Crash_sender; Flip_relay; Equivocate_sender ];
             map2 (fun k c -> Registry.Faulty [ (k, c) ]) kind (int_bound 9);
             map (fun ks -> Registry.Faulty ks) (list_size (int_range 2 3) (pair joinable (int_bound 9)));
             map2 (fun k ids -> Registry.Placed (k, ids)) joinable (list_size (int_range 1 4) id) ]);
      roundtrip "adversary" Registry.adversary_token Registry.adversary
        (oneof
           [ oneofl Registry.[ Fifo; Uniform; Split ];
             map (fun m -> Registry.Latency (1e-3 +. m)) (float_bound_inclusive 1e4);
             map (fun i -> Registry.Target i) id; map (fun i -> Registry.Source i) id;
             map (fun p -> Registry.Eclipse (1 + p)) id ]);
      roundtrip "inputs" Registry.inputs_token Registry.inputs
        (oneofl Registry.[ Halves; Unanimous Abc.Value.Zero; Unanimous Abc.Value.One; Alternating ]);
      roundtrip "crash" Registry.crash_token Registry.crash (list_size (int_range 0 3) (pair id schedule));
      roundtrip "partition" Registry.partition_token Registry.partition partition;
      roundtrip "topology" Registry.topology_token Registry.topology
        (oneof
           [ oneofl Registry.[ Complete; Ring; Star ];
             map (fun offs -> Registry.Circulant offs) (list_size (int_range 1 4) (int_range (-3) 40)) ]);
      field "partition" (fun sc partition -> { sc with partition }) (option partition);
      field "reliable" (fun sc reliable -> { sc with reliable }) bool;
      field "coin" (fun sc coin -> { sc with coin }) (oneofl Registry.[ None; Some Local; Some Common ]);
      field "validation" (fun sc validation -> { sc with validation }) bool;
      field "transport" (fun sc plain -> { sc with plain }) bool;
      field "mode" (fun sc crash_mode -> { sc with crash_mode }) bool ]

let token_encoder_test =
  campaign ~name:"registry encoders: every token decodes to its value" ~count:2000 token_values
    (fun (name, token, _) -> Printf.sprintf "%s %S" name token)
    (fun (_, _, decodes) -> decodes ())

(* ---- spec and result-set decoders ---- *)

(* Mutations of every committed bench/specs/*.matrix and
   bench_results/BENCH_MATRIX_*.json: truncate, set a byte, insert or
   delete one.  Nothing may raise through [Spec.of_string] then
   [Runner.check], or through [Json.of_string] then [Diff.load_json],
   and every spec error points at a line >= 1. *)

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
     let module E = Abc_net.Engine.Make (Atomic) in
     ignore
       (E.run
          (E.config ~n:durable_n ~f:1 ~inputs:(Lazy.force durable_inputs) ~seed:3
             ~faulty:[ (node 2, Behaviour.Crash_recover crashes) ]
             ~recovery:{ E.snapshot; restore = Atomic.restore }
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

(* Deterministic large-n runs through the arena-based engine: the rows
   stay at n <= 12, so these are the only tier-1 checks that the hot
   path still completes at the n = 128 scale E19 benchmarks — Bracha's
   one-bit broadcast, delivered everywhere, and MMR's per-round sender
   sets, deciding. *)
let at_scale protocol () =
  Alcotest.(check bool) "decides" true
    (Runner.satisfies Spec.Decide (Runner.run_seed (Registry.scenario ~protocol ~n:128 ~f:42) ~seed:1))

(* ---- rows ---- *)

(* ACS multiplies n broadcasts by n binary agreements, so its lossy
   runs stay small enough for the retransmission traffic to fit the
   delivery budget: correctness is the point, not a race against the
   cap. *)
let acs_battery = battery ~max_n:6 ~max_loss:8

(* Each battery scenario runs four ACS-over-coded-RBC epochs, so the
   space stays smaller than the plain ACS rows', and overlapping
   agreements need a deeper budget. *)
let ledger_battery =
  pin
    (fun sc _ -> ledger ~batch:3 ~epochs:4 ~tx_bytes:24 sc)
    (battery ~budget:12_000_000 ~max_n:5 ~max_loss:6 "atomic")

(* Each row: a name, a scenario count, the oracle and the generator. *)
let battery_groups =
  let wide = battery ~max_n:10 ~max_loss:15 in
  [
    ( "broadcast",
      [
        ("bracha rbc: validity, agreement, totality", 60, Spec.Decide, pin payload_of (wide "bracha-rbc"));
        ( "consistent broadcast: validity and consistency (no totality)", 60, Spec.Agree,
          pin payload_of (wide "consistent-rbc") );
        ("coded rbc: validity, agreement, totality", 50, Spec.Decide, pin payload_of (wide "coded-rbc"));
        (* The efficiency trade: only f < n/5 tolerated. *)
        ( "imbs-raynal rbc: validity, agreement, totality at n>5f", 50, Spec.Decide,
          pin payload_of (battery ~max_n:12 ~max_loss:15 "ir-rbc") );
      ] );
    ( "consensus",
      [
        ("bracha consensus: termination, agreement, validity", 60, Spec.Decide, wide "bracha");
        ("ben-or: termination, agreement, validity", 50, Spec.Decide, wide "ben-or");
        ("mmr: termination, agreement, validity (common coin)", 50, Spec.Decide, wide "mmr");
      ] );
    ( "multivalued",
      [
        ("turpin-coan: joint outcome, unanimity carries", 50, Spec.Decide, pin distinct (wide "turpin-coan"));
        ("acs: identical common subset of proposed values", 30, Spec.Decide, acs_battery "acs");
        ("batch acs: identical common subset of proposed batches", 24, Spec.Decide, acs_battery "batch-acs");
      ] );
    ("smr", [ ("atomic broadcast: total order, no dup tx, inclusion", 20, Spec.Decide, ledger_battery) ]);
  ]

let campaign_groups =
  [
    ( "campaigns",
      [
        ("bracha consensus survives arbitrary scenarios", 120, Spec.Decide, chaos ~kinds:lying "bracha");
        ("mmr consensus survives arbitrary scenarios", 120, Spec.Decide, chaos ~kinds:lying "mmr");
        ("mmr over the rabin coin survives arbitrary scenarios", 60, Spec.Decide, chaos ~kinds:lying "mmr-rabin");
        ("ben-or survives arbitrary in-bound scenarios", 80, Spec.Decide, chaos ~kinds:lying "ben-or");
        ("acs produces a common subset in arbitrary scenarios", 40, Spec.Decide, chaos ~kinds:benign "acs");
        ( "coded rbc delivers the payload in arbitrary scenarios", 100, Spec.Decide,
          pin (fun sc seed -> { sc with Registry.payload = 1 + (seed mod 200) }) (chaos ~kinds:lying "coded-rbc") );
        ( "imbs-raynal rbc delivers the payload in arbitrary scenarios", 100, Spec.Decide,
          pin (fun sc _ -> { sc with Registry.payload = 64 }) (chaos ~kinds:lying "ir-rbc") );
      ] );
    ( "link faults",
      [
        ( "reliable-link bracha decides under loss, dup and healing cuts", 40, Spec.Decide,
          lossy ~max_n:7 ~max_pct:20 ~over:(Some 4_000_000) "bracha" );
        ( "raw bracha stays safe under loss (no agreement break)", 60, Spec.Agree,
          lossy ~max_n:7 ~max_pct:20 ~over:None "bracha" );
        (* Milder loss and more budget than Bracha's, as for acs_battery. *)
        ( "reliable-link acs agrees on a common subset under lossy links", 15, Spec.Decide,
          lossy ~max_n:5 ~max_pct:10 ~over:(Some 4_000_000) "acs" );
        (* Loss, duplication, a healing cut and crash faults that land
           mid-epoch, while early epochs are still being agreed. *)
        ( "atomic broadcast keeps one log under loss and mid-epoch crashes", 12, Spec.Decide,
          pin
            (fun sc _ -> ledger ~batch:2 ~epochs:3 ~tx_bytes:16 sc)
            (lossy ~max_n:5 ~max_pct:10 ~over:(Some 12_000_000) "atomic") );
      ] );
    (* Recover replicas are correct but amnesic: all n logs must be
       complete, identical and duplicate-free, so recovery must come
       from the durable snapshot plus state transfer, never from
       replayed commits. *)
    ( "crash recovery",
      [ ("atomic broadcast recovers crashed replicas to one identical log", 12, Spec.Decide, recovering) ] );
  ]

let rows groups =
  List.map
    (fun (group, rows) ->
      (group, List.map (fun (name, count, oracle, gen) -> row name count oracle gen) rows))
    groups

(* Every row's generator, drawn 3,000 times from the pinned seed (the
   first draws are the row's own scenarios) and run nowhere: the tokens
   a failing row prints decode back to its scenario. *)
let tokens_roundtrip_test =
  let gens =
    List.concat_map (fun (_, rows) -> List.map (fun (_, _, _, gen) -> gen) rows) (battery_groups @ campaign_groups)
  in
  let decodes ((sc : Registry.scenario), _) = Registry.of_tokens (Registry.to_tokens sc) = Ok sc in
  Alcotest.test_case "registry tokens: every row's scenarios decode back" `Slow (fun () ->
      fail_on ~count:(3000 * List.length gens)
        (List.concat_map
           (fun gen -> List.map show (List.filter (fun s -> not (decodes s)) (draw ~count:3000 gen)))
           gens))

(* The rows go out as two Alcotest runs, the property battery and the
   fault campaigns.  Alcotest pads the group column to the longest group
   name of a run and cuts each case name to what is left of 80 columns,
   so in one run the campaigns' "crash recovery" group would shorten
   every battery case's printed name, the name a test log knows it by.
   A [test NAME] filter reaches the first run only: Alcotest exits after
   a filtered run, and rejects a filter that matches none of its
   groups. *)
let battery_rows =
  rows battery_groups
  @ [
      ( "decoders",
        [ trace_decoder_test; token_decoder_test; token_encoder_test; tokens_roundtrip_test;
          document_decoder_test; durable_decoder_test ] );
      ( "scale",
        [
          Alcotest.test_case "bracha rbc n=128 delivers" `Quick (at_scale "bracha-rbc-bit");
          Alcotest.test_case "mmr n=128 decides" `Quick (at_scale "mmr");
        ] );
    ]

let campaigns = rows campaign_groups

(* Both runs go ahead whatever the first one's verdict. *)
let passes name groups =
  match Alcotest.run ~and_exit:false name groups with
  | () -> true
  | exception Alcotest.Test_error -> false

let () =
  let battery_ok = passes "properties" battery_rows in
  if not (passes "campaigns" campaigns && battery_ok) then exit 1
