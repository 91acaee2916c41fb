type meta = {
  seq : int;
  src : Node_id.t;
  dst : Node_id.t;
  sent_at : int;
  priority : int;
}

module View = struct
  type t = {
    length : unit -> int;
    get : int -> meta;
    oldest : unit -> int;
    find_seq : int -> int option;
  }

  let make ~length ~get ~oldest ~find_seq = { length; get; oldest; find_seq }

  let length t = t.length ()

  let get t i = t.get i

  let find_seq t seq = t.find_seq seq

  let oldest t = t.oldest ()
end

type instance = {
  assign : rng:Abc_prng.Stream.t -> now:int -> src:Node_id.t -> dst:Node_id.t -> int;
  note : meta -> unit;
  choose : rng:Abc_prng.Stream.t -> now:int -> View.t -> int;
}

type t = { name : string; instantiate : unit -> instance }

let no_assign ~rng:_ ~now:_ ~src:_ ~dst:_ = 0

let no_note (_ : meta) = ()

let fifo =
  {
    name = "fifo";
    instantiate =
      (fun () ->
        {
          assign = no_assign;
          note = no_note;
          choose = (fun ~rng:_ ~now:_ view -> View.oldest view);
        });
  }

let uniform =
  {
    name = "uniform";
    instantiate =
      (fun () ->
        {
          assign = no_assign;
          note = no_note;
          choose =
            (fun ~rng ~now:_ view ->
              Abc_prng.Stream.int rng ~bound:(View.length view));
        });
  }

(* Pop dead entries (already delivered by a fairness override) off the
   front of [queue] until a live one surfaces; [None] when the queue
   drains.  Lazy deletion keeps every policy O(1)/O(log n) amortized. *)
let rec live_head queue view =
  match Queue.peek_opt queue with
  | None -> None
  | Some seq -> (
    match View.find_seq view seq with
    | Some index -> Some index
    | None ->
      ignore (Queue.pop queue);
      live_head queue view)

let latency ~mean =
  {
    name = Printf.sprintf "latency(%.0f)" mean;
    instantiate =
      (fun () ->
        let heap : int Abc_sim.Heap.t = Abc_sim.Heap.create () in
        let rec live_top view =
          match Abc_sim.Heap.peek heap with
          | None -> None
          | Some (_, seq) -> (
            match View.find_seq view seq with
            | Some index -> Some index
            | None ->
              ignore (Abc_sim.Heap.pop heap);
              live_top view)
        in
        {
          assign =
            (fun ~rng ~now ~src:_ ~dst:_ ->
              now + 1 + int_of_float (Abc_prng.Stream.exponential rng ~mean));
          note = (fun m -> Abc_sim.Heap.push heap ~priority:m.priority m.seq);
          choose =
            (fun ~rng:_ ~now:_ view ->
              (* Deliver the message whose sampled arrival is earliest;
                 fall back to the oldest if the heap lost sync. *)
              match live_top view with
              | Some index -> index
              | None -> View.oldest view);
        });
  }

(* Starvation policies keep two send-ordered queues and serve the
   favoured one while it lasts; disfavoured messages only move when the
   favoured queue is empty (or via the engine's fairness override). *)
let starve ~name ~disfavoured =
  {
    name;
    instantiate =
      (fun () ->
        let favoured : int Queue.t = Queue.create () in
        let starved : int Queue.t = Queue.create () in
        {
          assign = no_assign;
          note =
            (fun m ->
              if disfavoured m then Queue.add m.seq starved
              else Queue.add m.seq favoured);
          choose =
            (fun ~rng:_ ~now:_ view ->
              match live_head favoured view with
              | Some index -> index
              | None -> (
                match live_head starved view with
                | Some index -> index
                | None -> View.oldest view));
        });
  }

let targeted_delay ~victims =
  let victim_set = Node_id.Set.of_list victims in
  starve ~name:"targeted-delay"
    ~disfavoured:(fun m -> Node_id.Set.mem m.dst victim_set)

let source_starve ~victims =
  let victim_set = Node_id.Set.of_list victims in
  starve ~name:"source-starve"
    ~disfavoured:(fun m -> Node_id.Set.mem m.src victim_set)

let split ~n =
  let half id = if Node_id.to_int id < n / 2 then 0 else 1 in
  starve ~name:"split" ~disfavoured:(fun m -> half m.src <> half m.dst)

let rotating_eclipse ~n ~period =
  assert (period > 0 && n > 0);
  {
    name = Printf.sprintf "eclipse(%d)" period;
    instantiate =
      (fun () ->
        (* One send-ordered queue per destination; the victim rotates
           every [period] deliveries and its queue is served only when
           every other queue is dry (or fairness forces it). *)
        let queues = Array.init n (fun _ -> Queue.create ()) in
        let deliveries = ref 0 in
        {
          assign = no_assign;
          note =
            (fun m ->
              let dst = Node_id.to_int m.dst in
              if dst < n then Queue.add m.seq queues.(dst));
          choose =
            (fun ~rng:_ ~now:_ view ->
              let victim = !deliveries / period mod n in
              incr deliveries;
              let best = ref None in
              for dst = 0 to n - 1 do
                if dst <> victim then begin
                  match live_head queues.(dst) view with
                  | Some index ->
                    let seq = (View.get view index).seq in
                    (match !best with
                    | Some (best_seq, _) when best_seq <= seq -> ()
                    | Some _ | None -> best := Some (seq, index))
                  | None -> ()
                end
              done;
              match !best with
              | Some (_, index) -> index
              | None -> (
                match live_head queues.(victim) view with
                | Some index -> index
                | None -> View.oldest view));
        });
  }

let all_basic ~n =
  [
    fifo;
    uniform;
    latency ~mean:8.;
    targeted_delay ~victims:[ Node_id.of_int 0 ];
    split ~n;
    source_starve ~victims:[ Node_id.of_int 0 ];
    rotating_eclipse ~n ~period:(2 * n);
  ]
