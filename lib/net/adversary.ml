module View = struct
  type t = Envelope_arena.view

  let length = Envelope_arena.length
  let seq = Envelope_arena.seq
  let src = Envelope_arena.src
  let dst = Envelope_arena.dst
  let priority = Envelope_arena.priority
  let find_seq = Envelope_arena.slot_of_seq
  let oldest = Envelope_arena.oldest_slot
end

type instance = {
  assign : rng:Abc_prng.Stream.t -> now:int -> src:Node_id.t -> dst:Node_id.t -> int;
  note : View.t -> unit;
  choose : rng:Abc_prng.Stream.t -> now:int -> View.t -> int;
}

type t = { name : string; instantiate : unit -> instance }

let no_assign ~rng:_ ~now:_ ~src:_ ~dst:_ = 0

let no_note (_ : View.t) = ()

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
   front of [queue] until a live one surfaces, and return its index;
   -1 when the queue drains.  Lazy deletion keeps every policy
   O(1)/O(log n) amortized. *)
let rec live_head queue view =
  if Queue.is_empty queue then -1
  else
    match View.find_seq view (Queue.peek queue) with
    | -1 ->
      ignore (Queue.pop queue);
      live_head queue view
    | index -> index

let latency ~mean =
  {
    name = Printf.sprintf "latency(%.0f)" mean;
    instantiate =
      (fun () ->
        let heap : int Abc_sim.Heap.t = Abc_sim.Heap.create () in
        let rec live_top view =
          match Abc_sim.Heap.peek heap with
          | None -> -1
          | Some (_, seq) -> (
            match View.find_seq view seq with
            | -1 ->
              ignore (Abc_sim.Heap.pop heap);
              live_top view
            | index -> index)
        in
        {
          assign =
            (fun ~rng ~now ~src:_ ~dst:_ ->
              now + 1 + int_of_float (Abc_prng.Stream.exponential rng ~mean));
          note =
            (fun view ->
              let last = View.length view - 1 in
              Abc_sim.Heap.push heap ~priority:(View.priority view last)
                (View.seq view last));
          choose =
            (fun ~rng:_ ~now:_ view ->
              (* Deliver the message whose sampled arrival is earliest;
                 fall back to the oldest if the heap lost sync. *)
              match live_top view with
              | -1 -> View.oldest view
              | index -> index);
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
            (fun view ->
              let last = View.length view - 1 in
              let seq = View.seq view last in
              if disfavoured ~src:(View.src view last) ~dst:(View.dst view last)
              then Queue.add seq starved
              else Queue.add seq favoured);
          choose =
            (fun ~rng:_ ~now:_ view ->
              match live_head favoured view with
              | -1 -> (
                match live_head starved view with
                | -1 -> View.oldest view
                | index -> index)
              | index -> index);
        });
  }

let targeted_delay ~victims =
  let victim_set = Node_id.Set.of_list victims in
  starve ~name:"targeted-delay"
    ~disfavoured:(fun ~src:_ ~dst -> Node_id.Set.mem dst victim_set)

let source_starve ~victims =
  let victim_set = Node_id.Set.of_list victims in
  starve ~name:"source-starve"
    ~disfavoured:(fun ~src ~dst:_ -> Node_id.Set.mem src victim_set)

let split ~n =
  let half id = if Node_id.to_int id < n / 2 then 0 else 1 in
  starve ~name:"split" ~disfavoured:(fun ~src ~dst -> half src <> half dst)

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
            (fun view ->
              let last = View.length view - 1 in
              let dst = Node_id.to_int (View.dst view last) in
              if dst < n then Queue.add (View.seq view last) queues.(dst));
          choose =
            (fun ~rng:_ ~now:_ view ->
              let victim = !deliveries / period mod n in
              incr deliveries;
              (* Serve the non-victim queue whose live head was sent
                 first. *)
              let best_seq = ref max_int and best = ref (-1) in
              for dst = 0 to n - 1 do
                if dst <> victim then begin
                  match live_head queues.(dst) view with
                  | -1 -> ()
                  | index ->
                    let seq = View.seq view index in
                    if seq < !best_seq then begin
                      best_seq := seq;
                      best := index
                    end
                end
              done;
              if !best >= 0 then !best
              else
                match live_head queues.(victim) view with
                | -1 -> View.oldest view
                | index -> index);
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
