(* Unit tests for the smaller core components: values, coins, the
   consensus message vocabulary, the RBC multiplexer, BA instances and
   payloads. *)

module Node_id = Abc_net.Node_id
module Value = Abc.Value
module Coin = Abc.Coin
module M = Abc.Consensus_msg
module Mux = Abc.Rbc_mux
module Ba = Abc.Ba_instance

let node = Node_id.of_int

let rng ?(seed = 1) () = Abc_prng.Stream.root ~seed

(* ---- Value ---- *)

let test_value_basics () =
  Alcotest.(check int) "zero" 0 (Value.to_int Value.zero);
  Alcotest.(check int) "one" 1 (Value.to_int Value.one);
  Alcotest.(check bool) "negate zero" true (Value.equal (Value.negate Value.Zero) Value.One);
  Alcotest.(check bool) "negate one" true (Value.equal (Value.negate Value.One) Value.Zero);
  Alcotest.(check bool) "of_bool" true (Value.equal (Value.of_bool true) Value.One);
  Alcotest.(check bool) "of_int 7" true (Value.equal (Value.of_int 7) Value.One);
  Alcotest.(check bool) "to_bool" false (Value.to_bool Value.Zero);
  Alcotest.(check int) "compare" (-1) (Value.compare Value.Zero Value.One);
  Alcotest.(check string) "pp" "1" (Fmt.str "%a" Value.pp Value.One)

(* ---- Coin ---- *)

let test_local_coin_uses_rng () =
  (* Same stream, same draws. *)
  let a = rng () and b = rng () in
  for round = 1 to 50 do
    Alcotest.(check bool) "deterministic per stream" true
      (Value.equal
         (Coin.flip Coin.local ~rng:a ~round)
         (Coin.flip Coin.local ~rng:b ~round))
  done

let test_local_coin_roughly_fair () =
  let s = rng ~seed:3 () in
  let ones = ref 0 in
  for round = 1 to 10_000 do
    if Value.equal (Coin.flip Coin.local ~rng:s ~round) Value.One then incr ones
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fair (got %d/10000)" !ones)
    true
    (!ones > 4800 && !ones < 5200)

let test_common_coin_identical_across_nodes () =
  let coin = Coin.common ~seed:9 in
  for round = 1 to 100 do
    let a = Coin.flip coin ~rng:(rng ~seed:1 ()) ~round in
    let b = Coin.flip coin ~rng:(rng ~seed:2 ()) ~round in
    Alcotest.(check bool) "same bit at every node" true (Value.equal a b)
  done

let test_common_coin_varies_with_round () =
  let coin = Coin.common ~seed:9 in
  let bits =
    List.init 64 (fun round -> Value.to_int (Coin.flip coin ~rng:(rng ()) ~round))
  in
  let ones = List.fold_left ( + ) 0 bits in
  Alcotest.(check bool)
    (Printf.sprintf "not constant (%d ones in 64)" ones)
    true
    (ones > 16 && ones < 48)

let test_common_coin_varies_with_seed () =
  let flips seed =
    List.init 64 (fun round ->
        Value.to_int (Coin.flip (Coin.common ~seed) ~rng:(rng ()) ~round))
  in
  Alcotest.(check bool) "seed changes sequence" false (flips 1 = flips 2)

let test_coin_labels () =
  Alcotest.(check string) "local" "local" (Coin.label Coin.local);
  Alcotest.(check string) "common" "common" (Coin.label (Coin.common ~seed:1))

(* ---- Consensus_msg ---- *)

let test_step_order () =
  Alcotest.(check int) "s1" 1 (M.Step.to_int M.Step.S1);
  Alcotest.(check bool) "s1 < s3" true (M.Step.compare M.Step.S1 M.Step.S3 < 0);
  Alcotest.(check bool) "equal" true (M.Step.equal M.Step.S2 M.Step.S2)

let test_key_ordering_and_pp () =
  let k1 = { M.Key.origin = node 0; round = 1; step = M.Step.S1 } in
  let k2 = { M.Key.origin = node 0; round = 2; step = M.Step.S1 } in
  let k3 = { M.Key.origin = node 1; round = 1; step = M.Step.S1 } in
  Alcotest.(check bool) "round orders" true (M.Key.compare k1 k2 < 0);
  Alcotest.(check bool) "origin orders first" true (M.Key.compare k2 k3 < 0);
  Alcotest.(check bool) "equal" true (M.Key.equal k1 k1);
  Alcotest.(check string) "pp" "n0/r1/s1" (Fmt.str "%a" M.Key.pp k1)

let test_vmsg_roundtrip () =
  let key = { M.Key.origin = node 3; round = 2; step = M.Step.S3 } in
  let payload = { M.Payload.value = Value.One; decide = true } in
  let v = M.vmsg_of_delivery key payload in
  Alcotest.(check bool) "key roundtrip" true (M.Key.equal key (M.key_of_vmsg v));
  Alcotest.(check bool) "payload roundtrip" true
    (M.Payload.equal payload (M.payload_of_vmsg v));
  Alcotest.(check string) "pp" "n3/r2/s3=d:1" (Fmt.str "%a" M.pp_vmsg v)

let test_payload_compare () =
  let p1 = { M.Payload.value = Value.Zero; decide = false } in
  let p2 = { M.Payload.value = Value.Zero; decide = true } in
  let p3 = { M.Payload.value = Value.One; decide = false } in
  Alcotest.(check bool) "decide orders" true (M.Payload.compare p1 p2 < 0);
  Alcotest.(check bool) "value orders first" true (M.Payload.compare p2 p3 < 0)

(* ---- Rbc_mux ---- *)

let key ?(origin = 0) ?(round = 1) ?(step = M.Step.S1) () =
  { M.Key.origin = node origin; round; step }

let payload ?(value = Value.One) ?(decide = false) () = { M.Payload.value; decide }

let test_mux_routes_to_instances () =
  let mux = Mux.create ~n:4 ~f:1 in
  let wire = Mux.broadcast_own (key ()) (payload ()) in
  let mux, out, delivery = Mux.handle mux ~src:(node 0) wire in
  Alcotest.(check int) "one instance" 1 (Mux.instances mux);
  Alcotest.(check int) "echo emitted" 1 (List.length out);
  Alcotest.(check bool) "echo in same instance" true
    (M.Key.equal (List.hd out).Mux.key (key ()));
  Alcotest.(check bool) "no delivery yet" true (delivery = None)

let test_mux_separate_instances () =
  let mux = Mux.create ~n:4 ~f:1 in
  let w1 = Mux.broadcast_own (key ~origin:0 ()) (payload ()) in
  let w2 = Mux.broadcast_own (key ~origin:1 ()) (payload ()) in
  let mux, _, _ = Mux.handle mux ~src:(node 0) w1 in
  let mux, _, _ = Mux.handle mux ~src:(node 1) w2 in
  Alcotest.(check int) "two instances" 2 (Mux.instances mux)

let test_mux_delivery () =
  let mux = Mux.create ~n:4 ~f:1 in
  let k = key () in
  let ready src mux =
    let mux, _, d = Mux.handle mux ~src { Mux.key = k; event = Mux.Rbc.Ready (payload ()) } in
    (mux, d)
  in
  let mux, d1 = ready (node 0) mux in
  let mux, d2 = ready (node 1) mux in
  let _, d3 = ready (node 2) mux in
  Alcotest.(check bool) "no early delivery" true (d1 = None && d2 = None);
  match d3 with
  | Some (dk, dp) ->
    Alcotest.(check bool) "delivered key" true (M.Key.equal dk k);
    Alcotest.(check bool) "delivered payload" true (M.Payload.equal dp (payload ()))
  | None -> Alcotest.fail "expected delivery at 2f+1 readies"

let test_mux_initial_from_wrong_origin_ignored () =
  let mux = Mux.create ~n:4 ~f:1 in
  (* node 2 sends an Initial for node 0's instance: dropped by the
     instance's sender check. *)
  let wire = { Mux.key = key ~origin:0 (); event = Mux.Rbc.Initial (payload ()) } in
  let _, out, delivery = Mux.handle mux ~src:(node 2) wire in
  Alcotest.(check int) "no echo" 0 (List.length out);
  Alcotest.(check bool) "no delivery" true (delivery = None)

(* The multiplexer against a reference: a [Key.Map] of [Rbc_core]
   instances, each created on its key's first wire.  Random wire
   sequences go through both, and every step must send the same wires,
   make the same delivery and count the same instances.  A wire whose
   origin lies outside [0, n) must return the multiplexer itself with
   nothing out, and never reaches the reference. *)

let ref_handle ~n ~f live ~src (wire : Mux.wire) =
  let inst =
    match M.Key.Map.find_opt wire.key live with
    | Some inst -> inst
    | None -> Mux.Rbc.create ~n ~f ~sender:wire.key.origin
  in
  let inst, events, delivered = Mux.Rbc.handle inst ~src wire.event in
  ( M.Key.Map.add wire.key inst live,
    List.map (fun event -> { Mux.key = wire.key; event }) events,
    Option.map (fun payload -> (wire.key, payload)) delivered )

let event_equal a b =
  match (a, b) with
  | Mux.Rbc.Initial p, Mux.Rbc.Initial q | Echo p, Echo q | Ready p, Ready q ->
    M.Payload.equal p q
  | (Initial _ | Echo _ | Ready _), _ -> false

let wire_equal (a : Mux.wire) (b : Mux.wire) =
  M.Key.equal a.key b.key && event_equal a.event b.event

let delivery_equal a b =
  match (a, b) with
  | Some (k, p), Some (k', p') -> M.Key.equal k k' && M.Payload.equal p p'
  | None, None -> true
  | Some _, None | None, Some _ -> false

(* Rounds at the edges of [int] as well as small ones. *)
let mux_rounds = [ 0; 1; 2; -1; -7; min_int; min_int + 1; max_int; max_int - 1 ]

(* A case is n and a list of (src, wire).  Wires fall on one to four
   keys, most carry their key's main payload, and a fifth of them come
   from the key's origin, so instances echo, ready and deliver, and
   events keep arriving after they have.  One key in thirteen names an
   origin outside [0, n), as a forged wire does. *)
let gen_mux_case =
  let open QCheck.Gen in
  oneofl [ 4; 7; 10; 16 ] >>= fun n ->
  let gen_key =
    map3
      (fun origin round step -> { M.Key.origin = node origin; round; step })
      (frequency [ (12, int_bound (n - 1)); (1, oneofl [ n; n + 1; max_int ]) ])
      (oneof [ oneofl mux_rounds; small_signed_int ])
      (oneofl [ M.Step.S1; S2; S3 ])
  in
  let gen_payload =
    map2 (fun value decide -> { M.Payload.value; decide }) (oneofl [ Value.Zero; One ]) bool
  in
  array_size (int_range 1 4) (pair gen_key gen_payload) >>= fun keys ->
  let gen_wire =
    oneofa keys >>= fun (key, main) ->
    frequency [ (3, return main); (1, gen_payload) ] >>= fun payload ->
    oneofl [ Mux.Rbc.Initial payload; Echo payload; Ready payload ] >>= fun event ->
    let origin = Abc_net.Node_id.to_int key.M.Key.origin in
    (if origin < n then frequency [ (1, return origin); (4, int_bound (n - 1)) ]
     else int_bound (n - 1))
    >|= fun src -> (src, { Mux.key; event })
  in
  list_size (int_range 0 (40 * n)) gen_wire >|= fun wires -> (n, wires)

let print_mux_case (n, wires) =
  Fmt.str "n=%d@.%a" n
    Fmt.(list ~sep:cut (fun ppf (src, w) -> Fmt.pf ppf "n%d -> %a" src Mux.pp_wire w))
    wires

let prop_mux_matches_reference =
  QCheck.Test.make ~name:"mux routes like a map of instances" ~count:300
    (QCheck.make ~print:print_mux_case gen_mux_case)
    (fun (n, wires) ->
      let f = (n - 1) / 3 in
      let step (mux, live) (i, (src, (wire : Mux.wire))) =
        let src = node src in
        let mux', out, delivery = Mux.handle mux ~src wire in
        if Node_id.to_int wire.key.origin >= n then begin
          if not (mux' == mux && List.is_empty out && Option.is_none delivery) then
            QCheck.Test.fail_reportf "wire %d: a forged origin was not dropped" i;
          (mux, live)
        end
        else begin
          let live, ref_out, ref_delivery = ref_handle ~n ~f live ~src wire in
          if not (List.equal wire_equal out ref_out) then
            QCheck.Test.fail_reportf "wire %d: %d wires out, reference %d" i
              (List.length out) (List.length ref_out);
          if not (delivery_equal delivery ref_delivery) then
            QCheck.Test.fail_reportf "wire %d: deliveries differ" i;
          if Mux.instances mux' <> M.Key.Map.cardinal live then
            QCheck.Test.fail_reportf "wire %d: %d instances, reference %d" i
              (Mux.instances mux') (M.Key.Map.cardinal live);
          (mux', live)
        end
      in
      ignore
        (List.fold_left step (Mux.create ~n ~f, M.Key.Map.empty) (List.mapi (fun i w -> (i, w)) wires));
      true)

(* ---- Ba_instance ---- *)

let drive_ba_network ?(n = 4) ?(f = 1) ~seed inputs =
  (* A miniature synchronous-ish executor for BA instances alone:
     deliver wire messages FIFO among n nodes until quiescent. *)
  let rng = Abc_prng.Stream.root ~seed in
  let bas =
    Array.init n (fun i ->
        Ba.create ~n ~f ~me:(node i) ~coin:Abc.Coin.local ~validation:true)
  in
  let queue = Queue.create () in
  let decisions = Array.make n None in
  let broadcast src wires =
    List.iter
      (fun w -> List.iter (fun dst -> Queue.add (src, dst, w) queue) (List.init n (fun d -> d)))
      wires
  in
  Array.iteri
    (fun i input ->
      let ba, wires, events = Ba.start bas.(i) ~rng ~input in
      bas.(i) <- ba;
      List.iter (fun (Ba.Decided d) -> decisions.(i) <- Some d) events;
      broadcast i wires)
    inputs;
  let steps = ref 0 in
  while (not (Queue.is_empty queue)) && !steps < 200_000 do
    incr steps;
    let src, dst, wire = Queue.pop queue in
    let ba, wires, events = Ba.on_wire bas.(dst) ~rng ~src:(node src) wire in
    bas.(dst) <- ba;
    List.iter (fun (Ba.Decided d) -> decisions.(dst) <- Some d) events;
    broadcast dst wires
  done;
  (bas, decisions)

let test_ba_unanimous () =
  let _, decisions = drive_ba_network ~seed:1 (Array.make 4 Value.One) in
  Array.iter
    (fun d ->
      match d with
      | Some d ->
        Alcotest.(check bool) "decided One" true (Value.equal d.Abc.Decision.value Value.One)
      | None -> Alcotest.fail "undecided")
    decisions

let test_ba_mixed_agreement () =
  let inputs = [| Value.Zero; Value.One; Value.Zero; Value.One |] in
  let _, decisions = drive_ba_network ~seed:2 inputs in
  let values =
    Array.to_list decisions
    |> List.map (function
         | Some d -> d.Abc.Decision.value
         | None -> Alcotest.fail "undecided")
  in
  match values with
  | first :: rest ->
    List.iter (fun v -> Alcotest.(check bool) "agreement" true (Value.equal first v)) rest
  | [] -> ()

let test_ba_buffers_before_start () =
  (* Node 3 starts late: wire traffic arriving before its start must be
     buffered and replayed. *)
  let n = 4 and f = 1 in
  let rngs = Abc_prng.Stream.root ~seed:3 in
  let bas =
    Array.init n (fun i ->
        Ba.create ~n ~f ~me:(node i) ~coin:Abc.Coin.local ~validation:true)
  in
  (* starts for 0..2 only *)
  let queue = Queue.create () in
  let broadcast src wires =
    List.iter
      (fun w -> List.iter (fun dst -> Queue.add (src, dst, w) queue) (List.init n (fun d -> d)))
      wires
  in
  for i = 0 to 2 do
    let ba, wires, _ = Ba.start bas.(i) ~rng:rngs ~input:Value.One in
    bas.(i) <- ba;
    broadcast i wires
  done;
  (* run some deliveries; node 3 receives but never sends (no input) *)
  for _ = 1 to 50 do
    if not (Queue.is_empty queue) then begin
      let src, dst, wire = Queue.pop queue in
      let ba, wires, _ = Ba.on_wire bas.(dst) ~rng:rngs ~src:(node src) wire in
      bas.(dst) <- ba;
      broadcast dst wires
    end
  done;
  Alcotest.(check bool) "node 3 not started" false (Ba.started bas.(3));
  let ba, wires, _ = Ba.start bas.(3) ~rng:rngs ~input:Value.One in
  Alcotest.(check bool) "start emits broadcasts" true (List.length wires >= 1);
  Alcotest.(check bool) "now started" true (Ba.started ba)

let test_ba_start_idempotent () =
  let ba = Ba.create ~n:4 ~f:1 ~me:(node 0) ~coin:Abc.Coin.local ~validation:true in
  let ba, wires1, _ = Ba.start ba ~rng:(rng ()) ~input:Value.One in
  let _, wires2, _ = Ba.start ba ~rng:(rng ()) ~input:Value.Zero in
  Alcotest.(check bool) "first start broadcasts" true (List.length wires1 > 0);
  Alcotest.(check int) "second start is a no-op" 0 (List.length wires2)

(* A wire that changes nothing the instance acts on returns the
   instance itself, with no wires and no events: an echo after the
   instance readied, a ready after it delivered, and a wire whose key
   names an origin outside [0, n). *)
let test_ba_unchanged_wires_pass_through () =
  let rng = rng () in
  let k = key ~origin:1 () in
  let echo = Mux.Rbc.Echo (payload ()) and ready = Mux.Rbc.Ready (payload ()) in
  let feed event ba src =
    let ba, _, _ = Ba.on_wire ba ~rng ~src:(node src) { Mux.key = k; event } in
    ba
  in
  let unchanged name ba ~src wire =
    let ba', wires, events = Ba.on_wire ba ~rng ~src:(node src) wire in
    Alcotest.(check bool) (name ^ ": same instance") true (ba' == ba);
    Alcotest.(check int) (name ^ ": no wires") 0 (List.length wires);
    Alcotest.(check int) (name ^ ": no events") 0 (List.length events)
  in
  let ba = Ba.create ~n:4 ~f:1 ~me:(node 0) ~coin:Abc.Coin.local ~validation:true in
  (* At n = 4, three echoes ready the instance and three readies
     deliver it. *)
  let ba = List.fold_left (feed echo) ba [ 0; 1; 2 ] in
  unchanged "settled echo" ba ~src:3 { Mux.key = k; event = echo };
  let ba = List.fold_left (feed ready) ba [ 0; 1; 2 ] in
  unchanged "settled ready" ba ~src:3 { Mux.key = k; event = ready };
  unchanged "forged origin" ba ~src:2 { Mux.key = key ~origin:4 (); event = ready }

(* ---- Payloads ---- *)

let test_payloads () =
  Alcotest.(check bool) "int equal" true (Abc.Payloads.Int_payload.equal 3 3);
  Alcotest.(check bool) "int compare" true (Abc.Payloads.Int_payload.compare 1 2 < 0);
  Alcotest.(check string) "int pp" "42" (Fmt.str "%a" Abc.Payloads.Int_payload.pp 42);
  Alcotest.(check string) "string pp" "hi"
    (Fmt.str "%a" Abc.Payloads.String_payload.pp "hi");
  Alcotest.(check string) "labels" "int" Abc.Payloads.Int_payload.label

(* ---- Decision ---- *)

let test_decision () =
  let d1 = { Abc.Decision.value = Value.One; round = 3 } in
  let d2 = { Abc.Decision.value = Value.One; round = 3 } in
  let d3 = { Abc.Decision.value = Value.Zero; round = 3 } in
  Alcotest.(check bool) "equal" true (Abc.Decision.equal d1 d2);
  Alcotest.(check bool) "not equal" false (Abc.Decision.equal d1 d3);
  Alcotest.(check string) "pp" "decide(1, round 3)" (Fmt.str "%a" Abc.Decision.pp d1)

let () =
  Alcotest.run "components"
    [
      ("value", [ Alcotest.test_case "basics" `Quick test_value_basics ]);
      ( "coin",
        [
          Alcotest.test_case "local uses rng" `Quick test_local_coin_uses_rng;
          Alcotest.test_case "local fair" `Quick test_local_coin_roughly_fair;
          Alcotest.test_case "common identical across nodes" `Quick
            test_common_coin_identical_across_nodes;
          Alcotest.test_case "common varies with round" `Quick
            test_common_coin_varies_with_round;
          Alcotest.test_case "common varies with seed" `Quick
            test_common_coin_varies_with_seed;
          Alcotest.test_case "labels" `Quick test_coin_labels;
        ] );
      ( "consensus_msg",
        [
          Alcotest.test_case "step order" `Quick test_step_order;
          Alcotest.test_case "key ordering and pp" `Quick test_key_ordering_and_pp;
          Alcotest.test_case "vmsg roundtrip" `Quick test_vmsg_roundtrip;
          Alcotest.test_case "payload compare" `Quick test_payload_compare;
        ] );
      ( "rbc_mux",
        [
          Alcotest.test_case "routes to instances" `Quick test_mux_routes_to_instances;
          Alcotest.test_case "separate instances" `Quick test_mux_separate_instances;
          Alcotest.test_case "delivery" `Quick test_mux_delivery;
          Alcotest.test_case "wrong-origin initial ignored" `Quick
            test_mux_initial_from_wrong_origin_ignored;
          QCheck_alcotest.to_alcotest prop_mux_matches_reference;
        ] );
      ( "ba_instance",
        [
          Alcotest.test_case "unanimous" `Quick test_ba_unanimous;
          Alcotest.test_case "mixed agreement" `Quick test_ba_mixed_agreement;
          Alcotest.test_case "buffers before start" `Quick test_ba_buffers_before_start;
          Alcotest.test_case "start idempotent" `Quick test_ba_start_idempotent;
          Alcotest.test_case "unchanged wires pass through" `Quick
            test_ba_unchanged_wires_pass_through;
        ] );
      ("payloads", [ Alcotest.test_case "basics" `Quick test_payloads ]);
      ("decision", [ Alcotest.test_case "basics" `Quick test_decision ]);
    ]
