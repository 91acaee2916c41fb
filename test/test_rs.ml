(* Tests for the Reed-Solomon codec and its Merkle commitment: exact
   reconstruction thresholds, round-trips at random shapes, and
   rejection of tampered fragments. *)

module Rs = Abc.Rs
module Gf = Abc.Gf
module Quorum = Abc.Quorum

let payload_of_seed ~len seed =
  String.init len (fun i -> Char.chr ((seed + (31 * i)) land 0xFF))

(* ---- targeted cases ---- *)

let test_systematic_prefix () =
  (* Fragments 0..k-1 are the data symbols verbatim: decoding from
     exactly those must reproduce the payload trivially. *)
  let payload = payload_of_seed ~len:100 7 in
  let fragments = Array.to_list (Rs.encode ~k:3 ~n:7 payload) in
  let data = List.filteri (fun i _ -> i < 3) fragments in
  Alcotest.(check string) "systematic decode" payload (Rs.decode ~k:3 ~len:100 data)

let test_reconstruction_from_parity_only () =
  (* Any k fragments suffice — including all-parity subsets. *)
  let payload = payload_of_seed ~len:64 3 in
  let fragments = Array.to_list (Rs.encode ~k:3 ~n:7 payload) in
  let parity = List.filteri (fun i _ -> i >= 4) fragments in
  Alcotest.(check string) "parity decode" payload (Rs.decode ~k:3 ~len:64 parity)

let test_exactly_n_minus_2f_fragments () =
  (* The coded-RBC operating point: n = 7, f = 2, k = n - 2f = 3.
     Exactly k fragments (no slack) reconstruct. *)
  let n = 7 and f = 2 in
  let k = Quorum.honest_support ~n ~f in
  Alcotest.(check int) "k is n-2f" 3 k;
  let payload = payload_of_seed ~len:1000 11 in
  let fragments = Array.to_list (Rs.encode ~k ~n payload) in
  (* every k-subset of distinct indices decodes identically *)
  List.iter
    (fun picks ->
      let subset = List.filteri (fun i _ -> List.mem i picks) fragments in
      Alcotest.(check string)
        (Printf.sprintf "subset %s" (String.concat "," (List.map string_of_int picks)))
        payload
        (Rs.decode ~k ~len:1000 subset))
    [ [ 0; 1; 2 ]; [ 4; 5; 6 ]; [ 0; 3; 6 ]; [ 1; 2; 5 ] ]

let test_too_few_fragments_rejected () =
  let payload = payload_of_seed ~len:50 1 in
  let fragments = Array.to_list (Rs.encode ~k:3 ~n:7 payload) in
  let two = List.filteri (fun i _ -> i < 2) fragments in
  Alcotest.check_raises "needs k distinct"
    (Invalid_argument "Rs.decode: not enough distinct fragments") (fun () ->
      ignore (Rs.decode ~k:3 ~len:50 two));
  (* duplicates of one index do not count as distinct *)
  let dup = List.filteri (fun i _ -> i < 2) fragments @ [ List.nth fragments 0 ] in
  Alcotest.check_raises "duplicates collapse"
    (Invalid_argument "Rs.decode: not enough distinct fragments") (fun () ->
      ignore (Rs.decode ~k:3 ~len:50 dup))

let test_empty_and_tiny_payloads () =
  List.iter
    (fun len ->
      let payload = payload_of_seed ~len 5 in
      let fragments = Array.to_list (Rs.encode ~k:2 ~n:4 payload) in
      let subset = List.filteri (fun i _ -> i >= 2) fragments in
      Alcotest.(check string)
        (Printf.sprintf "len=%d" len)
        payload
        (Rs.decode ~k:2 ~len subset))
    [ 0; 1; 2; 3; 4; 5 ]

(* ---- Merkle commitment ---- *)

let test_merkle_accepts_committed_fragments () =
  let payload = payload_of_seed ~len:200 9 in
  let fragments = Rs.encode ~k:3 ~n:7 payload in
  let root, branches = Rs.Merkle.commit ~len:200 fragments in
  Array.iteri
    (fun i fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "leaf %d verifies" i)
        true
        (Rs.Merkle.verify ~root ~len:200 ~index:i branches.(i) fragment))
    fragments

let test_merkle_rejects_tampered_fragment () =
  let payload = payload_of_seed ~len:200 9 in
  let fragments = Rs.encode ~k:3 ~n:7 payload in
  let root, branches = Rs.Merkle.commit ~len:200 fragments in
  let tampered =
    let data = Array.copy fragments.(2).Rs.data in
    data.(0) <- Gf.add data.(0) Gf.one;
    { fragments.(2) with Rs.data = data }
  in
  Alcotest.(check bool) "tampered data rejected" false
    (Rs.Merkle.verify ~root ~len:200 ~index:2 branches.(2) tampered);
  Alcotest.(check bool) "wrong index rejected" false
    (Rs.Merkle.verify ~root ~len:200 ~index:3 branches.(3) fragments.(2));
  Alcotest.(check bool) "wrong length rejected" false
    (Rs.Merkle.verify ~root ~len:199 ~index:2 branches.(2) fragments.(2));
  Alcotest.(check bool) "swapped branch rejected" false
    (Rs.Merkle.verify ~root ~len:200 ~index:2 branches.(3) fragments.(2))

let test_merkle_branch_depth () =
  (* Leaves are padded to a power of two: 7 leaves -> depth 3. *)
  let payload = payload_of_seed ~len:30 2 in
  let fragments = Rs.encode ~k:3 ~n:7 payload in
  let _, branches = Rs.Merkle.commit ~len:30 fragments in
  Array.iter
    (fun branch ->
      Alcotest.(check int) "depth ⌈log2 7⌉" 3 (List.length branch);
      Alcotest.(check int) "branch wire bytes" (3 * Rs.Merkle.hash_bytes)
        (Rs.Merkle.branch_wire_bytes branch))
    branches

(* ---- known answers ---- *)

(* The round trips above accept any self-consistent code; these pin
   the code itself.  Each shape's digest covers, for every payload
   length, every fragment's index and symbols, the Merkle root and
   every branch — and, for decoding, the payload rebuilt from the
   highest k fragments (all parity once n >= 2k). *)
let known_lengths = [ 0; 1; 2; 3; 4; 100; 2200 ]

let known_payload len = payload_of_seed ~len (len + 17)

let encode_digest ~k ~n =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun len ->
      let fragments = Rs.encode ~k ~n (known_payload len) in
      let root, branches = Rs.Merkle.commit ~len fragments in
      Printf.bprintf buffer "len=%d root=%x\n" len root;
      Array.iteri
        (fun i fragment ->
          Printf.bprintf buffer "%d:" fragment.Rs.index;
          Array.iter (fun s -> Printf.bprintf buffer " %d" (Gf.to_int s)) fragment.Rs.data;
          Buffer.add_string buffer " |";
          List.iter (fun h -> Printf.bprintf buffer " %x" h) branches.(i);
          Buffer.add_char buffer '\n')
        fragments)
    known_lengths;
  Digest.to_hex (Digest.string (Buffer.contents buffer))

let decode_digest ~k ~n =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun len ->
      let fragments = Array.to_list (Rs.encode ~k ~n (known_payload len)) in
      let highest = List.filteri (fun i _ -> i >= n - k) fragments in
      Printf.bprintf buffer "len=%d %s\n" len (Rs.decode ~k ~len highest))
    known_lengths;
  Digest.to_hex (Digest.string (Buffer.contents buffer))

(* (k, n, encode + commit digest) *)
let known_encodings =
  [
    (1, 4, "cca06791db4d3d0ac5d95952420d453f");
    (2, 4, "d3369c331757bb186677fa2086248868");
    (3, 7, "634e3c0ad3d4137a89c0af86d4570c9e");
    (6, 16, "75ee6346cf038d9dba5e3da9445d51b7");
  ]

(* Every shape decodes the same payloads, so one digest pins them all. *)
let known_decoding = "5d089be183d02fdf206fb7e84305feb1"

let test_known_answers () =
  List.iter
    (fun (k, n, encoded) ->
      let shape = Printf.sprintf "k=%d n=%d" k n in
      Alcotest.(check string) (shape ^ " encode + commit") encoded (encode_digest ~k ~n);
      Alcotest.(check string) (shape ^ " decode") known_decoding (decode_digest ~k ~n))
    known_encodings

(* ---- qcheck round-trips ---- *)

let gen_shape =
  (* (n, f, payload length, seed) with n > 3f and k = n - 2f >= 1 *)
  QCheck.Gen.(
    int_range 4 16 >>= fun n ->
    int_range 0 ((n - 1) / 3) >>= fun f ->
    int_range 0 300 >>= fun len ->
    int_range 0 1000 >>= fun seed -> return (n, f, len, seed))

let prop_roundtrip_random_subset =
  QCheck.Test.make ~name:"decode any k-subset round-trips" ~count:200
    (QCheck.make gen_shape ~print:(fun (n, f, len, seed) ->
         Printf.sprintf "n=%d f=%d len=%d seed=%d" n f len seed))
    (fun (n, f, len, seed) ->
      let k = Quorum.honest_support ~n ~f in
      let payload = payload_of_seed ~len seed in
      let fragments = Array.to_list (Rs.encode ~k ~n payload) in
      (* pick a deterministic pseudo-random k-subset *)
      let arr = Array.of_list fragments in
      let rng = Abc_prng.Stream.root ~seed in
      Abc_prng.Stream.shuffle_in_place rng arr;
      let subset = List.filteri (fun i _ -> i < k) (Array.to_list arr) in
      String.equal payload (Rs.decode ~k ~len subset))

let prop_commit_verify_roundtrip =
  QCheck.Test.make ~name:"commit/verify accepts all leaves" ~count:100
    (QCheck.make gen_shape ~print:(fun (n, f, len, seed) ->
         Printf.sprintf "n=%d f=%d len=%d seed=%d" n f len seed))
    (fun (n, f, len, seed) ->
      let k = Quorum.honest_support ~n ~f in
      let payload = payload_of_seed ~len seed in
      let fragments = Rs.encode ~k ~n payload in
      let root, branches = Rs.Merkle.commit ~len fragments in
      Array.for_all
        (fun fragment ->
          Rs.Merkle.verify ~root ~len ~index:fragment.Rs.index
            branches.(fragment.Rs.index) fragment)
        fragments)

let prop_fragment_sizes =
  (* Each fragment carries ⌈symbols/k⌉ field elements: the payload
     splits k ways (the O(|m|/k) term of the bandwidth bound). *)
  QCheck.Test.make ~name:"fragment size is ceil(symbols / k)" ~count:100
    (QCheck.make gen_shape ~print:(fun (n, f, len, seed) ->
         Printf.sprintf "n=%d f=%d len=%d seed=%d" n f len seed))
    (fun (n, f, len, seed) ->
      let k = Quorum.honest_support ~n ~f in
      let payload = payload_of_seed ~len seed in
      let fragments = Rs.encode ~k ~n payload in
      let symbols = (len + Rs.symbol_bytes - 1) / Rs.symbol_bytes in
      let blocks = (symbols + k - 1) / k in
      Array.for_all (fun fr -> Array.length fr.Rs.data = blocks) fragments)

let () =
  Alcotest.run "rs"
    [
      ( "codec",
        [
          Alcotest.test_case "systematic prefix" `Quick test_systematic_prefix;
          Alcotest.test_case "parity-only reconstruction" `Quick
            test_reconstruction_from_parity_only;
          Alcotest.test_case "exactly n-2f fragments" `Quick
            test_exactly_n_minus_2f_fragments;
          Alcotest.test_case "too few fragments rejected" `Quick
            test_too_few_fragments_rejected;
          Alcotest.test_case "tiny payloads" `Quick test_empty_and_tiny_payloads;
          Alcotest.test_case "known answers" `Quick test_known_answers;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "committed fragments verify" `Quick
            test_merkle_accepts_committed_fragments;
          Alcotest.test_case "tampered fragments rejected" `Quick
            test_merkle_rejects_tampered_fragment;
          Alcotest.test_case "branch depth" `Quick test_merkle_branch_depth;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_random_subset;
          QCheck_alcotest.to_alcotest prop_commit_verify_roundtrip;
          QCheck_alcotest.to_alcotest prop_fragment_sizes;
        ] );
    ]
