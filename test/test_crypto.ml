(* Tests for the coin cryptography substrate: GF(2^31-1) arithmetic,
   Shamir secret sharing and the Rabin dealer coin — plus MMR running
   on the implemented (share-exchange) coin. *)

module Node_id = Abc_net.Node_id
module Gf = Abc.Gf
module Shamir = Abc.Shamir
module Rabin = Abc.Rabin_coin

let node = Node_id.of_int

let rng ?(seed = 1) () = Abc_prng.Stream.root ~seed

(* ---- Gf ---- *)

let test_gf_basics () =
  Alcotest.(check int) "prime" 0x7FFFFFFF Gf.prime;
  Alcotest.(check int) "zero" 0 (Gf.to_int Gf.zero);
  Alcotest.(check int) "one" 1 (Gf.to_int Gf.one);
  Alcotest.(check int) "reduce" 1 (Gf.to_int (Gf.of_int (Gf.prime + 1)));
  Alcotest.(check int) "negative input" (Gf.prime - 2) (Gf.to_int (Gf.of_int (-2)))

let test_gf_add_sub () =
  let a = Gf.of_int 1234567 and b = Gf.of_int (Gf.prime - 3) in
  Alcotest.(check bool) "a + b - b = a" true (Gf.equal (Gf.sub (Gf.add a b) b) a);
  Alcotest.(check int) "wraparound" (1234567 - 3) (Gf.to_int (Gf.add a b))

let test_gf_mul_inv () =
  List.iter
    (fun x ->
      let x = Gf.of_int x in
      Alcotest.(check bool) "x * x^-1 = 1" true (Gf.equal (Gf.mul x (Gf.inv x)) Gf.one))
    [ 1; 2; 3; 12345; Gf.prime - 1 ];
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Gf.inv Gf.zero))

let test_gf_pow () =
  let x = Gf.of_int 3 in
  Alcotest.(check bool) "x^0 = 1" true (Gf.equal (Gf.pow x 0) Gf.one);
  Alcotest.(check int) "3^5" 243 (Gf.to_int (Gf.pow x 5));
  (* Fermat: x^(p-1) = 1 *)
  Alcotest.(check bool) "fermat" true (Gf.equal (Gf.pow x (Gf.prime - 1)) Gf.one)

let prop_gf_field_laws =
  QCheck.Test.make ~name:"field laws hold on random elements" ~count:300
    QCheck.(triple (int_bound 1000000000) (int_bound 1000000000) (int_bound 1000000000))
    (fun (a, b, c) ->
      let a = Gf.of_int a and b = Gf.of_int b and c = Gf.of_int c in
      Gf.equal (Gf.add a b) (Gf.add b a)
      && Gf.equal (Gf.mul a b) (Gf.mul b a)
      && Gf.equal (Gf.mul a (Gf.add b c)) (Gf.add (Gf.mul a b) (Gf.mul a c))
      && Gf.equal (Gf.add a (Gf.sub b a)) b)

(* [mul] against the product reduced here, and [inv] against [mul],
   over random elements plus the edges of the field: 0, 1, 2, 2^30 and
   the two largest elements, whose products come closest to 2^62. *)
let gen_gf_element =
  QCheck.Gen.(
    frequency
      [
        (3, int_bound (Gf.prime - 1));
        (1, oneofl [ 0; 1; 2; 1 lsl 30; Gf.prime - 2; Gf.prime - 1 ]);
      ])

let prop_gf_mul_inv_exact =
  QCheck.Test.make ~name:"mul reduces exactly and inv inverts" ~count:500
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "a=%d b=%d" a b)
       QCheck.Gen.(pair gen_gf_element gen_gf_element))
    (fun (a, b) ->
      let x = Gf.of_int a in
      Gf.to_int (Gf.mul x (Gf.of_int b)) = a * b mod Gf.prime
      &&
      if a = 0 then
        match Gf.inv x with _ -> false | exception Division_by_zero -> true
      else Gf.equal (Gf.mul x (Gf.inv x)) Gf.one)

(* ---- Shamir ---- *)

let test_shamir_roundtrip () =
  let secret = Gf.of_int 424242 in
  let shares = Shamir.deal ~rng:(rng ()) ~secret ~threshold:3 ~shares:7 in
  Alcotest.(check int) "seven shares" 7 (List.length shares);
  (* any 3 shares reconstruct *)
  let pick idx = List.map (List.nth shares) idx in
  List.iter
    (fun idx ->
      Alcotest.(check bool)
        (Printf.sprintf "subset reconstructs")
        true
        (Gf.equal (Shamir.reconstruct (pick idx)) secret))
    [ [ 0; 1; 2 ]; [ 4; 5; 6 ]; [ 0; 3; 6 ]; [ 2; 4; 5 ] ];
  (* more than threshold also works *)
  Alcotest.(check bool) "all shares" true
    (Gf.equal (Shamir.reconstruct shares) secret)

let test_shamir_two_shares_insufficient () =
  (* With threshold 3, two shares interpolate a line whose value at 0
     is (almost surely) not the secret. *)
  let secret = Gf.of_int 99 in
  let shares = Shamir.deal ~rng:(rng ~seed:3 ()) ~secret ~threshold:3 ~shares:5 in
  let two = [ List.nth shares 0; List.nth shares 1 ] in
  Alcotest.(check bool) "two shares do not reconstruct" false
    (Gf.equal (Shamir.reconstruct two) secret)

let test_shamir_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Shamir.reconstruct: no shares")
    (fun () -> ignore (Shamir.reconstruct []));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Shamir.deal: need 1 <= threshold <= shares") (fun () ->
      ignore (Shamir.deal ~rng:(rng ()) ~secret:Gf.one ~threshold:5 ~shares:3));
  let shares = Shamir.deal ~rng:(rng ()) ~secret:Gf.one ~threshold:2 ~shares:3 in
  let dup = [ List.hd shares; List.hd shares ] in
  Alcotest.check_raises "duplicate points"
    (Invalid_argument "Shamir.reconstruct: duplicate evaluation points") (fun () ->
      ignore (Shamir.reconstruct dup))

let test_shamir_threshold_one () =
  let secret = Gf.of_int 7 in
  let shares = Shamir.deal ~rng:(rng ()) ~secret ~threshold:1 ~shares:4 in
  List.iter
    (fun s ->
      Alcotest.(check bool) "degree-0 polynomial" true
        (Gf.equal (Shamir.reconstruct [ s ]) secret))
    shares

let prop_shamir_any_subset =
  QCheck.Test.make ~name:"any threshold-subset reconstructs" ~count:200
    QCheck.(triple small_int (int_range 1 5) small_int)
    (fun (secret, threshold, seed) ->
      let shares_count = threshold + 3 in
      let secret = Gf.of_int secret in
      let shares =
        Shamir.deal ~rng:(rng ~seed ()) ~secret ~threshold ~shares:shares_count
      in
      (* rotate and take [threshold] shares *)
      let rotated = List.filteri (fun i _ -> i mod 2 = seed mod 2 || i < threshold) shares in
      let subset = List.filteri (fun i _ -> i < threshold) rotated in
      Gf.equal (Shamir.reconstruct subset) secret)

(* ---- Rabin coin ---- *)

let test_rabin_share_verify () =
  let dealer = Rabin.create ~n:7 ~f:2 ~seed:11 in
  Alcotest.(check int) "threshold" 3 (Rabin.threshold dealer);
  let share = Rabin.share dealer ~round:4 ~node:(node 2) in
  Alcotest.(check bool) "genuine share verifies" true
    (Rabin.verify dealer ~round:4 ~node:(node 2) share);
  Alcotest.(check bool) "wrong node rejected" false
    (Rabin.verify dealer ~round:4 ~node:(node 3) share);
  Alcotest.(check bool) "wrong round rejected" false
    (Rabin.verify dealer ~round:5 ~node:(node 2) share);
  let forged = { share with Shamir.y = Gf.add share.Shamir.y Gf.one } in
  Alcotest.(check bool) "forged value rejected" false
    (Rabin.verify dealer ~round:4 ~node:(node 2) forged)

let test_rabin_reconstruct_matches_dealer () =
  let dealer = Rabin.create ~n:7 ~f:2 ~seed:11 in
  for round = 1 to 20 do
    let shares =
      List.init 3 (fun i -> Rabin.share dealer ~round ~node:(node (i * 2)))
    in
    Alcotest.(check bool)
      (Printf.sprintf "round %d" round)
      true
      (Abc.Value.equal (Rabin.reconstruct dealer shares)
         (Rabin.coin_value dealer ~round))
  done

let test_rabin_coin_is_fair_ish () =
  let dealer = Rabin.create ~n:4 ~f:1 ~seed:5 in
  let ones = ref 0 in
  for round = 1 to 1000 do
    if Abc.Value.to_bool (Rabin.coin_value dealer ~round) then incr ones
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fair (%d/1000)" !ones)
    true
    (!ones > 430 && !ones < 570)

let test_rabin_seeds_differ () =
  let d1 = Rabin.create ~n:4 ~f:1 ~seed:1 in
  let d2 = Rabin.create ~n:4 ~f:1 ~seed:2 in
  let flips d = List.init 64 (fun r -> Abc.Value.to_int (Rabin.coin_value d ~round:r)) in
  Alcotest.(check bool) "different sequences" false (flips d1 = flips d2)

(* ---- MMR on the implemented coin ---- *)

module M = Abc.Mmr_consensus

module H = Abc.Harness.Make (struct
  include M

  let value_of_input = M.value_of_input
end)

let run_shared ?faulty ?(adversary = Abc_net.Adversary.uniform) ~n ~f ~seed values =
  let inputs = M.inputs_with_shared_coin ~n ~f ~seed:99 values in
  snd (H.run (H.E.config ?faulty ~n ~f ~inputs ~seed ~adversary ()))

let split n = Array.init n (fun i -> if i < n / 2 then Abc.Value.Zero else Abc.Value.One)

let test_mmr_shared_coin_ok () =
  List.iter
    (fun seed ->
      let v = run_shared ~n:7 ~f:2 ~seed (split 7) in
      Alcotest.(check bool)
        (Printf.sprintf "ok seed %d (%s)" seed (Fmt.str "%a" Abc.Harness.pp_verdict v))
        true (Abc.Harness.ok v))
    (List.init 10 (fun i -> i))

let test_mmr_shared_coin_vs_corrupted_shares () =
  (* Byzantine nodes mutate their shares; verification must reject the
     forgeries and the honest f+1 shares must still reconstruct. *)
  let faulty =
    [
      (node 5, Abc_net.Behaviour.Mutate M.Fault.flip_value);
      (node 6, Abc_net.Behaviour.Mutate M.Fault.flip_value);
    ]
  in
  List.iter
    (fun seed ->
      let v = run_shared ~faulty ~n:7 ~f:2 ~seed (split 7) in
      Alcotest.(check bool) (Printf.sprintf "ok seed %d" seed) true (Abc.Harness.ok v))
    (List.init 10 (fun i -> i))

let test_mmr_shared_coin_withholding () =
  (* Silent faulty nodes withhold their shares; f+1 honest shares must
     suffice. *)
  let faulty = [ (node 0, Abc_net.Behaviour.Silent); (node 1, Abc_net.Behaviour.Silent) ] in
  List.iter
    (fun seed ->
      let v = run_shared ~faulty ~n:7 ~f:2 ~seed (split 7) in
      Alcotest.(check bool) (Printf.sprintf "ok seed %d" seed) true (Abc.Harness.ok v))
    (List.init 10 (fun i -> i))

let () =
  Alcotest.run "crypto"
    [
      ( "gf",
        [
          Alcotest.test_case "basics" `Quick test_gf_basics;
          Alcotest.test_case "add/sub" `Quick test_gf_add_sub;
          Alcotest.test_case "mul/inv" `Quick test_gf_mul_inv;
          Alcotest.test_case "pow" `Quick test_gf_pow;
          QCheck_alcotest.to_alcotest prop_gf_field_laws;
          QCheck_alcotest.to_alcotest prop_gf_mul_inv_exact;
        ] );
      ( "shamir",
        [
          Alcotest.test_case "roundtrip" `Quick test_shamir_roundtrip;
          Alcotest.test_case "two shares insufficient" `Quick
            test_shamir_two_shares_insufficient;
          Alcotest.test_case "validation" `Quick test_shamir_validation;
          Alcotest.test_case "threshold one" `Quick test_shamir_threshold_one;
          QCheck_alcotest.to_alcotest prop_shamir_any_subset;
        ] );
      ( "rabin coin",
        [
          Alcotest.test_case "share verify" `Quick test_rabin_share_verify;
          Alcotest.test_case "reconstruct matches dealer" `Quick
            test_rabin_reconstruct_matches_dealer;
          Alcotest.test_case "fair-ish" `Quick test_rabin_coin_is_fair_ish;
          Alcotest.test_case "seed sensitivity" `Quick test_rabin_seeds_differ;
        ] );
      ( "mmr on shares",
        [
          Alcotest.test_case "ok across seeds" `Quick test_mmr_shared_coin_ok;
          Alcotest.test_case "corrupted shares rejected" `Quick
            test_mmr_shared_coin_vs_corrupted_shares;
          Alcotest.test_case "withholding tolerated" `Quick
            test_mmr_shared_coin_withholding;
        ] );
    ]
