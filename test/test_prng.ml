(* Unit and property tests for the abc_prng library. *)

module Stream = Abc_prng.Stream
module Splitmix64 = Abc_prng.Splitmix64
module Xoshiro256 = Abc_prng.Xoshiro256

let test_splitmix_deterministic () =
  let a = Splitmix64.create 42L and b = Splitmix64.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same sequence" (Splitmix64.next a) (Splitmix64.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix64.create 1L and b = Splitmix64.create 2L in
  Alcotest.(check bool) "different outputs" false
    (Int64.equal (Splitmix64.next a) (Splitmix64.next b))

let test_mix_bijective_on_samples () =
  (* mix is a bijection; at minimum distinct inputs give distinct
     outputs on a sample. *)
  let seen = Hashtbl.create 1024 in
  for i = 0 to 1023 do
    let out = Splitmix64.mix (Int64.of_int i) in
    Alcotest.(check bool)
      (Printf.sprintf "no collision at %d" i)
      false (Hashtbl.mem seen out);
    Hashtbl.add seen out ()
  done

let test_xoshiro_deterministic () =
  let a = Xoshiro256.create 7L and b = Xoshiro256.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same sequence" (Xoshiro256.next a) (Xoshiro256.next b)
  done

let test_xoshiro_copy_independent () =
  let a = Xoshiro256.create 7L in
  let _ = Xoshiro256.next a in
  let b = Xoshiro256.copy a in
  let xa = Xoshiro256.next a in
  let xb = Xoshiro256.next b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  (* advancing the copy further must not affect the original *)
  let _ = Xoshiro256.next b in
  let _ = Xoshiro256.next b in
  let a' = Xoshiro256.copy a in
  Alcotest.(check int64) "original unaffected" (Xoshiro256.next a)
    (Xoshiro256.next a')

let test_stream_split_stable () =
  (* Splitting does not depend on how much the parent has drawn. *)
  let p1 = Stream.root ~seed:5 in
  let p2 = Stream.root ~seed:5 in
  let _ = Stream.bits64 p2 in
  let _ = Stream.bits64 p2 in
  let c1 = Stream.split p1 ~label:3 and c2 = Stream.split p2 ~label:3 in
  Alcotest.(check int64) "same child key" (Stream.key c1) (Stream.key c2);
  Alcotest.(check int64) "same child output" (Stream.bits64 c1) (Stream.bits64 c2)

let test_stream_split_labels_distinct () =
  let p = Stream.root ~seed:5 in
  let c0 = Stream.split p ~label:0 and c1 = Stream.split p ~label:1 in
  Alcotest.(check bool) "distinct keys" false
    (Int64.equal (Stream.key c0) (Stream.key c1))

let test_stream_split_path_sensitive () =
  (* split(split(r, a), b) must differ from split(split(r, b), a) *)
  let r () = Stream.root ~seed:11 in
  let ab = Stream.split (Stream.split (r ()) ~label:1) ~label:2 in
  let ba = Stream.split (Stream.split (r ()) ~label:2) ~label:1 in
  Alcotest.(check bool) "path matters" false
    (Int64.equal (Stream.key ab) (Stream.key ba))

let test_int_bounds () =
  let s = Stream.root ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Stream.int s ~bound:7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_int_covers_range () =
  let s = Stream.root ~seed:2 in
  let seen = Array.make 7 false in
  for _ = 1 to 10_000 do
    seen.(Stream.int s ~bound:7) <- true
  done;
  Array.iteri
    (fun i hit -> Alcotest.(check bool) (Printf.sprintf "value %d drawn" i) true hit)
    seen

let test_float_range () =
  let s = Stream.root ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Stream.float s in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_bool_balanced () =
  let s = Stream.root ~seed:4 in
  let trues = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    if Stream.bool s then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "fair within 1%% (got %.3f)" ratio)
    true
    (ratio > 0.49 && ratio < 0.51)

let test_int_uniformity_chi_square () =
  let s = Stream.root ~seed:6 in
  let buckets = 10 in
  let trials = 100_000 in
  let counts = Array.make buckets 0 in
  for _ = 1 to trials do
    let i = Stream.int s ~bound:buckets in
    counts.(i) <- counts.(i) + 1
  done;
  let expected = float_of_int trials /. float_of_int buckets in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  (* 9 degrees of freedom: critical value at p=0.001 is 27.88. *)
  Alcotest.(check bool)
    (Printf.sprintf "chi-square %.2f < 27.88" chi2)
    true (chi2 < 27.88)

let test_exponential_mean () =
  let s = Stream.root ~seed:7 in
  let trials = 100_000 in
  let sum = ref 0. in
  for _ = 1 to trials do
    let v = Stream.exponential s ~mean:8. in
    Alcotest.(check bool) "non-negative" true (v >= 0.);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "mean close to 8 (got %.2f)" mean)
    true
    (mean > 7.7 && mean < 8.3)

let test_bernoulli_probability () =
  let s = Stream.root ~seed:8 in
  let trials = 100_000 in
  let hits = ref 0 in
  for _ = 1 to trials do
    if Stream.bernoulli s ~p:0.2 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.2 within tolerance (got %.3f)" ratio)
    true
    (ratio > 0.19 && ratio < 0.21)

let test_shuffle_permutation () =
  let s = Stream.root ~seed:9 in
  let arr = Array.init 50 (fun i -> i) in
  Stream.shuffle_in_place s arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_pick_in_array () =
  let s = Stream.root ~seed:10 in
  let arr = [| 2; 4; 8 |] in
  for _ = 1 to 100 do
    let v = Stream.pick s arr in
    Alcotest.(check bool) "element of array" true (Array.exists (Int.equal v) arr)
  done

(* Known answers: literal outputs of the reference implementation, so a
   rewrite of the generators that changed any draw fails here, not only
   in the traces downstream.  Floats are compared bit for bit. *)

type known = {
  seed : int;
  key : int64;
  bits : int64 list;
  floats : float list;
  bools : bool list;
  exps : float list;  (* exponential ~mean:8. *)
  ints : (int * int list) list;  (* bound, draws *)
  child_key : int64;  (* split ~label:3 *)
  child_bits : int64 list;
}

let known =
  [
    {
      seed = 0;
      key = 0L;
      bits = [ 5987356902031041503L; 7051070477665621255L; 6633766593972829180L ];
      floats = [ 0x1.4c5d7585242c8p-2; 0x1.8769bcf70e034p-2; 0x1.703f7e47b269ep-2 ];
      bools = [ true; true; false; false; false; false; false; true ];
      exps = [ 0x1.91d4dbca40faap+1; 0x1.ed36bc021e789p+1; 0x1.c862bdc96bbb7p+1 ];
      ints =
        [
          (7, [ 4; 5; 5; 6 ]);
          (7919, [ 6747; 3673; 6321; 4384 ]);
          ( max_int,
            [
              1375670883603653599;
              2439384459238233351;
              2022080575545441276;
              211316841551650330;
            ] );
          (* rejects the top 62-bit draws above 2^61 + 1: about half *)
          ( (1 lsl 61) + 1,
            [
              1375670883603653599;
              2022080575545441276;
              211316841551650330;
              379361710973160858;
            ] );
        ];
      child_key = 8786639878720926469L;
      child_bits = [ 8501877405091179171L; -5980489080718700565L ];
    };
    {
      seed = 1;
      key = 6238072747940578789L;
      bits = [ -716136751619575887L; 4464893370519901181L; -3033047034349837766L ];
      floats = [ 0x1.ec1f8ad65a39dp-1; 0x1.efb3e6ea6eae8p-3; 0x1.abd0e795850d4p-1 ];
      bools = [ true; true; false; false; false; false; false; true ];
      exps = [ 0x1.9fd7c2f16c1eap+4; 0x1.1bc761f10395ep+1; 0x1.ce2976091f753p+3 ];
      ints =
        [
          (7, [ 5; 2; 2; 6 ]);
          (7919, [ 5420; 1165; 826; 6974 ]);
          ( max_int,
            [
              3895549266807812017;
              4464893370519901181;
              1578638984077550138;
              3266958052873933830;
            ] );
          ( (1 lsl 61) + 1,
            [
              1578638984077550138;
              1349620121829154143;
              2217744207597319400;
              1872873328662646976;
            ] );
        ];
      child_key = 1398900885392242609L;
      child_bits = [ -1429462348757125858L; -2697984588827114981L ];
    };
    {
      seed = 42;
      key = -6387817139659442654L;
      bits = [ -5433660073147061314L; 6245390960699366450L; 6952163885537044882L ];
      floats = [ 0x1.692f85e78bb15p-1; 0x1.5ab057f4ffaf6p-2; 0x1.81ec30e106f0ap-2 ];
      bools = [ false; false; false; true; true; false; true; true ];
      exps = [ 0x1.38e7027c6482dp+3; 0x1.a742dea9a5fc5p+1; 0x1.e45d5276b4ea2p+1 ];
      ints =
        [
          (7, [ 2; 5; 4; 2 ]);
          (7919, [ 6508; 223; 1488; 4916 ]);
          ( max_int,
            [
              3789711963707714494;
              1633704942271978546;
              2340477867109656978;
              3904583925562820495;
            ] );
          ( (1 lsl 61) + 1,
            [
              1633704942271978546;
              632400289950593523;
              1819978030744827765;
              1368648898091363582;
            ] );
        ];
      child_key = -764555216372401338L;
      child_bits = [ -2000402769493648880L; 1786662531655108421L ];
    };
  ]

let float_bits =
  Alcotest.testable
    (fun ppf x -> Fmt.pf ppf "%h" x)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

(* [draws k seed f] is the first [k] values of [f] on a fresh root. *)
let draws k seed f =
  let s = Stream.root ~seed in
  List.init k (fun _ -> f s)

let test_stream_known_answers () =
  List.iter
    (fun k ->
      let name what = Printf.sprintf "seed %d %s" k.seed what in
      let len = List.length in
      Alcotest.(check int64) (name "key") k.key (Stream.key (Stream.root ~seed:k.seed));
      Alcotest.(check (list int64))
        (name "bits64") k.bits
        (draws (len k.bits) k.seed Stream.bits64);
      Alcotest.(check (list float_bits))
        (name "float") k.floats
        (draws (len k.floats) k.seed Stream.float);
      Alcotest.(check (list bool))
        (name "bool") k.bools
        (draws (len k.bools) k.seed Stream.bool);
      Alcotest.(check (list float_bits))
        (name "exponential") k.exps
        (draws (len k.exps) k.seed (Stream.exponential ~mean:8.));
      List.iter
        (fun (bound, expected) ->
          Alcotest.(check (list int))
            (name (Printf.sprintf "int ~bound:%d" bound))
            expected
            (draws (len expected) k.seed (Stream.int ~bound)))
        k.ints;
      let child = Stream.split (Stream.root ~seed:k.seed) ~label:3 in
      Alcotest.(check int64) (name "child key") k.child_key (Stream.key child);
      Alcotest.(check (list int64))
        (name "child bits64") k.child_bits
        (List.init (len k.child_bits) (fun _ -> Stream.bits64 child)))
    known

let test_xoshiro_known_copy () =
  let a = Xoshiro256.create 42L in
  let _ = Xoshiro256.next a in
  let b = Xoshiro256.copy a in
  let expected =
    [ 5881210131331364753L; -297100157724070516L; -5513075133950446152L ]
  in
  Alcotest.(check (list int64)) "original continues" expected
    (List.init 3 (fun _ -> Xoshiro256.next a));
  Alcotest.(check (list int64)) "copy continues" expected
    (List.init 3 (fun _ -> Xoshiro256.next b))

(* Property-based tests *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Stream.int always within bound" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let s = Stream.root ~seed in
      let v = Stream.int s ~bound in
      v >= 0 && v < bound)

let prop_split_deterministic =
  QCheck.Test.make ~name:"split is a pure function of (seed, label)" ~count:500
    QCheck.(pair small_int small_int)
    (fun (seed, label) ->
      let a = Stream.split (Stream.root ~seed) ~label in
      let b = Stream.split (Stream.root ~seed) ~label in
      Int64.equal (Stream.bits64 a) (Stream.bits64 b))

let () =
  Alcotest.run "abc_prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "mix injective on sample" `Quick
            test_mix_bijective_on_samples;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "copy independent" `Quick test_xoshiro_copy_independent;
          Alcotest.test_case "copy known answer" `Quick test_xoshiro_known_copy;
        ] );
      ( "stream",
        [
          Alcotest.test_case "split stable" `Quick test_stream_split_stable;
          Alcotest.test_case "split labels distinct" `Quick
            test_stream_split_labels_distinct;
          Alcotest.test_case "split path sensitive" `Quick
            test_stream_split_path_sensitive;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bool balanced" `Quick test_bool_balanced;
          Alcotest.test_case "chi-square uniformity" `Quick
            test_int_uniformity_chi_square;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "bernoulli probability" `Quick
            test_bernoulli_probability;
          Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "pick in array" `Quick test_pick_in_array;
          Alcotest.test_case "known answers" `Quick test_stream_known_answers;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_split_deterministic;
        ] );
    ]
