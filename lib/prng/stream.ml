type t = { key : int64; gen : Xoshiro256.t }

let of_key key = { key; gen = Xoshiro256.create key }

let root ~seed = of_key (Splitmix64.mix (Int64.of_int seed))

(* Child keys mix the parent key with the label through the SplitMix64
   finalizer, keyed by an odd constant so that [split (split t a) b]
   and [split (split t b) a] differ. *)
let split t ~label =
  let label64 = Int64.of_int label in
  let mixed =
    Splitmix64.mix
      (Int64.logxor t.key
         (Int64.mul 0xD1B54A32D192ED03L (Int64.add label64 1L)))
  in
  of_key mixed

let key t = t.key

let[@inline] bits64 t = Xoshiro256.next t.gen

(* Rejection sampling on the low 62 bits keeps the draw unbiased for
   any bound representable as a non-negative OCaml int.  [max_int] is
   that 62-bit mask, so the draw stays in unboxed [int] arithmetic. *)
let int t ~bound =
  assert (bound > 0);
  let limit = max_int - (max_int mod bound) in
  let v = ref (Int64.to_int (bits64 t) land max_int) in
  while !v > limit do
    v := Int64.to_int (bits64 t) land max_int
  done;
  !v mod bound

let[@inline] bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let bernoulli t ~p = float t < p

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t ~bound:(Array.length arr))

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let[@inline] exponential t ~mean =
  assert (mean > 0.);
  let u = float t in
  (* [1 - u] avoids log 0 since [float] never returns 1. *)
  -.mean *. log (1. -. u)
