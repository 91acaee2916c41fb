(* The 256-bit state s0..s3 lives in one 32-byte buffer, read and
   written with unboxed 64-bit loads and stores, so [next] allocates
   nothing: a mutable [int64] record field would box every store. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_ne t (8 * i)

let[@inline] set t i v = Bytes.set_int64_ne t (8 * i) v

let create seed =
  let sm = Splitmix64.create seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (Splitmix64.next sm)
  done;
  (* An all-zero state is the one fixed point of the transition
     function; SplitMix64 cannot produce four zero outputs in a row,
     but assert it anyway. *)
  assert (not (get t 0 = 0L && get t 1 = 0L && get t 2 = 0L && get t 3 = 0L));
  t

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 1 s1;
  set t 2 (Int64.logxor s2 tmp);
  set t 3 (rotl s3 45);
  result
