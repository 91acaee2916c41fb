let prime = 0x7FFFFFFF (* 2^31 - 1, a Mersenne prime *)

type t = int

(* A canonical input, such as a packed payload symbol, skips the
   division. *)
let of_int x =
  if 0 <= x && x < prime then x
  else
    let r = x mod prime in
    if r < 0 then r + prime else r

let to_int t = t

let zero = 0

let one = 1

let add a b =
  let s = a + b in
  if s >= prime then s - prime else s

let sub a b =
  let d = a - b in
  if d < 0 then d + prime else d

(* a, b < 2^31 so p = a * b < 2^62 fits a native int.  As
   2^31 = 1 (mod prime), p = (p land prime) + (p lsr 31) (mod prime),
   and for canonical a and b that sum is below 2 * prime, so one
   conditional subtraction reduces it. *)
let[@inline] mul a b =
  let p = a * b in
  let r = (p land prime) + (p lsr 31) in
  if r >= prime then r - prime else r

(* Square-and-multiply from the low bit up. *)
let pow x k =
  assert (k >= 0);
  let rec go base k acc =
    if k = 0 then acc
    else go (mul base base) (k lsr 1) (if k land 1 = 1 then mul acc base else acc)
  in
  go x k one

let inv x = if x = 0 then raise Division_by_zero else pow x (prime - 2)

let div a b = mul a (inv b)

let equal = Int.equal

let compare = Int.compare

let pp = Fmt.int

let random rng = Abc_prng.Stream.int rng ~bound:prime
