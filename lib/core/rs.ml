(* Reed-Solomon erasure coding over GF(2^31 - 1), plus the Merkle
   commitment the coded broadcast uses to bind fragments together.

   Layout: the payload string is packed into field symbols at
   [symbol_bytes] payload bytes per symbol (3 bytes < 2^31 - 1, so
   packing never overflows the field), then striped into blocks of [k]
   symbols.  Each block defines the unique degree < k polynomial
   passing through (1, s_1) ... (k, s_k); fragment [i] carries the
   evaluations of every block's polynomial at x = i + 1.  Fragments
   0 .. k-1 therefore reproduce the data symbols verbatim (the code is
   systematic) and any k distinct fragments reconstruct every block by
   Lagrange interpolation. *)

open Import

let symbol_bytes = 3

(* Wire cost of one symbol: field elements are 31-bit, so they travel
   as 4-byte words even though each carries only 3 payload bytes. *)
let symbol_wire_bytes = 4

type fragment = { index : int; data : Gf.t array }

let fragment_wire_bytes fragment =
  Protocol.Wire_size.int + (symbol_wire_bytes * Array.length fragment.data)

(* ----------------------------------------------------------------- *)
(* Packing                                                           *)
(* ----------------------------------------------------------------- *)

(* Symbol [s] is bytes [3s], [3s + 1], [3s + 2], big-endian; a final
   partial group is padded with zero bytes on the right.  The loops
   spell out [symbol_bytes] = 3. *)
let symbols_of_string payload =
  let len = String.length payload in
  let count = (len + symbol_bytes - 1) / symbol_bytes in
  let whole = len / symbol_bytes in
  let symbols = Array.make count Gf.zero in
  for s = 0 to whole - 1 do
    let pos = s * symbol_bytes in
    symbols.(s) <-
      Gf.of_int
        ((String.get_uint8 payload pos lsl 16)
        lor (String.get_uint8 payload (pos + 1) lsl 8)
        lor String.get_uint8 payload (pos + 2))
  done;
  if whole < count then begin
    (* One or two bytes remain; the third is padding. *)
    let pos = whole * symbol_bytes in
    let second = if pos + 1 < len then String.get_uint8 payload (pos + 1) else 0 in
    symbols.(whole) <- Gf.of_int ((String.get_uint8 payload pos lsl 16) lor (second lsl 8))
  end;
  symbols

let string_of_symbols symbols ~len =
  let bytes = Bytes.create len in
  let whole = len / symbol_bytes in
  for s = 0 to whole - 1 do
    let v = Gf.to_int symbols.(s) and pos = s * symbol_bytes in
    Bytes.set_uint8 bytes pos ((v lsr 16) land 0xFF);
    Bytes.set_uint8 bytes (pos + 1) ((v lsr 8) land 0xFF);
    Bytes.set_uint8 bytes (pos + 2) (v land 0xFF)
  done;
  (* The final partial group's one or two bytes. *)
  for pos = whole * symbol_bytes to len - 1 do
    let shift = 8 * (symbol_bytes - 1 - (pos mod symbol_bytes)) in
    Bytes.set_uint8 bytes pos ((Gf.to_int symbols.(whole) lsr shift) land 0xFF)
  done;
  Bytes.to_string bytes

(* ----------------------------------------------------------------- *)
(* Interpolation                                                     *)
(* ----------------------------------------------------------------- *)

(* Lagrange weights for evaluating at [x] the unique degree < k
   polynomial through the points with abscissae [xs]:
   w_i = prod_{j <> i} (x - x_j) / (x_i - x_j).  The weights depend
   only on the abscissae, so they are computed once per (fragment-set,
   target) pair and shared across every block — evaluation is then a
   dot product per block. *)
let lagrange_weights ~xs ~x =
  let k = Array.length xs in
  let xg = Gf.of_int x in
  Array.init k (fun i ->
      let xi = Gf.of_int xs.(i) in
      (* One division per weight: the quotient of the two products. *)
      let num = ref Gf.one and den = ref Gf.one in
      for j = 0 to k - 1 do
        if j <> i then begin
          let xj = Gf.of_int xs.(j) in
          num := Gf.mul !num (Gf.sub xg xj);
          den := Gf.mul !den (Gf.sub xi xj)
        end
      done;
      Gf.div !num !den)

(* ----------------------------------------------------------------- *)
(* Encode / decode                                                   *)
(* ----------------------------------------------------------------- *)

let check_params ~k ~n =
  if k < 1 then invalid_arg "Rs: need k >= 1";
  if n < k then invalid_arg "Rs: need n >= k";
  (* Abscissae 1..n must be distinct non-zero field elements. *)
  if n >= Gf.prime then invalid_arg "Rs: n too large for the field"

let block_count ~k symbols = (Array.length symbols + k - 1) / k

(* Data symbol [b * k + i] is the value of block [b]'s polynomial at
   x = i + 1; missing symbols of the final partial block are zero, so
   they are left out of every sum and left at zero in every copy. *)
let encode ~k ~n payload =
  check_params ~k ~n;
  let symbols = symbols_of_string payload in
  let count = Array.length symbols in
  let blocks = block_count ~k symbols in
  let xs = Array.init k (fun i -> i + 1) in
  Array.init n (fun fi ->
      let data = Array.make blocks Gf.zero in
      if fi < k then
        (* Systematic prefix: evaluation at x = fi + 1 is data symbol
           [fi] of each block. *)
        for b = 0 to blocks - 1 do
          let pos = (b * k) + fi in
          if pos < count then data.(b) <- symbols.(pos)
        done
      else begin
        let weights = lagrange_weights ~xs ~x:(fi + 1) in
        for b = 0 to blocks - 1 do
          let base = b * k in
          let acc = ref Gf.zero in
          for i = 0 to Int.min k (count - base) - 1 do
            acc := Gf.add !acc (Gf.mul weights.(i) symbols.(base + i))
          done;
          data.(b) <- !acc
        done
      end;
      { index = fi; data })

let decode ~k ~len fragments =
  check_params ~k ~n:k;
  let fragments =
    List.sort_uniq (fun a b -> Int.compare a.index b.index) fragments
  in
  if List.length fragments < k then
    invalid_arg "Rs.decode: not enough distinct fragments";
  let chosen = Array.of_list (List.filteri (fun i _ -> i < k) fragments) in
  let blocks =
    match Array.length chosen with
    | 0 -> 0
    | _ -> Array.length chosen.(0).data
  in
  Array.iter
    (fun fragment ->
      if Array.length fragment.data <> blocks then
        invalid_arg "Rs.decode: fragments of unequal length")
    chosen;
  if blocks * k * symbol_bytes < len then
    invalid_arg "Rs.decode: fragments too short for the claimed length";
  let xs = Array.map (fun fragment -> fragment.index + 1) chosen in
  (* One weight vector per data position, shared by every block. *)
  let weights = Array.init k (fun i -> lagrange_weights ~xs ~x:(i + 1)) in
  let data = Array.map (fun fragment -> fragment.data) chosen in
  let symbols = Array.make (blocks * k) Gf.zero in
  for b = 0 to blocks - 1 do
    for i = 0 to k - 1 do
      let w = weights.(i) in
      let acc = ref Gf.zero in
      for j = 0 to k - 1 do
        acc := Gf.add !acc (Gf.mul w.(j) data.(j).(b))
      done;
      symbols.((b * k) + i) <- !acc
    done
  done;
  string_of_symbols symbols ~len

(* ----------------------------------------------------------------- *)
(* Merkle commitment                                                 *)
(* ----------------------------------------------------------------- *)

module Merkle = struct
  type root = int

  type branch = int list

  (* Modeled digest width: a production system would use a 256-bit
     hash; the simulator charges that size on the wire while computing
     a cheap 62-bit mix internally.  [hash_bytes] is the lambda in the
     O(|m|/n + lambda log n) per-link bound. *)
  let hash_bytes = 32

  (* splitmix-style finalizer with multipliers that fit OCaml's 63-bit
     native int, so hashing is deterministic across runs and
     platforms. *)
  let mix h x =
    let h = (h lxor x) * 0x2545F4914F6CDD1D in
    let h = (h lxor (h lsr 30)) * 0x369DEA0F31A53F85 in
    let h = (h lxor (h lsr 27)) * 0x27D4EB2F165667C5 in
    h lxor (h lsr 31)

  let leaf_hash ~len fragment =
    let h = ref (mix 0x1EAF (Array.length fragment.data)) in
    h := mix !h len;
    h := mix !h fragment.index;
    let data = fragment.data in
    for i = 0 to Array.length data - 1 do
      h := mix !h (Gf.to_int data.(i))
    done;
    !h

  let node_hash left right = mix (mix 0x0DDE left) right

  (* Leaves are padded to the next power of two with a fixed empty
     hash so every branch has the same depth. *)
  let empty_leaf = mix 0xE117 0

  let rec pow2_at_least x = if x <= 1 then 1 else 2 * pow2_at_least ((x + 1) / 2)

  let commit ~len fragments =
    let nleaves = Array.length fragments in
    if nleaves = 0 then invalid_arg "Rs.Merkle.commit: no fragments";
    let width = pow2_at_least nleaves in
    let level =
      Array.init width (fun i ->
          if i < nleaves then leaf_hash ~len fragments.(i) else empty_leaf)
    in
    (* levels.(0) = leaves, last = [| root |]; branches read one
       sibling per level. *)
    let levels = ref [ level ] in
    let current = ref level in
    while Array.length !current > 1 do
      let next =
        Array.init
          (Array.length !current / 2)
          (fun i -> node_hash !current.(2 * i) !current.((2 * i) + 1))
      in
      levels := next :: !levels;
      current := next
    done;
    let root = !current.(0) in
    let levels = List.rev !levels in
    let branch_of index =
      let rec collect levels index acc =
        match levels with
        | [] | [ _ ] -> List.rev acc
        | level :: rest ->
          let sibling = level.(index lxor 1) in
          collect rest (index / 2) (sibling :: acc)
      in
      collect levels index []
    in
    (root, Array.init nleaves (fun i -> branch_of i))

  let verify ~root ~len ~index branch fragment =
    fragment.index = index
    && begin
         let h = ref (leaf_hash ~len fragment) in
         let pos = ref index in
         List.iter
           (fun sibling ->
             h :=
               (if !pos land 1 = 0 then node_hash !h sibling
                else node_hash sibling !h);
             pos := !pos / 2)
           branch;
         !h = root
       end

  let root_wire_bytes = hash_bytes

  let branch_wire_bytes branch = hash_bytes * List.length branch
end
