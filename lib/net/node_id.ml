type t = int

let of_int i =
  assert (i >= 0);
  i

let to_int id = id

let equal = Int.equal

let compare = Int.compare

let pp ppf id = Fmt.pf ppf "n%d" id

let all ~n = List.init n (fun i -> i)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

(* Word 0 is the cardinal; word [1 + i / 63] holds bit [i mod 63].  The
   array is as long as its largest member needs, so equal sets are
   equal arrays whatever order their ids arrived in. *)
module Set = struct
  type t = int array

  let bits = 63

  let empty = [| 0 |]

  let mem i t =
    let w = 1 + (i / bits) in
    w < Array.length t && t.(w) land (1 lsl (i mod bits)) <> 0

  let add i t =
    if mem i t then t
    else begin
      let w = 1 + (i / bits) in
      let len = Array.length t in
      let t' =
        if w < len then Array.copy t
        else begin
          let grown = Array.make (w + 1) 0 in
          Array.blit t 0 grown 0 len;
          grown
        end
      in
      t'.(0) <- t.(0) + 1;
      t'.(w) <- t'.(w) lor (1 lsl (i mod bits));
      t'
    end

  let singleton i = add i empty

  let cardinal t = t.(0)

  let of_list ids = List.fold_left (fun t i -> add i t) empty ids
end

module Map = Map.Make (Ord)
