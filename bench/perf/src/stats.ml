(* Order statistics, computed the way Python's [statistics] module
   does, so the numbers here match a reader's own check of a result
   file. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let m = Array.length a in
  if m = 0 then invalid_arg "Stats.median: no data"
  else if m mod 2 = 1 then a.(m / 2)
  else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

(* [statistics.quantiles(xs, n=n)] with the default exclusive method:
   the [n - 1] cut points dividing [xs] into [n] groups.  A single
   sample is its own every quantile. *)
let quantiles ~n xs =
  let a = sorted xs in
  let m = Array.length a in
  if m = 0 then invalid_arg "Stats.quantiles: no data"
  else if m = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (m - 1) (i * (m + 1) / n)) in
        let delta = (i * (m + 1)) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

(* First and third quartile. *)
let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> (q1, q3)
  | _ -> assert false

(* Median and 90th percentile (the 5th and 9th decile). *)
let p50_p90 xs =
  let d = Array.of_list (quantiles ~n:10 xs) in
  (d.(4), d.(8))
