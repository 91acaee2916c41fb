(* Shared machinery for the experiment harness: E11's seed sweep and
   sampler, and E5's fit. *)

module Node_id = Abc_net.Node_id
module Summary = Abc_sim.Summary
module Table = Abc_sim.Table
module Pool = Abc_exec.Pool
module Registry = Abc_matrix.Registry

let node = Node_id.of_int

let bracha_max_f n = (n - 1) / 3

(* Run one job per seed on the pool and return the per-seed results in
   seed order.  The job closure must build all engine/PRNG/trace state
   itself (Registry.run and Engine.run allocate everything per call
   from the seed), so nothing is shared across domains and the merged
   list is byte-identical at any worker count. *)
let sweep_seeds pool ~seeds f = Array.to_list (Pool.map pool seeds f)

type sample = {
  rounds : Summary.t option; (* over successful runs *)
  messages : Summary.t option;
}

let collect outcomes =
  let oks = List.filter Registry.decides outcomes in
  let pick f = Summary.of_list (List.map (fun o -> float_of_int (f o)) oks) in
  {
    rounds = pick (fun (o : Registry.outcome) -> o.rounds);
    messages = pick (fun o -> o.messages);
  }

let mean_or summary default =
  match summary with Some s -> Summary.mean s | None -> default

(* Log-log slope fit for complexity experiments: least squares on
   (log n, log y). *)
let fitted_exponent points =
  let logs = List.map (fun (n, y) -> (log (float_of_int n), log y)) points in
  let k = float_of_int (List.length logs) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. logs in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. logs in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. logs in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. logs in
  ((k *. sxy) -. (sx *. sy)) /. ((k *. sxx) -. (sx *. sx))
