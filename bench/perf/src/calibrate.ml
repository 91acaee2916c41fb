(* Machine-speed calibration for the end-to-end times.

   On a shared machine the same code runs up to ~60% slower for
   minutes at a time while neighbours compete for the core, its caches
   and memory; wall times taken minutes apart then differ far more than
   any change worth detecting.  So each measured unit is preceded by a
   fixed kernel that uses no repository code, and the unit's wall time
   is scaled by [nominal_s / kernel time]: a reported time is what the
   unit would take on a machine that runs the kernel in [nominal_s].
   The raw wall and kernel times stay in the result files. *)

let nominal_s = 0.006

(* Hashing, small allocations, list and array work: the instruction
   mix of a simulation step. *)
let compute () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i land 4095) (i, [ i; i + 1 ]);
    match Hashtbl.find_opt h ((i * 7) land 4095) with
    | Some (a, l) -> acc := !acc + a + List.length l
    | None -> ()
  done;
  let a = Array.init 8192 (fun i -> (i * 7919) land 65535) in
  Array.sort Int.compare a;
  !acc + a.(0)

(* A 4 MB random cycle, built once: following it misses the private
   caches, so it slows when neighbours compete for the shared cache and
   memory bandwidth. *)
let cycle =
  lazy
    (let n = 1 lsl 19 in
     let a = Array.init n Fun.id in
     let x = ref 12345 in
     (* Sattolo's shuffle yields a single cycle through every slot. *)
     for i = n - 1 downto 1 do
       x := ((!x * 1103515245) + 12345) land 0x3fffffff;
       let j = !x mod i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let chase a =
  let i = ref 0 in
  for _ = 1 to 15_000 do
    i := a.(!i)
  done;
  !i

(* Wall time of one kernel run, in seconds.  The chase is about a fifth
   of it: over ten seeds per workload that mix kept the calibrated
   medians of every workload within ~3% (README.md). *)
let measure () =
  let a = Lazy.force cycle in
  let r, ns = Layers.timed (fun () -> compute () + chase a) in
  ignore (Sys.opaque_identity r);
  Layers.seconds_of_ns ns

(* [scale ~wall_s ~kernel_s] is [wall_s] at nominal machine speed. *)
let scale ~wall_s ~kernel_s = wall_s *. nominal_s /. kernel_s
