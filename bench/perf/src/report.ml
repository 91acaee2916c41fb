(* Result files, the one-line result, and [compare].

   A pass over one workload writes [DIR/<workload>.json] (end-to-end)
   or [DIR/<workload>.layers.json] (layer pass, with its spans).  A
   directory holding such files is one set; a directory of set
   directories is several.  [compare] reads the bounds from
   BENCHMARK.json. *)

module Json = Abc_sim.Json
module M = Measure

let schema = "abc.perf"

let file_name ~workload ~layers =
  workload ^ if layers then ".layers.json" else ".json"

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, value, unit) ->
         (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
       metrics)

(* The last line of a pass's standard output. *)
let line (r : M.result) metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.M.failed = 0));
         ("attempted", Json.Int r.M.attempted);
         ("failed", Json.Int r.M.failed);
         ("metrics", metrics_json metrics);
       ])

let to_json ~workload ~seed ~seconds ~layers (r : M.result) metrics =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("version", Json.Int 1);
      ("workload", Json.String workload);
      ("pass", Json.String (if layers then "layers" else "e2e"));
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("correct", Json.Bool (r.M.failed = 0));
      ("attempted", Json.Int r.M.attempted);
      ("failed", Json.Int r.M.failed);
      ("metrics", metrics_json metrics);
      ( "units",
        Json.List
          (List.mapi
             (fun i (s : M.sample) ->
               Json.Obj
                 [
                   ("unit", Json.Int i);
                   ("wall_s", Json.Float s.M.wall_s);
                   ("kernel_s", Json.Float s.M.kernel_s);
                   ("ok", Json.Bool s.M.ok);
                   ("digest", Json.String s.M.digest);
                 ])
             r.M.samples) );
      ( "spans",
        Json.List
          (List.map
             (fun (sp : M.span) ->
               Json.Obj
                 [
                   ("unit", Json.Int sp.M.unit_index);
                   ("span_s", Json.Float sp.M.span_s);
                   ( "children",
                     Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) sp.M.children) );
                 ])
             r.M.spans) );
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let load path =
  match Json.of_string (read_file path) with
  | Ok j when Option.equal String.equal (Json.string_member "schema" j) (Some schema) ->
    Ok j
  | Ok _ -> Error (path ^ ": not an abc.perf result")
  | Error e -> Error (path ^ ": " ^ e)

let metric j name =
  Option.bind (Json.member "metrics" j) (fun m ->
      Option.bind (Json.member name m) (fun v ->
          Option.bind (Json.member "value" v) Json.to_float))

let digests j =
  match Json.member "units" j with
  | Some (Json.List units) ->
    List.filter_map (fun u -> Option.bind (Json.member "digest" u) Json.to_str) units
  | _ -> []

(* ----------------------------------------------------------------- *)
(* Sets                                                               *)
(* ----------------------------------------------------------------- *)

type set = {
  dir : string;
  e2e : (string * Json.t) list;  (** by workload *)
  layer : (string * Json.t) list;
}

let load_set dir =
  let pick ~layers =
    List.filter_map
      (fun w ->
        let path = Filename.concat dir (file_name ~workload:w ~layers) in
        if Sys.file_exists path then
          match load path with
          | Ok j -> Some (w, j)
          | Error e -> failwith e
        else None)
      Workloads.names
  in
  { dir; e2e = pick ~layers:false; layer = pick ~layers:true }

(* [dir] itself when it holds results, else each subdirectory that
   does, in name order. *)
let load_sets dir =
  let own = load_set dir in
  let holds s = not (List.is_empty s.e2e && List.is_empty s.layer) in
  if holds own then [ own ]
  else
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.map (Filename.concat dir)
    |> List.filter Sys.is_directory
    |> List.map load_set
    |> List.filter holds

(* ----------------------------------------------------------------- *)
(* Bounds and verdicts                                                *)
(* ----------------------------------------------------------------- *)

type bound = { name : string; unit : string; lower_is_better : bool; bound : float }

let bounds_of_benchmark text =
  let fail msg = failwith ("BENCHMARK.json: " ^ msg) in
  match Json.of_string text with
  | Error e -> fail e
  | Ok j -> (
    match Json.member "end_to_end" j with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          match
            ( Json.string_member "name" m,
              Json.string_member "unit" m,
              Json.string_member "better" m,
              Option.bind (Json.member "bound" m) Json.to_float )
          with
          | Some name, Some unit, Some better, Some bound ->
            { name; unit; lower_is_better = String.equal better "lower"; bound }
          | _ -> fail "malformed end_to_end entry")
        ms
    | _ -> fail "no end_to_end list")

type verdict = Within | Worse | Unresolved

let verdict_label = function
  | Within -> "within"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let spread xs =
  let q1, q3 = Stats.quartiles xs in
  (q3 -. q1) /. Stats.median xs

(* [b] against [a]: worse when its median is worse by more than the
   bound; unresolved when either side's quartile spread exceeds the
   bound, unless every run of [b] is better than every run of [a]. *)
let verdict (m : bound) ~a ~b:bs =
  let ma = Stats.median a and mb = Stats.median bs in
  let worse_by = (if m.lower_is_better then mb -. ma else ma -. mb) /. ma in
  let all_better =
    if m.lower_is_better then
      List.fold_left Float.max Float.neg_infinity bs < List.fold_left Float.min Float.infinity a
    else List.fold_left Float.min Float.infinity bs > List.fold_left Float.max Float.neg_infinity a
  in
  if Float.max (spread a) (spread bs) > m.bound then
    if all_better then Within else Unresolved
  else if worse_by > m.bound then Worse
  else Within

(* Deterministic counters: identical in every set of the same code and
   seed, so they are compared between sets of the same seed only. *)
let exact_counters =
  [ "run.deliveries"; "run.messages"; "run.bytes"; "run.ticks"; "gc.minor_words_per_event" ]

type row = {
  workload : string;
  metric : bound;
  a : float list;
  b : float list;
  result : verdict;
}

type comparison = { rows : row list; counter_mismatches : string list }

let values sets workload name =
  List.filter_map
    (fun s -> Option.bind (List.assoc_opt workload s.e2e) (fun j -> metric j name))
    sets

let compare_sets ~bounds ~a ~b =
  let rows =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun metric ->
            match (values a workload metric.name, values b workload metric.name) with
            | [], _ | _, [] -> None
            | va, vb ->
              Some { workload; metric; a = va; b = vb; result = verdict metric ~a:va ~b:vb })
          bounds)
      Workloads.names
  in
  let counter_mismatches =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun name ->
            let vs =
              List.filter_map
                (fun s ->
                  Option.bind (List.assoc_opt workload s.layer) (fun j ->
                      Option.map (fun v -> (Json.int_member "seed" j, v)) (metric j name)))
                (a @ b)
            in
            let differs (seed, v) =
              List.exists
                (fun (seed', v') -> Option.equal Int.equal seed seed' && not (Float.equal v v'))
                vs
            in
            if List.exists differs vs then
              Some (Printf.sprintf "%s %s differs between sets" workload name)
            else None)
          exact_counters)
      Workloads.names
  in
  { rows; counter_mismatches }

let render c =
  let buf = Buffer.create 4096 in
  let side xs =
    let q1, q3 = Stats.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g] n=%d" (Stats.median xs) q1 q3 (List.length xs)
  in
  List.iter
    (fun r ->
      let ma = Stats.median r.a and mb = Stats.median r.b in
      Buffer.add_string buf
        (Printf.sprintf "%-14s %-13s %-5s A %s  B %s  %+.1f%% (bound %.0f%%)  %s\n"
           r.workload r.metric.name r.metric.unit (side r.a) (side r.b)
           (100. *. (mb -. ma) /. ma)
           (100. *. r.metric.bound) (verdict_label r.result)))
    c.rows;
  List.iter (fun m -> Buffer.add_string buf ("counter mismatch: " ^ m ^ "\n")) c.counter_mismatches;
  Buffer.contents buf

let failed c =
  (not (List.is_empty c.counter_mismatches))
  || List.exists (fun r -> match r.result with Worse -> true | Within | Unresolved -> false) c.rows
