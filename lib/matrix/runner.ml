module Pool = Abc_exec.Pool
module Table = Abc_sim.Table
module Summary = Abc_sim.Summary
module Json = Abc_sim.Json

let ( let* ) = Result.bind

(* ----------------------------------------------------------------- *)
(* Cells to scenarios                                                *)
(* ----------------------------------------------------------------- *)

let seeds cell = Spec.find_int cell "seeds" ~default:10

let first_seed cell = Spec.find_int cell "seed" ~default:0

(* The one translation from a cell to a registry scenario: its bindings
   as written, but the runner's own [seeds] and [seed].  Errors (and a
   seed count below 1) name the axis they came from, so {!check} can
   point at the binding. *)
let scenario_of_cell cell =
  let seeds = seeds cell in
  if seeds < 1 then Error ("seeds", Printf.sprintf "need seeds >= 1, got seeds=%d" seeds)
  else
    Registry.of_tokens
      (List.filter_map
         (fun b -> if List.mem b.Spec.axis [ "seeds"; "seed" ] then None else Some (b.Spec.axis, b.Spec.text))
         cell.Spec.bindings)

(* A cell past its protocol's resilience class measures only the
   protocol's refusal at init, so it must expect that: [expect-fail]. *)
let within_class cell (sc : Registry.scenario) =
  match (cell.Spec.oracle, Registry.resilience sc.protocol) with
  | Spec.Expect_fail, _ | _, None -> Ok ()
  | _, Some (cls, max_f) ->
    if sc.f <= max_f sc.n then Ok ()
    else
      Error
        ( "f",
          Printf.sprintf
            "cell exceeds %s's resilience class %s (max f=%d at n=%d); annotate the cell expect-fail or fix the axis"
            sc.protocol cls (max_f sc.n) sc.n )

(* Every cell, checked against the registry and its protocol's class
   before any of them runs; an error sits at the offending axis binding
   (else at the protocol). *)
let scenarios spec =
  let positioned cell (axis, msg) =
    let at axis = List.find_opt (fun b -> String.equal b.Spec.axis axis) cell.Spec.bindings in
    let b = match at axis with Some b -> Some b | None -> at "protocol" in
    let pos = Option.fold b ~none:{ Sexp.line = 1; col = 0 } ~some:(fun b -> b.Spec.vspan.Sexp.s) in
    Error { Sexp.file = Spec.file spec; pos; msg }
  in
  List.fold_right
    (fun cell acc ->
      match
        let* sc = scenario_of_cell cell in
        let* () = Registry.check sc in
        let* () = within_class cell sc in
        Ok sc
      with
      | Ok sc -> Result.map (List.cons (cell, sc)) acc
      | Error e -> positioned cell e)
    (Spec.expand spec) (Ok [])

let check spec = Result.map ignore (scenarios spec)

(* A beyond-resilience (n, f) is rejected by the protocol's own quorum
   assertion at init.  For the matrix that IS the run's failure mode:
   an [expect-fail] cell, the only kind {!scenarios} lets past the
   class, passes on it. *)
let run_seed sc ~seed =
  match Registry.run sc ~seed with Ok r -> r.Registry.outcome | Error _ -> Registry.failed

(* ----------------------------------------------------------------- *)
(* Oracles                                                           *)
(* ----------------------------------------------------------------- *)

let satisfies oracle (o : Registry.outcome) =
  match oracle with
  | Spec.Decide | Spec.Expect_fail -> Registry.decides o
  | Spec.Agree -> o.agreement && o.validity
  | Spec.Deliver_all -> o.decided && o.agreement && o.validity && o.totality
  | Spec.Any -> true

let cell_pass oracle ~ok ~total =
  match oracle with
  | Spec.Expect_fail -> ok < total
  | Spec.Any -> true
  | Spec.Decide | Spec.Agree | Spec.Deliver_all -> ok = total

(* ----------------------------------------------------------------- *)
(* Pool fan-out and aggregation                                      *)
(* ----------------------------------------------------------------- *)

type cell_metrics = {
  ok_rate : float;
  rounds : float;
  messages : float;
  bytes : float;
  ticks : float;
  committed : float;
  wall_s : float;
}

type cell_result = {
  cell : Spec.cell;
  scenario : Registry.scenario;
  pass : bool;
  metrics : cell_metrics;
  outcomes : Registry.outcome list;
}

type t = { spec : Spec.t; cells : cell_result list }

let run ?clock ~pool spec =
  let cells =
    match scenarios spec with Ok cells -> cells | Error e -> invalid_arg (Sexp.error_to_string e)
  in
  let jobs =
    (* One job per (cell, seed), flattened in cell order: the merge is
       index-ordered, so regrouping below is deterministic at any
       worker count. *)
    List.concat_map (fun (cell, sc) -> List.init (seeds cell) (fun k -> (sc, first_seed cell + k))) cells
  in
  let job_array = Array.of_list jobs in
  let outcomes =
    Pool.map pool (Array.length job_array) (fun i ->
        let sc, seed = job_array.(i) in
        match clock with
        | None -> (run_seed sc ~seed, 0.)
        | Some now ->
          let t0 = now () in
          let o = run_seed sc ~seed in
          (o, now () -. t0))
  in
  let cursor = ref 0 in
  let results =
    List.map
      (fun (cell, scenario) ->
        let seeds = seeds cell in
        let mine = Array.sub outcomes !cursor seeds in
        cursor := !cursor + seeds;
        let total = Array.length mine in
        let ok =
          Array.fold_left
            (fun acc (o, _) -> if satisfies cell.Spec.oracle o then acc + 1 else acc)
            0 mine
        in
        let decide_ok =
          Array.fold_left
            (fun acc (o, _) -> if Registry.decides o then acc + 1 else acc)
            0 mine
        in
        let meanf field =
          Array.fold_left
            (fun acc ((o : Registry.outcome), _) -> acc +. float_of_int (field o))
            0. mine
          /. float_of_int total
        in
        let wall =
          Array.fold_left (fun acc (_, w) -> acc +. w) 0. mine
        in
        {
          cell;
          scenario;
          pass = cell_pass cell.Spec.oracle ~ok ~total;
          metrics =
            {
              ok_rate = float_of_int decide_ok /. float_of_int total;
              rounds = meanf (fun o -> o.rounds);
              messages = meanf (fun o -> o.messages);
              bytes = meanf (fun o -> o.bytes);
              ticks = meanf (fun o -> o.ticks);
              committed = meanf (fun o -> o.committed);
              wall_s = wall;
            };
          outcomes = Array.to_list (Array.map fst mine);
        })
      cells
  in
  { spec; cells = results }

let passed t = List.for_all (fun c -> c.pass) t.cells

let failures t = List.filter (fun c -> not c.pass) t.cells

let replay c =
  Option.map
    (fun k ->
      Registry.to_tokens c.scenario
      @ [ ("seed", string_of_int (first_seed c.cell + k)); ("seeds", "1") ])
    (List.find_index (fun o -> not (satisfies c.cell.Spec.oracle o)) c.outcomes)

(* ----------------------------------------------------------------- *)
(* Rendering                                                         *)
(* ----------------------------------------------------------------- *)

let round2 x = Float.of_string (Printf.sprintf "%.2f" x)

let table t =
  let axes = Spec.axes t.spec in
  let tbl =
    Table.create ~id:(Spec.id t.spec) ~title:(Spec.title t.spec)
      ~columns:
        (axes
        @ [ "expect"; "verdict"; "ok"; "rounds"; "p95"; "max"; "msgs"; "bytes"; "ticks"; "committed" ])
      ()
  in
  List.iter
    (fun c ->
      let key = Spec.cell_key c.cell in
      let rounds = Option.get (Summary.of_int_list (List.map (fun o -> o.Registry.rounds) c.outcomes)) in
      Table.add_row tbl
        (List.map (fun a -> List.assoc a key) axes
        @ [
            Spec.oracle_label c.cell.Spec.oracle;
            (if c.pass then "pass" else "FAIL");
            Table.cell_percent c.metrics.ok_rate;
            Table.cell_float c.metrics.rounds;
            Table.cell_float ~decimals:0 (Summary.percentile rounds 95.);
            Table.cell_float ~decimals:0 (Summary.max_value rounds);
            Table.cell_float ~decimals:0 c.metrics.messages;
            Table.cell_float ~decimals:0 c.metrics.bytes;
            Table.cell_float ~decimals:0 c.metrics.ticks;
            Table.cell_float c.metrics.committed;
          ]))
    t.cells;
  tbl

let matrix_schema_version = 1

let to_json ~seeds_scale t =
  let cell_json c =
    Json.Obj
      [
        ( "key",
          Json.Obj
            (List.map (fun (k, v) -> (k, Json.String v)) (Spec.cell_key c.cell))
        );
        ("expect", Json.String (Spec.oracle_label c.cell.Spec.oracle));
        ("pass", Json.Bool c.pass);
        ("ok_rate", Json.Float (round2 c.metrics.ok_rate));
        ("rounds", Json.Float (round2 c.metrics.rounds));
        ("messages", Json.Float (round2 c.metrics.messages));
        ("bytes", Json.Float (round2 c.metrics.bytes));
        ("ticks", Json.Float (round2 c.metrics.ticks));
        ("committed", Json.Float (round2 c.metrics.committed));
        ("wall_s", Json.Float (round2 c.metrics.wall_s));
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "abc.bench.matrix");
      ("version", Json.Int matrix_schema_version);
      ("id", Json.String (Spec.id t.spec));
      ("title", Json.String (Spec.title t.spec));
      ("tier", Json.String (Spec.tier_label (Spec.tier t.spec)));
      ("axes", Json.List (List.map (fun a -> Json.String a) (Spec.axes t.spec)));
      ("cells", Json.List (List.map cell_json t.cells));
      (* Only inputs that change the numbers belong in meta: the worker
         count does not (the export is byte-identical at any --jobs),
         and recording it would break exactly that contract. *)
      ("meta", Json.Obj [ ("seeds_scale", Json.Float seeds_scale) ]);
    ]
