module Sexp = Abc_matrix.Sexp
module Spec = Abc_matrix.Spec
module Registry = Abc_matrix.Registry
module Runner = Abc_matrix.Runner

let span_of (s : Sexp.span) : Finding.span =
  {
    Finding.start_line = s.Sexp.s.Sexp.line;
    start_col = s.Sexp.s.Sexp.col;
    end_line = s.Sexp.e.Sexp.line;
    end_col = s.Sexp.e.Sexp.col;
  }

let point_span (p : Sexp.pos) : Finding.span =
  {
    Finding.start_line = p.Sexp.line;
    start_col = p.Sexp.col;
    end_line = p.Sexp.line;
    end_col = p.Sexp.col;
  }

let binding cell axis =
  List.find_opt (fun b -> String.equal b.Spec.axis axis) cell.Spec.bindings

let int_binding cell axis =
  match binding cell axis with
  | Some ({ Spec.value = Spec.Int v; _ } as b) -> Some (b, v)
  | _ -> None

(* One finding per offending literal, not per cell: a single [f] value
   fans out across the whole cross product, and every one of those
   cells points back at the same source span. *)
let check_cells ~path spec =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let emit ~rule ~span ~snippet msg =
    let key = (rule, span, snippet) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out :=
        Finding.v ~rule ~file:path ~span:(span_of span) ~snippet msg :: !out
    end
  in
  List.iter
    (fun (cell : Spec.cell) ->
      match (binding cell "protocol", int_binding cell "n", int_binding cell "f") with
      | Some { Spec.value = Spec.Str proto; _ }, Some (_, n), Some (fb, f)
        -> (
        match Registry.resilience proto with
        | None -> ()
        | Some (cls, max_f) ->
          if f > max_f n && cell.Spec.oracle <> Spec.Expect_fail then
            emit ~rule:"matrix-resilience" ~span:fb.Spec.vspan
              ~snippet:(Printf.sprintf "%s n=%d f=%d" proto n f)
              (Printf.sprintf
                 "cell exceeds %s's resilience class %s (max f=%d at n=%d); \
                  annotate the cell expect-fail or fix the axis"
                 proto cls (max_f n) n))
      | _ -> ())
    (Spec.expand spec);
  List.rev !out

(* A token the registry cannot decode, or a combination it rejects
   (a node id beyond n, a fault the protocol lacks), is the same
   positioned error [abc-bench run] stops on. *)
let check ~path source =
  let parse_error e =
    [
      Finding.v ~rule:"matrix-parse" ~file:path ~span:(point_span e.Sexp.pos)
        ~snippet:(Filename.basename path)
        e.Sexp.msg;
    ]
  in
  match Spec.of_string ~file:path source with
  | Error e -> parse_error e
  | Ok spec -> (
    match Runner.check spec with
    | Error e -> parse_error e
    | Ok () -> check_cells ~path spec)
