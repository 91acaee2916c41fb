type value =
  | Int of int
  | Num of float
  | Str of string

let value_key = function
  | Int i -> string_of_int i
  | Num x -> Printf.sprintf "%g" x
  | Str s -> s

type binding = { axis : string; value : value; vspan : Sexp.span }

type oracle =
  | Decide
  | Agree
  | Deliver_all
  | Live_within of int
  | Expect_fail
  | Any

let oracle_label = function
  | Decide -> "decide"
  | Agree -> "agree"
  | Deliver_all -> "deliver-all"
  | Live_within b -> Printf.sprintf "live-within %d" b
  | Expect_fail -> "expect-fail"
  | Any -> "any"

type tier = Quick | Full

let tier_label = function Quick -> "quick" | Full -> "full"

type cell = { bindings : binding list; oracle : oracle }

let find cell axis =
  List.find_map
    (fun b -> if String.equal b.axis axis then Some b.value else None)
    cell.bindings

let find_int cell axis ~default =
  match find cell axis with Some (Int i) -> i | _ -> default

let find_num cell axis ~default =
  match find cell axis with
  | Some (Num x) -> x
  | Some (Int i) -> float_of_int i
  | _ -> default

let find_str cell axis ~default =
  match find cell axis with Some v -> value_key v | None -> default

let cell_key cell =
  List.map (fun b -> (b.axis, value_key b.value)) cell.bindings

type axis_decl = {
  name : string;
  values : (value * Sexp.span) list;
}

type group = Single of axis_decl | Zip of axis_decl list

type clause = { conds : (string * value list) list; oracle : oracle }

type t = {
  file : string;
  spec_id : string;
  spec_title : string;
  spec_tier : tier;
  groups : group list;
  clauses : clause list;
  default : oracle;
}

let id t = t.spec_id

let title t = t.spec_title

let tier t = t.spec_tier

let file t = t.file

let group_axes = function Single a -> [ a ] | Zip arms -> arms

let axes t = List.concat_map (fun g -> List.map (fun a -> a.name) (group_axes g)) t.groups

(* ----------------------------------------------------------------- *)
(* Elaboration                                                       *)
(* ----------------------------------------------------------------- *)

exception Fail of Sexp.pos * string

let fail span msg = raise (Fail (span.Sexp.s, msg))

(* The closed axis vocabulary.  Every axis is typed; elaboration
   rejects unknown names and ill-typed literals at their exact span so
   a typo in a committed spec is a lint/parse error, not a silently
   ignored dimension. *)
type axis_ty = Tint | Tnum | Tstr

let known_axes =
  [
    ("protocol", Tstr);
    ("n", Tint);
    ("f", Tint);
    ("inputs", Tstr);
    ("adversary", Tstr);
    ("fault", Tstr);
    ("topology", Tstr);
    ("loss", Tnum);
    ("dup", Tnum);
    ("payload", Tint);
    ("seeds", Tint);
    ("budget", Tint);
    ("batch", Tint);
    ("epochs", Tint);
    ("window", Tint);
    ("checkpoint", Tint);
    ("crash", Tstr);
  ]

let classify_atom s =
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with Some x -> Num x | None -> Str s)

let atom = function
  | Sexp.Atom (s, span) -> (s, span)
  | Sexp.List (_, span) ->
    raise (Fail (span.Sexp.s, "expected an atom, found a list"))

let axis_value ?axis ty form =
  let s, span = atom form in
  let v = classify_atom s in
  let v =
    match (ty, v) with
    | Tint, Int _ -> v
    | Tint, (Num _ | Str _) ->
      fail span (Printf.sprintf "expected an integer, found %S" s)
    | Tnum, Int i -> Num (float_of_int i)
    | Tnum, Num _ -> v
    | Tnum, Str _ ->
      fail span (Printf.sprintf "expected a number, found %S" s)
    | Tstr, _ -> Str s
  in
  (* The registry decodes each token value once, here: a typo is an
     error at its span, not at run time. *)
  Option.iter (fun axis -> Result.iter_error (fail span) (Registry.check_token ~axis s)) axis;
  (v, span)

let axis_ty name span =
  match List.assoc_opt name known_axes with
  | Some ty -> ty
  | None ->
    fail span
      (Printf.sprintf
         "unknown axis %S (known axes: %s)" name
         (String.concat ", " (List.map fst known_axes)))

let parse_axis = function
  | Sexp.List (Sexp.Atom (name, nspan) :: values, span) ->
    if values = [] then fail span (Printf.sprintf "axis %S has no values" name);
    let ty = axis_ty name nspan in
    { name; values = List.map (axis_value ~axis:name ty) values }
  | form -> fail (Sexp.span form) "expected an axis: (name value ...)"

let parse_group = function
  | Sexp.List (Sexp.Atom ("zip", _) :: arms, span) ->
    if List.length arms < 2 then
      fail span "zip needs at least two axes";
    let arms = List.map parse_axis arms in
    let len = List.length (List.hd arms).values in
    List.iter
      (fun a ->
        if List.length a.values <> len then
          fail span
            (Printf.sprintf
               "zip arms must have equal lengths: axis %S has %d values, \
                axis %S has %d"
               (List.hd arms).name len a.name (List.length a.values)))
      arms;
    Zip arms
  | form -> Single (parse_axis form)

let parse_oracle = function
  | Sexp.Atom ("decide", _) -> Decide
  | Sexp.Atom ("agree", _) -> Agree
  | Sexp.Atom ("deliver-all", _) -> Deliver_all
  | Sexp.Atom ("expect-fail", _) -> Expect_fail
  | Sexp.Atom ("any", _) -> Any
  | Sexp.List ([ Sexp.Atom ("live-within", _); budget ], _) -> (
    let s, bspan = atom budget in
    match int_of_string_opt s with
    | Some b when b > 0 -> Live_within b
    | Some _ | None ->
      fail bspan
        (Printf.sprintf "live-within needs a positive tick budget, found %S" s))
  | form ->
    fail (Sexp.span form)
      "expected a verdict: decide | agree | deliver-all | (live-within N) | \
       expect-fail | any"

let parse_cond declared = function
  | Sexp.List (Sexp.Atom (name, nspan) :: values, span) ->
    if values = [] then
      fail span (Printf.sprintf "condition on %S has no values" name);
    if not (List.mem name declared) then
      fail nspan
        (Printf.sprintf "condition on %S, which is not a declared axis" name);
    let ty = axis_ty name nspan in
    (name, List.map (fun v -> fst (axis_value ty v)) values)
  | form -> fail (Sexp.span form) "expected a condition: (axis value ...)"

let parse_clause declared = function
  | Sexp.List (Sexp.Atom ("when", _) :: rest, span) -> (
    match List.rev rest with
    | verdict :: rev_conds when rev_conds <> [] ->
      `Clause
        {
          conds = List.map (parse_cond declared) (List.rev rev_conds);
          oracle = parse_oracle verdict;
        }
    | _ -> fail span "expected (when (axis value ...) ... verdict)")
  | Sexp.List ([ Sexp.Atom ("default", _); verdict ], _) ->
    `Default (parse_oracle verdict)
  | form ->
    fail (Sexp.span form)
      "expected (when ... verdict) or (default verdict) inside expect"

let slug_ok s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
       s

let elaborate ~file forms =
  let spec_id = ref None and spec_title = ref None in
  let spec_tier = ref Full in
  let groups = ref None in
  let clauses = ref [] and default = ref Any in
  let top =
    match forms with
    | [ Sexp.List (Sexp.Atom ("matrix", _) :: fields, _) ] -> fields
    | [ form ] -> fail (Sexp.span form) "expected a single (matrix ...) form"
    | [] ->
      raise (Fail ({ Sexp.line = 1; col = 0 }, "empty spec: expected (matrix ...)"))
    | _ :: second :: _ ->
      fail (Sexp.span second) "expected a single (matrix ...) form"
  in
  List.iter
    (fun field ->
      match field with
      | Sexp.List ([ Sexp.Atom ("id", _); v ], _) ->
        let s, span = atom v in
        if not (slug_ok s) then
          fail span
            (Printf.sprintf "id %S must be a lowercase slug ([a-z0-9_-]+)" s);
        spec_id := Some s
      | Sexp.List ([ Sexp.Atom ("title", _); v ], _) ->
        spec_title := Some (fst (atom v))
      | Sexp.List ([ Sexp.Atom ("tier", _); v ], _) -> (
        match atom v with
        | "quick", _ -> spec_tier := Quick
        | "full", _ -> spec_tier := Full
        | s, span -> fail span (Printf.sprintf "unknown tier %S (quick | full)" s))
      | Sexp.List (Sexp.Atom ("axes", _) :: gs, span) ->
        if gs = [] then fail span "axes must declare at least one axis";
        let parsed = List.map parse_group gs in
        let names =
          List.concat_map (fun g -> List.map (fun a -> a.name) (group_axes g)) parsed
        in
        List.iteri
          (fun i name ->
            if List.exists (String.equal name) (List.filteri (fun j _ -> j < i) names)
            then fail span (Printf.sprintf "axis %S declared twice" name))
          names;
        groups := Some parsed
      | Sexp.List (Sexp.Atom ("expect", _) :: cs, _) ->
        let declared =
          match !groups with
          | Some gs ->
            List.concat_map (fun g -> List.map (fun a -> a.name) (group_axes g)) gs
          | None -> fail (Sexp.span field) "expect must come after axes"
        in
        List.iter
          (fun c ->
            match parse_clause declared c with
            | `Clause cl -> clauses := cl :: !clauses
            | `Default o -> default := o)
          cs
      | Sexp.List (Sexp.Atom (name, nspan) :: _, _) ->
        fail nspan
          (Printf.sprintf
             "unknown field %S (id | title | tier | axes | expect)" name)
      | form -> fail (Sexp.span form) "expected a (field ...) form")
    top;
  let require name r span_hint =
    match r with
    | Some v -> v
    | None ->
      raise (Fail (span_hint, Printf.sprintf "missing required field (%s ...)" name))
  in
  let origin = { Sexp.line = 1; col = 0 } in
  let groups = require "axes" !groups origin in
  let declared =
    List.concat_map (fun g -> List.map (fun a -> a.name) (group_axes g)) groups
  in
  List.iter
    (fun required ->
      if not (List.mem required declared) then
        raise
          (Fail (origin, Printf.sprintf "spec must declare the %S axis" required)))
    [ "protocol"; "n"; "f" ];
  {
    file;
    spec_id = require "id" !spec_id origin;
    spec_title = require "title" !spec_title origin;
    spec_tier = !spec_tier;
    groups;
    clauses = List.rev !clauses;
    default = !default;
  }

let of_string ~file text =
  match Sexp.parse ~file text with
  | Error e -> Error e
  | Ok forms -> (
    match elaborate ~file forms with
    | spec -> Ok spec
    | exception Fail (pos, msg) -> Error { Sexp.file; pos; msg })

let load path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_string ~file:path text

(* ----------------------------------------------------------------- *)
(* Expansion                                                         *)
(* ----------------------------------------------------------------- *)

let group_width = function
  | Single a -> List.length a.values
  | Zip arms -> List.length (List.hd arms).values

let group_bindings g i =
  match g with
  | Single a ->
    let v, span = List.nth a.values i in
    [ { axis = a.name; value = v; vspan = span } ]
  | Zip arms ->
    List.map
      (fun a ->
        let v, span = List.nth a.values i in
        { axis = a.name; value = v; vspan = span })
      arms

let cell_count t =
  List.fold_left (fun acc g -> acc * group_width g) 1 t.groups

let clause_matches cell cl =
  List.for_all
    (fun (axis, allowed) ->
      match find cell axis with
      | None -> false
      | Some v ->
        List.exists (fun a -> String.equal (value_key a) (value_key v)) allowed)
    cl.conds

let oracle_for t cell =
  match List.find_opt (clause_matches cell) t.clauses with
  | Some cl -> cl.oracle
  | None -> t.default

(* Row-major over the groups in declaration order: the first group is
   the slowest axis.  Purely structural — no environment input — so
   the same spec always yields the same cell list in the same order. *)
let expand t =
  let rec go = function
    | [] -> [ [] ]
    | g :: rest ->
      let tails = go rest in
      List.concat_map
        (fun i -> List.map (fun tail -> group_bindings g i @ tail)
            tails)
        (List.init (group_width g) (fun i -> i))
  in
  List.map
    (fun bindings ->
      let cell = { bindings; oracle = Any } in
      { cell with oracle = oracle_for t cell })
    (go t.groups)
