type value =
  | Int of int
  | Num of float
  | Str of string

let value_key = function
  | Int i -> string_of_int i
  | Num x -> Registry.float_token x
  | Str s -> s

type binding = { axis : string; value : value; text : string; vspan : Sexp.span }

type oracle =
  | Decide
  | Agree
  | Deliver_all
  | Expect_fail
  | Any

let oracle_label = function
  | Decide -> "decide"
  | Agree -> "agree"
  | Deliver_all -> "deliver-all"
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

let find_str cell axis ~default =
  match find cell axis with Some v -> value_key v | None -> default

let cell_key cell =
  List.map (fun b -> (b.axis, value_key b.value)) cell.bindings

type axis_decl = { name : string; values : binding list }

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

(* The closed axis vocabulary: the registry's, one axis per scenario
   field, then the runner's [seeds] (runs per cell) and [seed] (the
   first run's seed).  Every axis is typed; elaboration rejects unknown
   names and ill-typed literals at their exact span so a typo in a
   committed spec is a lint/parse error, not a silently ignored
   dimension. *)
let known_axes = Registry.axes @ [ ("seeds", Registry.Int); ("seed", Registry.Int) ]

let atom = function
  | Sexp.Atom (s, span) -> (s, span)
  | Sexp.List (_, span) ->
    raise (Fail (span.Sexp.s, "expected an atom, found a list"))

(* One value of axis [name], decoded once, by its type: an integer or a
   number as the registry reads it, a token by the registry's decoder,
   and kept as written.  A typo is an error at its span, not a
   dimension that never runs or a clause that never matches. *)
let binding name ty form =
  let s, vspan = atom form in
  let value =
    match ty with
    | Registry.Int -> (
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> fail vspan (Printf.sprintf "expected an integer, found %S" s))
    | Registry.Num -> (
      match float_of_string_opt s with
      | Some x -> Num x
      | None -> fail vspan (Printf.sprintf "expected a number, found %S" s))
    | Registry.Token ->
      Result.iter_error (fail vspan) (Registry.check_token ~axis:name s);
      Str s
  in
  { axis = name; value; text = s; vspan }

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
    { name; values = List.map (binding name ty) values }
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
  | form ->
    fail (Sexp.span form) "expected a verdict: decide | agree | deliver-all | expect-fail | any"

(* A condition's values must each be one its axis takes, compared as
   {!clause_matches} compares them: a value no cell has would leave the
   clause silently unmatched. *)
let parse_cond declared = function
  | Sexp.List (Sexp.Atom (name, nspan) :: values, span) ->
    if values = [] then
      fail span (Printf.sprintf "condition on %S has no values" name);
    let decl =
      match List.find_opt (fun a -> String.equal a.name name) declared with
      | Some a -> a
      | None ->
        fail nspan
          (Printf.sprintf "condition on %S, which is not a declared axis" name)
    in
    let ty = axis_ty name nspan in
    let keys = List.map (fun b -> value_key b.value) decl.values in
    let value form =
      let b = binding name ty form in
      if not (List.mem (value_key b.value) keys) then
        fail b.vspan
          (Printf.sprintf "no cell has %s %s: the axis takes %s" name b.text
             (String.concat " | " (List.map (fun b -> b.text) decl.values)));
      b.value
    in
    (name, List.map value values)
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
          | Some gs -> List.concat_map group_axes gs
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

let group_width g = List.length (List.hd (group_axes g)).values

let group_bindings g i = List.map (fun a -> List.nth a.values i) (group_axes g)

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
