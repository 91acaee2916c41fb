open Parsetree

(* ----------------------------------------------------------------- *)
(* Locations, snippets, longidents                                   *)
(* ----------------------------------------------------------------- *)

let snippet_cap = 72

(* Whitespace-collapsed source text of [loc], capped: the snippet is
   the allowlist/fingerprint key, so it must be short and stable. *)
let snippet_at ~source (loc : Location.t) =
  let a = loc.Location.loc_start.Lexing.pos_cnum in
  let b = loc.Location.loc_end.Lexing.pos_cnum in
  if a < 0 || b > String.length source || b <= a then ""
  else begin
    let raw = String.sub source a (b - a) in
    let buf = Buffer.create (String.length raw) in
    let pending_ws = ref false in
    String.iter
      (fun c ->
        if c = ' ' || c = '\t' || c = '\n' || c = '\r' then pending_ws := true
        else begin
          if !pending_ws && Buffer.length buf > 0 then Buffer.add_char buf ' ';
          pending_ws := false;
          Buffer.add_char buf c
        end)
      raw;
    let s = Buffer.contents buf in
    if String.length s <= snippet_cap then s
    else String.sub s 0 (snippet_cap - 3) ^ "..."
  end

let rec lid_components acc = function
  | Longident.Lident s -> s :: acc
  | Longident.Ldot (p, s) -> lid_components (s :: acc) p
  | Longident.Lapply (p, _) -> lid_components acc p

let components l = lid_components [] l

type ctx = {
  path : string;
  file : string;
  source : string;
  findings : Finding.t list ref;
}

let flag ctx ~rule ~loc ?snippet message =
  let snippet =
    match snippet with Some s -> s | None -> snippet_at ~source:ctx.source loc
  in
  ctx.findings :=
    Finding.v ~rule ~file:ctx.file ~span:(Finding.span_of_loc loc) ~snippet message
    :: !(ctx.findings)

(* ----------------------------------------------------------------- *)
(* Generic collectors                                                *)
(* ----------------------------------------------------------------- *)

(* All value names bound by patterns anywhere inside [e] — an
   overapproximation of "locally bound in scope", which makes the free
   variable analyses below conservative (they underreport, never
   corrupting a clean tree with false captures). *)
let bound_names_in_expr e =
  let names = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
            names := txt :: !names
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.expr it e;
  !names

(* Unqualified value identifiers used inside [e], with locations. *)
let used_lidents_in_expr e =
  let used = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with
          | Pexp_ident { txt = Longident.Lident s; _ } ->
            used := (s, x.pexp_loc) :: !used
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
    }
  in
  it.expr it e;
  List.rev !used

(* Does any longident in the file (expressions, types, constructors,
   module expressions) mention module [m] as a path component? *)
let mentions_module (str : structure) m =
  let found = ref false in
  let note l = if List.exists (String.equal m) (components l) then found := true in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with
          | Pexp_ident { txt; _ } | Pexp_construct ({ txt; _ }, _)
          | Pexp_new { txt; _ } ->
            note txt
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt; _ }, _) | Ptyp_class ({ txt; _ }, _) -> note txt
          | _ -> ());
          Ast_iterator.default_iterator.typ self t);
      module_expr =
        (fun self me ->
          (match me.pmod_desc with
          | Pmod_ident { txt; _ } -> note txt
          | _ -> ());
          Ast_iterator.default_iterator.module_expr self me);
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_construct ({ txt; _ }, _) -> note txt
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.structure it str;
  !found

let rec strip_expr e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_expr e
  | _ -> e

let rec strip_pat p =
  match p.ppat_desc with Ppat_constraint (p, _) -> strip_pat p | _ -> p

let is_lambda e =
  match (strip_expr e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

let int_literal e =
  match (strip_expr e).pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | _ -> None

(* [state.f], [t.n], bare [f]/[n]: the protocol parameters as they
   appear in threshold arithmetic. *)
let param_name e =
  match (strip_expr e).pexp_desc with
  | Pexp_ident { txt = Longident.Lident s; _ } -> Some s
  | Pexp_field (_, { txt; _ }) -> (
    match components txt with
    | [] -> None
    | comps -> Some (List.nth comps (List.length comps - 1)))
  | _ -> None

(* ----------------------------------------------------------------- *)
(* Module-level mutable bindings (shared by two rules)               *)
(* ----------------------------------------------------------------- *)

let mutable_makers =
  [
    ("Hashtbl", "create"); ("Queue", "create"); ("Buffer", "create");
    ("Stack", "create"); ("Atomic", "make");
  ]

let mutable_rhs_head e =
  match (strip_expr e).pexp_desc with
  | Pexp_apply (f, _) -> (
    match f.pexp_desc with
    | Pexp_ident { txt = Longident.Lident "ref"; _ } -> Some "ref"
    | Pexp_ident { txt = Longident.Ldot (Longident.Lident m, fn); _ }
      when List.exists (fun (m', f') -> String.equal m m' && String.equal fn f') mutable_makers
      ->
      Some (m ^ "." ^ fn)
    | _ -> None)
  | _ -> None

(* Top-level [let x = ref ...] / [Hashtbl.create ...] bindings of the
   unit.  Deliberately top structure items only: nested-module state is
   out of scope for the heuristic, and [Array.make]/[Bytes.create]
   stay excluded (top-level arrays here are precomputed constant
   tables). *)
let module_level_mutables (str : structure) =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.filter_map
          (fun vb ->
            match ((strip_pat vb.pvb_pat).ppat_desc, mutable_rhs_head vb.pvb_expr) with
            | Ppat_var { txt; _ }, Some maker -> Some (txt, maker, vb.pvb_loc)
            | _ -> None)
          vbs
      | _ -> [])
    str

(* ----------------------------------------------------------------- *)
(* Rule: determinism                                                 *)
(* ----------------------------------------------------------------- *)

let banned_sys = [ "time" ]

let banned_unix =
  [
    "time"; "gettimeofday"; "gmtime"; "localtime"; "mktime"; "sleep"; "sleepf";
    "select"; "times"; "setitimer"; "alarm";
  ]

let determinism_check ctx ~loc lid =
  match components lid with
  | "Random" :: _ ->
    flag ctx ~rule:"determinism" ~loc
      "Stdlib.Random is nondeterministic; draw from a seeded Abc_prng.Stream \
       instead (reproducible sims and the model checker depend on it)"
  | [ "Sys"; fn ] when List.mem fn banned_sys ->
    flag ctx ~rule:"determinism" ~loc
      "wall-clock time is nondeterministic; use the simulator's virtual \
       Abc_sim.Clock"
  | "Unix" :: fn :: _ when List.mem fn banned_unix ->
    flag ctx ~rule:"determinism" ~loc
      "Unix wall-clock/timer APIs are nondeterministic; use the simulator's \
       virtual Abc_sim.Clock"
  | _ -> ()

let determinism ctx (str : structure) =
  if Scope.in_dir ctx.path "lib/prng/" then ()
  else begin
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self x ->
            (match x.pexp_desc with
            | Pexp_ident { txt; _ } -> determinism_check ctx ~loc:x.pexp_loc txt
            | _ -> ());
            Ast_iterator.default_iterator.expr self x);
        typ =
          (fun self t ->
            (match t.ptyp_desc with
            | Ptyp_constr ({ txt; loc }, _) -> determinism_check ctx ~loc txt
            | _ -> ());
            Ast_iterator.default_iterator.typ self t);
        module_expr =
          (fun self me ->
            (match me.pmod_desc with
            | Pmod_ident { txt; loc } -> determinism_check ctx ~loc txt
            | _ -> ());
            Ast_iterator.default_iterator.module_expr self me);
      }
    in
    it.structure it str
  end

(* ----------------------------------------------------------------- *)
(* Rule: poly-compare                                                *)
(* ----------------------------------------------------------------- *)

let id_names = [ "src"; "dst"; "sender"; "origin"; "me"; "victim"; "proposer" ]

let is_id_operand e =
  match (strip_expr e).pexp_desc with
  | Pexp_ident { txt = Longident.Lident s; _ } -> List.mem s id_names
  | Pexp_field (_, { txt; _ }) -> (
    match List.rev (components txt) with
    | last :: _ -> List.mem last id_names
    | [] -> false)
  | _ -> false

let binds_name vbs name =
  List.exists
    (fun vb ->
      match (strip_pat vb.pvb_pat).ppat_desc with
      | Ppat_var { txt; _ } -> String.equal txt name
      | _ -> false)
    vbs

let item_pattern_names item =
  let names = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
            names := txt :: !names
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.structure_item it item;
  !names

let poly_compare ctx (str : structure) =
  let node_id_in_scope = mentions_module str "Node_id" in
  let compare_defined = ref false in
  let scan_item ~compare_ok item =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self x ->
            (match x.pexp_desc with
            | Pexp_ident { txt = Longident.Lident "compare"; _ }
              when not compare_ok ->
              flag ctx ~rule:"poly-compare" ~loc:x.pexp_loc ~snippet:"compare"
                "bare polymorphic compare; use a concrete compare \
                 (Int.compare, Node_id.compare, an explicit tuple compare, \
                 ...)"
            | Pexp_ident
                { txt = Longident.Ldot (Longident.Lident "Stdlib", "compare"); _ }
              ->
              flag ctx ~rule:"poly-compare" ~loc:x.pexp_loc
                ~snippet:"Stdlib.compare"
                "Stdlib.compare is polymorphic; use a concrete compare"
            | Pexp_ident
                { txt = Longident.Ldot (Longident.Lident "Hashtbl", fn); _ }
              when node_id_in_scope && (String.equal fn "create" || String.equal fn "hash")
              ->
              flag ctx ~rule:"poly-compare" ~loc:x.pexp_loc
                ~snippet:("Hashtbl." ^ fn)
                "polymorphic hashing where an abstract id type is in scope; \
                 use Hashtbl.Make over the id's hash/equal, or a Map"
            | Pexp_apply
                ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("=" | "<>"); _ }; _ },
                  [ (Asttypes.Nolabel, l); (Asttypes.Nolabel, r) ] )
              when node_id_in_scope && (is_id_operand l || is_id_operand r) ->
              flag ctx ~rule:"poly-compare" ~loc:x.pexp_loc
                "structural =/<> on an abstract node id; use Node_id.equal \
                 (or Node_id.compare)"
            | _ -> ());
            Ast_iterator.default_iterator.expr self x);
      }
    in
    it.structure_item it item
  in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) when binds_name vbs "compare" ->
        List.iter
          (fun vb ->
            match (strip_pat vb.pvb_pat).ppat_desc with
            | Ppat_var { txt = "compare"; _ } -> (
              match (strip_expr vb.pvb_expr).pexp_desc with
              | Pexp_ident { txt = Longident.Lident "compare"; _ }
                when not !compare_defined ->
                flag ctx ~rule:"poly-compare" ~loc:vb.pvb_loc
                  ~snippet:"compare = compare"
                  "polymorphic compare; use a concrete compare (Int.compare, \
                   Node_id.compare, an explicit tuple compare, ...)"
              | _ -> ())
            | _ -> ())
          vbs;
        compare_defined := true;
        scan_item ~compare_ok:true item
      | _ ->
        let shadows = List.mem "compare" (item_pattern_names item) in
        scan_item ~compare_ok:(!compare_defined || shadows) item)
    str

(* ----------------------------------------------------------------- *)
(* Rule: quorum (raw threshold arithmetic)                           *)
(* ----------------------------------------------------------------- *)

let quorum_message ~op l r =
  let is_f x = match param_name x with Some "f" -> true | _ -> false in
  let is_n x = match param_name x with Some "n" -> true | _ -> false in
  let is_int x = int_literal x <> None in
  let is_one x = int_literal x = Some 1 in
  match op with
  | "+" when (is_f l && is_one r) || (is_one l && is_f r) ->
    Some "f + 1 (use Quorum.one_honest / ready_amplify / adopt_support / ...)"
  | "*" when (is_int l && is_f r) || (is_f l && is_int r) ->
    Some "k * f (use Quorum.ready_deliver / decide_support / decide_unanimity / ...)"
  | "-" when is_n l && is_f r -> Some "n - f (use Quorum.completeness)"
  | "-" when is_n l && is_int r ->
    Some "n - k (resilience bound; use Quorum.max_faults / honest_support)"
  | "+" when (is_n l && is_f r) || (is_f l && is_n r) ->
    Some "n + f (use Quorum.echo_quorum / faulty_majority)"
  | "/" when is_n l && is_int r ->
    Some "n / k (use Quorum.strict_majority / max_faults)"
  | _ -> None

let quorum_arith ctx (str : structure) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("+" | "-" | "*" | "/") as op); _ }; _ },
                [ (Asttypes.Nolabel, l); (Asttypes.Nolabel, r) ] ) -> (
            match quorum_message ~op l r with
            | Some msg ->
              flag ctx ~rule:"quorum" ~loc:x.pexp_loc
                ("raw threshold arithmetic: " ^ msg)
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
    }
  in
  it.structure it str

(* ----------------------------------------------------------------- *)
(* Rule: resilience (declared-class quorum checking)                 *)
(* ----------------------------------------------------------------- *)

(* Which declared classes a Quorum function's intersection argument is
   stated for.  [Generic] thresholds ([f + 1] one-honest counting,
   [n - f] completeness, majorities) hold in every class. *)
type qclass = Generic | Family of int list | Ratio_labelled

let quorum_class = function
  | "echo_quorum" | "ready_amplify" | "ready_deliver" | "decide_support"
  | "checkpoint_stable" | "assert_resilience" ->
    Family [ 3 ]
  | "decide_unanimity" | "faulty_majority" -> Family [ 2; 5 ]
  | "honest_support" -> Family [ 3; 4; 5 ]
  | "assert_resilience_at" | "max_faults" -> Ratio_labelled
  | _ -> Generic

let parse_class s =
  let s = String.concat "" (String.split_on_char ' ' (String.trim s)) in
  let len = String.length s in
  if len >= 4 && s.[0] = 'n' && s.[1] = '>' && s.[len - 1] = 'f' then
    int_of_string_opt (String.sub s 2 (len - 3))
  else None

let class_label r = Printf.sprintf "n>%df" r

let classes_label rs = String.concat ", " (List.map class_label rs)

(* The declared resilience classes of the unit: the floating
   [@@@abc.resilience "n>3f"] attribute (space-separated list for
   dual-mode protocols like Ben-Or: "n>2f n>5f"), [None] without one. *)
let declared_classes ctx (str : structure) =
  let from_attr =
    List.concat_map
      (fun item ->
        match item.pstr_desc with
        | Pstr_attribute
            {
              attr_name = { txt = "abc.resilience" | "resilience"; _ };
              attr_payload =
                PStr
                  [
                    {
                      pstr_desc =
                        Pstr_eval
                          ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                            _ );
                      _;
                    };
                  ];
              attr_loc;
              _;
            } ->
          List.filter_map
            (fun part ->
              if String.trim part = "" then None
              else
                match parse_class part with
                | Some r -> Some r
                | None ->
                  flag ctx ~rule:"resilience" ~loc:attr_loc ~snippet:part
                    (Printf.sprintf
                       "unparseable resilience class %S (expected \"n>3f\", \
                        \"n>5f\", ...)"
                       part);
                  None)
            (String.split_on_char ' ' s)
        | _ -> [])
      str
  in
  match from_attr with [] -> None | rs -> Some rs

let resilience ctx (str : structure) =
  let declared = declared_classes ctx str in
  let check_ident ~loc fn =
    match quorum_class fn with
    | Generic | Ratio_labelled -> ()
    | Family rs -> (
      match declared with
      | None ->
        flag ctx ~rule:"resilience" ~loc ~snippet:("Quorum." ^ fn)
          (Printf.sprintf
             "Quorum.%s is a %s-family threshold but this module declares no \
              resilience class; add [@@@abc.resilience \"...\"]"
             fn (classes_label rs))
      | Some ds ->
        if not (List.exists (fun r -> List.mem r ds) rs) then
          flag ctx ~rule:"resilience" ~loc ~snippet:("Quorum." ^ fn)
            (Printf.sprintf
               "Quorum.%s carries a %s intersection argument, but this \
                module declares %s; use a threshold from the declared class"
               fn (classes_label rs)
               (classes_label ds)))
  in
  let check_ratio ~loc fn args =
    match quorum_class fn with
    | Ratio_labelled -> (
      let ratio =
        List.find_map
          (fun (label, arg) ->
            match label with
            | Asttypes.Labelled "ratio" -> int_literal arg
            | _ -> None)
          args
      in
      match (ratio, declared) with
      | Some _, None ->
        flag ctx ~rule:"resilience" ~loc ~snippet:("Quorum." ^ fn)
          (Printf.sprintf
             "Quorum.%s with an explicit ratio in a module with no declared \
              resilience class; add [@@@abc.resilience \"...\"]"
             fn)
      | Some r, Some ds ->
        if not (List.mem r ds) then
          flag ctx ~rule:"resilience" ~loc ~snippet:("Quorum." ^ fn)
            (Printf.sprintf
               "ratio %d (%s) does not match this module's declared %s" r
               (class_label r) (classes_label ds))
      | None, _ -> ())
    | Generic | Family _ -> ()
  in
  let quorum_fn lid =
    match lid with
    | Longident.Ldot (path, fn)
      when List.exists (String.equal "Quorum") (components path) ->
      Some fn
    | _ -> None
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            match quorum_fn txt with
            | Some fn -> check_ratio ~loc:x.pexp_loc fn args
            | None -> ())
          | Pexp_ident { txt; _ } -> (
            match quorum_fn txt with
            | Some fn -> check_ident ~loc:x.pexp_loc fn
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
    }
  in
  it.structure it str

(* ----------------------------------------------------------------- *)
(* Rule: mutable-global                                              *)
(* ----------------------------------------------------------------- *)

let mutable_global ctx (str : structure) =
  List.iter
    (fun (name, maker, loc) ->
      flag ctx ~rule:"mutable-global" ~loc
        ~snippet:("let " ^ name ^ " = " ^ maker)
        "top-level mutable state in an engine library: Exec.Pool jobs run \
         concurrently across domains, so run state must be allocated per \
         run (pass it through config/context) or reviewed into lint.allow \
         as main-domain-only")
    (module_level_mutables str)

(* ----------------------------------------------------------------- *)
(* Rule: pool-capture (race detector)                                *)
(* ----------------------------------------------------------------- *)

let pool_fns = [ "map"; "map_list"; "run" ]

let pool_call_fn f =
  match (strip_expr f).pexp_desc with
  | Pexp_ident { txt = Longident.Ldot (path, fn); _ }
    when List.mem fn pool_fns
         && List.exists (String.equal "Pool") (components path) ->
    Some fn
  | _ -> None

let mutators =
  [
    ("Hashtbl",
     [ "replace"; "add"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Buffer",
     [ "add_string"; "add_char"; "add_bytes"; "add_substring"; "add_subbytes";
       "add_buffer"; "add_channel"; "clear"; "reset"; "truncate" ]);
    ("Queue", [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    ("Atomic",
     [ "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr"; "decr" ]);
  ]

let is_mutator m fn =
  match List.assoc_opt m mutators with
  | Some fns -> List.mem fn fns
  | None -> false

(* Analyze one literal job closure passed to Exec.Pool: any capture of
   a module-level mutable binding, and any mutation applied to a name
   the closure does not bind itself, races across worker domains. *)
let analyze_job ctx ~pool_fn ~mutable_globals lam =
  let bound = bound_names_in_expr lam in
  let is_local x = List.mem x bound in
  let reported = Hashtbl.create 4 in
  let once name k =
    if not (Hashtbl.mem reported name) then begin
      Hashtbl.add reported name ();
      k ()
    end
  in
  List.iter
    (fun (name, loc) ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) mutable_globals with
      | Some (_, maker, _) when not (is_local name) ->
        once name (fun () ->
            flag ctx ~rule:"pool-capture" ~loc ~snippet:name
              (Printf.sprintf
                 "Exec.Pool %s job closure captures module-level mutable \
                  binding '%s' (%s): jobs run concurrently across domains, \
                  so shared mutable state races and breaks the \
                  deterministic-merge contract; allocate it inside the job"
                 pool_fn name maker))
      | _ -> ())
    (used_lidents_in_expr lam);
  let check_target ~loc ~via target =
    match (strip_expr target).pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } when not (is_local x) ->
      once (via ^ ":" ^ x) (fun () ->
          flag ctx ~rule:"pool-capture" ~loc ~snippet:(via ^ " " ^ x)
            (Printf.sprintf
               "Exec.Pool %s job closure mutates '%s' via %s, but '%s' is \
                not bound inside the closure: the write is shared across \
                worker domains; build this state inside the job and return \
                it as the job's value"
               pool_fn x via x))
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            let first_pos =
              List.find_map
                (fun (label, a) ->
                  match label with Asttypes.Nolabel -> Some a | _ -> None)
                args
            in
            match (txt, first_pos) with
            | Longident.Lident ((":=" | "incr" | "decr") as via), Some target ->
              check_target ~loc:x.pexp_loc ~via target
            | Longident.Ldot (Longident.Lident m, fn), Some target
              when is_mutator m fn ->
              check_target ~loc:x.pexp_loc ~via:(m ^ "." ^ fn) target
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
    }
  in
  it.expr it lam

let pool_capture ctx (str : structure) =
  let mutable_globals = module_level_mutables str in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with
          | Pexp_apply (f, args) -> (
            match pool_call_fn f with
            | Some pool_fn ->
              List.iter
                (fun (_, arg) ->
                  if is_lambda arg then
                    analyze_job ctx ~pool_fn ~mutable_globals arg)
                args
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
    }
  in
  it.structure it str

(* ----------------------------------------------------------------- *)
(* Rule: silent-drop                                                 *)
(* ----------------------------------------------------------------- *)

let handler_names = [ "on_message"; "on_timeout"; "handle" ]

let silent_drop ctx (str : structure) =
  let scan_handler name body =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self x ->
            (match x.pexp_desc with
            | Pexp_match (_, cases) | Pexp_function cases ->
              List.iter
                (fun c ->
                  match (c.pc_lhs.ppat_desc, c.pc_guard) with
                  | Ppat_any, None ->
                    let loc =
                      {
                        c.pc_lhs.ppat_loc with
                        Location.loc_end = c.pc_rhs.pexp_loc.Location.loc_end;
                      }
                    in
                    flag ctx ~rule:"silent-drop" ~loc
                      (Printf.sprintf
                         "wildcard arm in a match inside '%s' silently drops \
                          protocol messages (new constructors will not be \
                          handled, undermining totality); match every \
                          constructor explicitly or allowlist with a \
                          reviewed reason"
                         name)
                  | _ -> ())
                cases
            | _ -> ());
            Ast_iterator.default_iterator.expr self x);
      }
    in
    it.expr it body
  in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match (strip_pat vb.pvb_pat).ppat_desc with
          | Ppat_var { txt; _ } when List.mem txt handler_names ->
            scan_handler txt vb.pvb_expr
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it str

(* ----------------------------------------------------------------- *)
(* Rule: stray-output                                                *)
(* ----------------------------------------------------------------- *)

let stray_plain =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_int"; "prerr_char";
    "prerr_float"; "prerr_bytes";
  ]

let stray_qualified =
  [
    ("Printf", [ "printf"; "eprintf" ]);
    ("Format", [ "printf"; "eprintf"; "print_string"; "print_newline"; "print_flush" ]);
    ("Fmt", [ "pr"; "epr" ]);
  ]

let stray_output ctx (str : structure) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with
          | Pexp_ident { txt = Longident.Lident s; _ } when List.mem s stray_plain
            ->
            flag ctx ~rule:"stray-output" ~loc:x.pexp_loc ~snippet:s
              "direct console output from library code; route observability \
               through Event/Trace/Metrics (or move the printing to \
               bin/bench/test)"
          | Pexp_ident { txt = Longident.Ldot (Longident.Lident m, fn); _ }
            when (match List.assoc_opt m stray_qualified with
                 | Some fns -> List.mem fn fns
                 | None -> false) ->
            flag ctx ~rule:"stray-output" ~loc:x.pexp_loc ~snippet:(m ^ "." ^ fn)
              "direct console output from library code; route observability \
               through Event/Trace/Metrics (or move the printing to \
               bin/bench/test)"
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
    }
  in
  it.structure it str

(* ----------------------------------------------------------------- *)
(* Dispatch                                                          *)
(* ----------------------------------------------------------------- *)

let check ~path ~source (str : structure) =
  let ctx =
    { path; file = Scope.normalize path; source; findings = ref [] }
  in
  let in_core =
    Scope.in_dir path "lib/core/"
    && not (String.equal (Filename.basename ctx.file) "quorum.ml")
  in
  determinism ctx str;
  poly_compare ctx str;
  if in_core then begin
    quorum_arith ctx str;
    resilience ctx str
  end;
  (* The SMR layer stacks protocols over lib/core quorums (the atomic
     broadcast embeds per-epoch ACS instances) and now counts quorums
     of its own (checkpoint stability, transfer vouching), so its
     modules carry the same [@@@abc.resilience] obligations and the
     same no-inline-threshold-arithmetic rule as core protocol code. *)
  if Scope.in_dir path "lib/smr/" then begin
    quorum_arith ctx str;
    resilience ctx str
  end;
  if
    Scope.in_dir path "lib/sim/" || Scope.in_dir path "lib/net/"
    || Scope.in_dir path "lib/exec/"
  then mutable_global ctx str;
  pool_capture ctx str;
  if Scope.in_dir path "lib/core/" || Scope.in_dir path "lib/smr/" then
    silent_drop ctx str;
  if
    not
      (Scope.in_dir path "bin/" || Scope.in_dir path "bench/"
      || Scope.in_dir path "test/" || Scope.in_dir path "examples/")
  then stray_output ctx str;
  Finding.dedup !(ctx.findings)
