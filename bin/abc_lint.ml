(* abc_lint: protocol-aware static analysis for this repository.

   Usage:
     abc_lint [--allow FILE] [--format text|json] [--rules IDS]
              [--skip-rules IDS] [ROOT ...]
     abc_lint --explain RULE|all
     abc_lint --prune-allow --allow FILE [ROOT ...]

   Scans the given roots (default: lib bin bench examples test) with
   the parsetree rules in Abc_analysis.Ast_rules (a file that does not
   parse is one `parse` finding) and prints every finding not covered
   by the allowlist.  Exit status: 0 when no error-severity findings remain
   (warnings never fail the build), 1 otherwise, 2 on usage error. *)

module A = Abc_analysis

let default_roots = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let usage () =
  prerr_endline
    "usage: abc_lint [--allow FILE] [--format text|json] [--rules IDS]\n\
    \                [--skip-rules IDS] [ROOT ...]\n\
    \       abc_lint --explain RULE|all\n\
    \       abc_lint --prune-allow --allow FILE [ROOT ...]\n\n\
     IDS is a comma-separated list of rule ids; `abc_lint --explain all`\n\
     lists every rule with its severity, scope and rationale.";
  exit 2

type mode = Scan | Explain of string | Prune

type opts = {
  mode : mode;
  allow : string option;
  format : [ `Text | `Json ];
  only : string list option;
  skip : string list;
  roots : string list;
}

let split_ids s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let check_ids ids =
  List.iter
    (fun id ->
      if not (List.mem id A.Rule_info.ids) then begin
        Printf.eprintf "abc_lint: unknown rule id %S (see --explain all)\n" id;
        exit 2
      end)
    ids

let parse_args argv =
  let mode = ref Scan and allow = ref None in
  let format = ref `Text and only = ref None in
  let skip = ref [] and roots = ref [] in
  let rec go = function
    | [] -> ()
    | "--allow" :: file :: rest ->
      allow := Some file;
      go rest
    | "--format" :: "text" :: rest ->
      format := `Text;
      go rest
    | "--format" :: "json" :: rest ->
      format := `Json;
      go rest
    | "--rules" :: ids :: rest ->
      let ids = split_ids ids in
      check_ids ids;
      only := Some ids;
      go rest
    | "--skip-rules" :: ids :: rest ->
      let ids = split_ids ids in
      check_ids ids;
      skip := !skip @ ids;
      go rest
    | "--explain" :: rule :: rest ->
      mode := Explain rule;
      go rest
    | "--prune-allow" :: rest ->
      mode := Prune;
      go rest
    | ("--allow" | "--format" | "--rules" | "--skip-rules" | "--explain") :: []
      ->
      usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | root :: rest ->
      roots := root :: !roots;
      go rest
  in
  go (List.tl (Array.to_list argv));
  let roots = match List.rev !roots with [] -> default_roots | rs -> rs in
  {
    mode = !mode;
    allow = !allow;
    format = !format;
    only = !only;
    skip = !skip;
    roots;
  }

let explain (r : A.Rule_info.t) =
  Fmt.pr "%s  (%s)@.  scope:     %s@.  rationale: %s@.  example:   %s@." r.id
    (A.Finding.severity_label r.severity)
    r.scope r.rationale r.example

let run_explain rule =
  match rule with
  | "all" ->
    List.iteri
      (fun i r ->
        if i > 0 then Fmt.pr "@.";
        explain r)
      A.Rule_info.all
  | id -> (
    match A.Rule_info.find id with
    | Some r -> explain r
    | None ->
      Printf.eprintf "abc_lint: unknown rule id %S (see --explain all)\n" id;
      exit 2)

let load_allow = function
  | None -> []
  | Some file -> (
    match A.Allow.load ~file with
    | Ok entries -> entries
    | Error msg ->
      Printf.eprintf "abc_lint: %s\n" msg;
      exit 2)

let run_prune opts =
  let allow = load_allow opts.allow in
  if allow = [] then begin
    prerr_endline "abc_lint: --prune-allow needs a non-empty --allow FILE";
    exit 2
  end;
  let report = A.Driver.run ~only:opts.only ~skip:opts.skip ~allow
      ~roots:opts.roots () in
  match report.unused_allow with
  | [] ->
    Fmt.pr "abc_lint: allowlist clean (%d entries all in use)@."
      (List.length allow)
  | stale ->
    Fmt.pr "abc_lint: %d stale allowlist entr%s:@." (List.length stale)
      (if List.length stale = 1 then "y" else "ies");
    List.iter (fun (e : A.Allow.entry) -> Fmt.pr "  %s@." e.raw) stale;
    exit 1

let run_scan opts =
  let allow = load_allow opts.allow in
  let report =
    A.Driver.run ~only:opts.only ~skip:opts.skip ~allow ~roots:opts.roots ()
  in
  let errors =
    List.filter (fun f -> f.A.Finding.severity = A.Finding.Error)
      report.findings
  in
  (match opts.format with
  | `Json -> print_string (A.Driver.json_of_report report)
  | `Text ->
    List.iter (fun f -> Fmt.pr "%a@." A.Finding.pp f) report.findings;
    let n = List.length report.findings in
    Fmt.pr "abc_lint: %d finding%s (%d error%s) in %d files (%d allowlisted)@."
      n
      (if n = 1 then "" else "s")
      (List.length errors)
      (if List.length errors = 1 then "" else "s")
      report.files report.allowed);
  if errors <> [] then exit 1

let () =
  let opts = parse_args Sys.argv in
  match opts.mode with
  | Explain rule -> run_explain rule
  | Prune -> run_prune opts
  | Scan -> run_scan opts
