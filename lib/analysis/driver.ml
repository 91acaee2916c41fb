type report = {
  findings : Finding.t list;
  allowed : int;
  files : int;
  unused_allow : Allow.entry list;
}

let skip_dir name =
  String.equal name "_build" || (String.length name > 0 && name.[0] = '.')

let source_file name =
  (Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli")
  && not (Filename.check_suffix name ".ml-gen")

let scan_files ~roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc name ->
          if skip_dir name then acc else walk acc (Filename.concat path name))
        acc (Sys.readdir path)
    else if source_file path then path :: acc
    else acc
  in
  let files =
    List.fold_left
      (fun acc root -> if Sys.file_exists root then walk acc root else acc)
      [] roots
  in
  List.sort String.compare files

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

(* The parsetree rules when the unit parses, one [parse] finding at
   the error when it does not. *)
let findings_of ~path source =
  if Filename.check_suffix path ".ml" then begin
    match Frontend.parse_impl ~path source with
    | Ok str -> Ast_rules.check ~path ~source str
    | Error (loc, message) ->
      [
        Finding.v ~rule:"parse" ~file:path ~span:(Finding.span_of_loc loc)
          ~snippet:(Filename.basename path) message;
      ]
  end
  else []

let check_source ~path source = List.map Rule_info.stamp (findings_of ~path source)

let interface_coverage ~files =
  let files = List.map Scope.normalize files in
  let mli_present = List.filter (fun f -> Filename.check_suffix f ".mli") files in
  List.filter_map
    (fun file ->
      if Filename.check_suffix file ".ml" && Scope.in_dir file "lib/" then begin
        let want = file ^ "i" in
        if List.exists (String.equal want) mli_present then None
        else
          Some
            (Finding.v ~rule:"interface" ~file ~span:Finding.file_span
               ~snippet:(Filename.basename want)
               "every module under lib/ needs an interface: add the .mli so the \
                public surface (and its threshold docs) stays explicit")
      end
      else None)
    files
  |> Finding.dedup

let rule_enabled ~only ~skip rule =
  (match only with None -> true | Some ids -> List.mem rule ids)
  && not (List.mem rule skip)

let make_report ?(only = None) ?(skip = []) ~allow ~files findings =
  let all =
    findings
    |> List.filter (fun f -> rule_enabled ~only ~skip f.Finding.rule)
    |> List.map Rule_info.stamp
    |> List.sort Finding.compare
  in
  let allowed, findings = List.partition (Allow.permits allow) all in
  {
    findings;
    allowed = List.length allowed;
    files;
    unused_allow = Allow.unused allow all;
  }

let run ?(only = None) ?(skip = []) ~allow ~roots () =
  let files = scan_files ~roots in
  let per_file =
    List.concat_map (fun path -> findings_of ~path (read_file path)) files
  in
  make_report ~only ~skip ~allow ~files:(List.length files)
    (per_file @ interface_coverage ~files)

(* ----------------------------------------------------------------- *)
(* JSON report (SARIF-lite)                                          *)
(* ----------------------------------------------------------------- *)

(* Hand-rolled writer: fixed key order, sorted findings, no
   environment input — the output is byte-identical across runs, so it
   can be diffed and checked against a golden in CI. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_finding (f : Finding.t) =
  let s = f.Finding.span in
  Printf.sprintf
    "{\"rule\":%S,\"severity\":\"%s\",\"path\":%S,\"span\":{\"start_line\":%d,\"start_col\":%d,\"end_line\":%d,\"end_col\":%d},\"snippet\":\"%s\",\"message\":\"%s\",\"fingerprint\":\"%s\"}"
    f.Finding.rule
    (Finding.severity_label f.Finding.severity)
    f.Finding.file s.Finding.start_line s.Finding.start_col s.Finding.end_line
    s.Finding.end_col
    (json_escape f.Finding.snippet)
    (json_escape f.Finding.message)
    (Finding.fingerprint f)

let count severity findings =
  List.length (List.filter (fun f -> f.Finding.severity = severity) findings)

let json_of_report r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"abc-lint/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"files\": %d,\n" r.files);
  Buffer.add_string buf (Printf.sprintf "  \"allowed\": %d,\n" r.allowed);
  Buffer.add_string buf
    (Printf.sprintf "  \"errors\": %d,\n" (count Finding.Error r.findings));
  Buffer.add_string buf
    (Printf.sprintf "  \"warnings\": %d,\n" (count Finding.Warn r.findings));
  Buffer.add_string buf "  \"findings\": [";
  List.iteri
    (fun i f ->
      Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
      Buffer.add_string buf (json_of_finding f))
    r.findings;
  Buffer.add_string buf (if r.findings = [] then "]\n" else "\n  ]\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf
