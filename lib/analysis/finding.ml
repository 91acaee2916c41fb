type severity = Error | Warn

type span = {
  start_line : int;
  start_col : int;
  end_line : int;
  end_col : int;
}

type t = {
  rule : string;
  severity : severity;
  file : string;
  span : span;
  snippet : string;
  message : string;
}

let severity_label = function Error -> "error" | Warn -> "warn"

let line_span line =
  { start_line = line; start_col = 0; end_line = line; end_col = 0 }

let file_span = line_span 0

let span_of_loc (loc : Location.t) =
  let s = loc.Location.loc_start and e = loc.Location.loc_end in
  {
    start_line = s.Lexing.pos_lnum;
    start_col = s.Lexing.pos_cnum - s.Lexing.pos_bol;
    end_line = e.Lexing.pos_lnum;
    end_col = e.Lexing.pos_cnum - e.Lexing.pos_bol;
  }

let v ?(severity = Error) ~rule ~file ~span ~snippet message =
  { rule; severity; file; span; snippet; message }

(* Line-independent so an allowlist entry survives unrelated edits
   above the finding; basename-keyed so it survives scan-root changes,
   matching the allowlist's suffix path matching. *)
let fingerprint t =
  let key =
    String.concat "\x00" [ t.rule; Filename.basename t.file; t.snippet ]
  in
  String.sub (Digest.to_hex (Digest.string key)) 0 12

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.span.start_line b.span.start_line with
    | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> (
        match Int.compare a.span.start_col b.span.start_col with
        | 0 -> String.compare a.snippet b.snippet
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

(* One finding per (rule, file, line): a line that trips a rule twice
   reads as noise, and reports stay stable when a rule gains extra
   sub-patterns.  Keeps the left-most (then lexically first) finding. *)
let dedup findings =
  let sorted = List.sort compare findings in
  let same a b =
    String.equal a.file b.file
    && String.equal a.rule b.rule
    && a.span.start_line = b.span.start_line
  in
  let rec keep = function
    | a :: (b :: _ as rest) when same a b -> keep (a :: List.tl rest)
    | a :: rest -> a :: keep rest
    | [] -> []
  in
  keep sorted

let pp ppf t =
  if t.span.start_line = 0 then
    Fmt.pf ppf "%s: [%s/%s] %s" t.file t.rule (severity_label t.severity)
      t.message
  else
    Fmt.pf ppf "%s:%d:%d: [%s/%s] %s  (%s)" t.file t.span.start_line
      t.span.start_col t.rule (severity_label t.severity) t.message t.snippet
