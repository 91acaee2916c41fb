(** The lint allowlist ([lint.allow]): explicit, reviewed exceptions.

    Format, one entry per line:

    {v
    # comment
    <rule> <path> fp:<fingerprint>  [trailing comment]
    v}

    [rule] is a rule id (see {!Rule_info.all}); [path] is matched
    against the end of the finding's path (so entries work regardless
    of the scan root).  [fp:<hex>] allows the findings of that rule in
    that file whose {!Finding.fingerprint} it is (a stable hash of
    rule, file basename and the whitespace-normalized source text of
    the finding's span), so a later violation in the same file still
    fails.  Fingerprints survive unrelated edits (they do not embed
    line numbers) and anything after the fingerprint token is ignored,
    so entries carry the snippet and the review reason as an inline
    comment.  [abc-lint --format json] prints each finding's
    fingerprint; [--prune-allow] reports entries that no longer match
    anything. *)

type entry = {
  rule : string;
  path : string;
  fingerprint : string;  (** 12 lowercase hex digits *)
  raw : string;  (** the line as written, for [--prune-allow] output *)
}

val of_string : string -> (entry list, string) result
(** Parse allowlist text; blank lines and [#] comments are skipped.  A
    rule with no path, an unknown rule id, an entry with no [fp:] or a
    malformed one (not 12 lowercase hex digits) is an error
    ["line N: ..."]. *)

val load : file:string -> (entry list, string) result
(** [of_string] over the file's contents, an error prefixed with the
    file name; a missing file is an empty allowlist. *)

val permits : entry list -> Finding.t -> bool

val unused : entry list -> Finding.t list -> entry list
(** [unused entries findings] is the entries matching none of
    [findings] (pass the {e unfiltered} finding list) — the stale
    entries [--prune-allow] reports. *)
