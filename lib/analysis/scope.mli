(** Path scoping shared by the rules and the driver.

    Rules are scoped by repository layout ("applies under [lib/core/]",
    "exempt under [lib/prng/]", ...); these helpers make that scoping
    independent of the scan root and of platform path separators. *)

val normalize : string -> string
(** ['\\'] to ['/'], and a leading ["./"] stripped. *)

val in_dir : string -> string -> bool
(** [in_dir path frag] is true when [path] contains the directory
    fragment [frag] (e.g. ["lib/core/"]) anchored at a component
    boundary. *)
