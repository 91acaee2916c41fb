type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16

let counter_ref t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let incr t name = Stdlib.incr (counter_ref t name)

let add t name k =
  let r = counter_ref t name in
  r := !r + k

(* Pre-interned counter handles: the hot path pays one string hash at
   [handle] time and none afterwards.  The registry entry is attached
   lazily on the first update so an interned-but-never-touched counter
   stays invisible to [counter]/[counters] — exactly the semantics of
   the string API, where [incr] creates the entry. *)

type handle = {
  h_metrics : t;
  h_name : string;
  mutable h_ref : int ref;
  mutable h_attached : bool;
}

let handle t name =
  { h_metrics = t; h_name = name; h_ref = ref 0; h_attached = false }

let attach h =
  h.h_ref <- counter_ref h.h_metrics h.h_name;
  h.h_attached <- true

let incr_handle h =
  if not h.h_attached then attach h;
  Stdlib.incr h.h_ref

let add_handle h k =
  if not h.h_attached then attach h;
  h.h_ref := !(h.h_ref) + k

let counter t name =
  match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
