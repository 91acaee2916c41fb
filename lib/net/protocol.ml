type 'msg action =
  | Broadcast of 'msg
  | Send of Node_id.t * 'msg
  | Set_timer of { id : int; after : int }

module Context = struct
  type t = {
    me : Node_id.t;
    n : int;
    f : int;
    rng : Abc_prng.Stream.t;
    sink : Abc_sim.Event.sink;
  }

  let quorum ctx = ctx.n - ctx.f

  let scoped ctx ~prefix i =
    if ctx.sink.Abc_sim.Event.enabled then
      {
        ctx with
        sink =
          Abc_sim.Event.scoped ctx.sink
            ~instance:(lazy (prefix ^ string_of_int i));
      }
    else ctx
end

let map_action wrap = function
  | Broadcast msg -> Broadcast (wrap msg)
  | Send (dst, msg) -> Send (dst, wrap msg)
  | Set_timer { id; after } -> Set_timer { id; after }

(* A direct recursion rather than [List.map (map_action wrap)]: the
   partial application would allocate a closure per call on the
   composites' per-message path. *)
let[@tail_mod_cons] rec map_actions wrap = function
  | [] -> []
  | action :: rest ->
    let action = map_action wrap action in
    action :: map_actions wrap rest

module type S = sig
  type input
  type msg
  type output
  type state

  val name : string
  val initial : Context.t -> input -> state * msg action list

  val on_message :
    Context.t -> state -> src:Node_id.t -> msg -> state * msg action list * output list

  val on_timeout :
    Context.t -> state -> id:int -> state * msg action list * output list

  val is_terminal : output -> bool
  val msg_label : msg -> string
  val msg_bytes : msg -> int
  val pp_msg : msg Fmt.t
  val pp_output : output Fmt.t
end

let no_timeout _ctx state ~id:_ = (state, [], [])

module Wire_size = struct
  let tag = 1

  let int = 4

  let node_id = 4

  let option inner = function None -> tag | Some v -> tag + inner v
end
