(** Protocol state machines.

    A protocol is a deterministic (up to its private random stream)
    state machine reacting to message deliveries.  The engine owns all
    I/O: a protocol only returns {e actions} (messages to transmit) and
    {e outputs} (externally visible events such as "decided 1").

    The model matches the asynchronous authenticated point-to-point
    network of Bracha (PODC 1984): every message is eventually
    delivered, delivery order is adversarial, and the receiver learns
    the true sender identity. *)

type 'msg action =
  | Broadcast of 'msg
      (** Transmit to every node, including the sender itself.  The
          self-copy travels through the network like any other message,
          which only strengthens the adversary. *)
  | Send of Node_id.t * 'msg  (** Transmit to a single node. *)
  | Set_timer of { id : int; after : int }
      (** Arm a virtual timer: the engine calls {!S.on_timeout} on this
          node with [id] once [after] ticks of virtual time have
          elapsed (at least one).  Timers are node-local — they never
          cross the network — and are not cancellable: a protocol that
          no longer cares about a timeout simply ignores the firing.
          The engine will not report [Quiescent] while timers are
          pending, which is what lets transport protocols retransmit
          into silence. *)

module Context : sig
  type t = {
    me : Node_id.t;  (** this node's identity *)
    n : int;  (** total number of nodes *)
    f : int;  (** resilience parameter the protocol must tolerate *)
    rng : Abc_prng.Stream.t;  (** this node's private random stream *)
    sink : Abc_sim.Event.sink;
        (** where this node's protocol events go.  The engine stamps
            each emitted event with the node id and virtual time; when
            tracing is off this is {!Abc_sim.Event.null_sink} and
            emission sites must guard with [sink.enabled] so disabled
            runs allocate nothing.  The sink holds a closure — protocol
            code must never store it (or the whole context) inside its
            marshalable [state]. *)
  }

  val quorum : t -> int
  (** [quorum ctx] is [n - f], the number of messages a node may safely
      wait for in an asynchronous system. *)

  val scoped : t -> prefix:string -> int -> t
  (** [scoped ctx ~prefix i] is [ctx] with its events scoped under the
      instance [prefix ^ string_of_int i] (["slot3"], ["prop@n2"]), for
      a sub-instance of a composite protocol.  The name is built only
      when the sink is enabled and an event is emitted; a disabled
      context is returned as is, so the untraced path allocates
      nothing. *)
end

val map_actions : ('a -> 'b) -> 'a action list -> 'b action list
(** [map_actions wrap actions] rewraps the message of every action with
    [wrap], in order, keeping each target: how a composite protocol
    lifts a sub-instance's actions into its own message type.
    [Set_timer] passes through with its id unchanged, so a composite
    whose sub-instances arm timers must demultiplex the ids itself. *)

module type S = sig
  type input
  (** Per-node initial input (e.g. the proposed bit). *)

  type msg
  (** Wire message type. *)

  type output
  (** Externally visible event (delivery, decision, ...). *)

  type state
  (** Node-local protocol state. *)

  val name : string
  (** Human-readable protocol name. *)

  val initial : Context.t -> input -> state * msg action list
  (** [initial ctx input] is the starting state and the actions emitted
      before any delivery. *)

  val on_message :
    Context.t -> state -> src:Node_id.t -> msg -> state * msg action list * output list
  (** [on_message ctx state ~src msg] reacts to the delivery of [msg]
      sent by [src]. *)

  val on_timeout :
    Context.t -> state -> id:int -> state * msg action list * output list
  (** [on_timeout ctx state ~id] reacts to the firing of a timer this
      node armed earlier with {!Set_timer}.  Protocols that never arm
      timers should use {!no_timeout}. *)

  val is_terminal : output -> bool
  (** [is_terminal o] is [true] when [o] marks this node as done (the
      engine stops once every honest node has emitted a terminal
      output). *)

  val msg_label : msg -> string
  (** Short label used for per-kind message counters.  A label is a
      shared string — a literal, or one of a fixed set — never one
      built per call: the engine asks for it at every send and every
      delivery and finds the label's counters by physical equality
      first, so a freshly built string costs a string hash and a table
      probe each time.  A wrapper that prefixes its child's labels
      maps each of the child's known labels to a prefixed literal. *)

  val msg_bytes : msg -> int
  (** Estimated serialized size of [msg] on the wire, in bytes.  The
      engine accumulates these into the [bytes.sent] / [bytes.delivered]
      metric counters and stamps them on [send] / [deliver] trace
      events, which is what the bandwidth experiments (E16) measure.
      The estimate follows the {!Wire_size} convention: one byte per
      constructor tag, four bytes per bounded integer field, payloads
      at their own advertised size.  It must depend only on the message
      value (never on node state) so the same message costs the same at
      every hop. *)

  val pp_msg : msg Fmt.t
  val pp_output : output Fmt.t
end

val no_timeout :
  Context.t -> 'state -> id:int -> 'state * 'msg action list * 'output list
(** Default {!S.on_timeout} for protocols that never arm timers:
    ignores the firing and changes nothing. *)

(** The shared size convention behind every {!S.msg_bytes}: a compact
    binary framing with one-byte constructor tags, four-byte integers
    (rounds, sequence numbers, node ids are all small) and
    length-delimited payloads.  Centralizing the constants keeps the
    per-protocol estimates comparable — the absolute numbers matter
    less than their ratios across protocols. *)
module Wire_size : sig
  val tag : int
  (** One byte per variant-constructor / field tag. *)

  val int : int
  (** Four bytes per bounded integer field. *)

  val node_id : int
  (** Node identities travel as four-byte integers. *)

  val option : ('a -> int) -> 'a option -> int
  (** [option inner o] is a presence tag plus [inner v] when
      [o = Some v]. *)
end
