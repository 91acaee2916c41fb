open Import

(** Bracha's reliable broadcast — pure instance state machine.

    This is the heart of the PODC 1984 construction.  One instance
    disseminates a single payload from a designated sender among [n]
    nodes of which at most [f < n/3] are Byzantine, over an
    asynchronous authenticated network, guaranteeing:

    - {b Validity}: if the sender is honest and broadcasts [v], every
      honest node eventually delivers [v];
    - {b Agreement}: no two honest nodes deliver different payloads;
    - {b Totality}: if any honest node delivers, every honest node
      eventually delivers.

    The three-phase echo protocol: the sender broadcasts
    [Initial v]; on first [Initial v] a node broadcasts [Echo v]; on
    [⌈(n+f+1)/2⌉] echoes for [v] {e or} [f+1] readies for [v] a node
    broadcasts [Ready v] (once); on [2f+1] readies for [v] it delivers
    [v].

    The module is a {e pure} state machine (no I/O, no randomness): the
    caller feeds attributed events and transmits the returned events to
    all nodes.  Both the standalone {!Bracha_rbc} protocol and the
    consensus multiplexer reuse it. *)

module Make (V : Value.PAYLOAD) : sig
  type event = Initial of V.t | Echo of V.t | Ready of V.t

  type t
  (** Immutable instance state for one (sender, payload slot). *)

  val create : n:int -> f:int -> sender:Node_id.t -> t
  (** [create ~n ~f ~sender] is the starting state of an instance whose
      designated sender is [sender].  Requires [n > 3 * f]. *)

  val handle :
    ?sink:Event.sink -> t -> src:Node_id.t -> event -> t * event list * V.t option
  (** [handle t ~src event] processes the delivery of [event] from node
      [src].  Returns the new state, the events this node must now
      broadcast to every node, and [Some v] the first time the payload
      is delivered.  Duplicate events from the same source are
      deduplicated by the per-value sender sets; [Initial] events from
      any node other than the designated sender are ignored.

      [?sink] (default {!Event.null_sink}) receives one
      {!Event.kind.Quorum} event each time a threshold rule fires:
      quorum ["echo"] or ["ready-amplify"] when the ready latch sets,
      quorum ["ready"] when the instance delivers. *)

  val delivered : t -> V.t option
  (** [delivered t] is the delivered payload, if any. *)

  val echoed : t -> bool
  (** Whether this node has already sent its echo. *)

  val readied : t -> bool
  (** Whether this node has already sent its ready. *)

  val settled : t -> event -> bool
  (** [settled t event] holds for an [Echo] once [t] has readied and
      for a [Ready] once it has delivered.  Such an event would only
      add its source to a sender set that no rule reads again: {!handle}
      would send nothing, deliver nothing, emit no quorum event, and
      return a state that differs from [t] only in that set.  A caller
      that keeps [t] in place of that state behaves the same on every
      later event.  Always [false] for [Initial]. *)

  val echo_threshold : n:int -> f:int -> int
  (** [⌈(n+f+1)/2⌉]: echoes needed to turn ready.  Strictly more than
      [(n+f)/2], so two different payloads can never both reach it
      (honest nodes echo once, Byzantine nodes count at most [f]
      twice). *)

  val ready_amplify_threshold : f:int -> int
  (** [f+1]: readies that prove at least one honest ready, letting
      slow nodes join without having seen enough echoes. *)

  val deliver_threshold : f:int -> int
  (** [2f+1]: readies needed to deliver; guarantees [f+1] honest
      readies survive subtraction of Byzantine ones, which re-amplifies
      to eventual delivery everywhere (totality). *)

  val pp_event : event Fmt.t
  val event_label : event -> string

  val event_bytes : event -> int
  (** Wire size of an event: a tag plus the full payload — every phase
      of Bracha's protocol re-sends the whole message. *)
end
