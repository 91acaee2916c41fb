(** Flood relaying: run a complete-graph protocol on a partial
    topology.

    [Make (P)] wraps protocol [P] so that every logical message is
    flooded hop-by-hop: each node forwards each distinct flood envelope
    to all its neighbours exactly once, and the addressed recipients
    hand the payload to [P] as if it had arrived directly from its
    origin.  On a connected graph of honest relays every message
    eventually reaches everyone, so [P] behaves exactly as on the
    complete graph.

    {b Trust model.}  The envelope's origin field is only as honest as
    the relays: a Byzantine relay can alter payloads or forge origins
    (there are no signatures in the 1984 model, and Dolev's
    disjoint-path verification is out of scope).  Flood relaying is
    therefore sound for {e crash-style} faults, which is what the
    connectivity experiment (E12) uses: with crash faults, agreement
    over flooding requires the survivor graph to stay connected —
    remove up to [f] nodes, so vertex connectivity [>= f+1].
    Byzantine-resilient relaying would need [2f+1] connectivity and
    disjoint-path certification; the test suite demonstrates the
    forgery attack that makes naive flooding unsafe. *)

module Make (P : Protocol.S) : sig
  type msg = private {
    origin : Node_id.t;  (** claimed creator of the payload *)
    sequence : int;  (** origin-local dedup counter *)
    target : Node_id.t option;  (** [None] = logical broadcast *)
    inner : P.msg;
    label : string;
        (** ["relay." ^ P.msg_label inner], one shared string per
            child label at the origin; not on the wire *)
  }

  val with_inner : msg -> P.msg -> msg
  (** [with_inner envelope inner] is [envelope] carrying [inner], as a
      lying relay rewrites it.  The label follows [inner]: [envelope]'s
      own string when the child label is unchanged, else built anew. *)

  include
    Protocol.S
      with type input = P.input
       and type output = P.output
       and type msg := msg
end
