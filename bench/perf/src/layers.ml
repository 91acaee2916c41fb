(* Layer timing from outside the library.

   The layer pass wraps a protocol's transition functions in [Timed]
   and an adversary's instance in [adversary]; both add their self
   time to [acc].  Everything else a run spends — Engine,
   Envelope_arena, Metrics, Heap, Link_faults, trace recording — is the
   run's span minus those two.  Timed units run one at a time on the
   main domain, so one accumulator, reset per unit, is enough.  Clock
   readings only feed reports; they never reach a simulation. *)

module Protocol = Abc_net.Protocol
module Adversary = Abc_net.Adversary

(* [Monotonic_clock.now] does not allocate and has ns resolution; a
   timed protocol step costs ~100 ns, so both matter. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_of_ns ns = float_of_int ns *. 1e-9

let elapsed_s t0 = seconds_of_ns (now_ns () - t0)

type acc = {
  mutable protocol_ns : int;
  mutable protocol_calls : int;
  mutable protocol_actions : int;
  mutable adversary_ns : int;
  mutable choose_calls : int;
  mutable run_ns : int;  (** the engine run alone, without verdict or export *)
  mutable export_ns : int;
  mutable parse_ns : int;
  mutable summary_ns : int;
  mutable trace_events : int;
  mutable trace_bytes : int;
}

let acc =
  {
    protocol_ns = 0;
    protocol_calls = 0;
    protocol_actions = 0;
    adversary_ns = 0;
    choose_calls = 0;
    run_ns = 0;
    export_ns = 0;
    parse_ns = 0;
    summary_ns = 0;
    trace_events = 0;
    trace_bytes = 0;
  }

let reset () =
  acc.protocol_ns <- 0;
  acc.protocol_calls <- 0;
  acc.protocol_actions <- 0;
  acc.adversary_ns <- 0;
  acc.choose_calls <- 0;
  acc.run_ns <- 0;
  acc.export_ns <- 0;
  acc.parse_ns <- 0;
  acc.summary_ns <- 0;
  acc.trace_events <- 0;
  acc.trace_bytes <- 0

let charge_protocol t0 actions =
  acc.protocol_ns <- acc.protocol_ns + (now_ns () - t0);
  acc.protocol_calls <- acc.protocol_calls + 1;
  acc.protocol_actions <- acc.protocol_actions + List.length actions

(* The same protocol with [initial], [on_message] and [on_timeout]
   timed.  Types are kept equal to [P]'s, so a run of [Timed (P)] is
   the same run as one of [P] and must hash to the same digest. *)
module Timed (P : Protocol.S) :
  Protocol.S
    with type input = P.input
     and type msg = P.msg
     and type output = P.output
     and type state = P.state = struct
  include P

  let initial ctx input =
    let t0 = now_ns () in
    let ((_, actions) as r) = P.initial ctx input in
    charge_protocol t0 actions;
    r

  let on_message ctx state ~src msg =
    let t0 = now_ns () in
    let ((_, actions, _) as r) = P.on_message ctx state ~src msg in
    charge_protocol t0 actions;
    r

  let on_timeout ctx state ~id =
    let t0 = now_ns () in
    let ((_, actions, _) as r) = P.on_timeout ctx state ~id in
    charge_protocol t0 actions;
    r
end

let charge_adversary t0 = acc.adversary_ns <- acc.adversary_ns + (now_ns () - t0)

(* [a] with [assign], [note] and [choose] timed; the policy's draws
   are untouched, so the delivery order is the same. *)
let adversary (a : Adversary.t) : Adversary.t =
  {
    a with
    Adversary.instantiate =
      (fun () ->
        let i = a.Adversary.instantiate () in
        {
          Adversary.assign =
            (fun ~rng ~now ~src ~dst ->
              let t0 = now_ns () in
              let p = i.Adversary.assign ~rng ~now ~src ~dst in
              charge_adversary t0;
              p);
          note =
            (fun meta ->
              let t0 = now_ns () in
              i.Adversary.note meta;
              charge_adversary t0);
          choose =
            (fun ~rng ~now view ->
              let t0 = now_ns () in
              let k = i.Adversary.choose ~rng ~now view in
              charge_adversary t0;
              acc.choose_calls <- acc.choose_calls + 1;
              k);
        });
  }

(* [timed f] runs [f ()] and returns its result with the elapsed ns. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
