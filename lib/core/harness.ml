open Import

module type CONSENSUS = sig
  include Protocol.S with type output = Decision.t

  val value_of_input : input -> Value.t
end

type verdict = {
  terminated : bool;
  agreement : bool;
  validity : bool;
  decisions : (Node_id.t * int * Decision.t) list;
  rounds : int list;
  max_round : int;
  messages : int;
  deliveries : int;
  duration : int;
}

let ok v = v.terminated && v.agreement && v.validity

let pp_verdict ppf v =
  Fmt.pf ppf
    "terminated=%b agreement=%b validity=%b max_round=%d messages=%d duration=%d"
    v.terminated v.agreement v.validity v.max_round v.messages v.duration

let judge ~value_of_input ~inputs ~honest ~stop ~outputs ~messages ~deliveries
    ~duration =
  let decisions_of id =
    List.filter_map (fun (time, d) -> Some (id, time, d)) outputs.(Node_id.to_int id)
  in
  let decisions = List.concat_map decisions_of honest in
  let one_each =
    List.for_all (fun id -> List.length outputs.(Node_id.to_int id) = 1) honest
  in
  let terminated = stop = Abc_net.Engine.All_terminal && one_each in
  let values =
    List.map (fun (_, _, d) -> d.Decision.value) decisions
    |> List.sort_uniq Value.compare
  in
  let agreement = List.length values <= 1 in
  let honest_inputs =
    List.map (fun id -> value_of_input inputs.(Node_id.to_int id)) honest
    |> List.sort_uniq Value.compare
  in
  let validity =
    match (honest_inputs, values) with
    | [ input ], [ decided ] -> Value.equal input decided
    | [ _input ], [] -> true (* nothing decided: termination fails instead *)
    | _ -> true (* mixed inputs: any decision is valid for binary consensus *)
  in
  let rounds = List.map (fun (_, _, d) -> d.Decision.round) decisions in
  let max_round = List.fold_left max 0 rounds in
  {
    terminated;
    agreement;
    validity;
    decisions;
    rounds;
    max_round;
    messages;
    deliveries;
    duration;
  }

module Make (P : CONSENSUS) = struct
  module E = Engine.Make (P)

  let evaluate (cfg : E.config) (result : E.result) =
    judge ~value_of_input:P.value_of_input ~inputs:cfg.E.inputs
      ~honest:(E.honest cfg) ~stop:result.E.stop ~outputs:result.E.outputs
      ~messages:(Metrics.counter result.E.metrics "sent")
      ~deliveries:result.E.deliveries ~duration:result.E.duration

  let run cfg =
    let result = E.run cfg in
    (result, evaluate cfg result)
end
