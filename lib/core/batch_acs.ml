[@@@abc.resilience "n>3f"]

module Dispersal = struct
  type payload = string

  include Coded_rbc

  let input ~sender payload = { Coded_rbc.sender; payload }
  let pp_payload ppf p = Fmt.pf ppf "%dB" (String.length p)
end

module Id = struct
  let name = "batch-acs"
end

include Acs.Over (Dispersal) (Id)

let inputs ~n ~coin proposals =
  if Array.length proposals <> n then
    invalid_arg "Batch_acs.inputs: proposals length must equal n";
  Array.map (fun proposal -> { proposal; coin }) proposals
