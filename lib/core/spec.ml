module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Config = Eba_sim.Config
module Bitset = Eba_util.Bitset

type report = {
  weak_agreement : bool;
  agreement : bool;
  weak_validity : bool;
  validity : bool;
  decision : bool;
  simultaneity : bool;
  unambiguous : bool;
  max_decision_time : int option;
}

let check (d : Kb_protocol.decisions) =
  let model = d.Kb_protocol.model in
  let weak_agreement = ref true
  and weak_validity = ref true
  and validity = ref true
  and decision = ref true
  and simultaneity = ref true in
  let max_time = ref (-1) in
  for run = 0 to Model.nruns model - 1 do
    let nonfaulty = Model.nonfaulty model ~run in
    let unanimous = Config.all_equal (Model.run_of_point model (Model.point model ~run ~time:0)).Model.config in
    (* the first nonfaulty decision of the run, compared with the others *)
    let seen_value = ref None and seen_time = ref (-1) in
    for i = 0 to Model.n model - 1 do
      if Bitset.mem i nonfaulty then
        match Kb_protocol.outcome d ~run ~proc:i with
        | None ->
            decision := false;
            if Option.is_some unanimous then validity := false
        | Some { Kb_protocol.at; value } -> (
            if at > !max_time then max_time := at;
            (match !seen_value with
            | None -> seen_value := Some value
            | Some v -> if not (Value.equal v value) then weak_agreement := false);
            if !seen_time < 0 then seen_time := at
            else if !seen_time <> at then simultaneity := false;
            match unanimous with
            | Some v when not (Value.equal v value) -> weak_validity := false
            | Some _ | None -> ())
    done
  done;
  let max_time = if !max_time < 0 then None else Some !max_time in
  let weak_agreement = !weak_agreement in
  (* A view in both decision sets is only a real ambiguity for a processor
     that might be nonfaulty; a processor that knows its own faultiness
     satisfies B^N_i vacuously and its outputs are unconstrained. *)
  let nonfaulty_ambiguity =
    List.exists
      (fun (run, proc, _) -> Bitset.mem proc (Model.nonfaulty model ~run))
      d.Kb_protocol.ambiguities
  in
  {
    weak_agreement;
    agreement = weak_agreement;
    weak_validity = !weak_validity;
    validity = !validity && !weak_validity;
    decision = !decision;
    simultaneity = !simultaneity;
    unambiguous = not nonfaulty_ambiguity;
    max_decision_time = max_time;
  }

let is_nontrivial_agreement r = r.weak_agreement && r.weak_validity && r.unambiguous
let is_eba r = r.decision && r.agreement && r.validity && r.unambiguous
let is_sba r = is_eba r && r.simultaneity

let pp fmt r =
  Format.fprintf fmt
    "agreement=%b validity=%b decision=%b simultaneity=%b unambiguous=%b \
     weak_agreement=%b weak_validity=%b max_time=%s"
    r.agreement r.validity r.decision r.simultaneity r.unambiguous r.weak_agreement
    r.weak_validity
    (match r.max_decision_time with None -> "-" | Some t -> string_of_int t)
