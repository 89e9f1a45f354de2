module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Value = Eba_sim.Value

type order = Zero_first | One_first

let step_zero_first env (pair : Kb_protocol.pair) =
  let n = Formula.nonfaulty env in
  let n_and_o = Kb_protocol.conjoin env n "N&O" pair.Kb_protocol.one in
  let e0 = Formula.exists env Value.zero in
  let e1 = Formula.exists env Value.one in
  let c = Formula.Cbox (n_and_o, e0) in
  let zero =
    Decision_set.of_formulas env (fun i -> Formula.B (n, i, Formula.And [ e0; c ]))
  in
  let one =
    Decision_set.of_formulas env (fun i ->
        Formula.B (n, i, Formula.And [ e1; Formula.Not c ]))
  in
  { Kb_protocol.zero; one }

let step_one_first env (pair : Kb_protocol.pair) =
  let n = Formula.nonfaulty env in
  let n_and_z = Kb_protocol.conjoin env n "N&Z" pair.Kb_protocol.zero in
  let e0 = Formula.exists env Value.zero in
  let e1 = Formula.exists env Value.one in
  let c = Formula.Cbox (n_and_z, e1) in
  let zero =
    Decision_set.of_formulas env (fun i ->
        Formula.B (n, i, Formula.And [ e0; Formula.Not c ]))
  in
  let one =
    Decision_set.of_formulas env (fun i -> Formula.B (n, i, Formula.And [ e1; c ]))
  in
  { Kb_protocol.zero; one }

let step order = match order with
  | Zero_first -> step_zero_first
  | One_first -> step_one_first

let opposite = function Zero_first -> One_first | One_first -> Zero_first

let optimize ?(first = Zero_first) env pair =
  step (opposite first) env (step first env pair)

let iterate_until_fixpoint ?(first = Zero_first) ?(limit = 8) env pair =
  (* Alternate steps until both orders leave the pair unchanged; report how
     many changing steps were needed.  Theorem 5.2 predicts at most two. *)
  let rec loop order pair steps unchanged =
    if unchanged >= 2 || steps >= limit then (pair, steps)
    else
      let next = step order env pair in
      if Kb_protocol.pair_equal next pair then loop (opposite order) pair steps (unchanged + 1)
      else loop (opposite order) next (steps + 1) 0
  in
  loop first pair 0 0
