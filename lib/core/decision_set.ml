module Model = Eba_fip.Model
module View = Eba_fip.View
module Formula = Eba_epistemic.Formula
module Pset = Eba_epistemic.Pset

type t = Bytes.t

let nviews model = View.size model.Model.store

let empty model = Bytes.make (nviews model) '\000'
let mem t v = Bytes.get t v = '\001'

let of_views model pred =
  Bytes.init (nviews model) (fun v -> if pred v then '\001' else '\000')

let of_formulas env f =
  let model = Formula.model env in
  let store = model.Model.store in
  let off = model.Model.cell_off and ids = model.Model.cell_ids in
  let t = empty model in
  let sets = Array.init (Model.n model) (fun i -> Formula.eval env (f i)) in
  for v = 0 to nviews model - 1 do
    let set = sets.(View.owner store v) in
    (* every cell is nonempty: the view's own point is a member *)
    let inside = Pset.mem set ids.(off.(v)) in
    for k = off.(v) + 1 to off.(v + 1) - 1 do
      if Pset.mem set ids.(k) <> inside then
        invalid_arg "Decision_set.of_formulas: formula not view-measurable"
    done;
    if inside then Bytes.set t v '\001'
  done;
  t

let of_formula env f = of_formulas env (fun _ -> f)

(* The cells of [proc]'s member views, scattered: they partition the
   points at which [proc]'s view is in the set. *)
let points model t ~proc =
  let store = model.Model.store in
  let off = model.Model.cell_off and ids = model.Model.cell_ids in
  let out = Pset.create (Model.npoints model) in
  for v = 0 to nviews model - 1 do
    if mem t v && View.owner store v = proc then
      for k = off.(v) to off.(v + 1) - 1 do
        Pset.add out ids.(k)
      done
  done;
  out

let lift2 op a b = Bytes.init (Bytes.length a) (fun v ->
    if op (Bytes.get a v = '\001') (Bytes.get b v = '\001') then '\001' else '\000')

let union _model a b = lift2 ( || ) a b
let inter _model a b = lift2 ( && ) a b
let equal a b = Bytes.equal a b
let is_empty t = not (Bytes.exists (fun c -> c = '\001') t)

let cardinal t =
  let c = ref 0 in
  Bytes.iter (fun ch -> if ch = '\001' then incr c) t;
  !c

let persistent model t =
  let n = Model.n model and horizon = Model.horizon model in
  let ok = ref true in
  for run = 0 to Model.nruns model - 1 do
    for i = 0 to n - 1 do
      let entered = ref false in
      for time = 0 to horizon do
        let v = Model.view model ~run ~time ~proc:i in
        if mem t v then entered := true
        else if !entered then ok := false
      done
    done
  done;
  !ok
