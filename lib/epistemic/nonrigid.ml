module Bitset = Eba_util.Bitset
module Model = Eba_fip.Model
module View = Eba_fip.View

(* [sets.(i)] is the set of points at which processor [i] is a member. *)
type t = { nr_name : string; sets : Pset.t array }

let name s = s.nr_name
let points s ~proc = s.sets.(proc)
let mem s ~point ~proc = Pset.mem s.sets.(proc) point
let fresh model = Array.init (Model.n model) (fun _ -> Pset.create (Model.npoints model))

(* Membership of 𝒩 is constant along a run, so each run contributes one
   contiguous range of point ids per nonfaulty processor. *)
let nonfaulty model =
  let sets = fresh model in
  for run = 0 to Model.nruns model - 1 do
    let first = Model.point model ~run ~time:0 in
    let nf = Model.nonfaulty model ~run in
    for i = 0 to Model.n model - 1 do
      if Bitset.mem i nf then Pset.add_range sets.(i) first (first + Model.horizon model + 1)
    done
  done;
  { nr_name = "N"; sets }

let rigid model ~name set =
  let np = Model.npoints model in
  let sets =
    Array.init (Model.n model) (fun i -> if Bitset.mem i set then Pset.full np else Pset.create np)
  in
  { nr_name = name; sets }

let everyone model = rigid model ~name:"All" (Bitset.full (Model.n model))

(* The cells of [i]'s views partition the points, so scattering the cells
   of the views [pred] keeps, filtered by [i]'s old membership, builds
   [i]'s new membership set without a view lookup per point. *)
let restrict_by_view model ~name s pred =
  let store = model.Model.store in
  let off = model.Model.cell_off and ids = model.Model.cell_ids in
  let sets = fresh model in
  for v = 0 to View.size store - 1 do
    let i = View.owner store v in
    if pred ~proc:i ~view:v then begin
      let inside = s.sets.(i) and out = sets.(i) in
      for k = off.(v) to off.(v + 1) - 1 do
        let q = ids.(k) in
        if Pset.mem inside q then Pset.add out q
      done
    end
  done;
  { nr_name = name; sets }

let empty_points model s =
  Pset.complement (Array.fold_left Pset.union (Pset.create (Model.npoints model)) s.sets)

let pp fmt s = Format.fprintf fmt "%s" s.nr_name
