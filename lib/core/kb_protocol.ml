module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Pset = Eba_epistemic.Pset
module Bitset = Eba_util.Bitset

type pair = { zero : Decision_set.t; one : Decision_set.t }

let never_decide model = { zero = Decision_set.empty model; one = Decision_set.empty model }

let pair_equal a b =
  Decision_set.equal a.zero b.zero && Decision_set.equal a.one b.one

type outcome = { at : int; value : Value.t }

(* [codes.(run * n + proc)] is -1 while undecided, else [2 * at + value];
   [outcomes] holds the [2 * (horizon + 1)] possible answers once, so
   neither deciding nor reading an outcome allocates. *)
type table = { codes : int array; outcomes : outcome option array }

type decisions = {
  model : Model.t;
  pair : pair;
  table : table;
  ambiguities : (int * int * int) list;
}

let decide model pair =
  let n = Model.n model and horizon = Model.horizon model in
  let codes = Array.make (Model.nruns model * n) (-1) in
  let ambiguities = ref [] in
  for run = 0 to Model.nruns model - 1 do
    for i = 0 to n - 1 do
      (* first entry into Z_i ∪ O_i *)
      let time = ref 0 in
      while !time <= horizon do
        let v = Model.view model ~run ~time:!time ~proc:i in
        let in_zero = Decision_set.mem pair.zero v
        and in_one = Decision_set.mem pair.one v in
        if in_zero && in_one then ambiguities := (run, i, !time) :: !ambiguities
        else if in_zero || in_one then
          codes.((run * n) + i) <- (2 * !time) + if in_one then 1 else 0;
        time := if in_zero || in_one then horizon + 1 else !time + 1
      done
    done
  done;
  let outcomes =
    Array.init (2 * (horizon + 1)) (fun c -> Some { at = c / 2; value = Value.of_int (c mod 2) })
  in
  { model; pair; table = { codes; outcomes }; ambiguities = List.rev !ambiguities }

let outcome d ~run ~proc =
  let c = d.table.codes.((run * Model.n d.model) + proc) in
  if c < 0 then None else d.table.outcomes.(c)

(* Decisions are irreversible, so [decide_i(y)] holds on a suffix of each
   run: from the decision time to the horizon. *)
let decided_atom env d y i =
  let model = Formula.model env in
  let name = Format.asprintf "decide_%d(%a)" i Value.pp y in
  let set = Pset.create (Model.npoints model) in
  for run = 0 to Model.nruns model - 1 do
    match outcome d ~run ~proc:i with
    | Some { at; value } when Value.equal value y ->
        Pset.add_range set (Model.point model ~run ~time:at)
          (Model.point model ~run ~time:(Model.horizon model) + 1)
    | Some _ | None -> ()
  done;
  Formula.Atom (name, set)

let member_atom env pair y i =
  let model = Formula.model env in
  let set =
    match y with Value.Zero -> pair.zero | Value.One -> pair.one
  in
  let name = Format.asprintf "in_%d(%a)" i Value.pp y in
  Formula.Atom (name, Decision_set.points model set ~proc:i)

let conjoin env s name a =
  let model = Formula.model env in
  Nonrigid.restrict_by_view model ~name s (fun ~proc:_ ~view -> Decision_set.mem a view)
