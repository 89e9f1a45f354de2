module Formula = Eba_epistemic.Formula
module Pset = Eba_epistemic.Pset
module Model = Eba_fip.Model
module View = Eba_fip.View
module Config = Eba_sim.Config
module Value = Eba_sim.Value
module Bitset = Eba_util.Bitset

let believes_faulty env ~suspect i =
  let n = Formula.nonfaulty env in
  Formula.eval env (Formula.B (n, i, Formula.Not (Formula.In (n, suspect))))

(* [believed_faulty model] gives, for each view [v] of each owner [i], the
   processors [i] believes faulty there: [B^N_i(j ∉ N)] holds at [v] iff [j]
   is faulty in every run through [cell v] in which [i] is nonfaulty, so
   the set is the meet of those runs' faulty sets — everyone, vacuously,
   when [i] is faulty throughout the cell.  One pass over the cells gives
   all [n²] beliefs of {!believes_faulty} at once. *)
let believed_faulty model =
  let store = model.Model.store in
  let off = model.Model.cell_off and ids = model.Model.cell_ids in
  let everyone = Bitset.full (Model.n model) in
  Array.init (View.size store) (fun v ->
      let i = View.owner store v in
      let acc = ref everyone in
      for k = off.(v) to off.(v + 1) - 1 do
        let faulty = (Model.run_of_point model ids.(k)).Model.faulty in
        if not (Bitset.mem i faulty) then acc := Bitset.inter !acc faulty
      done;
      !acc)

(* Chain reachability inside one run, as a DP over (chain member set, last
   member).  [cur.(mask * n + last)] at level [m] means: the initial 0 of
   some processor has travelled along a path of distinct processors [mask]
   ending at [last], one hop per round, each hop at round [k] delivered and
   trusted (the receiver does not believe the sender faulty at time [k]).
   A 0-chain exists at [(r,m)] iff some level-[m] path ends at a nonfaulty
   processor; at [m = 0] that is a nonfaulty processor holding a 0.  A
   hop's delivery is read off the receiver's view: it heard from exactly
   the senders whose round-[k] message arrived.

   [walk_chains] calls [visit m c] for [m = 0, 1, ...], [c] telling whether
   a chain ends exactly at [(run, m)], until [visit] returns [false], the
   horizon passes, or no path survives (no later chain can exist). *)
let walk_chains model bf ~run visit =
  let n = Model.n model and horizon = Model.horizon model in
  let store = model.Model.store in
  let config = (Model.run_of_point model (Model.point model ~run ~time:0)).Model.config in
  let nonfaulty = Model.nonfaulty model ~run in
  let nstates = (1 lsl n) * n in
  let cur = ref (Array.make nstates false) and next = ref (Array.make nstates false) in
  let alive = ref false in
  for j = 0 to n - 1 do
    if Value.equal (Config.value config j) Value.Zero then begin
      !cur.(((1 lsl j) * n) + j) <- true;
      alive := true
    end
  done;
  let ends_nonfaulty reach =
    let ok = ref false in
    for s = 0 to nstates - 1 do
      if reach.(s) && Bitset.mem (s mod n) nonfaulty then ok := true
    done;
    !ok
  in
  let k = ref 0 in
  while !alive && !k <= horizon && visit !k (ends_nonfaulty !cur) do
    incr k;
    if !k <= horizon then begin
      (* [trusted.(j)]: senders whose round-[k] message [j] got and trusts *)
      let trusted =
        Array.init n (fun j ->
            let v = Model.view model ~run ~time:!k ~proc:j in
            Bitset.diff (View.heard_from store v) bf.(v))
      in
      let reach = !next in
      Array.fill reach 0 nstates false;
      alive := false;
      for s = 0 to nstates - 1 do
        if !cur.(s) then begin
          let mask = s / n and last = s mod n in
          for j = 0 to n - 1 do
            if mask land (1 lsl j) = 0 && Bitset.mem last trusted.(j) then begin
              reach.(((mask lor (1 lsl j)) * n) + j) <- true;
              alive := true
            end
          done
        end
      done;
      next := !cur;
      cur := reach
    end
  done

let chain_at env ~run ~time =
  let model = Formula.model env in
  let found = ref false in
  walk_chains model (believed_faulty model) ~run (fun m chain ->
      if m = time then found := chain;
      m < time);
  !found

(* ∃0* holds from the first time a chain exists to the end of the run. *)
let exists0_star env =
  let model = Formula.model env in
  let bf = believed_faulty model in
  let horizon = Model.horizon model in
  let set = Pset.create (Model.npoints model) in
  for run = 0 to Model.nruns model - 1 do
    walk_chains model bf ~run (fun m chain ->
        if chain then
          Pset.add_range set (Model.point model ~run ~time:m)
            (Model.point model ~run ~time:horizon + 1);
        not chain)
  done;
  Formula.Atom ("exists0*", set)
