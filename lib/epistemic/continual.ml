module Model = Eba_fip.Model
module View = Eba_fip.View
module Metrics = Eba_util.Metrics

let s_closure = Metrics.span "continual.closure"
let s_cbox = Metrics.span "continual.cbox"
let m_unions = Metrics.counter "continual.uf_unions"
let m_landable = Metrics.counter "continual.landable_points"
let m_naive_iters = Metrics.counter "continual.naive_iterations"

let ebox model s phi =
  Temporal.throughout model (Knowledge.everyone_knows model s phi)

(* --- union-find over run indices --- *)

module Uf = struct
  type t = int array

  let create n = Array.init n Fun.id

  let rec find uf i = if uf.(i) = i then i else begin
    uf.(i) <- find uf uf.(i);
    uf.(i)
  end

  let union uf i j =
    let ri = find uf i and rj = find uf j in
    if ri <> rj then uf.(ri) <- rj
end

type closure = {
  model : Model.t;
  uf : Uf.t;
  landable : Pset.t;  (* all points reachable as the endpoint of some step *)
  participates : Pset.t;  (* runs (by index) having at least one landable point *)
}

let closure model s =
  Metrics.time s_closure @@ fun () ->
  let store = model.Model.store in
  let off = model.Model.cell_off and ids = model.Model.cell_ids in
  let uf = Uf.create (Model.nruns model) in
  let landable = Pset.create (Model.npoints model) in
  let participates = Pset.create (Model.nruns model) in
  let unions = ref 0 in
  (* owners never in S have empty lander groups: skip their cells *)
  let live =
    Array.init (Model.n model) (fun i -> not (Pset.is_empty (Nonrigid.points s ~proc:i)))
  in
  for v = 0 to View.size store - 1 do
    let i = View.owner store v in
    if live.(i) then begin
      let inside = Nonrigid.points s ~proc:i in
      (* the lander group of [v]: points of the cell at which the owner is in S *)
      let first = ref (-1) in
      for k = off.(v) to off.(v + 1) - 1 do
        let q = ids.(k) in
        if Pset.mem inside q then begin
          Pset.add landable q;
          let run = Model.run_index_of_point model q in
          Pset.add participates run;
          if !first < 0 then first := run
          else begin
            incr unions;
            Uf.union uf !first run
          end
        end
      done
    end
  done;
  Metrics.add m_unions !unions;
  if Metrics.enabled () then Metrics.add m_landable (Pset.cardinal landable);
  { model; uf; landable; participates }

let cbox cl phi =
  Metrics.time s_cbox @@ fun () ->
  let model = cl.model in
  let nruns = Model.nruns model in
  let len = Model.horizon model + 1 in
  (* a component root is bad if some landable point of the component
     refutes φ *)
  let bad = Array.make nruns false in
  Pset.iter cl.landable (fun q ->
      if not (Pset.mem phi q) then bad.(Uf.find cl.uf (Model.run_index_of_point model q)) <- true);
  (* the result is constant along each run (Lemma 3.4(g)) *)
  let out = Pset.create (Model.npoints model) in
  for r = 0 to nruns - 1 do
    if (not (Pset.mem cl.participates r)) || not bad.(Uf.find cl.uf r) then
      Pset.add_range out (r * len) ((r + 1) * len)
  done;
  out

let cbox_naive model s phi =
  let x = ref (Pset.full (Model.npoints model)) in
  let continue = ref true in
  while !continue do
    Metrics.incr m_naive_iters;
    let next = ebox model s (Pset.inter phi !x) in
    if Pset.equal next !x then continue := false else x := next
  done;
  !x

let reachable_runs cl ~run =
  let nruns = Model.nruns cl.model in
  if not (Pset.mem cl.participates run) then Pset.create nruns
  else
    let root = Uf.find cl.uf run in
    Pset.init nruns (fun r -> Pset.mem cl.participates r && Uf.find cl.uf r = root)
