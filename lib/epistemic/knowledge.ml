module Model = Eba_fip.Model
module View = Eba_fip.View
module Metrics = Eba_util.Metrics
module Parallel = Eba_util.Parallel

let s_kernel = Metrics.span "knowledge.known_per_view"
let m_views = Metrics.counter "knowledge.views_scanned"
let m_probes = Metrics.counter "knowledge.cell_points_probed"

(* [knows model ~proc phi] is [K_proc φ], the kernel behind [K], [B] and
   [E] (timed as the [knowledge.known_per_view] span).  It scans only the
   views [proc] owns: for each, whether φ holds at every point of its
   cell.  The cells of [proc]'s views partition the points, so the result
   is the union of the cells of the known views, scattered straight out of
   the model's CSR arrays with no view lookup per point.  The model is
   immutable after [Model.build] and each scan iteration writes only its
   own byte, so the scan parallelizes over domains.  [m_probes] counts
   whole cells even when a scan exits early (and both counters are batched
   per chunk rather than bumped per view), keeping the totals functions of
   the model alone — identical across job counts and short-circuit luck. *)
let knows model ~proc phi =
  Metrics.time s_kernel @@ fun () ->
  let store = model.Model.store in
  let nv = View.size store in
  let off = model.Model.cell_off and ids = model.Model.cell_ids in
  let known = Bytes.make nv '\000' in
  Parallel.parallel_ranges nv (fun lo hi ->
      let views = ref 0 and probes = ref 0 in
      for v = lo to hi - 1 do
        if View.owner store v = proc then begin
          let e = off.(v + 1) in
          incr views;
          probes := !probes + (e - off.(v));
          let k = ref off.(v) in
          while !k < e && Pset.mem phi ids.(!k) do
            incr k
          done;
          if !k = e then Bytes.set known v '\001'
        end
      done;
      if Metrics.enabled () then begin
        Metrics.add m_views !views;
        Metrics.add m_probes !probes
      end);
  let out = Pset.create (Model.npoints model) in
  for v = 0 to nv - 1 do
    if Bytes.get known v = '\001' then
      for k = off.(v) to off.(v + 1) - 1 do
        Pset.add out ids.(k)
      done
  done;
  out

(* B^S_i φ = K_i(i ∈ S ⇒ φ), and i ∈ S ⇒ φ is the complement of S_i \ φ. *)
let believes model s ~proc phi =
  knows model ~proc (Pset.complement (Pset.diff (Nonrigid.points s ~proc) phi))

(* E_S φ holds where every member believes φ: ∩_i (i ∉ S ∪ B^S_i φ). *)
let everyone_knows model s phi =
  let acc = Pset.full (Model.npoints model) in
  for i = 0 to Model.n model - 1 do
    let si = Nonrigid.points s ~proc:i in
    Pset.inter_ip acc (Pset.union (Pset.complement si) (believes model s ~proc:i phi))
  done;
  acc
