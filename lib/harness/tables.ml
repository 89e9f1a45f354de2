module F = Eba.Formula
module M = Eba.Model
module KB = Eba.Kb_protocol
module Spec = Eba.Spec
module Dom = Eba.Dominance
module Con = Eba.Construct
module Ch = Eba.Characterize
module Zoo = Eba.Zoo
module Stats = Eba.Stats
module Val = Eba.Value
module B = Eba.Bitset
module Pat = Eba.Pattern

let time_it f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let operational_protocols : (module Eba.Protocol_intf.PROTOCOL) list =
  [ (module Eba.P0.P0); (module Eba.P0opt); (module Eba.P0opt_plus); (module Eba.Floodset) ]

(* --- T1 --- *)

let t1_crash_decision_times fmt () =
  Format.fprintf fmt "== T1: decision rounds by actual failure count (crash, exhaustive) ==@\n";
  List.iter
    (fun (n, t, horizon) ->
      let params = Eba.Params.make ~n ~t ~horizon ~mode:Eba.Params.Crash in
      Format.fprintf fmt "-- %a --@\n" Eba.Params.pp params;
      Format.fprintf fmt "%-10s" "protocol";
      for f = 0 to t do
        Format.fprintf fmt "  f=%d mean/max " f
      done;
      Format.fprintf fmt "@\n";
      List.iter
        (fun (module P : Eba.Protocol_intf.PROTOCOL) ->
          let s = Stats.exhaustive (module P) params in
          Format.fprintf fmt "%-10s" P.name;
          List.iter
            (fun (b : Stats.by_failures) ->
              Format.fprintf fmt "  %6.2f/%-5d" b.Stats.mean_time b.Stats.max_time)
            s.Stats.by_failures;
          Format.fprintf fmt "@\n")
        operational_protocols)
    [ (3, 1, 3); (4, 1, 3); (4, 2, 4) ]

(* --- T2 --- *)

let t2_no_optimum fmt () =
  Format.fprintf fmt "== T2: Prop 2.1 — why no optimum exists (crash n=3 t=1 T=3) ==@\n";
  let env = F.env (M.build (Eba.Params.make ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Crash)) in
  let m = F.model env in
  let frac_time0 pair target =
    let d = KB.decide m pair in
    let hits = ref 0 and total = ref 0 in
    for run = 0 to M.nruns m - 1 do
      B.iter
        (fun i ->
          incr total;
          match KB.outcome d ~run ~proc:i with
          | Some { KB.at = 0; value } when Val.equal value target -> incr hits
          | Some _ | None -> ())
        (M.nonfaulty m ~run)
    done;
    float_of_int !hits /. float_of_int !total
  in
  Format.fprintf fmt "P0 decides 0 at time 0 for %.0f%% of nonfaulty slots@\n"
    (100. *. frac_time0 (Zoo.p0 env) Val.Zero);
  Format.fprintf fmt "P1 decides 1 at time 0 for %.0f%% of nonfaulty slots@\n"
    (100. *. frac_time0 (Zoo.p1 env) Val.One);
  let d = KB.decide m (Zoo.f_lambda_2 env) in
  Format.fprintf fmt
    "an optimum would have to decide everything at time 0; even the optimal F^L,2 \
     needs %s rounds somewhere@\n"
    (match (Spec.check d).Spec.max_decision_time with
    | Some t -> string_of_int t
    | None -> "?")

(* --- T3 --- *)

let t3_two_step fmt () =
  Format.fprintf fmt "== T3: the two-step construction, per seed (Thm 5.2) ==@\n";
  Format.fprintf fmt "%-22s %-9s %5s %8s %9s@\n" "seed" "mode" "steps" "optimal?" "dominates";
  let row name env pair =
    let d = KB.decide (F.model env) pair in
    let opt, steps = Con.iterate_until_fixpoint env pair in
    let dopt = KB.decide (F.model env) opt in
    let mode =
      Format.asprintf "%a" Eba.Params.pp_mode (F.model env).M.params.Eba.Params.mode
    in
    Format.fprintf fmt "%-22s %-9s %5d %8b %9b@\n" name mode steps
      (Ch.is_optimal env dopt) (Dom.dominates dopt d)
  in
  let c = F.env (M.build (Eba.Params.make ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Crash)) in
  let o = F.env (M.build (Eba.Params.make ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Omission)) in
  row "never-decide" c (KB.never_decide (F.model c));
  row "P0" c (Zoo.p0 c);
  row "P1" c (Zoo.p1 c);
  row "F^L,2 (already opt)" c (Zoo.f_lambda_2 c);
  row "never-decide" o (KB.never_decide (F.model o));
  row "chain FIP(Z0,O0)" o (Zoo.chain_zero o);
  row "F* (already opt)" o (Zoo.f_star o)

(* --- T4 --- *)

let decide_profile fmt env pair =
  let m = F.model env in
  let d = KB.decide m pair in
  let horizon = M.horizon m in
  let counts = Array.make (horizon + 2) 0 in
  let total = ref 0 in
  for run = 0 to M.nruns m - 1 do
    B.iter
      (fun i ->
        incr total;
        match KB.outcome d ~run ~proc:i with
        | Some { KB.at; _ } -> counts.(at) <- counts.(at) + 1
        | None -> counts.(horizon + 1) <- counts.(horizon + 1) + 1)
      (M.nonfaulty m ~run)
  done;
  for t = 0 to horizon do
    Format.fprintf fmt "  by time %d: %5.1f%%@\n" t
      (100.
      *. float_of_int (Array.fold_left ( + ) 0 (Array.sub counts 0 (t + 1)))
      /. float_of_int !total)
  done;
  Format.fprintf fmt "  never:     %5.1f%%@\n"
    (100. *. float_of_int counts.(horizon + 1) /. float_of_int !total)

let t4_crash_vs_omission fmt () =
  Format.fprintf fmt "== T4: F^L,2 decide-by-time profile, crash vs omission (Prop 6.3) ==@\n";
  let c = F.env (M.build (Eba.Params.make ~n:4 ~t:2 ~horizon:4 ~mode:Eba.Params.Crash)) in
  Format.fprintf fmt "crash n=4 t=2 T=4:@\n";
  decide_profile fmt c (Zoo.f_lambda_2 c);
  let o = F.env (M.build (Eba.Params.make ~n:4 ~t:2 ~horizon:2 ~mode:Eba.Params.Omission)) in
  Format.fprintf fmt "omission n=4 t=2 T=2:@\n";
  decide_profile fmt o (Zoo.f_lambda_2 o);
  Format.fprintf fmt "omission n=4 t=2 T=2, F* (the terminating optimal protocol):@\n";
  decide_profile fmt o (Zoo.f_star o);
  Format.fprintf fmt
    "(F*'s 'never' entries are horizon truncation — f=2 runs decide at f+1=3 > T=2; \
     F^L,2's include runs that provably never decide at any horizon, e.g. the \
     Prop 6.3 witness)@\n"

(* --- T5 --- *)

let t5_chain_bound fmt () =
  Format.fprintf fmt "== T5: Chain0 worst decision time vs the f+1 bound ==@\n";
  Format.fprintf fmt "%-26s %4s %10s %8s@\n" "universe" "f" "worst" "bound";
  let report name (s : Stats.summary) =
    List.iter
      (fun (b : Stats.by_failures) ->
        Format.fprintf fmt "%-26s %4d %10d %8d@\n" name b.Stats.failures b.Stats.max_time
          (b.Stats.failures + 1))
      s.Stats.by_failures
  in
  let ex = Eba.Params.make ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Omission in
  report "exhaustive n=3 t=1" (Stats.exhaustive (module Eba.Chain0) ex);
  let ex4 = Eba.Params.make ~n:4 ~t:1 ~horizon:3 ~mode:Eba.Params.Omission in
  report "exhaustive n=4 t=1" (Stats.exhaustive (module Eba.Chain0) ex4);
  let big = Eba.Params.make ~n:12 ~t:4 ~horizon:6 ~mode:Eba.Params.Omission in
  report "sampled n=12 t=4 (3000)" (Stats.sampled (module Eba.Chain0) big ~seed:5 ~samples:3000)

(* --- T6 (extension): SBA at the knowledge level --- *)

let t6_sba_knowledge fmt () =
  Format.fprintf fmt
    "== T6 (extension): SBA at the knowledge level vs the EBA optimum ==@\n";
  List.iter
    (fun (n, t, horizon) ->
      let params = Eba.Params.make ~n ~t ~horizon ~mode:Eba.Params.Crash in
      let env = F.env (M.build params) in
      let m = F.model env in
      Format.fprintf fmt "-- %a --@\n" Eba.Params.pp params;
      let mean_max pair =
        let d = KB.decide m pair in
        let sum = ref 0 and cnt = ref 0 and mx = ref 0 in
        for run = 0 to M.nruns m - 1 do
          B.iter
            (fun i ->
              match KB.outcome d ~run ~proc:i with
              | Some { KB.at; _ } ->
                  sum := !sum + at;
                  incr cnt;
                  if at > !mx then mx := at
              | None -> ())
            (M.nonfaulty m ~run)
        done;
        (float_of_int !sum /. float_of_int (max 1 !cnt), !mx)
      in
      let d_ck = KB.decide m (Zoo.sba_common_knowledge env) in
      let d_ft = KB.decide m (Zoo.sba_fixed_time env) in
      List.iter
        (fun (name, pair) ->
          let mean, mx = mean_max pair in
          let d = KB.decide m pair in
          Format.fprintf fmt "%-22s mean %.2f max %d  SBA:%b@\n" name mean mx
            (Spec.is_sba (Spec.check d)))
        [
          ("fixed-time (t+1)", Zoo.sba_fixed_time env);
          ("common-knowledge SBA", Zoo.sba_common_knowledge env);
          ("EBA optimum F^L,2", Zoo.f_lambda_2 env);
        ];
      Format.fprintf fmt "CK-SBA vs fixed-time: %a@\n" Dom.pp (Dom.compare d_ck d_ft))
    [ (3, 1, 3); (4, 2, 4) ]

(* --- F1 --- *)

let f1_decision_cdf fmt () =
  Format.fprintf fmt "== F1: decision-round CDF, sampled crash workload (n=8 t=3 T=5, 3000 runs) ==@\n";
  let params = Eba.Params.make ~n:8 ~t:3 ~horizon:5 ~mode:Eba.Params.Crash in
  let cdf (module P : Eba.Protocol_intf.PROTOCOL) =
    let module R = Eba.Runner.Make (P) in
    let rng = Random.State.make [| 31 |] in
    let counts = Array.make 7 0 in
    let total = ref 0 in
    for _ = 1 to 3000 do
      let config = Eba.Config.of_bits ~n:8 (Random.State.int rng 256) in
      let pattern = Eba.Universe.random_pattern rng params in
      let trace = R.run params config pattern in
      let nonfaulty = B.diff (B.full 8) (Pat.faulty pattern) in
      B.iter
        (fun i ->
          incr total;
          match trace.Eba.Runner.decisions.(i) with
          | Some { Eba.Runner.at; _ } -> counts.(at) <- counts.(at) + 1
          | None -> counts.(6) <- counts.(6) + 1)
        nonfaulty
    done;
    (counts, !total)
  in
  Format.fprintf fmt "%-10s" "round≤";
  for t = 0 to 5 do
    Format.fprintf fmt "%8d" t
  done;
  Format.fprintf fmt "@\n";
  List.iter
    (fun (module P : Eba.Protocol_intf.PROTOCOL) ->
      let counts, total = cdf (module P) in
      Format.fprintf fmt "%-10s" P.name;
      let acc = ref 0 in
      for t = 0 to 5 do
        acc := !acc + counts.(t);
        Format.fprintf fmt "%7.1f%%" (100. *. float_of_int !acc /. float_of_int total)
      done;
      Format.fprintf fmt "@\n")
    operational_protocols

(* --- F2 --- *)

let f2_sba_gap fmt () =
  Format.fprintf fmt "== F2: EBA vs SBA decision-time gap as the system grows ==@\n";
  Format.fprintf fmt "%-14s %8s %12s %12s %8s@\n" "system" "t+1" "EBA mean" "SBA mean" "speedup";
  List.iter
    (fun (n, t) ->
      let params = Eba.Params.make ~n ~t ~horizon:(t + 2) ~mode:Eba.Params.Crash in
      let eba = Stats.sampled (module Eba.P0opt_plus) params ~seed:17 ~samples:1500 in
      let sba = Stats.sampled (module Eba.Floodset) params ~seed:17 ~samples:1500 in
      Format.fprintf fmt "n=%-3d t=%-6d %8d %12.2f %12.2f %7.1fx@\n" n t (t + 1)
        eba.Stats.mean_time sba.Stats.mean_time
        (sba.Stats.mean_time /. Float.max eba.Stats.mean_time 0.01))
    [ (4, 1); (6, 2); (9, 3); (13, 4); (21, 6) ]

(* --- F3 --- *)

let f3_engine_scaling fmt () =
  Format.fprintf fmt "== F3: engine scaling and the C□ implementation ablation ==@\n";
  Format.fprintf fmt "%-26s %9s %9s %9s %11s %11s@\n" "model" "runs" "points" "views"
    "C□ fast(s)" "C□ naive(s)";
  List.iter
    (fun (n, t, horizon, mode) ->
      let params = Eba.Params.make ~n ~t ~horizon ~mode in
      let m, _build_time = time_it (fun () -> M.build params) in
      let env = F.env m in
      let nf = Eba.Nonrigid.nonfaulty m in
      let e0 = F.eval env (F.exists_value m Val.Zero) in
      let (_, fast), (_, naive) =
        ( time_it (fun () -> Eba.Continual.cbox (Eba.Continual.closure m nf) e0),
          time_it (fun () -> Eba.Continual.cbox_naive m nf e0) )
      in
      Format.fprintf fmt "%-26s %9d %9d %9d %11.3f %11.3f@\n"
        (Format.asprintf "%a" Eba.Params.pp params)
        (M.nruns m) (M.npoints m)
        (Eba.View.size m.M.store)
        fast naive)
    [
      (3, 1, 3, Eba.Params.Crash);
      (4, 1, 3, Eba.Params.Crash);
      (4, 2, 4, Eba.Params.Crash);
      (3, 1, 3, Eba.Params.Omission);
      (4, 1, 3, Eba.Params.Omission);
      (4, 2, 2, Eba.Params.Omission);
    ]

let by_id =
  [
    ("t1", t1_crash_decision_times);
    ("t2", t2_no_optimum);
    ("t3", t3_two_step);
    ("t4", t4_crash_vs_omission);
    ("t5", t5_chain_bound);
    ("t6", t6_sba_knowledge);
    ("f1", f1_decision_cdf);
    ("f2", f2_sba_gap);
    ("f3", f3_engine_scaling);
  ]

let all fmt () =
  List.iteri
    (fun k (_, table) ->
      if k > 0 then Format.fprintf fmt "@\n";
      table fmt ())
    by_id
