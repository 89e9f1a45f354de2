(* Differential tests of the epistemic engine against a definition-level
   oracle.  The oracle evaluates a formula point by point, straight from
   the definitions of Section 3: [K_i]/[B^S_i] quantify over the cell of
   the processor's view ([Model.cell_forall]), [E_S] conjoins the members'
   beliefs, [C_S] and [C◇_S] iterate [E_S] down to their greatest fixed
   points, [C□_S] is [Continual.cbox_naive], and the temporal operators
   scan the run.  Random formulas over crash and omission models
   (n=3 t=1 T=2) must evaluate to the same point sets through
   [Formula.eval] — the owner-restricted belief kernel, per-processor
   nonrigid sets and the per-env memo included.  The 0-chains behind
   [∃0*] are checked against path enumeration, and the kernels must give
   identical results at jobs 1 and 4. *)

module F = Eba.Formula
module N = Eba.Nonrigid
module P = Eba.Pset
module M = Eba.Model
module K = Eba.Knowledge
module Ct = Eba.Continual
module B = Eba.Bitset
module Val = Eba.Value
module KB = Eba.Kb_protocol
open Helpers

let crash_3_1_2 = fixture ~n:3 ~t:1 ~horizon:2 ~mode:Params.Crash

let oracle_fixtures =
  [ ("crash n=3 t=1 T=2", crash_3_1_2); ("omission n=3 t=1 T=2", omission_3_1_2) ]

(* --- the oracle: one bool per point --- *)

let of_bools a =
  let s = P.create (Array.length a) in
  Array.iteri (fun i b -> if b then P.add s i) a;
  s

let to_bools m s = Array.init (M.npoints m) (P.mem s)

let believes_at m s i phi p =
  M.cell_forall m (M.view_at m ~point:p ~proc:i) (fun q ->
      (not (N.mem s ~point:q ~proc:i)) || phi.(q))

let everyone_at m s phi p =
  let ok = ref true in
  for i = 0 to M.n m - 1 do
    if N.mem s ~point:p ~proc:i && not (believes_at m s i phi p) then ok := false
  done;
  !ok

let pointwise m f = Array.init (M.npoints m) f

(* The times of the run through the point — from the present on, or all
   of them — and whether [phi] holds at all or at some of them. *)
let along_run m phi ~from_now ~all =
  pointwise m (fun p ->
      let run = M.run_index_of_point m p in
      let lo = if from_now then M.time_of_point m p else 0 in
      let times = List.init (M.horizon m - lo + 1) (fun k -> lo + k) in
      let at time = phi.(M.point m ~run ~time) in
      if all then List.for_all at times else List.exists at times)

let always m phi = along_run m phi ~from_now:true ~all:true
let eventually m phi = along_run m phi ~from_now:true ~all:false
let throughout m phi = along_run m phi ~from_now:false ~all:true

let gfp m step =
  let rec go x =
    let next = step x in
    if next = x then x else go next
  in
  go (Array.make (M.npoints m) true)

let rec oracle m f =
  let np = M.npoints m in
  let sub = oracle m in
  match f with
  | F.Const b -> Array.make np b
  | F.Atom (_, s) -> to_bools m s
  | F.Not g -> Array.map not (sub g)
  | F.And gs ->
      List.fold_left (fun acc g -> Array.map2 ( && ) acc (sub g)) (Array.make np true) gs
  | F.Or gs ->
      List.fold_left (fun acc g -> Array.map2 ( || ) acc (sub g)) (Array.make np false) gs
  | F.Implies (a, b) -> Array.map2 (fun x y -> (not x) || y) (sub a) (sub b)
  | F.Iff (a, b) -> Array.map2 ( = ) (sub a) (sub b)
  | F.In (s, i) -> pointwise m (fun p -> N.mem s ~point:p ~proc:i)
  | F.Empty s ->
      pointwise m (fun p ->
          List.for_all (fun i -> not (N.mem s ~point:p ~proc:i)) (List.init (M.n m) Fun.id))
  | F.K (i, g) ->
      let phi = sub g in
      pointwise m (fun p -> M.cell_forall m (M.view_at m ~point:p ~proc:i) (fun q -> phi.(q)))
  | F.B (s, i, g) ->
      let phi = sub g in
      pointwise m (believes_at m s i phi)
  | F.E (s, g) ->
      let phi = sub g in
      pointwise m (everyone_at m s phi)
  | F.C (s, g) ->
      let phi = sub g in
      gfp m (fun x -> pointwise m (everyone_at m s (Array.map2 ( && ) phi x)))
  | F.Ebox (s, g) -> throughout m (pointwise m (everyone_at m s (sub g)))
  | F.Cbox (s, g) -> to_bools m (Ct.cbox_naive m s (of_bools (sub g)))
  | F.Cdia (s, g) ->
      let phi = sub g in
      gfp m (fun x -> eventually m (pointwise m (everyone_at m s (Array.map2 ( && ) phi x))))
  | F.Always g -> always m (sub g)
  | F.Eventually g -> eventually m (sub g)
  | F.Throughout g -> throughout m (sub g)

(* --- random formulas over a pool of atoms and nonrigid sets --- *)

type pool = { model : M.t; atoms : F.t array; sets : N.t array }

let pool_of fixture =
  let m = model fixture in
  let e = env fixture in
  let pseudo salt =
    F.atom m (Printf.sprintf "rnd%d" salt) (fun p -> ((p * 2654435761) lxor salt) land 7 < 3)
  in
  let nf = N.nonfaulty m in
  let d = KB.decide m (Eba.Zoo.f_lambda_2 e) in
  {
    model = m;
    atoms =
      [|
        F.exists_value m Val.Zero;
        F.exists_value m Val.One;
        pseudo 17;
        pseudo 40961;
        KB.decided_atom e d Val.Zero 1;
        F.Const true;
      |];
    sets =
      [|
        nf;
        N.everyone m;
        N.rigid m ~name:"{0,2}" (B.of_list [ 0; 2 ]);
        N.restrict_by_view m ~name:"N&kz" nf (fun ~proc:_ ~view ->
            Eba.View.knows_zero m.M.store view);
        (* an irregular set: membership by view id parity *)
        N.restrict_by_view m ~name:"All&odd" (N.everyone m) (fun ~proc:_ ~view ->
            view land 1 = 1);
      |];
  }

let pools = lazy (List.map (fun (name, f) -> (name, pool_of f)) oracle_fixtures)

let gen_formula pool =
  let open QCheck2.Gen in
  let atom = map (fun i -> pool.atoms.(i mod Array.length pool.atoms)) small_nat in
  let set = map (fun i -> pool.sets.(i mod Array.length pool.sets)) small_nat in
  let proc = int_bound (M.n pool.model - 1) in
  sized_size (int_bound 6)
  @@ fix (fun self size ->
         if size = 0 then oneof [ atom; map2 (fun s i -> F.In (s, i)) set proc; map (fun s -> F.Empty s) set ]
         else
           let sub = self (size / 2) in
           oneof
             [
               atom;
               map (fun f -> F.Not f) sub;
               map2 (fun a b -> F.And [ a; b ]) sub sub;
               map2 (fun a b -> F.Or [ a; b ]) sub sub;
               map2 (fun a b -> F.Implies (a, b)) sub sub;
               map2 (fun a b -> F.Iff (a, b)) sub sub;
               map2 (fun i f -> F.K (i, f)) proc sub;
               map3 (fun s i f -> F.B (s, i, f)) set proc sub;
               map2 (fun s f -> F.E (s, f)) set sub;
               map2 (fun s f -> F.C (s, f)) set sub;
               map2 (fun s f -> F.Ebox (s, f)) set sub;
               map2 (fun s f -> F.Cbox (s, f)) set sub;
               map2 (fun s f -> F.Cdia (s, f)) set sub;
               map (fun f -> F.Always f) sub;
               map (fun f -> F.Eventually f) sub;
               map (fun f -> F.Throughout f) sub;
             ])

let agrees env m f = P.equal (F.eval env f) (of_bools (oracle m f))

let eval_tests =
  List.concat_map
    (fun (name, fixture) ->
      [
        qtest ~count:150
          (Printf.sprintf "Formula.eval = definition-level oracle [%s]" name)
          (QCheck2.Gen.delay (fun () -> gen_formula (List.assoc name (Lazy.force pools))))
          (fun f -> agrees (F.env (model fixture)) (model fixture) f);
        (* one env for a family of formulas sharing physical subterms, so
           later evaluations are answered from the memo *)
        qtest ~count:60
          (Printf.sprintf "memoized evaluation of shared subformulas = oracle [%s]" name)
          (QCheck2.Gen.delay (fun () ->
               let pool = List.assoc name (Lazy.force pools) in
               QCheck2.Gen.pair (gen_formula pool) (gen_formula pool)))
          (fun (phi, psi) ->
            let m = model fixture in
            let pool = List.assoc name (Lazy.force pools) in
            let e = F.env m in
            let s = pool.sets.(0) in
            let c = F.Cbox (s, phi) in
            (* deep wrappers: the two differ only below any bounded
               structural hash, so the memo must tell them apart by
               identity *)
            let rec deep k f = if k = 0 then f else deep (k - 1) (F.Not (F.Not f)) in
            let family =
              [
                F.B (s, 0, deep 12 phi);
                F.B (s, 0, deep 12 psi);
                c;
                F.And [ c; F.Not c ];
                F.B (s, 0, F.And [ c; psi ]);
                F.B (s, 1, F.And [ psi; F.Not c ]);
                F.Iff (F.In (s, 2), F.B (s, 2, F.Or [ c; psi ]));
                F.E (s, c);
                c;
              ]
            in
            List.for_all (agrees e m) family);
      ])
    oracle_fixtures

(* --- atoms and nonrigid sets against their per-point definitions --- *)

let definition_tests =
  List.concat_map
    (fun (name, fixture) ->
      let label s = Printf.sprintf "%s [%s]" s name in
      [
        test (label "nonrigid constructors match their definitions") (fun () ->
            let m = model fixture in
            let nf = N.nonfaulty m in
            let pred ~proc ~view = (view + proc) mod 3 <> 0 in
            let r = N.restrict_by_view m ~name:"r" nf pred in
            let zero = N.rigid m ~name:"{1}" (B.singleton 1) in
            M.iter_points m (fun p ->
                let run = M.run_index_of_point m p in
                for i = 0 to M.n m - 1 do
                  let in_nf = B.mem i (M.nonfaulty m ~run) in
                  check "N" in_nf (N.mem nf ~point:p ~proc:i);
                  check "N and pred"
                    (in_nf && pred ~proc:i ~view:(M.view_at m ~point:p ~proc:i))
                    (N.mem r ~point:p ~proc:i);
                  check "rigid" (i = 1) (N.mem zero ~point:p ~proc:i);
                  check "points" (N.mem r ~point:p ~proc:i) (P.mem (N.points r ~proc:i) p)
                done;
                check "empty"
                  (List.for_all
                     (fun i -> not (N.mem r ~point:p ~proc:i))
                     (List.init (M.n m) Fun.id))
                  (P.mem (N.empty_points m r) p)));
        test (label "atoms match their per-point definitions") (fun () ->
            let m = model fixture in
            let e = env fixture in
            let pair = Eba.Zoo.f_lambda_2 e in
            let d = KB.decide m pair in
            let set = function F.Atom (_, s) -> s | _ -> Alcotest.fail "not an atom" in
            List.iter
              (fun y ->
                let ev = set (F.exists_value m y) in
                for i = 0 to M.n m - 1 do
                  let dec = set (KB.decided_atom e d y i) in
                  let mem = set (KB.member_atom e pair y i) in
                  let dset = match y with Val.Zero -> pair.KB.zero | Val.One -> pair.KB.one in
                  M.iter_points m (fun p ->
                      let run = M.run_index_of_point m p in
                      let time = M.time_of_point m p in
                      check "exists"
                        (Eba.Config.exists_value (M.run_of_point m p).M.config y)
                        (P.mem ev p);
                      check "decided"
                        (match KB.outcome d ~run ~proc:i with
                        | Some { KB.at; value } -> Val.equal value y && at <= time
                        | None -> false)
                        (P.mem dec p);
                      check "member"
                        (Eba.Decision_set.mem dset (M.view_at m ~point:p ~proc:i))
                        (P.mem mem p))
                done)
              [ Val.Zero; Val.One ]);
      ])
    oracle_fixtures

(* --- 0-chains (Section 6.2) by path enumeration --- *)

(* Is there a 0-chain ending exactly at (run, time): distinct processors
   i_0 .. i_time, i_0 holding 0, each hop at round k delivered and trusted
   (B^N_{i_k}(i_{k-1} ∉ N) fails at (run, k)), i_time nonfaulty. *)
let chain_by_paths e faulty_belief ~run ~time =
  let m = F.model e in
  let n = M.n m in
  let r = M.run_of_point m (M.point m ~run ~time:0) in
  let rec extend path k =
    match path with
    | [] -> assert false
    | last :: _ when k > time -> B.mem last (M.nonfaulty m ~run)
    | last :: _ ->
        List.exists
          (fun j ->
            (not (List.mem j path))
            && Eba.Pattern.delivers r.M.pattern ~round:k ~sender:last ~receiver:j
            && (not (P.mem faulty_belief.(j).(last) (M.point m ~run ~time:k)))
            && extend (j :: path) (k + 1))
          (List.init n Fun.id)
  in
  List.exists
    (fun i -> Val.equal (Eba.Config.value r.M.config i) Val.Zero && extend [ i ] 1)
    (List.init n Fun.id)

let chain_tests =
  List.map
    (fun (name, fixture) ->
      test (Printf.sprintf "0-chains = path enumeration, exists0* = some chain so far [%s]" name)
        (fun () ->
          let m = model fixture and e = env fixture in
          let star =
            match Eba.Facts.exists0_star e with F.Atom (_, s) -> s | _ -> Alcotest.fail "atom"
          in
          let n = M.n m in
          let faulty_belief =
            Array.init n (fun i ->
                Array.init n (fun j -> Eba.Facts.believes_faulty e ~suspect:j i))
          in
          for run = 0 to M.nruns m - 1 do
            let so_far = ref false in
            for time = 0 to M.horizon m do
              let chain = chain_by_paths e faulty_belief ~run ~time in
              (* [chain_at] rebuilds the belief table per call: sample it *)
              if run mod 29 = 0 then
                check "chain_at" chain (Eba.Facts.chain_at e ~run ~time);
              so_far := !so_far || chain;
              check "exists0*" !so_far (P.mem star (M.point m ~run ~time))
            done
          done))
    (("omission n=3 t=1 T=3", omission_3_1_3) :: oracle_fixtures)

(* --- jobs-independence of the kernels --- *)

let jobs_tests =
  List.map
    (fun (name, fixture) ->
      test (Printf.sprintf "kernels identical at jobs 1 and 4 [%s]" name) (fun () ->
          let m = model fixture in
          let e0 = F.eval (env fixture) (F.exists_value m Val.Zero) in
          let run jobs =
            Eba.Parallel.with_jobs jobs (fun () ->
                let e = F.env m in
                let nf = N.nonfaulty m in
                let d = KB.decide m (Eba.Zoo.f_lambda_2 e) in
                let n_and_o = KB.conjoin e nf "N&O" d.KB.pair.KB.one in
                let procs = List.init (M.n m) Fun.id in
                let cl = Ct.closure m n_and_o in
                ( List.map (fun i -> K.knows m ~proc:i e0) procs,
                  List.map (fun i -> K.believes m n_and_o ~proc:i e0) procs,
                  K.everyone_knows m nf e0,
                  (Ct.cbox cl e0, List.init (M.nruns m) (fun run -> Ct.reachable_runs cl ~run)),
                  Eba.Decision_set.of_formulas e (fun i ->
                      F.B (nf, i, F.And [ F.exists_value m Val.One; F.Cbox (n_and_o, F.Const true) ])) ))
          in
          let k1, b1, e1, (c1, r1), d1 = run 1 and k4, b4, e4, (c4, r4), d4 = run 4 in
          check "knows" true (List.for_all2 P.equal k1 k4);
          check "believes" true (List.for_all2 P.equal b1 b4);
          check "everyone_knows" true (P.equal e1 e4);
          check "cbox" true (P.equal c1 c4);
          check "reachable runs" true (List.for_all2 P.equal r1 r4);
          check "of_formulas" true (Eba.Decision_set.equal d1 d4)))
    (("crash n=3 t=1 T=3", crash_3_1_3) :: oracle_fixtures)

let suite = ("oracle", eval_tests @ definition_tests @ chain_tests @ jobs_tests)
