(* The shared-prefix model builder (and its supporting machinery): the
   prefix forest enumerates exactly the canonical pattern universe, the
   shared builder is bit-identical to the naive one — same runs, same view
   ids, same CSR cells — for every flavour, mode and job count, while
   provably doing less interning work, and the hashed run index agrees
   with a linear scan. *)

module V = Eba.View
module M = Eba.Model
module Cfg = Eba.Config
module Pat = Eba.Pattern
module U = Eba.Universe
module Params = Eba.Params
module Val = Eba.Value
module B = Eba.Bitset
module Metrics = Eba.Metrics
module Parallel = Eba.Parallel
open Helpers

(* Bit-identical equivalence, down to view-store metadata: the shared
   builder's contract is that nothing observable distinguishes it from the
   naive builder. *)
let check_models_equal label (a : M.t) (b : M.t) =
  let ck what ok = check (label ^ ": " ^ what) true ok in
  check_int (label ^ ": nruns") (M.nruns a) (M.nruns b);
  check_int (label ^ ": views") (V.size a.M.store) (V.size b.M.store);
  Array.iteri
    (fun idx ra ->
      let rb = b.M.runs.(idx) in
      check_int (label ^ ": run index") ra.M.index rb.M.index;
      ck "run config" (Cfg.equal ra.M.config rb.M.config);
      ck "run pattern" (Pat.equal ra.M.pattern rb.M.pattern);
      ck "run faulty" (B.equal ra.M.faulty rb.M.faulty);
      ck "run views" (ra.M.views = rb.M.views))
    a.M.runs;
  let sa = a.M.store and sb = b.M.store in
  for v = 0 to V.size sa - 1 do
    check_int (label ^ ": owner") (V.owner sa v) (V.owner sb v);
    check_int (label ^ ": time") (V.time sa v) (V.time sb v);
    ck "init" (Val.equal (V.init_value sa v) (V.init_value sb v));
    ck "prev" (V.prev sa v = V.prev sb v);
    ck "heard" (B.equal (V.heard_from sa v) (V.heard_from sb v));
    ck "knows_zero" (V.knows_zero sa v = V.knows_zero sb v);
    for j = 0 to M.n a - 1 do
      ck "received" (V.received sa v j = V.received sb v j)
    done
  done;
  ck "cell_off" (a.M.cell_off = b.M.cell_off);
  ck "cell_ids" (a.M.cell_ids = b.M.cell_ids)

let scenario_gen =
  QCheck2.Gen.(
    let* mode = oneofl [ Params.Crash; Params.Omission; Params.General_omission ] in
    let* flavour = oneofl [ U.Exhaustive; U.Sparse ] in
    let* n = int_range 2 4 in
    let* t = int_range 0 2 in
    let* horizon = int_range 1 3 in
    return (mode, flavour, n, t, horizon))

let scenario_print (mode, flavour, n, t, horizon) =
  Printf.sprintf "mode=%s flavour=%s n=%d t=%d T=%d"
    (match mode with
    | Params.Crash -> "crash"
    | Params.Omission -> "omission"
    | Params.General_omission -> "general")
    (match flavour with U.Exhaustive -> "exhaustive" | U.Sparse -> "sparse")
    n t horizon

let equivalence_tests =
  [
    qtest ~count:30 "shared builder is bit-identical to naive" scenario_gen
      (fun ((mode, flavour, n, t, horizon) as sc) ->
        QCheck2.assume (t < n);
        let params = Params.make ~n ~t ~horizon ~mode in
        QCheck2.assume (U.count ~flavour params * (1 lsl n) <= 6000);
        let naive = M.build ~flavour ~builder:M.Naive params in
        (* jobs=1 takes the sequential trie builder, jobs=4 the
           shard-and-merge one; both must be indistinguishable from naive *)
        let shared =
          Parallel.with_jobs 1 (fun () -> M.build ~flavour ~builder:M.Shared params)
        in
        let sharded =
          Parallel.with_jobs 4 (fun () -> M.build ~flavour ~builder:M.Shared params)
        in
        check_models_equal (scenario_print sc) naive shared;
        check_models_equal (scenario_print sc ^ " [jobs=4]") naive sharded;
        true);
    test "shared build is bit-identical for jobs=1 and jobs=4" (fun () ->
        List.iter
          (fun (label, fx) ->
            let m1 =
              Parallel.with_jobs 1 (fun () -> M.build ~builder:M.Shared fx.params)
            in
            let m4 =
              Parallel.with_jobs 4 (fun () -> M.build ~builder:M.Shared fx.params)
            in
            check_models_equal label m1 m4)
          small_fixtures);
    test "restricted configs produce the same model under both builders" (fun () ->
        let params = crash_3_1_3.params in
        let configs = [ Cfg.of_bits ~n:3 0b000; Cfg.of_bits ~n:3 0b101 ] in
        let naive = M.build ~configs ~builder:M.Naive params in
        let shared = M.build ~configs ~builder:M.Shared params in
        check_models_equal "restricted configs" naive shared);
  ]

let forest_tests =
  [
    test "prefix forest leaves are a bijection onto patterns_seq" (fun () ->
        List.iter
          (fun (label, params, flavour) ->
            let expected = Array.of_list (U.patterns ~flavour params) in
            let count, roots = U.prefix_forest ~flavour params in
            check_int (label ^ ": count") (Array.length expected) count;
            let seen = Array.make count false in
            let rec walk node =
              List.iter
                (fun (idx, pat) ->
                  check (label ^ ": index fresh") false seen.(idx);
                  seen.(idx) <- true;
                  check (label ^ ": pattern at canonical index") true
                    (Pat.equal pat expected.(idx)))
                (node.U.pn_patterns ());
              List.iter walk (node.U.pn_children ())
            in
            List.iter (fun (_set, root) -> walk root) roots;
            check (label ^ ": all indices emitted") true (Array.for_all Fun.id seen))
          [
            ("crash", crash_3_1_3.params, U.Exhaustive);
            ("omission", omission_3_1_2.params, U.Exhaustive);
            ("sparse omission", omission_4_2_2.params, U.Sparse);
          ]);
    test "prefix sharing is strict and accounted exactly" (fun () ->
        let was = Metrics.enabled () in
        Metrics.set_enabled true;
        Metrics.reset ();
        Fun.protect
          ~finally:(fun () ->
            Metrics.set_enabled was;
            Metrics.reset ())
          (fun () ->
            let params = crash_3_1_3.params in
            let (_ : M.t) = M.build ~builder:M.Shared params in
            let det = Metrics.deterministic_counters () in
            let get name = List.assoc name det in
            let tree_nodes = get "model.tree_nodes" in
            let hits = get "model.prefix_hits" in
            let npatterns = U.count params in
            let naive_nodes = npatterns * 3 * 8 * 3 in
            let shared_nodes = tree_nodes * 8 * 3 in
            check "some prefixes were shared" true (hits > 0);
            check_int "shared work + hits = naive work" naive_nodes
              (shared_nodes + hits)));
  ]

let cell_tests =
  [
    test "CSR accessors agree with the materialized cell" (fun () ->
        let m = model crash_3_1_3 in
        let store = m.M.store in
        for v = 0 to V.size store - 1 do
          let cell = M.cell m v in
          check_int "length" (Array.length cell) (M.cell_length m v);
          let got = ref [] in
          M.cell_iter m v (fun q -> got := q :: !got);
          check "iter order" true (Array.of_list (List.rev !got) = cell);
          check "sorted ascending" true
            (Array.for_all2 ( = ) cell (let c = Array.copy cell in Array.sort compare c; c));
          let owner = V.owner store v in
          check "forall matches the cell" true
            (M.cell_forall m v (fun q -> M.view_at m ~point:q ~proc:owner = v));
          check "forall short-circuits falsity" false
            (M.cell_forall m v (fun _ -> false))
        done);
  ]

let find_run_tests =
  [
    test "find_run locates every run by (config, pattern)" (fun () ->
        let m = model omission_3_1_2 in
        Array.iter
          (fun r ->
            match M.find_run m ~config:r.M.config ~pattern:r.M.pattern with
            | Some r' -> check_int "index" r.M.index r'.M.index
            | None -> Alcotest.fail "run not found")
          m.M.runs);
    test "find_run rejects patterns outside the model" (fun () ->
        (* a sparse n=4 universe lacks the two-receiver omission below *)
        let params = omission_4_1_3.params in
        let m = M.build ~flavour:U.Sparse params in
        let omits = [| B.add 1 (B.add 2 B.empty); B.empty; B.empty |] in
        let pattern = Pat.make params [ Pat.omission ~horizon:3 ~proc:0 ~omits ] in
        let config = Cfg.of_bits ~n:4 0b0110 in
        check "absent" true (M.find_run m ~config ~pattern = None);
        (* same config with an in-universe pattern is found *)
        check "present" true
          (M.find_run m ~config ~pattern:(Pat.failure_free params) <> None));
  ]

(* CLI surface: the naive builder is an oracle reachable only through
   [~builder:Naive], and [--only] flags reject unknown ids *)
let cli_tests =
  [
    test "eba model --build naive is a usage error" (fun () ->
        check_int "eba model" 0 (Sys.command "../bin/eba_cli.exe model >/dev/null 2>&1");
        check_int "eba model --build naive" 124
          (Sys.command "../bin/eba_cli.exe model --build naive >/dev/null 2>&1"));
    test "eba tables --only takes a known table id, else a usage error" (fun () ->
        check_int "eba tables --only t2" 0
          (Sys.command "../bin/eba_cli.exe tables --only t2 >/dev/null 2>&1");
        check_int "eba tables --only t9" 124
          (Sys.command "../bin/eba_cli.exe tables --only t9 >/dev/null 2>&1");
        check_int "eba tables --only E2" 124
          (Sys.command "../bin/eba_cli.exe tables --only E2 >/dev/null 2>&1"));
  ]

let suite =
  ( "build",
    List.concat
      [ equivalence_tests; forest_tests; cell_tests; find_run_tests; cli_tests ] )
