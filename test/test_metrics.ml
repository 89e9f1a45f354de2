(* The observability layer: unit semantics of counters/gauges/spans, plus
   the two metamorphic guarantees the engine instrumentation must keep:

   - enabling metrics never changes a computed result (sweeps, knowledge
     sets, experiment verdicts are bit-identical with metrics on or off);
   - deterministic counters are independent of the parallel job count
     (jobs=1 and jobs=4 runs agree counter for counter), while timings and
     scheduling counters are allowed to differ. *)

module Metrics = Eba.Metrics
open Helpers

let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled was;
      Metrics.reset ())
    f

(* Fresh handles per test would collide on names — reuse static ones. *)
let c_test = Metrics.counter "test.counter"
let c_sched = Metrics.counter ~deterministic:false "test.scheduling"
let g_test = Metrics.gauge "test.gauge"
let s_test = Metrics.span "test.span"

let find name =
  List.find_opt (fun e -> e.Metrics.e_name = name) (Metrics.snapshot ())

let unit_tests =
  [
    test "counters accumulate and reset" (fun () ->
        with_metrics (fun () ->
            Metrics.add c_test 5;
            Metrics.incr c_test;
            check_int "sum" 6 (Option.get (find "test.counter")).Metrics.e_count;
            Metrics.reset ();
            check "zeroed entries drop from the snapshot" true
              (find "test.counter" = None)));
    test "disabled recording is a no-op" (fun () ->
        Metrics.reset ();
        check "disabled" false (Metrics.enabled ());
        Metrics.add c_test 42;
        Metrics.record g_test 42;
        check_int "span thunk still runs" 7 (Metrics.time s_test (fun () -> 7));
        check "nothing recorded" true (Metrics.snapshot () = []));
    test "gauges keep the high-water mark" (fun () ->
        with_metrics (fun () ->
            Metrics.record g_test 3;
            Metrics.record g_test 9;
            Metrics.record g_test 5;
            check_int "max" 9 (Option.get (find "test.gauge")).Metrics.e_count));
    test "spans count calls, accumulate time, survive exceptions" (fun () ->
        with_metrics (fun () ->
            check_int "result" 3 (Metrics.time s_test (fun () -> 3));
            (try Metrics.time s_test (fun () -> failwith "boom") with Failure _ -> ());
            let e = Option.get (find "test.span") in
            check_int "calls" 2 e.Metrics.e_count;
            check "kind" true (e.Metrics.e_kind = Metrics.Span);
            check "elapsed >= 0" true (e.Metrics.e_seconds >= 0.)));
    test "registration is idempotent; first kind wins" (fun () ->
        with_metrics (fun () ->
            let again = Metrics.counter "test.counter" in
            Metrics.incr again;
            Metrics.incr c_test;
            check_int "same instrument" 2
              (Option.get (find "test.counter")).Metrics.e_count));
    test "deterministic_counters excludes scheduling counters and spans" (fun () ->
        with_metrics (fun () ->
            Metrics.incr c_test;
            Metrics.incr c_sched;
            ignore (Metrics.time s_test (fun () -> ()));
            let det = List.map fst (Metrics.deterministic_counters ()) in
            check "counter in" true (List.mem "test.counter" det);
            check "scheduling out" false (List.mem "test.scheduling" det);
            check "span out" false (List.mem "test.span" det)));
    test "snapshot is name-sorted (stable pretty/json layout)" (fun () ->
        with_metrics (fun () ->
            Metrics.incr c_test;
            Metrics.record g_test 1;
            ignore
              (Eba.Model.build
                 (Eba.Params.make ~n:3 ~t:1 ~horizon:2 ~mode:Eba.Params.Crash));
            let names = List.map (fun e -> e.Metrics.e_name) (Metrics.snapshot ()) in
            check "sorted" true (names = List.sort String.compare names)));
  ]

(* --- metamorphic: metrics on/off cannot change results --- *)

let sweep_params ~n ~horizon ~mode = Eba.Params.make ~n ~t:1 ~horizon ~mode

let metamorphic_tests =
  [
    qtest ~count:20 "sampled sweep summary is bit-identical with metrics on vs off"
      QCheck2.Gen.(
        triple (int_range 3 4) (int_range 2 3) (int_range 0 1000))
      (fun (n, horizon, seed) ->
        let params = sweep_params ~n ~horizon ~mode:Eba.Params.Crash in
        let sweep () =
          Eba.Stats.sampled (module Eba.P0opt) params ~seed ~samples:25
        in
        let off = sweep () in
        let on = with_metrics (fun () -> sweep ()) in
        off = on);
    test "exhaustive sweep and knowledge sets identical with metrics on vs off"
      (fun () ->
        let params = omission_3_1_2.params in
        let off = Eba.Stats.exhaustive (module Eba.Chain0) params in
        let on = with_metrics (fun () -> Eba.Stats.exhaustive (module Eba.Chain0) params) in
        check "summary" true (off = on);
        let m = model crash_3_1_3 in
        let nf = Eba.Nonrigid.nonfaulty m in
        let e0 =
          Eba.Formula.eval (env crash_3_1_3) (Eba.Formula.exists_value m Eba.Value.zero)
        in
        let k_off = Eba.Knowledge.everyone_knows m nf e0 in
        let k_on = with_metrics (fun () -> Eba.Knowledge.everyone_knows m nf e0) in
        check "E_N set" true (Eba.Pset.equal k_off k_on));
    test "experiment verdict identical with metrics on vs off" (fun () ->
        let run () = Eba_harness.Experiments.run "E5" in
        let off = run () in
        let on = with_metrics (fun () -> run ()) in
        check "outcome" true (off = on));
  ]

(* --- metamorphic: deterministic counters are job-count independent --- *)

let det_counters_of f =
  with_metrics (fun () ->
      ignore (f ());
      Metrics.deterministic_counters ())

let jobs_tests =
  [
    qtest ~count:8 "sweep counters identical for jobs=1 vs jobs=2..4"
      QCheck2.Gen.(int_range 2 4)
      (fun jobs ->
        let params = omission_3_1_2.params in
        let sweep jobs () = Eba.Stats.exhaustive ~jobs (module Eba.P0opt_plus) params in
        det_counters_of (sweep 1) = det_counters_of (sweep jobs));
    test "knowledge-kernel counters identical for jobs=1 vs jobs=4" (fun () ->
        let m = model crash_3_1_3 in
        let nf = Eba.Nonrigid.nonfaulty m in
        let e0 =
          Eba.Formula.eval (env crash_3_1_3) (Eba.Formula.exists_value m Eba.Value.zero)
        in
        let kernel jobs () =
          Eba.Parallel.with_jobs jobs (fun () -> Eba.Knowledge.everyone_knows m nf e0)
        in
        let c1 = det_counters_of (kernel 1) and c4 = det_counters_of (kernel 4) in
        check "counters" true (c1 = c4);
        check "nonempty" true (c1 <> []));
    test "scheduling counters do differ across job counts (sanity)" (fun () ->
        (* if this starts passing with equal snapshots, the scheduling
           counters stopped observing anything *)
        let params = omission_3_1_2.params in
        let all_counters jobs =
          with_metrics (fun () ->
              ignore (Eba.Stats.exhaustive ~jobs (module Eba.P0opt) params);
              List.filter_map
                (fun e ->
                  if not e.Metrics.e_deterministic && e.Metrics.e_kind <> Metrics.Span
                  then Some (e.Metrics.e_name, e.Metrics.e_count)
                  else None)
                (Metrics.snapshot ()))
        in
        check "jobs=1 vs jobs=3 scheduling footprint differs" true
          (all_counters 1 <> all_counters 3));
  ]

(* --- the instrument names the benchmark's traced run reads --- *)

(* One served knowledge-query spec computation, as the registry's thunk
   runs it: the zoo pair, decisions, spec check and Thm 5.3 check. *)
let spec_query ?(protocol = "f-lambda-2") model () =
  let env = Eba.Formula.env model in
  let pair = List.assoc protocol Eba.Zoo.named env in
  let d = Eba.Kb_protocol.decide model pair in
  (Eba.Spec.check d, Eba.Characterize.is_optimal env d)

let kernel_spans = [ "knowledge.known_per_view"; "continual.closure"; "continual.cbox" ]

let kernel_counters =
  [
    "knowledge.views_scanned";
    "knowledge.cell_points_probed";
    "continual.uf_unions";
    "pset.words_init";
    "formula.evals";
    "formula.memo_hits";
  ]

let name_tests =
  [
    test "one spec query records the kernel spans and counters by name" (fun () ->
        let m = model crash_3_1_3 in
        with_metrics (fun () ->
            ignore (spec_query m ());
            List.iter
              (fun name ->
                match find name with
                | Some e ->
                    check (name ^ " is a span") true (e.Metrics.e_kind = Metrics.Span);
                    check (name ^ " was entered") true (e.Metrics.e_count > 0)
                | None -> Alcotest.failf "span %s missing" name)
              kernel_spans;
            let det = Metrics.deterministic_counters () in
            List.iter
              (fun name ->
                match List.assoc_opt name det with
                | Some c -> check (name ^ " counted") true (c > 0)
                | None -> Alcotest.failf "deterministic counter %s missing" name)
              kernel_counters));
    test "spec query counters identical for jobs=1 vs jobs=4" (fun () ->
        let m = model crash_3_1_3 in
        let query jobs () = Eba.Parallel.with_jobs jobs (spec_query ~protocol:"f-star" m) in
        check "counters" true (det_counters_of (query 1) = det_counters_of (query 4)));
  ]

let json_tests =
  [
    test "json printer escapes and shapes values" (fun () ->
        let j =
          Eba.Json.Obj
            [
              ("s", Eba.Json.String "a\"b\\c\nd");
              ("i", Eba.Json.Int 42);
              ("f", Eba.Json.Float 1.5);
              ("whole", Eba.Json.Float 3.0);
              ("nan", Eba.Json.Float Float.nan);
              ("l", Eba.Json.List [ Eba.Json.Bool true; Eba.Json.Null ]);
              ("empty", Eba.Json.Obj []);
            ]
        in
        let s = Eba.Json.to_string j in
        let contains sub =
          let n = String.length s and m = String.length sub in
          let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
          loop 0
        in
        check "escaped quote" true (contains {|a\"b\\c\nd|});
        check "int" true (contains "42");
        check "whole float keeps .0" true (contains "3.0");
        check "nan becomes null" true (contains "\"nan\": null");
        check "list" true (contains "true");
        check "empty obj" true (contains "{}"));
    test "metrics json snapshot is an object keyed by instrument" (fun () ->
        with_metrics (fun () ->
            Metrics.incr c_test;
            match Metrics.to_json (Metrics.snapshot ()) with
            | Eba.Json.Obj fields ->
                check "has test.counter" true (List.mem_assoc "test.counter" fields)
            | _ -> Alcotest.fail "expected an object"));
  ]

let suite = ("metrics", unit_tests @ metamorphic_tests @ jobs_tests @ name_tests @ json_tests)
