(* The network simulator: event-queue determinism, timing validation, and
   the two load-bearing properties of the subsystem —

   1. Differential equivalence: replaying every exhaustive crash and
      omission pattern (n=3 t=1, loss-free fabric) through the round
      synchronizer produces decisions and per-run message counts identical
      to the lockstep Runner, for all five operational protocols — and
      the two sweep harnesses (Stats, Net_stats) summarize the workload
      with the same spec verdict and decision rounds.

   2. Determinism: a sampled netsim sweep is a pure function of its seed —
      bit-identical across --jobs values and across repeated runs — which
      is what makes the differential suite and the committed benchmark
      numbers meaningful.

   Plus the large-n acceptance workload: n=64 t=8 under nonzero loss with
   retransmission, zero spec violations, everyone nonfaulty decided. *)

module Net = Eba.Net
module EQ = Net.Event_queue
module Runner = Eba.Runner
module Val = Eba.Value
open Helpers

(* --- event queue --- *)

let eq_tests =
  [
    test "pop order is (time, seqno)" (fun () ->
        let q = EQ.create () in
        EQ.push q ~time:2.0 "c";
        EQ.push q ~time:1.0 "a";
        EQ.push q ~time:1.0 "b";
        EQ.push q ~time:0.5 "z";
        let order = List.init 4 (fun _ -> snd (Option.get (EQ.pop q))) in
        Alcotest.(check (list string)) "order" [ "z"; "a"; "b"; "c" ] order;
        check "drained" true (EQ.is_empty q));
    test "push rejects bad times" (fun () ->
        let q = EQ.create () in
        check "neg" true
          (try
             EQ.push q ~time:(-1.0) ();
             false
           with Invalid_argument _ -> true);
        check "nan" true
          (try
             EQ.push q ~time:Float.nan ();
             false
           with Invalid_argument _ -> true));
    qtest ~count:200 "qcheck: pop is a stable sort by time"
      QCheck2.Gen.(list_size (int_bound 40) (int_bound 5))
      (fun times ->
        let q = EQ.create () in
        List.iteri (fun i t -> EQ.push q ~time:(float_of_int t) (t, i)) times;
        let rec drain acc =
          match EQ.pop q with None -> List.rev acc | Some (_, x) -> drain (x :: acc)
        in
        let popped = drain [] in
        let expected =
          List.stable_sort
            (fun (t1, i1) (t2, i2) -> if t1 <> t2 then compare t1 t2 else compare i1 i2)
            (List.mapi (fun i t -> (t, i)) times)
        in
        popped = expected);
  ]

(* --- links and timing --- *)

let link_tests =
  [
    test "latency spec round-trips" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check string)
              s s
              (Net.Link.latency_to_string (Net.Link.latency_of_string s)))
          [ "const:1"; "uniform:0.5,2"; "spike:1,0.01,50" ]);
    test "malformed latency specs raise" (fun () ->
        List.iter
          (fun s ->
            check s true
              (try
                 ignore (Net.Link.latency_of_string s);
                 false
               with Invalid_argument _ -> true))
          [ "1.0"; "const:"; "uniform:2,1"; "spike:1,2,3"; "gauss:1,2" ]);
    test "sync rejects a window smaller than the latency bound" (fun () ->
        let top =
          Net.Topology.make ~n:3
            ~link:(Net.Link.make ~latency:(Net.Link.Const 10.0) ~loss:0.0)
        in
        let sync = Net.Sync.make ~round_duration:5.0 ~rto:1.0 ~max_retries:2 in
        check "check raises" true
          (try
             Net.Sync.check sync top;
             false
           with Invalid_argument _ -> true);
        (* and the default timing always fits *)
        Net.Sync.check (Net.Sync.default_for top) top);
    test "topology override changes one directed link only" (fun () ->
        let slow = Net.Link.make ~latency:(Net.Link.Const 9.0) ~loss:0.5 in
        let top =
          Net.Topology.with_link (Net.Netsim.lossless_topology ~n:4) ~src:1 ~dst:2 slow
        in
        check "override" true (Net.Topology.link top ~src:1 ~dst:2 = slow);
        check "reverse untouched" true
          (Net.Link.latency_bound (Net.Topology.link top ~src:2 ~dst:1).Net.Link.lat
          = 1.0);
        check "bound grows" true (Net.Topology.latency_bound top = 9.0));
  ]

(* --- differential equivalence against the lockstep runner --- *)

let operational_protocols : (string * (module Eba.Protocol_intf.PROTOCOL)) list =
  [
    ("P0", (module Eba.P0.P0));
    ("P0opt", (module Eba.P0opt));
    ("P0opt+", (module Eba.P0opt_plus));
    ("FloodSet", (module Eba.Floodset));
    ("Chain0", (module Eba.Chain0));
  ]

let replay_disagreements (module P : Eba.Protocol_intf.PROTOCOL) params =
  let module R = Runner.Make (P) in
  let module S = Net.Netsim.Make (P) in
  let bad = ref [] in
  let net_st = Net.Net_stats.fresh_state () in
  Seq.iter
    (fun (config, pattern) ->
      let lock = R.run params config pattern in
      let net = S.replay params pattern config in
      Net.Net_stats.consume net_st net;
      let show = function
        | None -> "undecided"
        | Some { Runner.at; value } -> Format.asprintf "%a@%d" Val.pp value at
      in
      for i = 0 to params.Eba.Params.n - 1 do
        let same =
          match (lock.Runner.decisions.(i), net.Net.Net_stats.o_decisions.(i)) with
          | None, None -> true
          | Some a, Some b -> a.Runner.at = b.Runner.at && Val.equal a.Runner.value b.Runner.value
          | None, Some _ | Some _, None -> false
        in
        if not same then
          bad :=
            Format.asprintf "%a / %a proc %d: runner %s vs netsim %s" Eba.Config.pp
              config Eba.Pattern.pp pattern i
              (show lock.Runner.decisions.(i))
              (show net.Net.Net_stats.o_decisions.(i))
            :: !bad
      done;
      if
        lock.Runner.messages_attempted <> net.Net.Net_stats.o_attempted
        || lock.Runner.messages_delivered <> net.Net.Net_stats.o_delivered
      then
        bad :=
          Format.asprintf "%a / %a: runner msgs %d/%d vs netsim %d/%d" Eba.Config.pp
            config Eba.Pattern.pp pattern lock.Runner.messages_delivered
            lock.Runner.messages_attempted net.Net.Net_stats.o_delivered
            net.Net.Net_stats.o_attempted
          :: !bad)
    (Eba.Universe.workload_seq params);
  (* the same workload through both sweep harnesses: the lockstep traces
     through [Stats], the replays through [Net_stats] *)
  let lock =
    Eba.Stats.over_seq ~jobs:1 (module P) params (Eba.Universe.workload_seq params)
  in
  let net =
    Net.Net_stats.summary_of_state ~protocol:P.name ~params:"-" ~seed:0 ~plan:"replay"
      ~topology:"-" ~sync:"-" net_st
  in
  let field name a b =
    if a <> b then
      bad := Printf.sprintf "harness %s: Stats %s vs Net_stats %s" name a b :: !bad
  in
  let int name a b = field name (string_of_int a) (string_of_int b) in
  int "runs" lock.Eba.Stats.runs net.Net.Net_stats.ns_runs;
  int "agreement violations" lock.Eba.Stats.agreement_violations
    net.Net.Net_stats.ns_agreement_violations;
  int "validity violations" lock.Eba.Stats.validity_violations
    net.Net.Net_stats.ns_validity_violations;
  int "undecided" lock.Eba.Stats.undecided_nonfaulty
    net.Net.Net_stats.ns_undecided_nonfaulty;
  int "max decision round" lock.Eba.Stats.max_time net.Net.Net_stats.ns_max_decision_round;
  field "mean decision round" (Printf.sprintf "%h" lock.Eba.Stats.mean_time)
    (Printf.sprintf "%h" net.Net.Net_stats.ns_mean_decision_round);
  !bad

let replay_agrees name p params () =
  match replay_disagreements p params with
  | [] -> ()
  | first :: _ as all ->
      Alcotest.failf "%s: %d replay entries disagree with Runner; first: %s" name
        (List.length all) first

let differential_tests =
  List.concat_map
    (fun (name, p) ->
      [
        test
          (Printf.sprintf "%s netsim replay = Runner, exhaustive crash n=3 t=1" name)
          (replay_agrees name p crash_3_1_3.params);
        test
          (Printf.sprintf "%s netsim replay = Runner, exhaustive omission n=3 t=1"
             name)
          (replay_agrees name p omission_3_1_3.params);
      ])
    operational_protocols

(* --- determinism of sampled sweeps --- *)

let sweep_of ~jobs ~seed ~runs ~loss ~n ~t =
  let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode:Eba.Params.Crash in
  let topology =
    Net.Topology.make ~n
      ~link:(Net.Link.make ~latency:(Net.Link.Uniform (0.2, 1.0)) ~loss)
  in
  let sync = Net.Sync.default_for topology in
  Net.Netsim.sweep ~jobs
    (module Eba.Floodset)
    params ~sync ~topology
    ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
    ~seed ~runs

let determinism_tests =
  [
    qtest ~count:8 "qcheck: sweep summary is bit-identical for jobs=1 and jobs=4"
      QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 5))
      (fun (seed, t) ->
        let s1 = sweep_of ~jobs:1 ~seed ~runs:12 ~loss:0.1 ~n:8 ~t in
        let s4 = sweep_of ~jobs:4 ~seed ~runs:12 ~loss:0.1 ~n:8 ~t in
        compare s1 s4 = 0);
    qtest ~count:8 "qcheck: sweep summary is bit-identical across repeated runs"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        let s1 = sweep_of ~jobs:2 ~seed ~runs:10 ~loss:0.05 ~n:6 ~t:2 in
        let s2 = sweep_of ~jobs:2 ~seed ~runs:10 ~loss:0.05 ~n:6 ~t:2 in
        compare s1 s2 = 0);
    test "different seeds give different traffic" (fun () ->
        let s1 = sweep_of ~jobs:1 ~seed:1 ~runs:10 ~loss:0.1 ~n:8 ~t:3 in
        let s2 = sweep_of ~jobs:1 ~seed:2 ~runs:10 ~loss:0.1 ~n:8 ~t:3 in
        check "distinct" true (compare s1 s2 <> 0));
  ]

(* --- the printed copy-latency mean --- *)

(* the (mean, max) seconds of [Net_stats.pp]'s copy-latency line *)
let printed_copy_latency s =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"  copy latency:" l)
      (String.split_on_char '\n' (Format.asprintf "%a" Net.Net_stats.pp s))
  in
  Scanf.sscanf line "  copy latency: mean %g s, max %g s" (fun mean max ->
      (mean, max))

let p0opt_sweep ~latency =
  let params = Eba.Params.make ~n:16 ~t:5 ~horizon:6 ~mode:Eba.Params.Crash in
  let topology =
    Net.Topology.make ~n:16 ~link:(Net.Link.make ~latency ~loss:0.05)
  in
  Net.Netsim.sweep ~jobs:1
    (Eba.P0opt.for_params params)
    params
    ~sync:(Net.Sync.default_for topology)
    ~topology
    ~dynamic:(Net.Inject.dynamic ~max_faulty:5 ())
    ~seed:7 ~runs:20

let latency_print_tests =
  [
    test "lossy const:1 sweep prints a mean copy latency of exactly 1 s"
      (fun () ->
        (* lost acks count in the drop counters too; the mean divides by
           the in-flight data copies only *)
        let s = p0opt_sweep ~latency:(Net.Link.Const 1.0) in
        check "acks were lost" true
          (s.Net.Net_stats.ns_wire.Net.Net_stats.w_dropped_loss > 0);
        let mean, max = printed_copy_latency s in
        check "mean = link latency" true (mean = 1.0);
        check "max = link latency" true (max = 1.0));
    test "printed mean copy latency never exceeds the max" (fun () ->
        List.iter
          (fun latency ->
            let mean, max = printed_copy_latency (p0opt_sweep ~latency) in
            check "mean <= max" true (mean <= max))
          [
            Net.Link.Const 1.0;
            Net.Link.Uniform (0.2, 1.0);
            Net.Link.Spike { base = 0.2; prob = 0.1; spike = 1.0 };
          ]);
  ]

(* --- dynamic adversaries and the large-n acceptance workload --- *)

let acceptance_tests =
  [
    test "dynamic crash compile: crash times exactly on the chosen faulty" (fun () ->
        let params = Eba.Params.make ~n:16 ~t:5 ~horizon:6 ~mode:Eba.Params.Crash in
        let rng = Net.Netsim.run_seed ~seed:42 ~run:0 in
        let inj =
          Net.Inject.compile rng params ~total_time:100.0
            (Net.Inject.Dynamic (Net.Inject.dynamic ~max_faulty:5 ()))
        in
        let faulty = Net.Inject.faulty inj in
        Array.iteri
          (fun p f ->
            check "crash time iff faulty" true
              (Option.is_some (Net.Inject.crash_time inj ~proc:p) = f))
          faulty);
    slow "n=64 t=8, loss 5%, retransmission: zero violations, all decide" (fun () ->
        let n = 64 and t = 8 in
        let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode:Eba.Params.Crash in
        let topology =
          Net.Topology.make ~n
            ~link:(Net.Link.make ~latency:(Net.Link.Uniform (0.2, 1.0)) ~loss:0.05)
        in
        let sync = Net.Sync.default_for topology in
        let s =
          Net.Netsim.sweep ~jobs:1
            (module Eba.Floodset)
            params ~sync ~topology
            ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
            ~seed:2026 ~runs:3
        in
        check_int "agreement violations" 0 s.Net.Net_stats.ns_agreement_violations;
        check_int "validity violations" 0 s.Net.Net_stats.ns_validity_violations;
        check_int "undecided nonfaulty" 0 s.Net.Net_stats.ns_undecided_nonfaulty;
        check "everyone nonfaulty decided" true
          (s.Net.Net_stats.ns_decided_nonfaulty > 0);
        check "loss actually happened" true
          (s.Net.Net_stats.ns_wire.Net.Net_stats.w_dropped_loss > 0);
        check "retransmission actually masked it" true
          (s.Net.Net_stats.ns_wire.Net.Net_stats.w_retransmissions > 0));
    test "transient partitions sever copies but retransmission masks them" (fun () ->
        let n = 8 in
        let params = Eba.Params.make ~n ~t:2 ~horizon:3 ~mode:Eba.Params.Omission in
        let topology =
          Net.Topology.make ~n
            ~link:(Net.Link.make ~latency:(Net.Link.Const 1.0) ~loss:0.0)
        in
        let sync = Net.Sync.default_for topology in
        let s =
          Net.Netsim.sweep ~jobs:1
            (module Eba.Floodset)
            params ~sync ~topology
            ~dynamic:
              (Net.Inject.dynamic ~max_faulty:2 ~omit_prob:0.3 ~partitions:2
                 ~partition_span:(2.0 *. sync.Net.Sync.rto) ())
            ~seed:7 ~runs:20
        in
        check "partition cut some copies" true
          (s.Net.Net_stats.ns_wire.Net.Net_stats.w_dropped_cut > 0);
        check_int "agreement violations" 0 s.Net.Net_stats.ns_agreement_violations;
        check_int "undecided nonfaulty" 0 s.Net.Net_stats.ns_undecided_nonfaulty);
  ]

(* --- cooperative cancellation and progress --- *)

let sweep_cancellable ?cancel ?progress ~jobs ~runs () =
  let n = 4 and t = 1 in
  let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode:Eba.Params.Crash in
  let topology =
    Net.Topology.make ~n
      ~link:(Net.Link.make ~latency:(Net.Link.Const 1.0) ~loss:0.0)
  in
  let sync = Net.Sync.default_for topology in
  Net.Netsim.sweep ~jobs ?cancel ?progress
    (module Eba.Floodset)
    params ~sync ~topology
    ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
    ~seed:11 ~runs

let cancel_tests =
  [
    test "a pre-fired token cancels the sweep before any run" (fun () ->
        List.iter
          (fun jobs ->
            let cancel = Eba.Cancel.create () in
            Eba.Cancel.cancel cancel;
            match sweep_cancellable ~cancel ~jobs ~runs:50 () with
            | _ -> Alcotest.fail "cancelled sweep returned a summary"
            | exception Eba.Cancel.Cancelled -> ())
          [ 1; 4 ]);
    test "a token fired from mid-sweep progress stops within the sweep"
      (fun () ->
        (* fire the token the moment the third run completes: the sweep
           must raise instead of running all 10_000 remaining runs, which
           is exactly the per-run poll the daemon's cancel verb relies on *)
        let cancel = Eba.Cancel.create () in
        let seen = ref 0 in
        let progress ~done_ ~total:_ =
          seen := max !seen done_;
          if done_ >= 3 then Eba.Cancel.cancel cancel
        in
        (match sweep_cancellable ~cancel ~progress ~jobs:1 ~runs:10_000 () with
        | _ -> Alcotest.fail "cancelled sweep returned a summary"
        | exception Eba.Cancel.Cancelled -> ());
        check "stopped promptly" true (!seen < 100));
    test "progress reports every run exactly once, jobs 1 and 4" (fun () ->
        let runs = 40 in
        let plain = sweep_cancellable ~jobs:1 ~runs () in
        List.iter
          (fun jobs ->
            let ticks = ref 0 and peak = ref 0 and totals_ok = ref true in
            let lock = Mutex.create () in
            let progress ~done_ ~total =
              Mutex.lock lock;
              incr ticks;
              peak := max !peak done_;
              if total <> runs then totals_ok := false;
              Mutex.unlock lock
            in
            let s = sweep_cancellable ~progress ~jobs ~runs () in
            check "total is always the run count" true !totals_ok;
            check_int "cumulative done reaches runs" runs !peak;
            check_int "one tick per run" runs !ticks;
            check "observing progress changes nothing" true (compare s plain = 0))
          [ 1; 4 ]);
    test "a cancelled sweep with progress never reports beyond the stop"
      (fun () ->
        let cancel = Eba.Cancel.create () in
        Eba.Cancel.cancel cancel;
        let called = ref false in
        let progress ~done_:_ ~total:_ = called := true in
        (match
           sweep_cancellable ~cancel ~progress ~jobs:1 ~runs:50 ()
         with
        | _ -> Alcotest.fail "cancelled sweep returned a summary"
        | exception Eba.Cancel.Cancelled -> ());
        check "no progress after a pre-fired token" false !called);
  ]

let tests =
  eq_tests @ link_tests @ differential_tests @ determinism_tests
  @ latency_print_tests @ acceptance_tests @ cancel_tests

let suite = ("netsim", tests)
