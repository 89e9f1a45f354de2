(* The `eba` command-line tool: build models, check and optimize
   protocols, run the reproduction experiments, and print the benchmark
   tables. *)

open Cmdliner

let ( let* ) = Result.bind

(* --- shared arguments --- *)

let n_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of processors.")

let t_arg =
  Arg.(value & opt int 1 & info [ "t" ] ~docv:"T" ~doc:"Resilience bound (max faulty).")

let horizon_arg =
  Arg.(value & opt int 3 & info [ "horizon"; "T" ] ~docv:"H" ~doc:"Time horizon of the bounded model.")

let mode_conv =
  Arg.enum
    [
      ("crash", Eba.Params.Crash);
      ("omission", Eba.Params.Omission);
      ("general-omission", Eba.Params.General_omission);
    ]

let mode_arg =
  Arg.(value & opt mode_conv Eba.Params.Crash & info [ "mode" ] ~docv:"MODE" ~doc:"Failure mode: crash, omission, or general-omission.")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "pretty") (some string) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Enable the engine's observability layer and print a metrics \
           report (counters, gauges, span timings) to stderr on exit.  \
           $(docv) is $(b,pretty) (default) or $(b,json).  The \
           $(b,EBA_METRICS) environment variable ($(b,1)/$(b,pretty) or \
           $(b,json)) enables the same report without a flag.")

(* Like [jobs_term]: evaluated before every command so the flag steers the
   process-wide metrics layer, with a usage error on a bad format. *)
let metrics_term =
  let set = function
    | None -> Ok ()
    | Some fmt -> (
        let mode =
          match String.lowercase_ascii fmt with
          | "pretty" | "1" -> Some Eba.Metrics.Pretty
          | "json" -> Some Eba.Metrics.Json_mode
          | _ -> None
        in
        match mode with
        | None -> Error (`Msg (Printf.sprintf "--metrics: unknown format %S" fmt))
        | Some mode ->
            Eba.Metrics.set_enabled true;
            Eba.Metrics.set_mode mode;
            Ok ())
  in
  Term.(term_result (const set $ metrics_arg))

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for parallel sweeps and knowledge kernels; results \
           are identical for every value.  0 (the default) defers to \
           $(b,EBA_DOMAINS) (where 0 means all hardware domains), which \
           itself defaults to 1.")

(* Evaluated by every command before it runs, so [--jobs] steers the whole
   process-wide engine.  Validates the flag and [EBA_DOMAINS] eagerly so a
   bad value is a usage error up front, not an exception mid-sweep. *)
let jobs_term =
  let set j =
    if j < 0 then Error (`Msg "--jobs must be >= 0")
    else
      match Eba.Parallel.set_jobs j; Eba.Parallel.jobs () with
      | (_ : int) -> Ok ()
      | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Term.(term_result (const set $ jobs_arg))

let params_term =
  let make () () n t horizon mode = Eba.Params.make ~n ~t ~horizon ~mode in
  Term.(
    const make $ jobs_term $ metrics_term $ n_arg $ t_arg $ horizon_arg
    $ mode_arg)

let protocol_names = List.map fst Eba.Zoo.named

let protocol_arg =
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) protocol_names)) "f-lambda-2"
    & info [ "protocol"; "p" ] ~docv:"PROTOCOL"
        ~doc:(Printf.sprintf "One of: %s." (String.concat ", " protocol_names)))

(* --- commands --- *)

let model_cmd =
  let run params =
    let model = Eba.Model.build params in
    Format.printf "%a@." Eba.Model.pp_stats model;
    Format.printf "failure patterns: %d@." (Eba.Universe.count params)
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Build a bounded model and print its size.")
    Term.(const run $ params_term)

let check_cmd =
  let run params name =
    let model = Eba.Model.build params in
    let env = Eba.Formula.env model in
    let pair = List.assoc name Eba.Zoo.named env in
    let d = Eba.Kb_protocol.decide model pair in
    let report = Eba.Spec.check d in
    Format.printf "%s on %a@." name Eba.Params.pp params;
    Format.printf "  %a@." Eba.Spec.pp report;
    Format.printf "  EBA: %b  NTA: %b  optimal (Thm 5.3): %b@."
      (Eba.Spec.is_eba report)
      (Eba.Spec.is_nontrivial_agreement report)
      (Eba.Characterize.is_optimal env d)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a protocol against the EBA specification and the optimality characterization.")
    Term.(const run $ params_term $ protocol_arg)

let optimize_cmd =
  let run params name =
    let model = Eba.Model.build params in
    let env = Eba.Formula.env model in
    let pair = List.assoc name Eba.Zoo.named env in
    let opt, steps = Eba.Construct.iterate_until_fixpoint env pair in
    let d = Eba.Kb_protocol.decide model pair in
    let dopt = Eba.Kb_protocol.decide model opt in
    Format.printf "optimizing %s on %a@." name Eba.Params.pp params;
    Format.printf "  steps to fixpoint: %d@." steps;
    Format.printf "  %a@." Eba.Dominance.pp (Eba.Dominance.compare dopt d);
    Format.printf "  result optimal: %b, spec: %a@."
      (Eba.Characterize.is_optimal env dopt)
      Eba.Spec.pp
      (Eba.Spec.check dopt)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Apply the paper's two-step optimization to a protocol and report the outcome.")
    Term.(const run $ params_term $ protocol_arg)

let experiments_cmd =
  let ids = Eba_harness.Experiments.ids () in
  let id_arg =
    Arg.(
      value
      & opt (some (enum (List.map (fun s -> (s, s)) ids))) None
      & info [ "only" ] ~docv:"ID" ~doc:"Run a single experiment (E1..E12).")
  in
  let run () () only =
    match only with
    | Some id ->
        (match Eba_harness.Experiments.run id with
        | Some o -> Format.printf "%a@." Eba_harness.Experiments.pp o
        | None -> prerr_endline "unknown experiment")
    | None ->
        Format.printf "%a@." Eba_harness.Experiments.pp_summary
          (Eba_harness.Experiments.all ())
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce the paper's propositions (E1..E12) on exhaustive models.")
    Term.(const run $ jobs_term $ metrics_term $ id_arg)

let tables_cmd =
  let module T = Eba_harness.Tables in
  let ids = List.map fst T.by_id in
  let which =
    Arg.(
      value
      & opt (some (enum (List.map (fun s -> (s, s)) ids))) None
      & info [ "only" ] ~docv:"TABLE"
          ~doc:(Printf.sprintf "One of %s; default all." (String.concat ", " ids)))
  in
  let run () () only =
    let fmt = Format.std_formatter in
    (match only with
    | None -> T.all fmt ()
    | Some id -> (List.assoc id T.by_id) fmt ());
    Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Print the benchmark tables and figure series (EXPERIMENTS.md).")
    Term.(const run $ jobs_term $ metrics_term $ which)

let latency_conv =
  let parse s =
    match Eba.Net.Link.latency_of_string s with
    | lat -> Ok lat
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt l -> Format.pp_print_string fmt (Eba.Net.Link.latency_to_string l) )

let netsim_cmd =
  let module Net = Eba.Net in
  (* Flags are only collected here; their interpretation — protocol
     selector tables, derived sync timing and defaults — lives in
     [Eba.Server.Spec], shared verbatim with the daemon so a served
     sweep is byte-identical to this command's JSON. *)
  let module Spec = Eba.Server.Spec in
  let protocol_arg =
    let names = List.map (fun name -> (name, name)) Spec.protocol_names in
    Arg.(
      value
      & opt (enum names) "floodset"
      & info [ "protocol"; "p" ] ~docv:"PROTOCOL"
          ~doc:
            (Printf.sprintf "Operational protocol to simulate: %s."
               (String.concat ", " (List.map fst names))))
  in
  let latency_arg =
    Arg.(
      value
      & opt latency_conv (Net.Link.Const 1.0)
      & info [ "latency" ] ~docv:"SPEC"
          ~doc:
            "Per-link latency model: $(b,const:C), $(b,uniform:LO,HI) or \
             $(b,spike:BASE,PROB,SPIKE) (simulated seconds).")
  in
  let loss_arg =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P"
          ~doc:"Per-copy drop probability of every link (data and acks).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master seed.  The sweep is a pure function of (parameters, \
             seed): rerunning reproduces the summary bit for bit, for any \
             $(b,--jobs).")
  in
  let runs_arg =
    Arg.(
      value & opt int Spec.default.runs
      & info [ "runs" ] ~docv:"RUNS"
          ~doc:"Independent runs, each with a fresh random initial \
                configuration and adversary.")
  in
  let rto_arg =
    Arg.(
      value & opt (some float) None
      & info [ "rto" ] ~docv:"SECS"
          ~doc:"Retransmission timeout (default: derived from the latency \
                bound).")
  in
  let window_arg =
    Arg.(
      value & opt (some float) None
      & info [ "round-duration" ] ~docv:"SECS"
          ~doc:"Round window width (default: 8 RTOs).")
  in
  let retries_arg =
    Arg.(
      value & opt (some int) None
      & info [ "retries" ] ~docv:"K"
          ~doc:"Retransmissions per unacknowledged message (default 7).")
  in
  let omit_prob_arg =
    Arg.(
      value & opt float 0.5
      & info [ "omit-prob" ] ~docv:"P"
          ~doc:"Omission modes: probability a faulty processor's copy is \
                suppressed.")
  in
  let partitions_arg =
    Arg.(
      value & opt int 0
      & info [ "partitions" ] ~docv:"K"
          ~doc:"Transient network partitions per run.")
  in
  let span_arg =
    Arg.(
      value & opt (some float) None
      & info [ "partition-span" ] ~docv:"SECS"
          ~doc:"Duration of each partition (default: 2 RTOs).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the summary as an eba-bench style JSON object.")
  in
  let compact_arg =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Use the bounded-bandwidth variant of the protocol (p0opt, \
             p0opt+ and chain0 only): identical decisions, fewer bytes on \
             the wire.")
  in
  let run params name compact latency loss seed runs rto window retries
      omit_prob partitions span json =
    let spec =
      {
        Spec.default with
        protocol = name;
        compact;
        n = params.Eba.Params.n;
        t_failures = params.Eba.Params.t_failures;
        horizon = params.Eba.Params.horizon;
        mode = params.Eba.Params.mode;
        latency;
        loss;
        seed;
        runs;
        rto;
        round_duration = window;
        retries;
        omit_prob;
        partitions;
        partition_span = span;
      }
    in
    let* resolved =
      match Spec.resolve spec with Ok r -> Ok r | Error m -> Error (`Msg m)
    in
    let summary = Spec.run resolved in
    Format.printf "%a@." Net.Net_stats.pp summary;
    Option.iter
      (fun file -> Eba.Json.to_file file (Net.Net_stats.summary_json summary))
      json;
    Ok ()
  in
  Cmd.v
    (Cmd.info "netsim"
       ~doc:
         "Run an operational protocol over the discrete-event network \
          simulator: seeded sampled workloads with message loss, latency, \
          crash/omission adversaries and transient partitions, executed \
          under the timeout-and-retransmission round synchronizer.")
    Term.(
      term_result
        (const run $ params_term $ protocol_arg $ compact_arg $ latency_arg
        $ loss_arg $ seed_arg $ runs_arg $ rto_arg $ window_arg
        $ retries_arg $ omit_prob_arg $ partitions_arg $ span_arg $ json_arg))

let probcheck_cmd =
  let module Net = Eba.Net in
  let module Prob = Eba.Prob in
  let latency_arg =
    Arg.(
      value
      & opt latency_conv (Net.Link.Const 1.0)
      & info [ "latency" ] ~docv:"SPEC"
          ~doc:
            "Per-link latency model: $(b,const:C), $(b,uniform:LO,HI) or \
             $(b,spike:BASE,PROB,SPIKE) (simulated seconds).")
  in
  let loss_arg =
    Arg.(
      value & opt string "0"
      & info [ "loss" ] ~docv:"P"
          ~doc:
            "Per-copy drop probability, read exactly as a decimal literal: \
             $(b,0.05) means the rational 1/20, not the nearest float.")
  in
  let rounds_arg =
    Arg.(
      value & opt (some int) None
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Protocol rounds in a run (default: t + 1, FloodSet's \
                decision deadline).")
  in
  let rto_arg =
    Arg.(
      value & opt (some float) None
      & info [ "rto" ] ~docv:"SECS"
          ~doc:"Retransmission timeout (default: derived from the latency \
                bound).")
  in
  let window_arg =
    Arg.(
      value & opt (some float) None
      & info [ "round-duration" ] ~docv:"SECS"
          ~doc:"Round window width (default: 8 RTOs).")
  in
  let retries_arg =
    Arg.(
      value & opt (some int) None
      & info [ "retries" ] ~docv:"K"
          ~doc:"Retransmissions per unacknowledged message (default 7).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as an eba-prob/1 JSON object.")
  in
  let run n t rounds latency loss rto window retries json =
    (* Same shared interpretation as the daemon's [probcheck] verb. *)
    let spec =
      {
        Eba.Server.Spec.Probcheck.n;
        t_failures = t;
        rounds;
        latency;
        loss;
        rto;
        round_duration = window;
        retries;
      }
    in
    let* report =
      match Eba.Server.Spec.Probcheck.report spec with
      | Ok r -> Ok r
      | Error msg -> Error (`Msg msg)
    in
    print_string (Prob.Report.to_text report);
    Option.iter
      (fun file -> Eba.Json.to_file file (Prob.Report.to_json report))
      json;
    Ok ()
  in
  Cmd.v
    (Cmd.info "probcheck"
       ~doc:
         "Exact failure probabilities of a lossy sweep, computed instead of \
          sampled: a Markov analysis of the retransmission schedule inside \
          one synchronizer round window yields the per-message residual-miss \
          probability, landing-attempt distribution, and whole-run \
          all-copies-delivered probability as exact rationals (the numbers \
          seeded $(b,eba netsim) sweeps fluctuate around).")
    Term.(
      term_result
        (const run $ n_arg $ t_arg $ rounds_arg $ latency_arg $ loss_arg
        $ rto_arg $ window_arg $ retries_arg $ json_arg))

(* --- the resident agreement service --- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve on a Unix-domain socket at $(docv).  A stale socket file \
           left by a killed daemon is detected (probe connect) and \
           replaced; a live one is refused.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Serve on loopback TCP port $(docv) (0 picks an ephemeral one).")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"J"
        ~doc:
          "Worker domains executing requests.  Replies are bit-identical \
           for every value; 0 accepts but never executes (testing).")

let queue_cap_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:
          "Bounded request-queue slots; an arriving request that finds \
           the queue full gets the typed $(b,busy) reply immediately.")

let address_of ~socket ~port =
  match (socket, port) with
  | Some path, None -> Ok (Eba.Server.Frame.Unix_socket path)
  | None, Some port -> Ok (Eba.Server.Frame.Tcp port)
  | None, None -> Error (`Msg "one of --socket PATH or --port P is required")
  | Some _, Some _ -> Error (`Msg "--socket and --port are mutually exclusive")

let serve_cmd =
  let run () () socket port workers queue_cap =
    let* address = address_of ~socket ~port in
    if workers < 0 then Error (`Msg "--workers must be >= 0")
    else if queue_cap < 1 then Error (`Msg "--queue-cap must be >= 1")
    else begin
      let cfg =
        {
          Eba.Server.Daemon.default_config with
          address;
          workers;
          queue_cap;
          handle_signals = true;
        }
      in
      match
        Eba.Server.Daemon.run
          ~on_ready:(fun bound ->
            Format.printf "eba-serve/1 listening on %s (%d workers, queue %d)@."
              (Eba.Server.Frame.address_to_string bound)
              workers queue_cap;
            Format.print_flush ())
          cfg
      with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, arg) ->
          Error (`Msg (Printf.sprintf "serve: %s: %s" arg (Unix.error_message e)))
      | exception Invalid_argument msg -> Error (`Msg msg)
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident agreement service: a daemon answering \
          netsim-sweep, probcheck and knowledge-query requests over \
          length-prefixed JSON frames, with a bounded queue, typed \
          backpressure, and graceful SIGINT/SIGTERM drain.  Served \
          results are byte-identical to the batch commands for the same \
          request identity.")
    Term.(term_result (const run $ jobs_term $ metrics_term $ socket_arg
                       $ port_arg $ workers_arg $ queue_cap_arg))

let bench_serve_cmd =
  let clients_arg =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"C" ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~docv:"R" ~doc:"Requests per client.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit nonzero unless every request succeeded — the CI smoke \
             mode.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the result as an eba-bench serve row.")
  in
  let run () () clients requests workers queue_cap check json =
    if clients < 1 then Error (`Msg "--clients must be >= 1")
    else if requests < 1 then Error (`Msg "--requests must be >= 1")
    else begin
      let result =
        Eba.Server.Bench_load.run_local ~workers ~queue_cap ~clients ~requests
          ~verb:"netsim-sweep"
          ~params:
            [
              ("protocol", Eba.Json.String "floodset");
              ("n", Eba.Json.Int 4);
              ("t", Eba.Json.Int 1);
              ("runs", Eba.Json.Int 10);
            ]
          ()
      in
      Format.printf "%a@." Eba.Server.Bench_load.pp result;
      Option.iter
        (fun file ->
          Eba.Json.to_file file (Eba.Server.Bench_load.result_json result))
        json;
      if check && result.Eba.Server.Bench_load.ok < result.Eba.Server.Bench_load.requests
      then
        Error
          (`Msg
             (Printf.sprintf "bench-serve --check: %d of %d requests failed"
                (result.Eba.Server.Bench_load.requests
                - result.Eba.Server.Bench_load.ok)
                result.Eba.Server.Bench_load.requests))
      else Ok ()
    end
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "Load-test an in-process agreement daemon: concurrent clients \
          issuing netsim-sweep requests, reporting p50/p99 latency and \
          requests/sec (the benchmark artifact's serve section).")
    Term.(
      term_result
        (const run $ jobs_term $ metrics_term $ clients_arg $ requests_arg
        $ workers_arg $ queue_cap_arg $ check_arg $ json_arg))

let () =
  (* Spans get bechamel's CLOCK_MONOTONIC stub; the library default is
     wall-clock [Unix.gettimeofday]. *)
  Eba.Metrics.set_clock (fun () -> Int64.to_float (Monotonic_clock.now ()) /. 1e9);
  Eba.Metrics.report_at_exit ();
  let doc = "eventual Byzantine agreement via continual common knowledge" in
  let info = Cmd.info "eba" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ model_cmd; check_cmd; optimize_cmd; experiments_cmd; tables_cmd; netsim_cmd; probcheck_cmd; serve_cmd; bench_serve_cmd ]))
