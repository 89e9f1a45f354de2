(* In-process helper of the served benchmark (perfbench/run.py).

   pbtool info
     Machine fingerprint: hardware domains and the OCaml version.

   pbtool reference REQUESTS OUT
     REQUESTS holds one request envelope per line, exactly the bytes the
     load generator sends.  Writes to OUT, in input order, the reply frame
     the daemon must answer each with: the verb's result computed through
     [Registry.prepare] and the prepared thunk (the daemon's own path),
     wrapped in the [ok] envelope and framed.  Identical params are
     computed once.

   pbtool trace --warm N REQUESTS REPLIES SPANS
     Replays every request through the layers' public functions, the way
     the daemon's event loop and a worker would, with a span around each
     call: frame decode, JSON parse, [Registry.prepare], then a replica of
     the prepared thunk (model cache and [Model.build], [Formula.env],
     the zoo pair, [Kb_protocol.decide], [Spec.check],
     [Characterize.is_optimal]; or [Stats.exhaustive]; or [Spec.resolve],
     [Spec.run], [Net_stats.summary_json]), the reply's JSON print and
     frame encode.  The first N requests only prime the replay's model
     cache (the daemon's warm-up) and are not recorded.  Writes the
     replica's reply frames to REPLIES (the caller checks them against the
     served bytes, which proves the replica did the thunk's work), the
     spans to SPANS as JSON lines, and a summary object on stdout: the
     deterministic engine counters and model-cache counts over the
     recorded requests. *)

module Json = Eba.Json
module Metrics = Eba.Metrics
module Frame = Eba.Server.Frame
module Protocol = Eba.Server.Protocol
module Registry = Eba.Server.Registry
module Model_cache = Eba.Server.Model_cache
module Spec = Eba.Server.Spec

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("pbtool: " ^ m); exit 2) fmt
let ok_or what = function Ok v -> v | Error m -> die "%s: %s" what m

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let parse_request line =
  let json =
    match Json.parse line with
    | Ok j -> j
    | Error e -> die "bad request line: %s" (Json.error_to_string e)
  in
  ok_or "bad request" (Protocol.request_of_json json)

(* The daemon's dispatch of a compute verb, minus the queue. *)
let served_reply ~id ~verb ~params =
  match Registry.prepare ~verb ~params with
  | Error `Unknown_verb -> Protocol.error ~id Protocol.Unknown_verb verb
  | Error (`Bad_request m) -> Protocol.error ~id Protocol.Bad_request m
  | Ok thunk -> (
      match thunk Registry.no_ctx with
      | Ok result -> Protocol.ok ~id result
      | Error m -> Protocol.error ~id Protocol.Bad_request m)

let int_field params k =
  match Protocol.get_int ~default:0 params k with Ok v -> v | Error _ -> 0

let universe_key params =
  ( (match Protocol.get_string ~default:"" params "mode" with
    | Ok s -> s
    | Error _ -> ""),
    int_field params "n",
    int_field params "t",
    int_field params "horizon" )

let reference path out =
  let reqs = List.map parse_request (read_lines path) in
  let key (r : Protocol.request) = r.verb ^ "\n" ^ Json.to_string r.params in
  let memo = Hashtbl.create 64 in
  (* distinct requests, grouped by universe so the model cache builds
     each universe once however the workload interleaves them *)
  let distinct =
    List.sort_uniq
      (fun (a : Protocol.request) (b : Protocol.request) ->
        compare (universe_key a.params, key a) (universe_key b.params, key b))
      reqs
  in
  List.iter
    (fun (r : Protocol.request) ->
      (* computed with a placeholder id; the envelope is rebuilt below *)
      let reply = served_reply ~id:Json.Null ~verb:r.verb ~params:r.params in
      Hashtbl.replace memo (key r) reply)
    distinct;
  let oc = open_out_bin out in
  List.iter
    (fun (r : Protocol.request) ->
      let reply =
        match Protocol.reply_of_json (Hashtbl.find memo (key r)) with
        | Ok (_, Protocol.Ok_result result) -> Protocol.ok ~id:r.req_id result
        | _ -> (
            (* not an ok reply: re-dispatch with the real id so the
               error envelope is exactly the daemon's *)
            served_reply ~id:r.req_id ~verb:r.verb ~params:r.params)
      in
      output_string oc (Frame.encode (Json.to_string reply)))
    reqs;
  close_out oc;
  Printf.printf "{\"requests\": %d, \"distinct\": %d}\n" (List.length reqs)
    (List.length distinct)

(* --- spans --- *)

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

type span = {
  sid : int;
  name : string;
  parent : int;
  req : int;
  start_us : float;
  mutable end_us : float;
  mutable attrs : (string * Json.t) list;
}

let recording = ref false
let finished : span list ref = ref []
let open_spans : span list ref = ref []
let next_sid = ref 0
let current_req = ref (-1)

let with_span name f =
  let sp =
    {
      sid = !next_sid;
      name;
      parent = (match !open_spans with p :: _ -> p.sid | [] -> -1);
      req = !current_req;
      start_us = now_us ();
      end_us = 0.;
      attrs = [];
    }
  in
  incr next_sid;
  open_spans := sp :: !open_spans;
  Fun.protect
    ~finally:(fun () ->
      sp.end_us <- now_us ();
      open_spans := List.tl !open_spans;
      if !recording then finished := sp :: !finished)
    f

let span_attr k v =
  match !open_spans with sp :: _ -> sp.attrs <- (k, v) :: sp.attrs | [] -> ()

(* Epistemic kernel time the program's own Metrics spans measured inside a
   call: lets the self time of a [core] call be split between [core] and
   the [epistemic] kernels it drives. *)
let kernel_spans = [ "knowledge.known_per_view"; "continual.closure"; "continual.cbox" ]

let kernel_seconds () =
  List.fold_left
    (fun acc (e : Metrics.entry) ->
      if List.mem e.e_name kernel_spans then acc +. e.e_seconds else acc)
    0. (Metrics.snapshot ())

let with_kernels name f =
  with_span name (fun () ->
      let k0 = kernel_seconds () in
      let v = f () in
      span_attr "epistemic_us" (Json.Float ((kernel_seconds () -. k0) *. 1e6));
      v)

(* --- the replica of each prepared thunk --- *)

(* [Registry]'s zoo table and report rendering, replicated so each call
   gets its own span; the reply bytes are checked against the daemon's. *)
let pair_of_name env = function
  | "never" -> Eba.Kb_protocol.never_decide (Eba.Formula.model env)
  | "p0" -> Eba.Zoo.p0 env
  | "p1" -> Eba.Zoo.p1 env
  | "p0opt" | "f-lambda-2" -> Eba.Zoo.f_lambda_2 env
  | "chain0" -> Eba.Zoo.chain_zero env
  | "f-star" -> Eba.Zoo.f_star env
  | other -> die "unknown protocol %s" other

let spec_report_json (r : Eba.Spec.report) =
  Json.Obj
    [
      ("weak_agreement", Json.Bool r.weak_agreement);
      ("agreement", Json.Bool r.agreement);
      ("weak_validity", Json.Bool r.weak_validity);
      ("validity", Json.Bool r.validity);
      ("decision", Json.Bool r.decision);
      ("simultaneity", Json.Bool r.simultaneity);
      ("unambiguous", Json.Bool r.unambiguous);
      ( "max_decision_time",
        match r.max_decision_time with Some t -> Json.Int t | None -> Json.Null );
    ]

let sim_patterns = ref 0

let knowledge ~cache params =
  let get_s k d = ok_or k (Protocol.get_string ~default:d params k) in
  let get_i k d = ok_or k (Protocol.get_int ~default:d params k) in
  let n = get_i "n" 3 and t = get_i "t" 1 and horizon = get_i "horizon" 3 in
  let mode_s = get_s "mode" "crash" and query = get_s "query" "spec" in
  let jobs = ok_or "jobs" (Protocol.get_int_opt params "jobs") in
  let mode =
    match Spec.mode_of_string mode_s with Some m -> m | None -> die "mode %s" mode_s
  in
  let p = Eba.Params.make ~n ~t ~horizon ~mode in
  let identity name =
    [
      ("protocol", Json.String name);
      ("query", Json.String query);
      ("n", Json.Int n);
      ("t", Json.Int t);
      ("horizon", Json.Int horizon);
      ("mode", Json.String mode_s);
    ]
  in
  match query with
  | "spec" ->
      let name = get_s "protocol" "f-lambda-2" in
      let model =
        with_span "server.model_cache.find" (fun () ->
            Model_cache.find_or_build cache p (fun p ->
                with_span "fip.build" (fun () ->
                    sim_patterns := !sim_patterns + Eba.Universe.count p;
                    Eba.Model.build ?jobs p)))
      in
      let env = with_kernels "epistemic.env" (fun () -> Eba.Formula.env model) in
      let pair = with_kernels "core.pair" (fun () -> pair_of_name env name) in
      let d = with_kernels "core.decide" (fun () -> Eba.Kb_protocol.decide model pair) in
      let report = with_kernels "core.spec_check" (fun () -> Eba.Spec.check d) in
      let optimal =
        with_kernels "core.optimal" (fun () -> Eba.Characterize.is_optimal env d)
      in
      Json.Obj
        (identity name
        @ [
            ("eba", Json.Bool (Eba.Spec.is_eba report));
            ("nta", Json.Bool (Eba.Spec.is_nontrivial_agreement report));
            ("optimal", Json.Bool optimal);
            ("report", spec_report_json report);
          ])
  | "exhaustive" ->
      let name = get_s "protocol" "floodset" in
      let protocol =
        match List.assoc_opt name Spec.protocols with
        | Some select -> select p
        | None -> die "unknown protocol %s" name
      in
      let summary =
        with_span "protocols.exhaustive" (fun () ->
            sim_patterns := !sim_patterns + Eba.Universe.count p;
            Eba.Stats.exhaustive ?jobs protocol p)
      in
      Json.Obj (identity name @ [ ("summary", Eba.Stats.summary_json summary) ])
  | q -> die "unknown query %s" q

let netsim params =
  let spec = ok_or "netsim params" (Spec.of_json params) in
  let resolved = with_span "net.resolve" (fun () -> ok_or "resolve" (Spec.resolve spec)) in
  let summary = with_span "net.sweep" (fun () -> Spec.run resolved) in
  with_span "net.summary" (fun () -> Eba.Net.Net_stats.summary_json summary)

let replay ~cache line =
  with_span "server.request" (fun () ->
      let payload =
        with_span "server.frame" (fun () ->
            let d = Frame.decoder () in
            let framed = Bytes.of_string (Frame.encode line) in
            Frame.feed d framed ~len:(Bytes.length framed);
            match Frame.next d with
            | Ok (Some p) -> p
            | _ -> die "frame round trip failed")
      in
      let json =
        with_span "util.json.parse" (fun () ->
            match Json.parse payload with
            | Ok j -> j
            | Error e -> die "parse: %s" (Json.error_to_string e))
      in
      let r = ok_or "request" (Protocol.request_of_json json) in
      (match
         with_span "server.prepare" (fun () ->
             Registry.prepare ~verb:r.verb ~params:r.params)
       with
      | Ok _ -> ()
      | Error _ -> die "prepare refused %s" r.verb);
      let result =
        with_span "server.compute" (fun () ->
            match r.verb with
            | "knowledge-query" -> knowledge ~cache r.params
            | "netsim-sweep" -> netsim r.params
            | v -> die "verb %s is not replayed" v)
      in
      let text =
        with_span "util.json.print" (fun () ->
            Json.to_string (Protocol.ok ~id:r.req_id result))
      in
      span_attr "reply_bytes" (Json.Int (String.length text));
      with_span "server.frame" (fun () -> Frame.encode text))

let counter_names =
  [
    "model.runs"; "model.views"; "model.points"; "model.prefix_hits";
    "knowledge.views_scanned"; "knowledge.cell_points_probed";
    "continual.uf_unions"; "pset.words_init"; "net.runs_simulated";
    "net.events_processed"; "net.copies_sent"; "net.retransmissions";
  ]

let span_json sp =
  Json.Obj
    ([
       ("id", Json.Int sp.sid);
       ("name", Json.String sp.name);
       ("parent", Json.Int sp.parent);
       ("req", Json.Int sp.req);
       ("start_us", Json.Float sp.start_us);
       ("end_us", Json.Float sp.end_us);
     ]
    @ List.rev sp.attrs)

let one_line j =
  String.map (function '\n' -> ' ' | c -> c) (String.trim (Json.to_string j))

let trace ~warm path replies spans_out =
  Metrics.set_clock (fun () -> Int64.to_float (Monotonic_clock.now ()) /. 1e9);
  Metrics.set_enabled true;
  let cache = Model_cache.create ~capacity:(Model_cache.capacity Registry.model_cache) () in
  let base = ref (Model_cache.stats cache) in
  let oc = open_out_bin replies in
  List.iteri
    (fun i line ->
      if i = warm then begin
        (* warm-up done: count only the recorded requests *)
        Metrics.reset ();
        base := Model_cache.stats cache;
        sim_patterns := 0;
        recording := true
      end;
      current_req :=
        (if !recording then
           match Json.parse line with
           | Ok (Json.Obj f) -> (
               match List.assoc_opt "id" f with Some (Json.Int id) -> id | _ -> -1)
           | _ -> -1
         else -1);
      let frame = replay ~cache line in
      if !recording then output_string oc frame)
    (read_lines path);
  close_out oc;
  let so = open_out_bin spans_out in
  List.iter (fun sp -> output_string so (one_line (span_json sp) ^ "\n")) (List.rev !finished);
  close_out so;
  let counters = Metrics.deterministic_counters () in
  let cbox =
    List.fold_left
      (fun acc (e : Metrics.entry) ->
        if e.e_name = "continual.cbox" then acc +. e.e_seconds else acc)
      0. (Metrics.snapshot ())
  in
  let st = Model_cache.stats cache in
  print_endline
    (one_line
       (Json.Obj
          [
            ( "counters",
              Json.Obj
                (List.map
                   (fun k -> (k, Json.Int (Option.value ~default:0 (List.assoc_opt k counters))))
                   counter_names) );
            ("cbox_ms", Json.Float (cbox *. 1e3));
            ("sim_patterns", Json.Int !sim_patterns);
            ("cache_hits", Json.Int (st.s_hits - !base.s_hits));
            ("cache_misses", Json.Int (st.s_misses - !base.s_misses));
            ("cache_capacity", Json.Int (Model_cache.capacity cache));
          ]))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "info" ] ->
      Printf.printf "{\"parallel_available\": %d, \"ocaml\": %S}\n"
        (Eba.Parallel.available ()) Sys.ocaml_version
  | [ "reference"; reqs; out ] -> reference reqs out
  | [ "trace"; "--warm"; n; reqs; replies; spans ] ->
      trace ~warm:(int_of_string n) reqs replies spans
  | _ ->
      prerr_endline
        "usage: pbtool info | reference REQUESTS OUT | trace --warm N REQUESTS REPLIES SPANS";
      exit 2
