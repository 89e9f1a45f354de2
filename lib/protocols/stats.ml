module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Pattern = Eba_sim.Pattern
module Universe = Eba_sim.Universe
module Bitset = Eba_util.Bitset
module Metrics = Eba_util.Metrics
module Parallel = Eba_util.Parallel

let s_sweep = Metrics.span "stats.sweep"

type by_failures = {
  failures : int;
  count : int;
  mean_time : float;
  max_time : int;
  undecided : int;
}

type source =
  | Enumerated
  | Exhaustive_universe of { flavour : string; universe : string }
  | Sampled_universe of { seed : int; samples : int; universe : string }

type summary = {
  protocol : string;
  runs : int;
  agreement_violations : int;
  validity_violations : int;
  undecided_nonfaulty : int;
  mean_time : float;
  max_time : int;
  by_failures : by_failures list;
  messages_attempted : int;
  messages_delivered : int;
  bytes_attempted : int;
  bytes_delivered : int;
  source : source;
}

let run_one (module P : Protocol_intf.PROTOCOL) params config pattern =
  let module R = Runner.Make (P) in
  R.run params config pattern

(* Per-domain accumulator of a sweep: one spec tally per failure count
   plus the message and byte totals, all exact integers, so merging
   accumulators in any fixed order reproduces the sequential totals bit
   for bit.  The sweep-wide tally is the merge of the per-[f] ones. *)
type state = {
  per_f : (int, Tally.t) Hashtbl.t;
  mutable attempted : int;
  mutable delivered : int;
  mutable bytes_attempted : int;
  mutable bytes_delivered : int;
}

let fresh_state () =
  {
    per_f = Hashtbl.create 8;
    attempted = 0;
    delivered = 0;
    bytes_attempted = 0;
    bytes_delivered = 0;
  }

let tally_for st f =
  match Hashtbl.find_opt st.per_f f with
  | Some t -> t
  | None ->
      let t = Tally.create () in
      Hashtbl.add st.per_f f t;
      t

let merge_state into from =
  into.attempted <- into.attempted + from.attempted;
  into.delivered <- into.delivered + from.delivered;
  into.bytes_attempted <- into.bytes_attempted + from.bytes_attempted;
  into.bytes_delivered <- into.bytes_delivered + from.bytes_delivered;
  Hashtbl.iter (fun f t -> Tally.merge (tally_for into f) t) from.per_f

let consume run n st (config, pattern) =
  let trace : Runner.trace = run config pattern in
  st.attempted <- st.attempted + trace.Runner.messages_attempted;
  st.delivered <- st.delivered + trace.Runner.messages_delivered;
  st.bytes_attempted <- st.bytes_attempted + trace.Runner.bytes_attempted;
  st.bytes_delivered <- st.bytes_delivered + trace.Runner.bytes_delivered;
  (* [Bitset.mem] is total, so testing the nonfaulty slots this way is
     safe at any n (no [Bitset.full n] capping n at the word width) *)
  let faulty = Pattern.faulty pattern in
  Tally.record
    (tally_for st (Pattern.num_failures pattern))
    ~n ~faulty:(fun i -> Bitset.mem i faulty) ~unanimous:(Config.all_equal config)
    ~decisions:trace.Runner.decisions

let summary_of_state ?(source = Enumerated) name st =
  let per_f =
    Hashtbl.fold (fun f t acc -> (f, t) :: acc) st.per_f []
    |> List.sort (fun (f1, _) (f2, _) -> Stdlib.compare f1 f2)
  in
  let total = Tally.create () in
  List.iter (fun (_, t) -> Tally.merge total t) per_f;
  let mean (t : Tally.t) = Tally.mean ~sum:t.round_sum ~count:t.decided in
  {
    protocol = name;
    runs = total.runs;
    agreement_violations = total.agreement;
    validity_violations = total.validity;
    undecided_nonfaulty = total.undecided;
    mean_time = mean total;
    max_time = total.round_max;
    by_failures =
      List.map
        (fun (f, (t : Tally.t)) ->
          {
            failures = f;
            count = t.runs;
            mean_time = mean t;
            max_time = t.round_max;
            undecided = t.undecided;
          })
        per_f;
    messages_attempted = st.attempted;
    messages_delivered = st.delivered;
    bytes_attempted = st.bytes_attempted;
    bytes_delivered = st.bytes_delivered;
    source;
  }

let universe_desc (params : Params.t) = Format.asprintf "%a" Params.pp params

let over_seq ?jobs ?cancel ?source (module P : Protocol_intf.PROTOCOL)
    (params : Params.t) workload =
  let module R = Runner.Make (P) in
  let run config pattern = R.run params config pattern in
  let fold =
    let consume = consume run params.Params.n in
    match cancel with
    | None -> consume
    | Some token ->
        fun st work ->
          Eba_util.Cancel.check token;
          consume st work
  in
  let st =
    Metrics.time s_sweep (fun () ->
        Parallel.map_reduce_seq ?jobs ~init:fresh_state ~fold
          ~merge:merge_state workload)
  in
  summary_of_state ?source P.name st

let over ?jobs ?cancel ?source p params workload =
  over_seq ?jobs ?cancel ?source p params (List.to_seq workload)

let exhaustive ?(flavour = Universe.Exhaustive) ?jobs ?cancel p
    (params : Params.t) =
  let source =
    Exhaustive_universe
      {
        flavour =
          (match flavour with Universe.Exhaustive -> "exhaustive" | Universe.Sparse -> "sparse");
        universe = universe_desc params;
      }
  in
  over_seq ?jobs ?cancel ~source p params (Universe.workload_seq ~flavour params)

(* A uniform [n]-bit configuration.  [full_int] draws exactly as
   [Random.State.int] for bounds below 2^30 (n <= 29), so those samples
   are unchanged; at n = 62, [1 lsl 62] wraps to [min_int], and the 62
   low bits of a 64-bit draw are the uniform pick. *)
let random_bits rng n =
  if n < 62 then Random.State.full_int rng (1 lsl n)
  else Int64.to_int (Random.State.bits64 rng) land max_int

let sampled ?jobs ?cancel p (params : Params.t) ~seed ~samples =
  let rng = Random.State.make [| seed |] and n = params.Params.n in
  (* drawn sequentially so the workload is deterministic in [seed]; only the
     runs themselves are distributed over domains *)
  let workload =
    List.init samples (fun _ ->
        let config = Config.of_bits ~n (random_bits rng n) in
        (config, Universe.random_pattern rng params))
  in
  let source =
    Sampled_universe
      { seed; samples; universe = universe_desc params ^ " uniform(config×pattern)" }
  in
  over ?jobs ?cancel ~source p params workload

let pp_by_failures fmt b =
  Format.fprintf fmt "f=%d: %d runs, mean %.2f, max %d%s" b.failures b.count b.mean_time
    b.max_time
    (if b.undecided > 0 then Printf.sprintf ", %d undecided" b.undecided else "")

let pp_source fmt = function
  | Enumerated -> Format.pp_print_string fmt "enumerated workload"
  | Exhaustive_universe { flavour; universe } ->
      Format.fprintf fmt "%s universe of %s" flavour universe
  | Sampled_universe { seed; samples; universe } ->
      Format.fprintf fmt "%d samples from %s, seed=%d" samples universe seed

let source_json = function
  | Enumerated -> Eba_util.Json.Obj [ ("kind", Eba_util.Json.String "enumerated") ]
  | Exhaustive_universe { flavour; universe } ->
      Eba_util.Json.Obj
        [
          ("kind", Eba_util.Json.String "exhaustive");
          ("flavour", Eba_util.Json.String flavour);
          ("universe", Eba_util.Json.String universe);
        ]
  | Sampled_universe { seed; samples; universe } ->
      Eba_util.Json.Obj
        [
          ("kind", Eba_util.Json.String "sampled");
          ("seed", Eba_util.Json.Int seed);
          ("samples", Eba_util.Json.Int samples);
          ("universe", Eba_util.Json.String universe);
        ]

let summary_json s =
  let open Eba_util.Json in
  Obj
    [
      ("protocol", String s.protocol);
      ("runs", Int s.runs);
      ("agreement_violations", Int s.agreement_violations);
      ("validity_violations", Int s.validity_violations);
      ("undecided_nonfaulty", Int s.undecided_nonfaulty);
      ("max_time", Int s.max_time);
      ("messages_attempted", Int s.messages_attempted);
      ("messages_delivered", Int s.messages_delivered);
      ("bytes_attempted", Int s.bytes_attempted);
      ("bytes_delivered", Int s.bytes_delivered);
      ( "by_failures",
        List
          (List.map
             (fun b ->
               Obj
                 [
                   ("failures", Int b.failures);
                   ("count", Int b.count);
                   ("mean_time", Float b.mean_time);
                   ("max_time", Int b.max_time);
                   ("undecided", Int b.undecided);
                 ])
             s.by_failures) );
      ("mean_time", Float s.mean_time);
      ("source", source_json s.source);
    ]

let pp fmt s =
  Format.fprintf fmt "%s over %d runs: agreement-violations=%d validity-violations=%d \
                      undecided=%d mean-decision=%.2f max-decision=%d msgs=%d/%d \
                      bytes=%d/%d@\n"
    s.protocol s.runs s.agreement_violations s.validity_violations s.undecided_nonfaulty
    s.mean_time s.max_time s.messages_delivered s.messages_attempted
    s.bytes_delivered s.bytes_attempted;
  Format.fprintf fmt "  source: %a@\n" pp_source s.source;
  List.iter (fun b -> Format.fprintf fmt "  %a@\n" pp_by_failures b) s.by_failures

let pp_table_header fmt () =
  Format.fprintf fmt "%-10s %8s %6s %6s %8s %8s %10s@\n" "protocol" "runs" "agree"
    "valid" "mean_t" "max_t" "msgs"

let pp_table_row fmt s =
  Format.fprintf fmt "%-10s %8d %6s %6s %8.2f %8d %10d@\n" s.protocol s.runs
    (if s.agreement_violations = 0 then "ok" else string_of_int s.agreement_violations)
    (if s.validity_violations = 0 then "ok" else string_of_int s.validity_violations)
    s.mean_time s.max_time s.messages_delivered
