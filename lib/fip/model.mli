(** Enumerated bounded models: the system ℛ of all runs of the
    full-information protocol for a parameter set.

    A {e run} is determined by an initial configuration and a failure
    pattern (Prop 2.2 makes full-information states independent of any
    decision function, so one enumerated model supports every decision
    pair).  A {e point} is a pair (run, time); points are densely numbered
    so the epistemic layer can work with flat bitsets over point ids.

    Two builders produce the same model: the naive one simulates every run
    independently, the shared one extends views once per signature-prefix
    class.  With one job the shared builder grows a signature trie while
    the patterns stream by canonically, interning straight into the final
    store in the naive allocation order; with several it shards the
    depth-1 subtrees of {!Universe.prefix_forest} across domains and
    renumbers the shard stores into that same order during a merge.
    Either way the stores, runs and cells are bit-identical to naive,
    which survives only as the oracle the shared builder is tested and
    benchmarked against. *)

module Bitset = Eba_util.Bitset
module Value = Eba_sim.Value
module Config = Eba_sim.Config
module Params = Eba_sim.Params
module Pattern = Eba_sim.Pattern
module Universe = Eba_sim.Universe

type run = private {
  index : int;
  config : Config.t;
  pattern : Pattern.t;
  faulty : Bitset.t;
  views : View.id array;  (** [views.(time * n + proc)] *)
}

type t = private {
  params : Params.t;
  store : View.store;
  runs : run array;
  cell_off : int array;
      (** CSR row offsets: cell of view [v] occupies
          [cell_ids.(cell_off.(v)) .. cell_ids.(cell_off.(v+1) - 1)] *)
  cell_ids : int array;
      (** point ids, ascending within each cell — all points at which the
          view's owner holds exactly that view *)
  by_key : (int, int list) Hashtbl.t Lazy.t;
      (** lazy (config, pattern)-hash -> run-index buckets for {!find_run} *)
}

type builder = Naive | Shared

val build :
  ?flavour:Universe.flavour ->
  ?configs:Config.t list ->
  ?builder:builder ->
  ?jobs:int ->
  Params.t ->
  t
(** Enumerates every (configuration, pattern) pair and simulates the
    full-information protocol under it.  [configs] defaults to all [2^n]
    configurations — restricting it changes the system runs are drawn from
    and hence what is known; it exists for ablation experiments only.
    [builder] defaults to [Shared]; [Naive], the test oracle and benchmark
    baseline, produces a bit-identical model.  [jobs] overrides the ambient
    {!Eba_util.Parallel.jobs} count for this build only (a per-call
    argument, safe under concurrent builders, unlike the process-global
    {!Eba_util.Parallel.set_jobs}); any positive count yields the same
    bits — it only picks the sequential or sharded shared builder and the
    sharding width. *)

val nruns : t -> int
val npoints : t -> int
val horizon : t -> int
val n : t -> int

val point : t -> run:int -> time:int -> int
(** Dense point id; inverse of {!run_of_point} / {!time_of_point}.  Runs
    are numbered time-inner, so run [r]'s points are the contiguous range
    [[r * (horizon + 1), (r + 1) * (horizon + 1))]. *)

val run_of_point : t -> int -> run
val run_index_of_point : t -> int -> int
val time_of_point : t -> int -> int

val view_at : t -> point:int -> proc:int -> View.id
(** [r_i(m)]: processor [proc]'s view at the point. *)

val view : t -> run:int -> time:int -> proc:int -> View.id

val nonfaulty : t -> run:int -> Bitset.t
(** The paper's 𝒩(r): processors that follow the protocol throughout. *)

val cell_length : t -> View.id -> int
(** Number of points in the view's cell (always [>= 1]: the point the view
    was taken from is a member). *)

val cell_iter : t -> View.id -> (int -> unit) -> unit
(** Iterate the view's cell in ascending point order, without allocating. *)

val cell_forall : t -> View.id -> (int -> bool) -> bool
(** Short-circuiting universal quantification over the cell — the knowledge
    test [∀ points ≈ here. φ]. *)

val cell : t -> View.id -> int array
(** The cell as a fresh array (allocates; the hot paths use {!cell_iter} /
    {!cell_forall} or index [cell_ids] through [cell_off] directly). *)

val find_run : t -> config:Config.t -> pattern:Pattern.t -> run option
(** Locate the run with this configuration and pattern, if the model
    contains it (used to relate operational executions to semantic runs).
    Backed by a lazily built hash index, so repeated lookups cost O(bucket)
    rather than a scan of all runs. *)

val prepare_index : t -> unit
(** Force {!find_run}'s lazy index now.  A built model is immutable
    {e except} this suspension — forcing it in the owning domain makes
    the whole model safe to share across domains (the model cache does
    this before publishing an entry). *)

val iter_points : t -> (int -> unit) -> unit
val pp_stats : Format.formatter -> t -> unit
