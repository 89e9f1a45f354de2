(** The per-run EBA specification verdict and the decision-round
    accumulator of a sweep — the one place both sweep harnesses
    ({!Stats} over lockstep traces, [Eba_net.Net_stats] over network
    simulations) check Decision, Agreement and Validity.

    The checks quantify over the processors the run did {e not} make
    faulty.  Every field is an exact integer count, sum or max, so
    merging per-domain tallies in any fixed order reproduces a sequential
    sweep bit for bit whatever the job count; float means are derived
    only at the end, by {!mean}. *)

module Value = Eba_sim.Value

type t = private {
  mutable runs : int;
  mutable agreement : int;  (** runs where two nonfaulty processors decided differently *)
  mutable validity : int;
      (** unanimous runs where a nonfaulty processor decided the other value *)
  mutable undecided : int;  (** nonfaulty processors that never decided *)
  mutable decided : int;  (** nonfaulty processors that decided *)
  mutable round_sum : int;  (** sum of their decision rounds *)
  mutable round_max : int;
  mutable hist : int array;
      (** [hist.(r)] = nonfaulty decisions at round [r]; grown on demand
          with trailing zeros — read it through {!round_hist} *)
}

val create : unit -> t

val record :
  ?on_decide:(int -> unit) ->
  t ->
  n:int ->
  faulty:(int -> bool) ->
  unanimous:Value.t option ->
  decisions:Runner.decision option array ->
  unit
(** Fold one run of processors [0 .. n-1] in: [unanimous] is the run's
    initial value if all were equal, [decisions.(i)] processor [i]'s
    first output.  [on_decide i] is called for every nonfaulty
    processor [i] that decided. *)

val merge : t -> t -> unit
(** [merge into from] folds [from] into [into]. *)

val round_hist : t -> int array
(** {!hist} trimmed to its last nonzero bucket ([[||]] when nothing
    decided), so it is the same whatever growth pattern the merges took. *)

val mean : sum:int -> count:int -> float
(** [sum / count], with the {e empty-mean convention}: exactly [0.0] when
    [count = 0], never NaN — summaries must stay finite so their JSON
    emission is RFC 8259-valid ([Eba_util.Json] would print NaN as
    [null]). *)
