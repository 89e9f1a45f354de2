(** The benchmark tables and figure-series of EXPERIMENTS.md.

    The paper prints no numbers, so these series measure the {e shape} of
    its qualitative claims: who decides when, who dominates whom, how the
    failure modes differ, and how the engine itself scales. *)

val t1_crash_decision_times : Format.formatter -> unit -> unit
(** T1: mean/max decision round of P0, P0opt, P0opt+, FloodSet and the
    semantic optimum by actual failure count (exhaustive crash models). *)

val t2_no_optimum : Format.formatter -> unit -> unit
(** T2: the Prop 2.1 tension — fraction of runs in which each of P0/P1
    decides at time 0, and the t+1 worst case of the optimum. *)

val t3_two_step : Format.formatter -> unit -> unit
(** T3: per seed protocol — steps to fixpoint, optimality before/after,
    domination (Thm 5.2 ablation). *)

val t4_crash_vs_omission : Format.formatter -> unit -> unit
(** T4: F^Λ,2's decide-by-time profile under crash vs omission failures
    (the Prop 6.3 dichotomy). *)

val t5_chain_bound : Format.formatter -> unit -> unit
(** T5: Chain0's worst decision time vs the f+1 bound, exhaustive and
    sampled at large n. *)

val t6_sba_knowledge : Format.formatter -> unit -> unit
(** T6 (extension): the simultaneous baselines — fixed-time vs
    common-knowledge SBA — against the EBA optimum, with the domination
    verdicts. *)

val f1_decision_cdf : Format.formatter -> unit -> unit
(** F1: cumulative distribution of decision rounds per protocol over a
    sampled crash workload. *)

val f2_sba_gap : Format.formatter -> unit -> unit
(** F2: EBA vs SBA decision-time gap as n grows. *)

val f3_engine_scaling : Format.formatter -> unit -> unit
(** F3: model size and continual-common-knowledge closure time vs
    (n, t, horizon), with the naive-fixpoint ablation. *)

val by_id : (string * (Format.formatter -> unit -> unit)) list
(** Every table and figure by its id ([t1] .. [t6], [f1] .. [f3]), in
    print order — what [eba tables --only] accepts. *)

val all : Format.formatter -> unit -> unit
(** Every entry of {!by_id}, separated by blank lines. *)
