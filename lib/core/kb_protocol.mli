(** Knowledge-based (full-information) protocols [FIP(Z, O)] and their
    decision behaviour on a model.

    A protocol is a decision pair: [Z] describes the local states at which a
    processor decides (or has decided) 0, [O] the states for 1.  Decisions
    use first-entry semantics — a processor decides at the first time its
    view enters [Z_i ∪ O_i], and the decision is irreversible.  A view lying
    in both sets is an {e ambiguity}; the paper's constructions never
    produce one on a reachable state, and the spec checker reports any. *)

module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Bitset = Eba_util.Bitset

type pair = { zero : Decision_set.t; one : Decision_set.t }

val never_decide : Model.t -> pair
(** The paper's [F^Λ]: both sets empty. *)

val pair_equal : pair -> pair -> bool

type outcome = { at : int; value : Value.t }

type table
(** Every processor's first-entry outcome in every run, read through
    {!outcome}. *)

type decisions = private {
  model : Model.t;
  pair : pair;
  table : table;
  ambiguities : (int * int * int) list;  (** (run, proc, time) in both sets *)
}

val decide : Model.t -> pair -> decisions

val outcome : decisions -> run:int -> proc:int -> outcome option

val decided_atom : Formula.env -> decisions -> Value.t -> int -> Formula.t
(** [decide_i(y)] as a formula: [i] decides or has decided [y] at the
    point.  (Defined from first-entry outcomes, hence automatically
    persistent and exclusive — Prop 4.1.) *)

val member_atom : Formula.env -> pair -> Value.t -> int -> Formula.t
(** The raw decision-{e set} reading of [decide_i(y)]: [i]'s current view
    lies in the set for [y].  This is the sense in which the paper's
    Prop 4.4 sufficiency conditions constrain a protocol's decision pair;
    it differs from {!decided_atom} only at views of processors that know
    their own faultiness (where formula-defined sets overlap vacuously). *)

val conjoin : Formula.env -> Nonrigid.t -> string -> Decision_set.t -> Nonrigid.t
(** [conjoin env s name a] is the paper's [S ∧ A]: members of [S] whose
    current view lies in [A]. *)
