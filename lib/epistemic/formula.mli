(** A little logic of knowledge and time over one model: the language of
    Section 3, closed under the Booleans, [K_i], [B^S_i], [E_S], [C_S],
    [E□_S], [C□_S] and the temporal operators.

    Formulas are built against a fixed model (atoms are extensional point
    sets), evaluated to point sets, and printed for diagnostics.  An
    {!env} is the evaluation state for one model: it caches the
    continual-knowledge closure per nonrigid set (so repeated [C□_S]
    evaluations with the same [S] cost one union-find), the value of every
    modal subformula it has evaluated, and the shared 𝒩 and [∃v].  All of
    it lives and dies with the env; nothing is kept per model or across
    envs.  An env is used by one domain at a time (the kernels it calls
    may still fan out over {!Eba_util.Parallel}). *)

module Model = Eba_fip.Model
module Value = Eba_sim.Value

type t =
  | Const of bool
  | Atom of string * Pset.t
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | In of Nonrigid.t * int  (** [i ∈ S] *)
  | K of int * t
  | B of Nonrigid.t * int * t
  | E of Nonrigid.t * t
  | C of Nonrigid.t * t
  | Ebox of Nonrigid.t * t
  | Cbox of Nonrigid.t * t
  | Cdia of Nonrigid.t * t  (** eventual common knowledge [C◇_S] *)
  | Empty of Nonrigid.t  (** [S = ∅] at the current point *)
  | Always of t  (** [□] *)
  | Eventually of t  (** [◇] *)
  | Throughout of t  (** [⊟] *)

val atom : Model.t -> string -> (int -> bool) -> t
(** [atom model name pred] tabulates a point predicate. *)

val exists_value : Model.t -> Value.t -> t
(** The paper's [∃0] / [∃1]. *)

val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val neg : t -> t

type env

val env : Model.t -> env
val model : env -> Model.t

val nonfaulty : env -> Nonrigid.t
(** 𝒩 ({!Nonrigid.nonfaulty}), built on first use and then shared by
    every caller of the env — one physical set, so closures and memo
    entries keyed on it are reused. *)

val exists : env -> Value.t -> t
(** {!exists_value}, built once per env and value. *)

val eval : env -> t -> Pset.t
(** The point set of a formula.  Modal and temporal nodes ([K], [B], [E],
    [C], [E□], [C□], [C◇], [S = ∅], [□], [◇], [⊟]) are memoized in the env
    by physical identity: evaluating a node value again — inside one
    formula or across calls — returns the stored set (counted in
    [formula.memo_hits]; computed nodes in [formula.evals]).  Build a
    shared subformula once and reuse the value to benefit.  The result may
    be shared with the env and with atoms: do not mutate it. *)

val holds : env -> t -> point:int -> bool
val valid : env -> t -> bool
(** True iff the formula holds at every point of the model — the paper's
    [ℛ ⊨ φ]. *)

val counterexample : env -> t -> int option
(** Some point where the formula fails, if any. *)

val pp : Format.formatter -> t -> unit
