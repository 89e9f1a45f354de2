(** Nonrigid sets of processors (Section 3.1): a possibly different set of
    processors at every point of the system.

    The canonical example is 𝒩, the nonfaulty processors; the paper's
    constructions use intersections 𝒩 ∧ 𝒜 with decision sets.  A set is
    stored transposed, as one point set per processor: [points s ~proc] is
    [{(r,m) : proc ∈ S(r,m)}].  That is exactly the operand the belief
    kernel [B^S_i] and the atom [i ∈ S] need, costs [n] bit vectors of
    [npoints] bits each, and lets every constructor below fill whole runs
    or cells with word operations instead of probing each point.

    Identity matters: the continual-common-knowledge engine caches a
    reachability closure per nonrigid set, keyed on physical identity, so
    build each set once and reuse the value. *)

module Bitset = Eba_util.Bitset
module Model = Eba_fip.Model

type t

val name : t -> string

val points : t -> proc:int -> Pset.t
(** The points at which [proc] belongs to the set (shared, not a copy: do
    not mutate it). *)

val mem : t -> point:int -> proc:int -> bool

val nonfaulty : Model.t -> t
(** 𝒩: constant along each run, varies across runs. *)

val everyone : Model.t -> t
(** The constant (rigid) set of all processors — turns [B]/[E]/[C] into
    their classical fixed-group versions. *)

val rigid : Model.t -> name:string -> Bitset.t -> t

val restrict_by_view : Model.t -> name:string -> t -> (proc:int -> view:Eba_fip.View.id -> bool) -> t
(** [restrict_by_view model ~name s pred] is the nonrigid set
    [{i ∈ s(r,m) : pred i (r_i(m))}] — the paper's 𝒩 ∧ 𝒜 when [pred] is
    membership of the view in the decision set 𝒜.  [pred] is called once
    per view of the model, with the view's owner as [proc]. *)

val empty_points : Model.t -> t -> Pset.t
(** The points at which the set is empty (the formula [S = ∅]). *)

val pp : Format.formatter -> t -> unit
