(** The basic knowledge operators of Section 3.1, computed extensionally:
    each operator maps the set of points satisfying φ to the set of points
    satisfying the modal formula.

    [K_i φ] holds at a point iff φ holds at every point where [i] has the
    same view; [B^S_i φ = K_i(i ∈ S ⇒ φ)] is the belief variant for
    processors that need not know whether they belong to the nonrigid set;
    [E_S φ = ∧_{i∈S} B^S_i φ] (vacuously true where [S] is empty).

    One kernel serves all three.  [K_i φ] scans only the views [i] owns,
    deciding for each whether φ holds on its whole cell, and builds the
    result by scattering the cells of the known views (they partition the
    points).  [B^S_i φ] is [K_i] of the point set [i ∈ S ⇒ φ], and [E_S φ]
    intersects the [n] beliefs with word operations.  The per-view scan
    runs on the {!Eba_util.Parallel} domains; results and the
    [knowledge.views_scanned] / [knowledge.cell_points_probed] counters are
    identical for every job count. *)

module Model = Eba_fip.Model

val knows : Model.t -> proc:int -> Pset.t -> Pset.t
(** [K_i φ]. *)

val believes : Model.t -> Nonrigid.t -> proc:int -> Pset.t -> Pset.t
(** [B^S_i φ]. *)

val everyone_knows : Model.t -> Nonrigid.t -> Pset.t -> Pset.t
(** [E_S φ]. *)
