(** Dense sets of point ids, as packed bit vectors.

    Every epistemic operator maps point sets to point sets; models have up
    to a few million points, so sets are flat bit vectors with word-wise
    boolean operations.  All binary operations require operands of the same
    length (the number of points in the model) and raise [Invalid_argument]
    otherwise. *)

type t

val create : int -> t
(** [create len] is the empty set over a universe of [len] points. *)

val full : int -> t

val init : int -> (int -> bool) -> t
(** [init len f] is [{i | f i}].  [f] must be a pure predicate: when the
    engine runs with more than one domain the indices are evaluated
    concurrently (word-parallel), in no particular order. *)

val copy : t -> t
val length : t -> int

val mem : t -> int -> bool
val add : t -> int -> unit
(** In-place insertion (used while building atoms). *)

val add_range : t -> int -> int -> unit
(** [add_range s lo hi] inserts every point of [[lo, hi)] in place, a word
    at a time — a run's points are one such range. *)

val remove : t -> int -> unit

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t
(** All fresh; operands are not mutated. *)

val inter_ip : t -> t -> unit
(** [inter_ip acc s] replaces [acc] with [acc ∩ s]. *)

val equal : t -> t -> bool
val subset : t -> t -> bool
val is_empty : t -> bool
val is_full : t -> bool
val cardinal : t -> int

val iter : t -> (int -> unit) -> unit
(** Iterates over members in increasing order. *)

val for_all : t -> (int -> bool) -> bool
(** Over members. *)

val choose : t -> int option
val pp : Format.formatter -> t -> unit
(** Cardinality summary, not the elements. *)
