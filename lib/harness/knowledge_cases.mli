(** The pinned served [knowledge-query] spec replies: every named
    knowledge-based protocol ({!Eba.Zoo.named}) over the benchmark's
    knowledge-cold universes, computed through the service's own
    [Registry] path.  Shared by the golden test and its regenerator, so
    the committed file can never drift from what the daemon answers. *)

val universes : (string * int * int * int) list
(** [(mode, n, t, horizon)], the twelve knowledge-cold universes (they
    include the four knowledge-hot ones). *)

val spec_replies : unit -> string
(** One entry per (universe, protocol), universe-major in the order of
    {!universes} and {!Eba.Zoo.named}: the printed reply JSON of a
    [knowledge-query] with [query = "spec"], then a newline. *)
