(** Cooperative cancellation tokens.

    A token is a single atomic flag shared between the party that may
    abort a computation and the domains doing the work.  Workers poll it
    at natural unit-of-work boundaries — one simulated run, one
    exhaustive-workload pattern, one chain row —
    via {!check}, which raises {!Cancelled} once {!cancel} has been
    called.  Polling is a plain atomic read, so threading a token
    through a sweep leaves its results and deterministic metrics
    bit-identical when the token never fires.

    Raising (rather than returning an option) composes with
    {!Parallel.map_reduce_seq}: the pool joins every domain and
    re-raises the first exception, so a cancelled parallel fold
    terminates within one chunk boundary per domain and surfaces
    {!Cancelled} to the caller exactly once. *)

exception Cancelled
(** Raised by {!check} on a cancelled token.  Escapes to whoever started
    the computation; never caught internally. *)

type t
(** A cancellation token.  Domain-safe; cancelling is idempotent. *)

val create : unit -> t
(** A fresh, un-cancelled token. *)

val cancel : t -> unit
(** Request cancellation.  Workers observe it at their next {!check}. *)

val cancelled : t -> bool
(** Has {!cancel} been called?  A plain atomic read. *)

val check : t -> unit
(** Raise {!Cancelled} if {!cancelled}; otherwise return. *)

val check_opt : t option -> unit
(** {!check} when a token is present; no-op on [None] — the form engine
    entry points use for their optional [?cancel] parameter. *)
