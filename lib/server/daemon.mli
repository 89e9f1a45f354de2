(** The resident agreement service: one select-based event loop, a
    bounded request queue, and a {!Pool} of worker domains.

    {2 Life of a request}

    The event loop owns every socket.  It accepts connections, feeds
    bytes through a per-connection incremental {!Frame.decoder}, parses
    each frame with {!Eba_util.Json.parse}, and dispatches:

    - unparseable frame / bad envelope: inline [bad-request] reply;
    - [status], [shutdown]: answered inline (they read or steer loop
      state);
    - compute verbs: decoded and resolved inline ({!Registry.prepare} —
      a bad request is refused before it costs a queue slot), then
      pushed to the bounded queue.  A full queue is an inline [busy]
      reply with the observed depth and the cap; the connection stays
      open.

    Workers pop jobs, run them, and hand [(connection, reply)] back
    through a mutex-guarded completion list plus a self-pipe byte; the
    loop wakes, drains the list, and writes each frame on its
    connection.  Every socket write happens on the loop thread, so
    frames never interleave.

    {2 Cancellation, progress, and the model cache}

    Every compute request with a non-null [id] is tracked (keyed by
    connection and id) from the moment it is queued until its final
    reply drains.  The [cancel] verb ([params.target] = the id to
    cancel, same connection only) answers inline with what it caught:
    ["queued"] (the job was yanked from the queue — its [cancelled]
    reply follows immediately), ["running"] (the job's cooperative
    {!Eba_util.Cancel} token was fired; the worker polls it at
    run/pattern/chain-row boundaries and stops within one unit),
    or ["unknown"].  The cancel's ok-ack is always written before the
    cancelled request's terminal [{"status":"cancelled"}] reply, and a
    connection close fires the tokens of all its in-flight requests.

    A request carrying ["progress": true] additionally receives
    rate-limited monotone progress frames
    ([{"status":"progress","done":k,"total":K}]) through the same
    completion channel before its final reply; clients that do not opt
    in observe exactly the one-reply-per-request protocol.

    [knowledge-query] jobs share {!Registry.model_cache}, a promise
    LRU over bounded models keyed by the {!Eba_sim.Params.t} identity:
    concurrent queries for one identity wait on a single build, warm
    replies are byte-identical to cold ones, and hit/miss counts are
    deterministic functions of the request multiset.

    {2 Misbehaving peers}

    The loop must outlive any client, so nothing a peer does may block
    or kill it.  Connection sockets are non-blocking: replies are
    buffered per connection and flushed as [select] reports
    writability, so a client that pipelines requests but stops reading
    stalls only itself — a reader more than two frame-caps behind is
    disconnected rather than buffered without bound.  [SIGPIPE] is
    ignored ({!Frame.ignore_sigpipe}), so a peer that closes before
    reading its reply produces an [EPIPE] handled as a connection
    close.  Any other [Unix_error] on a connection read or write also
    closes just that connection.  Accepts stop at [max_conns] open
    connections (keeping the [select] sets inside [FD_SETSIZE]);
    further connects wait in the kernel backlog until a slot frees.

    {2 Graceful drain}

    [SIGINT], [SIGTERM] (when [handle_signals]) and the [shutdown] verb
    all trigger the same drain: stop accepting (the listening socket is
    closed and, for Unix sockets, unlinked {e immediately}, so a
    restarted daemon can bind while the old one finishes), close the
    queue and answer every queued-but-unstarted job with
    [shutting-down], let in-flight jobs run to completion, deliver
    their replies, then close every connection.  Nothing is dropped
    silently and no socket file is left behind — a crash that does
    leave one is recovered by the next {!Frame.listen}'s stale-socket
    probe. *)

type config = {
  address : Frame.address;
  workers : int;
      (** worker domains; [0] = accept-only (see {!Pool.create}) *)
  queue_cap : int;  (** bounded queue slots, >= 1 *)
  max_frame : int;  (** per-frame byte cap for reads *)
  max_conns : int;
      (** open-connection cap, >= 1 — accepts beyond it wait in the
          listen backlog; keep below [FD_SETSIZE] (1024) minus
          headroom, or [Unix.select] fails with [EINVAL] *)
  handle_signals : bool;
      (** install SIGINT/SIGTERM drain handlers — process-global, so
          only the CLI sets this; in-process daemons (tests, bench) use
          the [shutdown] verb *)
}

val default_config : config
(** Unix socket ["eba.sock"], 4 workers, 64 queue slots, the default
    frame cap, 900 connections, no signal handlers. *)

val run : ?on_ready:(Frame.address -> unit) -> config -> unit
(** Bind, serve until drained, clean up, return.  [on_ready] fires once
    with the bound address (the concrete port for [Tcp 0]) — how tests
    and the bench harness learn where to connect when they run the
    daemon in a spawned domain. *)
