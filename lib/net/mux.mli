(** The sweep engine behind {!Netsim.sweep}.

    Runs one protocol instance at a time through a reusable arena.  Every
    outcome is bit-identical to {!Netsim.Make.run_one}'s for the same
    generator and initial configuration — [run_one] is the reference the
    identity suites compare against — because the processing order (and
    hence every rng draw) is exactly the reference's.  The speed comes
    from three mechanisms that leave that order intact:

    - deterministic timers (round boundaries, retransmission ladders) live
      in a {!Timer_wheel} over the precomputed tick schedule instead of the
      heap, merged back with the heap by exact [(time, seqno)];
    - on a uniform constant-latency fabric, all copies landing at one
      instant collapse into one batch cell and drain in append order — a
      reordering only of provably commuting events;
    - run state (nodes, wire counters, timers, batch cells) recycles
      through arenas across runs, so steady-state allocation per run is
      near zero.

    Deterministic metrics: [mux.timer_ticks], [mux.batched_deliveries] and
    [mux.arena_reuses] (counters), alongside the same [net.*] counters the
    reference engine reports. *)

module Params = Eba_sim.Params
module Config = Eba_sim.Config

module Make (P : Eba_protocols.Protocol_intf.PROTOCOL) : sig
  type engine
  (** The reusable arena: one timer wheel, one event queue, one run's
      state.  Create once, run any number of times; not shareable between
      domains. *)

  val create :
    Params.t -> sync:Sync.t -> topology:Topology.t -> plan:Inject.plan -> engine
  (** Validates like {!Netsim.Make.run_one} ({!Sync.check}, topology
      width). *)

  val run : engine -> rng:Random.State.t -> Config.t -> Net_stats.outcome
  (** Simulate one run: compile the adversary from [rng], then draw every
      latency and loss from it in event order — the draws
      {!Netsim.Make.run_one} makes, in its order, so the outcome is
      bit-identical.  The outcome's wire record belongs to the engine and
      is reset by the next [run]: consume it, don't keep it. *)
end
