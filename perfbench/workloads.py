"""Seeded request streams and arrival schedules for each workload.

The same (workload, seed) always yields the same requests and the same
schedule; the daemon receives only these generated requests.
"""

import json
import random

# distinct per-request seeds of a sweep workload, drawn from its seed
SEED_POOL = 64
# sweeps a sweep workload's warm-up sends before timing
WARMUP_SWEEPS = 8


def load(path):
    with open(path) as f:
        return json.load(f)["workloads"]


def arrivals(rng, rate, seconds):
    """Open-loop Poisson arrivals at `rate` per second over `seconds`,
    conditioned on the expected count: round(rate * seconds) uniform
    points, sorted.  The offered rate is then exactly `rate`, so runs of
    different seeds offer the same load."""
    n = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(n))


class Stream:
    """Draws the requests of one workload, in order.

    Draws come from shuffled decks: every deck holds each choice once, so
    the mix of requests is the same for every seed and only their order
    and arrival times vary.  A mix that shifted with the seed would move
    the median between the very different service times of its request
    kinds, and the run-to-run spread with it."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = random.Random("perfbench/%d" % seed)
        self.index = 0
        self.decks = {}
        if spec.get("query_mix") == "cycle":
            # one permutation for every seed: which universes share the
            # cache at its peak sets the daemon's memory high-water mark
            self.order = list(range(len(spec["universes"])))
            random.Random("perfbench/cycle").shuffle(self.order)
            self.visits = {}
        if spec["verb"] == "netsim-sweep":
            self.seed_pool = [self.rng.randrange(1, 1 << 30) for _ in range(SEED_POOL)]

    def draw(self, name, choices):
        deck = self.decks.get(name)
        if not deck:
            deck = list(choices)
            self.rng.shuffle(deck)
            self.decks[name] = deck
        return deck.pop()

    def _universe(self, u):
        mode, n, t, horizon = u
        return {"n": n, "t": t, "horizon": horizon, "mode": mode}

    def next_params(self):
        """(verb, params) of the next request."""
        spec, i = self.spec, self.index
        self.index += 1
        if spec["verb"] == "netsim-sweep":
            params = dict(spec["sweep"])
            params["seed"] = self.draw("seed", self.seed_pool)
            return spec["verb"], params
        if spec["query_mix"] == "spec":
            pairs = [(u, p) for u in range(len(spec["universes"])) for p in spec["protocols"]]
            u, protocol = self.draw("pair", pairs)
            params = self._universe(spec["universes"][u])
            params.update(protocol=protocol, query="spec")
            return spec["verb"], params
        # "cycle": universes in a fixed permuted order, one request in
        # `exhaustive_every` an operational exhaustive sweep.  Each universe
        # rotates through the protocols on its successive visits, so the
        # request sequence is the same for every seed (only the arrival
        # times differ): the cycle's per-request costs differ by 30x, and
        # a seed-drawn mix over a couple of hundred requests moved both
        # the latency and the CPU per request from run to run.
        u = self.order[i % len(self.order)]
        params = self._universe(spec["universes"][u])
        kind = "exhaustive" if i % spec["exhaustive_every"] == spec["exhaustive_every"] - 1 else "spec"
        names = spec["exhaustive_protocols"] if kind == "exhaustive" else spec["protocols"]
        visit = self.visits.get((kind, u), 0)
        self.visits[(kind, u)] = visit + 1
        params.update(protocol=names[(visit + u) % len(names)], query=kind)
        return spec["verb"], params

    def warmup_params(self):
        """Requests the warm-up sends before timing, the same for every
        seed.  Knowledge workloads send one spec query per universe:
        on knowledge-hot this primes the model cache, so every timed query
        is a hit; on knowledge-cold it visits the universes in cycle order,
        so the cache holds what a full pass of the cycle leaves and every
        timed query still misses.  Sweep workloads send WARMUP_SWEEPS
        sweeps with fixed seeds.  The warm-up is the bulk of `setup_s`:
        a bare spawn takes a few milliseconds, and shifts of that size
        between runs would swamp any bound."""
        spec = self.spec
        if spec["verb"] == "netsim-sweep":
            return [(spec["verb"], dict(spec["sweep"], seed=s)) for s in range(1, WARMUP_SWEEPS + 1)]
        universes = spec["universes"]
        if spec["query_mix"] == "cycle":
            universes = [universes[u] for u in self.order]
        return [(spec["verb"], dict(self._universe(u), protocol="never", query="spec")) for u in universes]


def envelope(req_id, verb, params):
    """The request frame's payload, as sent on the wire."""
    return json.dumps({"id": req_id, "verb": verb, "params": params}, separators=(",", ":"))


def paper_check(verb, params, reply):
    """The paper's known answers for one ok reply's result; returns a
    reason when the result contradicts them, else None."""
    result = reply.get("result")
    if reply.get("status") != "ok" or not isinstance(result, dict):
        return "not an ok reply"
    if verb == "netsim-sweep":
        for k in ("agreement_violations", "validity_violations", "undecided_nonfaulty"):
            if result[k] != 0:
                return "%s = %d" % (k, result[k])
        if result["decided_nonfaulty"] <= 0:
            return "no nonfaulty processor decided"
        if result["runs"] != params["runs"] or result["seed"] != params["seed"]:
            return "summary identity differs from the request"
        return None
    for k in ("protocol", "query", "n", "t", "horizon", "mode"):
        if result.get(k) != params[k]:
            return "identity field %s differs from the request" % k
    mode, name = params["mode"], params["protocol"]
    if params["query"] == "exhaustive":
        s = result["summary"]
        if s["validity_violations"] != 0:
            return "validity violated"
        if mode == "crash" and (s["agreement_violations"] or s["undecided_nonfaulty"]):
            return "crash-mode %s is not EBA" % name
        return None
    if mode == "crash":
        # every zoo protocol except `never` is EBA under crash failures
        if result["eba"] != (name != "never"):
            return "crash-mode eba = %s for %s" % (result["eba"], name)
    elif name in ("p0", "p1"):
        # under omission failures P0 and P1 violate agreement
        if result["report"]["agreement"]:
            return "%s keeps agreement under %s" % (name, mode)
    elif name != "never" and not result["eba"]:
        return "%s is not EBA under %s" % (name, mode)
    return None
