"""Accounting for the served benchmark: percentiles, failures, lateness,
backlog growth, run-to-run spread and the regression comparison.

Everything here is a pure function of recorded numbers, so the unit tests
in test_perfbench.py can drive it with synthetic schedules.
"""

import math
import statistics

# Outcomes of one request.  Only "ok" (reply byte-identical to its
# reference) counts as served; every other outcome counts as failed and
# as missing the latency limit.
OK = "ok"
BUSY = "busy"
ERROR = "error"
WRONG = "wrong"
OUTSTANDING = "outstanding"
FAILED_OUTCOMES = (BUSY, ERROR, WRONG, OUTSTANDING)


def nearest_rank(values, q):
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule: the
    smallest value with at least q% of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("percentile rank out of range: %r" % q)
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly beyond the nearest-rank q-th
    percentile's position."""
    return n - max(math.ceil(q / 100.0 * n), 1)


TAIL_BEYOND = 10


def tail_percentile(n):
    """The highest percentile of n samples with TAIL_BEYOND samples beyond
    it: p99 at n = 1000, p96.3 at n = 270.  Below TAIL_BEYOND + 1 samples
    no percentile qualifies; the maximum stands in."""
    if n <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (n - TAIL_BEYOND) / n


def tail(values):
    """The value at tail_percentile(len(values)): the one with exactly
    TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1]
    return ordered[-TAIL_BEYOND - 1]


def latencies_ms(records):
    """Latency of each attempted request, timed from its scheduled send
    time.  A failed request counts as infinitely late, so it misses any
    latency limit and pushes every percentile up."""
    out = []
    for r in records:
        if r["outcome"] == OK:
            out.append((r["done"] - r["due"]) * 1e3)
        else:
            out.append(math.inf)
    return out


def lag_ms(records):
    """How late the generator sent each request it sent."""
    return [(r["sent"] - r["due"]) * 1e3 for r in records if r.get("sent") is not None]


def backlog_grows(samples, attempted):
    """Did the backlog grow over the phase?  samples: (time, outstanding
    requests) at each send.  The least-squares trend of the backlog,
    extended over the phase, must not exceed a tenth of the phase's
    requests (plus two): an overloaded daemon accumulates the excess
    linearly, while a keeping-up one only fluctuates around a level."""
    if len(samples) < 4:
        return False
    ts = [t for t, _ in samples]
    ys = [y for _, y in samples]
    mt, my = statistics.fmean(ts), statistics.fmean(ys)
    var = sum((t - mt) ** 2 for t in ts)
    if var == 0:
        return False
    slope = sum((t - mt) * (y - my) for t, y in zip(ts, ys)) / var
    return slope * (ts[-1] - ts[0]) > 0.1 * attempted + 2


def summarize(records, outstanding, limit_ms, span_s):
    """Summary of one phase at one offered rate.

    records: one dict per attempted request with keys due, sent, done (s)
    and outcome; outstanding: (time, backlog) sampled at each send; span_s:
    the scheduled length of the phase."""
    attempted = len(records)
    failed = sum(1 for r in records if r["outcome"] in FAILED_OUTCOMES)
    lat = latencies_ms(records)
    lags = lag_ms(records)
    tail_ms = tail(lat) if lat else math.inf
    ok = attempted - failed
    last_done = max((r["done"] for r in records if r["outcome"] == OK), default=None)
    first_due = min((r["due"] for r in records), default=0.0)
    elapsed = (last_done - first_due) if last_done is not None else span_s
    grows = backlog_grows(outstanding, attempted)
    return {
        "attempted": attempted,
        "failed": failed,
        "by_outcome": {k: sum(1 for r in records if r["outcome"] == k) for k in FAILED_OUTCOMES},
        "p50_ms": nearest_rank(lat, 50) if lat else math.inf,
        "p99_ms": nearest_rank(lat, 99) if lat else math.inf,
        "tail_ms": tail_ms,
        "tail_percentile": tail_percentile(attempted),
        "samples": attempted,
        "lag_p99_ms": nearest_rank(lags, 99) if lags else 0.0,
        "goodput_rps": ok / elapsed if elapsed > 0 else 0.0,
        "backlog_grows": grows,
        # the tail, not the nearest-rank p99: a probe of a hundred requests
        # has one sample beyond its p99, so p99 would judge it by its
        # slowest request alone
        "passes": attempted > 0 and failed == 0 and tail_ms <= limit_ms and not grows,
    }


def spread(values):
    """Run-to-run spread: the distance between the first and third
    quartiles (statistics.quantiles, n=4) as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(med)


def worse_by(base_median, new_median, better):
    """How much worse new is than base, as a share of base (<= 0: not
    worse)."""
    if base_median == 0:
        return 0.0 if new_median == base_median else math.inf
    if better == "lower":
        return (new_median - base_median) / abs(base_median)
    return (base_median - new_median) / abs(base_median)


def beats(a, b, better):
    """Is value a better than value b?"""
    return a < b if better == "lower" else a > b


def verdict(base, new, bound, better):
    """How a metric's new runs compare with its base runs:

    - "better": every new run beats every base run;
    - "unresolved": otherwise, when either side's spread is wider than the
      bound, so the medians cannot show a change of the bound's size;
    - "REGRESSED": the new median is worse than the base median by more
      than the bound;
    - "ok": none of these."""
    if all(beats(n, b, better) for n in new for b in base):
        return "better"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    if worse_by(statistics.median(base), statistics.median(new), better) > bound:
        return "REGRESSED"
    return "ok"


def regressions(base_runs, new_runs, metrics):
    """Compare two sets of runs of one workload.

    base_runs, new_runs: lists of {metric name: value}; metrics: the
    BENCHMARK.json end_to_end entries.  Returns one row per metric with
    both medians and spreads, how much worse the new median is, and the
    verdict."""
    rows = []
    for m in metrics:
        name = m["name"]
        base = [r[name] for r in base_runs if name in r]
        new = [r[name] for r in new_runs if name in r]
        if not base or not new:
            continue
        bm, nm = statistics.median(base), statistics.median(new)
        rows.append(
            {
                "name": name,
                "unit": m["unit"],
                "base_median": bm,
                "new_median": nm,
                "base_spread": spread(base),
                "new_spread": spread(new),
                "worse_by": worse_by(bm, nm, m["better"]),
                "bound": m["bound"],
                "verdict": verdict(base, new, m["bound"], m["better"]),
            }
        )
    return rows
