"""Tests of the benchmark's own accounting.

    python3 perfbench/test_perfbench.py

Covers the nearest-rank percentile and the ten-samples-beyond rule,
lateness under a stalled schedule, failure accounting, backlog growth, the
paper-answer check, the warm-up's effect on the model cache, and the
regression comparison.
"""

import json
import math
import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import loadgen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def reply(rid, status="ok", result=None):
    body = {"id": rid, "status": status}
    if status == "ok":
        body["result"] = result if result is not None else {"answer": rid}
    return json.dumps(body).encode()


class FakeConn:
    """Answers each request instantly, as `answer(id)` says; `stall_on`
    makes the send of one request id block for `stall_s`."""

    def __init__(self, answer, stall_on=None, stall_s=0.0):
        self.answer = answer
        self.stall_on, self.stall_s = stall_on, stall_s
        self.pending = []

    def send(self, payload):
        rid = json.loads(payload)["id"]
        if rid == self.stall_on:
            time.sleep(self.stall_s)
        out = self.answer(rid)
        if out is not None:
            self.pending.append(out)

    def poll(self, timeout):
        if self.pending:
            out, self.pending = self.pending, []
            return out
        time.sleep(min(max(timeout, 0.0), 0.002))
        return []


def schedule(n, gap_s):
    return [(i * gap_s, i + 1, json.dumps({"id": i + 1}).encode()) for i in range(n)]


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 50), 50)
        self.assertEqual(stats.nearest_rank(values, 99), 99)
        self.assertEqual(stats.nearest_rank(values, 100), 100)
        self.assertEqual(stats.nearest_rank([7.0], 99), 7.0)
        self.assertEqual(stats.nearest_rank([3, 1, 2], 50), 2)

    def test_rejects_empty_and_bad_rank(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1], 0)

    def test_ten_beyond_rule(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        # the reported tail always has exactly ten samples beyond it
        self.assertAlmostEqual(stats.tail_percentile(1000), 99.0)
        for n in (11, 270, 324, 999, 1000, 5000):
            q = stats.tail_percentile(n)
            self.assertEqual(stats.samples_beyond(n, q), 10, n)
            values = list(range(n, 0, -1))
            self.assertEqual(stats.nearest_rank(values, q), n - 10)
            self.assertEqual(stats.tail(values), n - 10)
        self.assertEqual(stats.tail_percentile(10), 100.0)
        self.assertEqual(stats.tail([3.0, 1.0]), 3.0)


class Lateness(unittest.TestCase):
    def test_stall_is_charged_to_the_requests_it_delays(self):
        expected = {i: reply(i) for i in range(1, 21)}
        conn = FakeConn(lambda rid: expected[rid], stall_on=5, stall_s=0.08)
        gen = loadgen.Loadgen(conn, expected)
        items = schedule(20, 0.01)
        records, _ = gen.run_phase(items, 0.2, drain_s=1.0)
        by_id = {r["id"]: r for r in records}
        lag = {rid: (r["sent"] - r["due"]) * 1e3 for rid, r in by_id.items()}
        # requests 6..12 fell due while request 5's send stalled
        for rid in range(6, 10):
            self.assertGreater(lag[rid], 30.0, rid)
        self.assertLess(lag[2], 20.0)
        # latency is timed from the due time, so it includes the lag
        lat = dict(zip((r["id"] for r in records), stats.latencies_ms(records)))
        for rid in range(6, 10):
            self.assertGreaterEqual(lat[rid], lag[rid])
        s = stats.summarize(records, [], limit_ms=1000.0, span_s=0.2)
        self.assertGreater(s["lag_p99_ms"], 30.0)
        self.assertEqual(s["failed"], 0)


class Failures(unittest.TestCase):
    def test_every_failure_kind_counts_against_attempts(self):
        expected = {i: reply(i) for i in range(1, 7)}

        def answer(rid):
            return {
                1: expected[1],
                2: reply(2, "busy"),
                3: reply(3, "error"),
                4: reply(4, result={"answer": "wrong"}),
                5: None,  # never answered: outstanding at the end
                6: expected[6],
            }[rid]

        gen = loadgen.Loadgen(FakeConn(answer), expected)
        records, _ = gen.run_phase(schedule(6, 0.005), 0.03, drain_s=0.1)
        outcome = {r["id"]: r["outcome"] for r in records}
        self.assertEqual(
            outcome,
            {1: stats.OK, 2: stats.BUSY, 3: stats.ERROR, 4: stats.WRONG, 5: stats.OUTSTANDING, 6: stats.OK},
        )
        self.assertEqual(gen.wrong, [4])
        s = stats.summarize(records, [], limit_ms=1e6, span_s=0.03)
        self.assertEqual((s["attempted"], s["failed"]), (6, 4))
        self.assertEqual(s["by_outcome"], {"busy": 1, "error": 1, "wrong": 1, "outstanding": 1})
        # failed requests miss any latency limit
        self.assertEqual(s["p99_ms"], math.inf)
        self.assertFalse(s["passes"])

    def test_late_reply_of_an_earlier_phase_is_ignored(self):
        expected = {1: reply(1), 2: reply(2)}
        conn = FakeConn(lambda rid: None)
        gen = loadgen.Loadgen(conn, expected)
        records, _ = gen.run_phase(schedule(1, 0.0), 0.0, drain_s=0.02)
        self.assertEqual(records[0]["outcome"], stats.OUTSTANDING)
        conn.answer = lambda rid: expected[rid]
        conn.pending.append(expected[1])
        records, _ = gen.run_phase([(0.0, 2, json.dumps({"id": 2}).encode())], 0.0, drain_s=0.5)
        self.assertEqual([r["outcome"] for r in records], [stats.OK])


class Backlog(unittest.TestCase):
    def test_steady_and_growing(self):
        steady = [(i * 0.1, [1, 2, 1, 0, 5, 1, 1, 2][i]) for i in range(8)]
        self.assertFalse(stats.backlog_grows(steady, attempted=8))
        # 40 requests offered, 20 of them piling up over the phase
        growing = [(i * 0.1, i // 2) for i in range(40)]
        self.assertTrue(stats.backlog_grows(growing, attempted=40))
        # a burst at the very end is not a trend
        burst = [(i * 0.1, 1) for i in range(36)] + [(3.6 + i * 0.01, 2 + i) for i in range(4)]
        self.assertFalse(stats.backlog_grows(burst, attempted=40))


class CapacitySearch(unittest.TestCase):
    def search(self, capacity, start, rate_max=400.0):
        calls = []

        def probe(k, rate):
            calls.append(rate)
            return {"passes": rate <= capacity}

        return run.search(probe, start, rate_max), calls

    def test_brackets_then_bisects_to_the_capacity(self):
        # the search starts near the capacity: within a factor of two
        for start in (20.0, 37.0, 50.0, 70.0):
            (best, steps), calls = self.search(37.0, start)
            self.assertEqual(len(calls), run.PROBES)
            self.assertLessEqual(best, 37.0, start)
            self.assertGreater(best, 37.0 / run.SEARCH_STEP, start)
            self.assertEqual([r for r, _ in steps], calls)

    def test_stops_at_the_highest_rate_and_reports_none_when_all_fail(self):
        (best, _), calls = self.search(1e9, 100.0, rate_max=200.0)
        self.assertEqual((best, calls), (200.0, [100.0, 100.0 * run.SEARCH_STEP, 200.0]))
        (best, _), calls = self.search(0.0, 8.0)
        self.assertIsNone(best)
        self.assertEqual(calls[1], 8.0 / run.SEARCH_STEP)


class PaperAnswers(unittest.TestCase):
    def spec(self, mode, protocol, eba, agreement=True):
        params = {"n": 3, "t": 1, "horizon": 3, "mode": mode, "protocol": protocol, "query": "spec"}
        result = dict(params, eba=eba, report={"agreement": agreement})
        return workloads.paper_check("knowledge-query", params, {"status": "ok", "result": result})

    def test_knowledge_answers(self):
        self.assertIsNone(self.spec("crash", "p0", True))
        self.assertIsNone(self.spec("crash", "never", False))
        self.assertIsNotNone(self.spec("crash", "never", True))
        self.assertIsNotNone(self.spec("crash", "f-star", False))
        self.assertIsNone(self.spec("omission", "p1", False, agreement=False))
        self.assertIsNotNone(self.spec("omission", "p0", False, agreement=True))
        self.assertIsNotNone(self.spec("general-omission", "chain0", False))

    def test_sweep_answers(self):
        params = {"runs": 4, "seed": 9}
        good = {
            "runs": 4,
            "seed": 9,
            "agreement_violations": 0,
            "validity_violations": 0,
            "undecided_nonfaulty": 0,
            "decided_nonfaulty": 50,
        }
        ok = {"status": "ok", "result": good}
        self.assertIsNone(workloads.paper_check("netsim-sweep", params, ok))
        for bad in ({"undecided_nonfaulty": 3}, {"decided_nonfaulty": 0}, {"agreement_violations": 1}):
            r = {"status": "ok", "result": dict(good, **bad)}
            self.assertIsNotNone(workloads.paper_check("netsim-sweep", params, r), bad)


class Comparison(unittest.TestCase):
    METRICS = [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "max_rate_rps", "unit": "req/s", "better": "higher", "bound": 0.1},
    ]

    def runs(self, p50, rate):
        return [{"p50_ms": p50 * f, "max_rate_rps": rate * f} for f in (0.98, 1.0, 1.02, 0.99, 1.01)]

    def verdicts(self, base, new):
        return {r["name"]: r["verdict"] for r in stats.regressions(base, new, self.METRICS)}

    def test_flags_a_synthetic_regression(self):
        self.assertEqual(
            self.verdicts(self.runs(10.0, 100.0), self.runs(13.0, 100.0)),
            {"p50_ms": "REGRESSED", "max_rate_rps": "ok"},
        )
        self.assertEqual(
            self.verdicts(self.runs(10.0, 100.0), self.runs(10.0, 80.0)),
            {"p50_ms": "ok", "max_rate_rps": "REGRESSED"},
        )

    def test_noise_within_bound_and_gains_pass(self):
        self.assertEqual(
            self.verdicts(self.runs(10.0, 100.0), self.runs(10.5, 130.0)),
            {"p50_ms": "ok", "max_rate_rps": "better"},
        )

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [{"p50_ms": v, "max_rate_rps": 100.0} for v in (7.0, 10.0, 13.0, 9.0, 11.0)]
        # a median 30% worse, but base runs spread by more than the bound
        worse = [{"p50_ms": v * 1.3, "max_rate_rps": 100.0} for v in (7.0, 10.0, 13.0, 9.0, 11.0)]
        self.assertEqual(self.verdicts(wide, worse)["p50_ms"], "unresolved")
        self.assertEqual(self.verdicts(self.runs(10.0, 100.0), wide)["p50_ms"], "unresolved")
        # unless every new run beats every base run
        faster = [{"p50_ms": v / 3, "max_rate_rps": 100.0} for v in (7.0, 10.0, 13.0, 9.0, 11.0)]
        self.assertEqual(self.verdicts(wide, faster)["p50_ms"], "better")

    def test_spread(self):
        self.assertAlmostEqual(stats.spread([10.0] * 5), 0.0)
        self.assertGreater(stats.spread([5.0, 10.0, 15.0, 20.0]), 0.5)


class WarmUp(unittest.TestCase):
    def setUp(self):
        self.specs = workloads.load(os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json"))

    def test_same_for_every_seed(self):
        for name, spec in self.specs.items():
            self.assertTrue(workloads.Stream(spec, 1).warmup_params(), name)
            self.assertEqual(
                workloads.Stream(spec, 1).warmup_params(), workloads.Stream(spec, 2).warmup_params(), name
            )

    def lru_misses(self, spec, seed, timed, capacity=8):
        """Model-cache misses of `timed` spec queries after the warm-up,
        under the daemon's LRU policy."""
        stream = workloads.Stream(spec, seed)
        key = lambda p: (p["mode"], p["n"], p["t"], p["horizon"])
        cache = []

        def lookup(p):
            k = key(p)
            hit = k in cache
            if hit:
                cache.remove(k)
            cache.append(k)
            del cache[:-capacity]
            return hit

        for _, p in stream.warmup_params():
            lookup(p)
        misses = total = 0
        for _ in range(timed):
            _, p = stream.next_params()
            if p["query"] == "spec":
                total += 1
                misses += not lookup(p)
        return misses, total

    def test_hot_hits_and_cold_misses(self):
        misses, total = self.lru_misses(self.specs["knowledge-hot"], 3, 100)
        self.assertEqual((misses, total), (0, 100))
        misses, total = self.lru_misses(self.specs["knowledge-cold"], 3, 100)
        self.assertEqual(misses, total)


if __name__ == "__main__":
    unittest.main()
