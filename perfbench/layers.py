"""Per-layer metrics of a traced run.

The replay (pbtool trace) runs a sample of the traced phase's requests
through the layers' public functions with a span around each call; this
module turns its spans and counters, the served latencies of the same
request ids and the daemon's status replies into the per-layer metrics.

A span's self time is its duration minus its children's (the replay is
sequential, so children never overlap).  Self time is charged to the layer
named by the span's prefix; a core call's span also carries the epistemic
kernel time the program's own Metrics spans measured inside it, which is
charged to epistemic instead of core.
"""

import json
import os
import shutil
import statistics
import subprocess

import loadgen
import stats

PBTOOL = ".perfbench/build/default/perfbench/ocaml/pbtool.exe"
LAYERS = ("util", "server", "fip", "epistemic", "core", "protocols", "net")


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def p50(values):
    return statistics.median(values) if values else 0.0


def durations(spans, name, scale):
    return [(s["end_us"] - s["start_us"]) * scale for s in spans if s["name"] == name]


def per_request_sum(spans, name, scale):
    by_req = {}
    for s in spans:
        if s["name"] == name:
            by_req[s["req"]] = by_req.get(s["req"], 0.0) + (s["end_us"] - s["start_us"]) * scale
    return list(by_req.values())


def self_times(spans):
    """Self time per layer, in microseconds, summed over all spans."""
    children = {}
    for s in spans:
        children[s["parent"]] = children.get(s["parent"], 0.0) + s["end_us"] - s["start_us"]
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        own = s["end_us"] - s["start_us"] - children.get(s["id"], 0.0)
        kernels = min(s.get("epistemic_us", 0.0), own)
        out["epistemic"] += kernels
        out[s["name"].split(".")[0]] += own - kernels
    return out


def served_latency_ms(records):
    return {r["id"]: (r["done"] - r["due"]) * 1e3 for r in records if r["outcome"] == stats.OK}


def traced_metrics(name, seed, plan, expected, sample, untraced, traced, steps, work):
    """Replay `sample` (request ids of the traced phase) and compute the
    per-layer metrics.  Returns (replay matched the served bytes, metrics,
    spans file)."""
    reqs = os.path.join(work, "replay.jsonl")
    with open(reqs, "wb") as f:
        for rid in plan.warmup + sample:
            f.write(plan.requests[rid][2] + b"\n")
    replies = os.path.join(work, "replay.frames")
    spans_file = os.path.join(work, "spans.jsonl")
    out = subprocess.run(
        [PBTOOL, "trace", "--warm", str(len(plan.warmup)), reqs, replies, spans_file],
        stdout=subprocess.PIPE,
        check=True,
    )
    summary = json.loads(out.stdout)
    replay_ok = loadgen.read_frames(replies) == [expected[rid] for rid in sample]
    spans = read_spans(spans_file)
    keep = os.path.join(".perfbench", "spans", "%s-seed%d.jsonl" % (name, seed))
    os.makedirs(os.path.dirname(keep), exist_ok=True)
    shutil.move(spans_file, keep)

    n = max(len(sample), 1)
    c = summary["counters"]
    ms, us = 1e-3, 1.0
    compute = {s["req"]: (s["end_us"] - s["start_us"]) * ms for s in spans if s["name"] == "server.compute"}
    served = served_latency_ms(traced["records"])
    wait = [served[r] - compute[r] for r in sample if r in served and r in compute]
    polls = [st for _, st in traced["status"]]
    every_poll = polls + [st for _, s in steps[1:] for _, st in s["status"]]
    hits, misses = summary["cache_hits"], summary["cache_misses"]
    lookups = hits + misses
    spec_requests = sum(1 for r in sample if plan.requests[r][1].get("query") == "spec")
    if name == "knowledge-hot":
        prop = hits / lookups if lookups else 0.0
    elif name == "knowledge-cold":
        prop = misses / lookups if lookups else 0.0
    else:  # the sweeps must bypass the model cache entirely
        prop = 1.0 - spec_requests / n
    runs = c["net.runs_simulated"]
    sweep_s = sum(durations(spans, "net.sweep", 1e-6))
    selfs = self_times(spans)
    sent = sum(1 for r in traced["records"] if r["sent"] is not None)
    m = {
        "loadgen.lag_p99_ms": (traced["lag_p99_ms"], "ms"),
        "loadgen.sent": (sent, "count"),
        "loadgen.completed": (traced["attempted"] - traced["failed"], "count"),
        "server.wait_ms_p50": (stats.nearest_rank(wait, 50) if wait else 0.0, "ms"),
        "server.wait_ms_p99": (stats.nearest_rank(wait, 99) if wait else 0.0, "ms"),
        "server.queue_depth_max": (max((p["queue_depth"] for p in every_poll), default=0), "count"),
        "server.in_flight_mean": (statistics.fmean(p["in_flight"] for p in polls) if polls else 0.0, "count"),
        "server.prepare_us_p50": (p50(durations(spans, "server.prepare", us)), "us"),
        "server.compute_ms_p50": (p50(list(compute.values())), "ms"),
        "server.compute_ms_mean": (statistics.fmean(compute.values()) if compute else 0.0, "ms"),
        "server.frame_us_p50": (p50(per_request_sum(spans, "server.frame", us)), "us"),
        "server.reply_bytes_p50": (
            p50([s["reply_bytes"] for s in spans if s["name"] == "server.request"]),
            "bytes",
        ),
        "server.model_cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "server.model_cache.hits": (hits, "count"),
        "server.model_cache.misses": (misses, "count"),
        "server.model_cache.find_ms_p50": (p50(durations(spans, "server.model_cache.find", ms)), "ms"),
        "server.model_cache.property_share": (prop, "ratio"),
        "util.json.parse_us_p50": (p50(durations(spans, "util.json.parse", us)), "us"),
        "util.json.print_us_p50": (p50(durations(spans, "util.json.print", us)), "us"),
        "sim.patterns": (summary["sim_patterns"], "count"),
        "fip.build_ms_p50": (p50(durations(spans, "fip.build", ms)), "ms"),
        "fip.build_ms_total": (sum(durations(spans, "fip.build", ms)), "ms"),
        "fip.runs": (c["model.runs"], "count"),
        "fip.views": (c["model.views"], "count"),
        "fip.points": (c["model.points"], "count"),
        "fip.prefix_hits": (c["model.prefix_hits"], "count"),
        "epistemic.env_ms_p50": (p50(durations(spans, "epistemic.env", ms)), "ms"),
        "epistemic.cbox_ms": (summary["cbox_ms"], "ms"),
        "epistemic.views_scanned": (c["knowledge.views_scanned"], "count"),
        "epistemic.cell_points_probed": (c["knowledge.cell_points_probed"], "count"),
        "epistemic.uf_unions": (c["continual.uf_unions"], "count"),
        "epistemic.pset_words": (c["pset.words_init"], "count"),
        "core.pair_ms_p50": (p50(durations(spans, "core.pair", ms)), "ms"),
        "core.decide_ms_p50": (p50(durations(spans, "core.decide", ms)), "ms"),
        "core.spec_check_ms_p50": (p50(durations(spans, "core.spec_check", ms)), "ms"),
        "core.optimal_ms_p50": (p50(durations(spans, "core.optimal", ms)), "ms"),
        "protocols.exhaustive_ms_p50": (p50(durations(spans, "protocols.exhaustive", ms)), "ms"),
        "net.resolve_us_p50": (p50(durations(spans, "net.resolve", us)), "us"),
        "net.sweep_ms_p50": (p50(durations(spans, "net.sweep", ms)), "ms"),
        "net.runs_per_s": (runs / sweep_s if sweep_s else 0.0, "1/s"),
        "net.events_per_run": (c["net.events_processed"] / runs if runs else 0.0, "count"),
        "net.copies_per_run": (c["net.copies_sent"] / runs if runs else 0.0, "count"),
        "net.retransmissions_per_run": (c["net.retransmissions"] / runs if runs else 0.0, "count"),
        "net.summary_us_p50": (p50(durations(spans, "net.summary", us)), "us"),
        "trace.overhead_frac": ((traced["p50_ms"] - untraced["p50_ms"]) / untraced["p50_ms"], "ratio"),
        "trace.replayed": (len(sample), "count"),
    }
    for layer in LAYERS:
        m["self.%s_ms" % layer] = (selfs[layer] * ms / n, "ms")
    return replay_ok, m, keep
