"""The served benchmark of this repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree.  Builds `eba` and the benchmark's
in-process helper (perfbench/ocaml/pbtool.ml) with dune, starts a real
`eba serve` daemon, and drives it with an open-loop generator
(loadgen.py) at the workload's nominal rate (workloads.json).  Every reply
must be byte-identical to a reference reply computed in-process through
the same library path before timing, and every reference must agree with
the paper's known answers; a mismatch fails the run.

--trace 0 spends the whole run at the nominal rate and reports the
end-to-end metrics: the daemon's CPU time per request, its peak memory,
its set-up time and the share of requests served correctly.  --trace 1
runs the nominal phase untraced and again traced with status polling,
then searches the daemon's capacity in short probes, replays a sample of
the traced phase through each layer's public functions with a span around
every call, and reports the per-layer metrics, the served latency and the
capacity among them.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
result, with the machine fingerprint, goes to .perfbench/results/, and
the spans of a traced run to .perfbench/spans/.
"""

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

STATE = ".perfbench"
# the benchmark's own build, under the `perfbench` profile that enables
# pbtool (see perfbench/ocaml/dune)
BUILD = os.path.join(STATE, "build")
EBA = os.path.join(BUILD, "default", "bin", "eba_cli.exe")
PBTOOL = layers.PBTOOL
DRAIN_S = 5.0
STATUS_EVERY_S = 0.1
DAEMON_CPUS = None  # set by main: the CPUs left to the daemon
# a traced run spends NOMINAL_SHARE of its seconds at the nominal rate and
# the rest on PROBES capacity probes
NOMINAL_SHARE = 0.6
PROBES = 5
SEARCH_STEP = math.sqrt(2)
SETUP_REPEATS = 9


class Refused(Exception):
    """The benchmark cannot run here: report and exit nonzero."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build and fingerprint ---


def build():
    for f in ("dune-project", "bin/eba_cli.ml", "lib"):
        if not os.path.exists(f):
            raise Refused("%s not found: run from the root of the eba source tree" % f)
    os.makedirs(STATE, exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "perfbench", "--build-dir", os.path.abspath(BUILD),
         "bin/eba_cli.exe", "perfbench/ocaml/pbtool.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        # dune's shared cache lives outside the source tree
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise Refused("dune build failed")


# the CPUs this process may use when it starts, before split_cpus pins it
CPUS = sorted(os.sched_getaffinity(0))


def nproc():
    return len(CPUS)


def split_cpus():
    """Pin the generator to the first CPU and leave the others to the
    daemon, so the two never contend for a CPU or migrate between them.
    Returns the daemon's CPU set, or None on a single CPU."""
    if len(CPUS) < 2:
        return None
    os.sched_setaffinity(0, CPUS[:1])
    return set(CPUS[1:])


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    info = json.loads(subprocess.run([PBTOOL, "info"], stdout=subprocess.PIPE, check=True).stdout)
    commit = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = r.stdout.decode().strip() or None
    return {
        "nproc": nproc(),
        "parallel_available": info["parallel_available"],
        "ocaml": info["ocaml"],
        "commit": commit,
        "source_digest": source_digest(),
    }


# --- the daemon ---


class Daemon:
    def __init__(self, sock, workers, cpus):
        if os.path.exists(sock):
            os.unlink(sock)
        self.proc = subprocess.Popen(
            [EBA, "serve", "--socket", sock, "--workers", str(workers)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        r, _, _ = select.select([self.proc.stdout], [], [], 30.0)
        line = self.proc.stdout.readline() if r else b""
        if not line.startswith(b"eba-serve/1 listening"):
            self.kill()
            raise Refused("daemon did not come up")
        if cpus:
            # every thread (worker domains included) exists once it listens
            for tid in os.listdir("/proc/%d/task" % self.proc.pid):
                os.sched_setaffinity(int(tid), cpus)
        self.conn = loadgen.Conn(sock)

    @property
    def pid(self):
        return self.proc.pid

    def stop(self):
        try:
            self.conn.call(b'{"id":"shutdown","verb":"shutdown"}', timeout_s=10.0)
            self.conn.close()
            self.proc.wait(timeout=30)
        except Exception:
            self.kill()
        self.proc.stdout.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# --- one run ---


class Plan:
    """Every request a run may send, with its id and wire payload, drawn
    from the workload seed before anything is timed."""

    def __init__(self, spec, seed, seconds, trace):
        self.spec = spec
        self.seed = seed
        stream = workloads.Stream(spec, seed)
        self.next_id = 1
        self.requests = {}  # id -> (verb, params, payload)
        self.warmup = [self._add(v, p) for v, p in stream.warmup_params()]
        # an untraced run spends all its time at the nominal rate; a traced
        # run splits NOMINAL_SHARE of it between an untraced phase and its
        # traced repeat, and spends the rest on the capacity probes
        self.nominal_s = NOMINAL_SHARE * seconds / 2 if trace else seconds
        self.probe_s = (1 - NOMINAL_SHARE) * seconds / PROBES
        self.nominal = self._phase(stream, spec["nominal_rps"], self.nominal_s)
        # the rate of a probe depends on the outcome of the ones before it,
        # so each probe gets enough requests for the highest rate it may
        # offer; its arrival times are drawn when its rate is known
        most = math.ceil(spec["rate_max_rps"] * self.probe_s) + 1
        self.probe_ids = [
            [self._add(*stream.next_params()) for _ in range(most)] for _ in range(PROBES if trace else 0)
        ]

    def _add(self, verb, params):
        rid = self.next_id
        self.next_id += 1
        self.requests[rid] = (verb, params, workloads.envelope(rid, verb, params).encode())
        return rid

    def _phase(self, stream, rate, seconds):
        return [(due, self._add(*stream.next_params())) for due in workloads.arrivals(stream.rng, rate, seconds)]

    def probe(self, k, rate):
        """The schedule of probe k at `rate`: Poisson arrivals drawn from
        the workload seed, the probe index and the rate."""
        rng = random.Random("perfbench/%d/probe%d/%r" % (self.seed, k, rate))
        return list(zip(workloads.arrivals(rng, rate, self.probe_s), self.probe_ids[k]))

    def items(self, phase):
        return [(due, rid, self.requests[rid][2]) for due, rid in phase]

    def repeat(self, phase):
        """The same requests on the same schedule, under fresh ids."""
        return [(due, self._add(*self.requests[rid][:2])) for due, rid in phase]


def references(plan, work):
    """Reference replies for every planned request, computed in-process,
    each checked against the paper's known answers."""
    reqs = os.path.join(work, "requests.jsonl")
    with open(reqs, "wb") as f:
        for rid in sorted(plan.requests):
            f.write(plan.requests[rid][2] + b"\n")
    out = os.path.join(work, "references.frames")
    subprocess.run([PBTOOL, "reference", reqs, out], stdout=subprocess.DEVNULL, check=True)
    expected = dict(zip(sorted(plan.requests), loadgen.read_frames(out)))
    checked = {}
    for rid, payload in expected.items():
        verb, params, _ = plan.requests[rid]
        key = json.dumps([verb, params], sort_keys=True)
        if key not in checked:
            checked[key] = workloads.paper_check(verb, params, json.loads(payload))
        if checked[key]:
            raise Refused("reference for %s %s contradicts the paper: %s" % (verb, key, checked[key]))
    return expected


def set_up(plan, expected, sock):
    """Spawn the daemon and warm it up; returns (daemon, seconds)."""
    t0 = time.perf_counter()
    d = Daemon(sock, plan.spec["workers"], DAEMON_CPUS)
    try:
        for rid in plan.warmup:
            if d.conn.call(plan.requests[rid][2]) != expected[rid]:
                raise Refused("warm-up reply %d differs from its reference" % rid)
    except BaseException:
        d.kill()
        raise
    return d, time.perf_counter() - t0


def median_setup(plan, expected, sock, repeats):
    times = []
    for i in range(repeats):
        d, s = set_up(plan, expected, sock)
        times.append(s)
        if i < repeats - 1:
            d.stop()
    return d, statistics.median(times)


def phase(gen, plan, sched, seconds, status=False):
    records, backlog = gen.run_phase(plan.items(sched), seconds, DRAIN_S, STATUS_EVERY_S if status else None)
    s = stats.summarize(records, backlog, plan.spec["tail_limit_ms"], seconds)
    s["records"] = records
    s["status"], gen.status_replies = gen.status_replies, []
    return s


def search(probe, start, rate_max):
    """Highest passing offered rate found in PROBES calls of
    probe(k, rate), which returns the probe's summary.  The search starts
    at `start`, moves by a factor of SEARCH_STEP until a probe changes
    outcome, then bisects geometrically between the highest passing and
    the lowest failing rate.  Probes stay near the capacity, so a failing
    one leaves a backlog that drains within about one probe.  Returns
    (highest passing rate or None, [(rate, summary)])."""
    lo, hi, steps = None, None, []
    rate = min(start, rate_max)
    for k in range(PROBES):
        s = probe(k, rate)
        steps.append((rate, s))
        if s["passes"]:
            lo = rate
        else:
            hi = rate
        if lo is not None and hi is not None:
            rate = math.sqrt(lo * hi)
        elif hi is not None:
            rate = rate / SEARCH_STEP
        elif rate < rate_max:
            rate = min(rate * SEARCH_STEP, rate_max)
        else:
            break
    return lo, steps


def run_workload(name, spec, seed, seconds, trace):
    if spec["workers"] > nproc():
        raise Refused(
            "workload %s asks for %d daemon workers but this machine has nproc = %d"
            % (name, spec["workers"], nproc())
        )
    work = os.path.join(STATE, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        return measure(name, spec, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(name, spec, seed, seconds, trace, work):
    plan = Plan(spec, seed, seconds, trace)
    traced = None
    if trace:
        # the traced phase repeats the untraced one, request for request
        traced = plan.repeat(plan.nominal)
    expected = references(plan, work)
    sock = os.path.join(work, "d.sock")
    steal0 = loadgen.host_steal_s()
    daemon, setup_s = median_setup(plan, expected, sock, 1 if trace else SETUP_REPEATS)
    try:
        gen = loadgen.Loadgen(daemon.conn, expected)
        cpu0 = loadgen.proc_cpu_s(daemon.pid)
        nominal = phase(gen, plan, plan.nominal, plan.nominal_s)
        cpu1 = loadgen.proc_cpu_s(daemon.pid)
        rss = loadgen.proc_hwm_mib(daemon.pid)
        completed = nominal["attempted"] - nominal["failed"]
        cpu_ms = (cpu1 - cpu0) * 1e3 / max(completed, 1)
        steps = [(spec["nominal_rps"], nominal)]
        if trace:
            traced_summary = phase(gen, plan, traced, plan.nominal_s, status=True)
            # the capacity search starts at the rate the daemon's CPU time
            # per request at the nominal rate allows
            best, probes = search(
                lambda k, rate: phase(gen, plan, plan.probe(k, rate), plan.probe_s, status=True),
                1e3 * spec["workers"] / max(cpu_ms, 1e-3),
                spec["rate_max_rps"],
            )
            steps += probes
    finally:
        daemon.stop()
    steal = loadgen.host_steal_s() - steal0
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": fingerprint(),
        "workers": spec["workers"],
        "daemon_cpus": sorted(DAEMON_CPUS) if DAEMON_CPUS else None,
        "nominal_rps": spec["nominal_rps"],
        "wrong_replies": len(gen.wrong),
        # CPU time the host took from this machine while it was timed
        "host_steal_s": steal,
        "phases": [
            {"rate_rps": r, **{k: v for k, v in s.items() if k not in ("records", "status")}}
            for r, s in steps
        ],
    }
    correct = not gen.wrong
    attempted, failed = nominal["attempted"], nominal["failed"]
    result["samples"] = nominal["samples"]
    result["tail_percentile"] = nominal["tail_percentile"]
    result["p99_ms"] = nominal["p99_ms"]
    # every latency of the nominal phase, in due-time order, for analyses
    # the summary does not make
    result["latencies_ms"] = [
        round(v, 3) if math.isfinite(v) else None
        for v in stats.latencies_ms(sorted(nominal["records"], key=lambda r: r["due"]))
    ]
    log("tail_ms is p%.2f of %d samples; p99 (%d beyond it) reads %.3f ms"
        % (nominal["tail_percentile"], nominal["samples"], stats.samples_beyond(nominal["samples"], 99),
           finite(nominal["p99_ms"])))
    if not trace:
        metrics = {
            "cpu_ms_per_req": (cpu_ms, "ms"),
            "rss_mb": (rss, "MiB"),
            "setup_s": (setup_s, "s"),
            "success_frac": (completed / attempted, "ratio"),
        }
    else:
        sample = [rid for _, rid in traced][: spec["replay_max"]]
        replay_ok, metrics, spans_path = layers.traced_metrics(
            name, seed, plan, expected, sample, nominal, traced_summary, steps, work
        )
        # served latency and capacity: wall-clock figures that move with the
        # host's load by more than any bound could allow (see README), so
        # they are reported beside the layers rather than gated
        metrics = {
            "p50_ms": (nominal["p50_ms"], "ms"),
            "tail_ms": (nominal["tail_ms"], "ms"),
            "max_rate_rps": (best or 0.0, "req/s"),
            **metrics,
        }
        correct = correct and replay_ok
        result["spans"] = spans_path
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["correct"] = correct
    return result, attempted, failed


def finite(v):
    """A reportable number: a percentile that failed requests pushed to
    infinity is reported as 1e9 ms, far past any latency limit."""
    return v if math.isfinite(v) else 1e9


def emit(result, attempted, failed):
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(
        STATE, "results", "%s-seed%d-trace%d.json" % (result["workload"], result["seed"], result["trace"])
    )
    with open(path, "w") as f:
        json.dump(result, f, indent=1, default=str)
    log("fingerprint: %s" % json.dumps(result["fingerprint"]))
    for k, m in result["metrics"].items():
        print("%-36s %14.6g %s" % (k, m["value"], m["unit"]))
    metrics = {k: {"value": finite(m["value"]), "unit": m["unit"]} for k, m in result["metrics"].items()}
    print(
        json.dumps(
            {"correct": result["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its daemon: SystemExit unwinds through
    # the `finally` blocks that shut it down
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    global DAEMON_CPUS
    try:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        specs = workloads.load(os.path.join(HERE, "workloads.json"))
        seconds = args.seconds or bench["run_seconds"]
        names = list(specs) if args.all else [args.workload]
        if None in names or any(n not in specs for n in names):
            raise Refused("unknown workload %r (have: %s)" % (args.workload, ", ".join(specs)))
        build()
        DAEMON_CPUS = split_cpus()
        ok = True
        for name in names:
            result, attempted, failed = run_workload(name, specs[name], args.seed, seconds, args.trace)
            if args.all:
                print("== %s" % name)
            emit(result, attempted, failed)
            ok = ok and result["correct"]
        return 0 if ok else 1
    except Refused as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
