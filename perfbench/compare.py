"""Compare two sets of benchmark results, one workload at a time.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (its .perfbench/results
directory, or a copy of it).  For every workload present in both, prints
each end-to-end metric's median on both sides, the run-to-run spread
(interquartile range over median) of each side, how much worse the new
median is, and a verdict against the metric's BENCHMARK.json bound:
"better" when every new run beats every base run, "unresolved" when either
side's spread is wider than the bound, "REGRESSED" when the new median is
worse by more than the bound, else "ok".  Exits 1 when any metric
regressed, 3 when none did but some are unresolved, else 0.
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load_runs(directory):
    """{workload: [{metric: value}]} of the untraced result files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace"):
            continue
        runs.setdefault(r["workload"], []).append({k: m["value"] for k, m in r["metrics"].items()})
    return runs


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load_runs(argv[0]), load_runs(argv[1])
    verdicts = set()
    for wl in sorted(set(base) & set(new)):
        print("== %s (%d base runs, %d new runs)" % (wl, len(base[wl]), len(new[wl])))
        for row in stats.regressions(base[wl], new[wl], metrics):
            print(
                "  %-16s %12.5g -> %12.5g %-6s spread %.3f / %.3f  worse by %+.3f (bound %.2f) %s"
                % (
                    row["name"],
                    row["base_median"],
                    row["new_median"],
                    row["unit"],
                    row["base_spread"],
                    row["new_spread"],
                    row["worse_by"],
                    row["bound"],
                    row["verdict"],
                )
            )
            verdicts.add(row["verdict"])
    if "REGRESSED" in verdicts:
        return 1
    return 3 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
