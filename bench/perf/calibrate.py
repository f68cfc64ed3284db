"""Measure the benchmark's run-to-run spread and write calibration.json.

    python3 bench/perf/calibrate.py > bench/perf/calibration.json

Run from the repository root.  For every workload in BENCHMARK.json it
makes two sets of ten untraced runs (seeds 1-10 in each set), and reports
for each end-to-end metric the spread of a set (the distance between the
first and third quartile over the median) and how far the second set's
median moved from the first.  It then runs the traced mode twice at
seed 1 and checks that the work counters repeat exactly.  Raw per-run numbers and the summary go to stdout as JSON;
progress goes to stderr.  Exit 1 when a run fails, a spread or a median
drift exceeds its bound, or a counter does not repeat.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

# Per-layer metrics that count work and must repeat bit for bit.  Not
# server.pool.completed: the pool counts a job after its response can
# already be out, so a scrape right behind it can miss the last one.
COUNTERS = [
    "sap.elevator.dp_states",
    "sap.elevator.exact_ratio",
    "lp.simplex.iterations",
    "lp.simplex.cells_touched",
    "lp.simplex.warm_restarts",
    "lp.simplex.warm_pivots_saved",
    "ufpp.lp_rounding.trials",
    "ufpp.lp_rounding.improvement_ratio",
    "dsa.strip_transform.loss_fraction",
    "rects.rect_mwis.branch_nodes",
    "server.cache.hit_ratio",
    "server.errors",
    "server.session.repacked_per_resolve",
    "server.session.warm_ratio",
]

SETS, RUNS, TRACE_REPEATS = 2, 10, 2


def run(bench, workload, seed, trace):
    """The run's metrics, or None (reported on stderr) when it failed."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        print(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: incorrect or failed operations: {result}", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.load(open("BENCHMARK.json"))
    out = {
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine()},
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    failures = []
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for seed in range(1, RUNS + 1):
                m = run(bench, w, seed, 0)
                print(w, "set", s + 1, "seed", seed, m, file=sys.stderr, flush=True)
                if m is None:
                    failures.append((w, s + 1, seed))
                else:
                    runs.append({"seed": seed, "metrics": m})
            sets.append(runs)
        summary = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(r["metrics"][name] for r in runs) for runs in sets]
            spreads = [spread([r["metrics"][name] for r in runs]) for runs in sets]
            sign = 1 if m["better"] == "lower" else -1
            drift = max(sign * (x - medians[0]) / medians[0] for x in medians)
            within = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok = ok and within
            summary[name] = {
                "bound": bound,
                "medians": medians,
                "spreads": spreads,
                "worst_drift": drift,
                "within_bound": within,
            }
        traces = [t for t in (run(bench, w, 1, 1) for _ in range(TRACE_REPEATS)) if t]
        failures += [(w, "trace", 1)] * (TRACE_REPEATS - len(traces))
        repeat = {c: [t[c] for t in traces] for c in COUNTERS}
        same = all(len(set(v)) == 1 for v in repeat.values())
        ok = ok and same
        out["workloads"][w] = {
            "sets": sets,
            "summary": summary,
            "trace_counters": repeat,
            "counters_repeat": same,
        }
    out["failed_runs"] = failures
    json.dump(out, sys.stdout, indent=1)
    print()
    sys.exit(0 if ok and not failures else 1)


if __name__ == "__main__":
    main()
