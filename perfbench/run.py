"""Benchmark entry point.

    python3 perfbench/run.py --workload slice-keep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the solver from src/.  With
--trace 0 it reports the end-to-end metrics of an untraced run; with
--trace 1 it runs the same inputs untraced and then traced, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
--workload all runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# The solver is imported from the checkout's source tree; without it the
# imports below fail and the run exits non-zero before printing a result.
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

clock = time.perf_counter

# A run stops issuing work after this many seconds and counts the rest as
# failed, so that it always exits within the 180 s a run may take.
RUN_CAP_S = 150.0
# setup_s is the median of several set-ups: at least SETUP_MIN_REPS, and
# more until SETUP_MIN_S seconds were spent setting up.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 100
# Every span's self time must be at least this: a child span lies inside
# its parent, up to float rounding.
MIN_SELF_S = -1e-9
# The solver.* spans directly under the timed root must account for the
# recorded wall_s to within this share of it; the rest is the Recorder's
# own per-call bookkeeping.
WALL_TOLERANCE = 0.01

WORKLOAD_NAMES = tuple(WORKLOADS)


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(w, inputs):
    """Set up repeatedly; returns (median seconds, the last set-up)."""
    times = []
    states = None
    while (len(times) < SETUP_MIN_REPS
           or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS)):
        states = None
        gc.collect()
        t = clock()
        states = w.setup(inputs)
        times.append(clock() - t)
    return statistics.median(times), states


def timed_run(w, states, deadline):
    gc.collect()
    rec = Recorder(deadline)
    w.run(states, rec)
    return rec


def median_p90(lat):
    """Median and 90th percentile of the latencies (0 when there are none,
    which happens only when every solve call failed)."""
    if len(lat) < 2:
        return (lat[0], lat[0]) if lat else (0.0, 0.0)
    return statistics.median(lat), statistics.quantiles(lat, n=10)[8]


def end_to_end(w, inputs, deadline):
    setup_s, states = timed_setup(w, inputs)
    rec = timed_run(w, states, deadline)
    lat = rec.latencies
    p50, p90 = median_p90(lat)
    metrics = {"wall_s": metric(rec.wall_s, "s"),
               "solve_s.p50": metric(p50, "s"),
               "solve_s.p90": metric(p90, "s"),
               "setup_s": metric(setup_s, "s"),
               "peak_rss_mb": metric(peak_rss_mb(), "MB")}
    notes = ["solve_s.p50 and solve_s.p90 over the %d solve calls after "
             "clause additions; %d samples beyond p90" %
             (len(lat), sum(1 for x in lat if x > p90))]
    if rec.pop_latencies:
        notes.append("%d solve calls after pops only (in wall_s): median "
                     "%.6f s" % (len(rec.pop_latencies),
                                 median_p90(rec.pop_latencies)[0]))
    return rec, metrics, notes


def per_layer(w, name, seed, inputs, deadline):
    plain = timed_run(w, w.setup(inputs), deadline)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("bench.setup"):
            states = w.setup(inputs)
        gc.collect()
        rec = Recorder(deadline)
        with tracer.root("bench.timed"):
            w.run(states, rec)
    finally:
        tracer.uninstall()
    states = None

    notes = []
    if rec.counts != plain.counts or rec.verdicts != plain.verdicts:
        rec.fail("traced and untraced runs differ in counts or verdicts")
    spans = tracer.spans()
    summary = tracer.summary(spans)
    timed = summary["bench.timed"]
    for root in summary.values():
        if root["min_self_s"] < MIN_SELF_S:
            rec.fail("a span has self time %.3g s: a child span lies outside "
                     "its parent" % root["min_self_s"])
    gap = rec.wall_s - timed["children_s"]
    if abs(gap) > WALL_TOLERANCE * rec.wall_s:
        rec.fail("solver spans under bench.timed miss wall_s %.3f s by %.3f s"
                 % (rec.wall_s, gap))
    notes.append("solver spans under bench.timed: %.6f s of wall_s %.6f s"
                 % (timed["children_s"], rec.wall_s))
    self_s = dict(timed["self_s"])
    calls = timed["calls"]
    self_s["qdimacs.parse"] = summary["bench.setup"]["self_s"]["qdimacs.parse"]
    counts = tracer.counts
    m = {}
    for _, _, span in SPANS:
        m[span + "_s"] = metric(self_s.get(span, 0.0), "s")
    m["bench.self_s"] = metric(self_s["bench.timed"], "s")
    m["qdimacs.clauses"] = metric(counts["qdimacs.clauses"], "count")
    for span in ("solver.solve", "incremental.garbage_collect",
                 "qcdcl.propagate", "qcdcl.reduce_db", "qres.resolve",
                 "qres.reduce_lits"):
        m[span + ".calls"] = metric(calls.get(span, 0), "count")
    for key in ("qcdcl.clause_scans", "qcdcl.cube_scans",
                "qcdcl.cube_scan_hits", "qres.resolve.rejected",
                "incremental.models_rechecked"):
        m[key] = metric(counts[key], "count")
    m["qcdcl.cube_scan_hit_ratio"] = metric(
        counts["qcdcl.cube_scan_hits"] / max(1, counts["qcdcl.cube_scans"]),
        "ratio")
    m["incremental.models_kept_ratio"] = metric(
        counts["incremental.models_kept"]
        / max(1, counts["incremental.models_rechecked"]), "ratio")
    for key, value in rec.counts.items():
        m["qcdcl." + key] = metric(value, "count")
    for key, value in zip(("learned_clauses", "cubes", "models"), rec.max_sizes):
        m["qcdcl.%s.max" % key] = metric(value, "count")
    overhead = rec.wall_s - plain.wall_s
    m["trace.root_s"] = metric(timed["duration_s"], "s")
    m["trace.untraced_wall_s"] = metric(plain.wall_s, "s")
    m["trace.traced_wall_s"] = metric(rec.wall_s, "s")
    m["trace.overhead_s"] = metric(overhead, "s")
    m["trace.overhead_ratio"] = metric(overhead / max(plain.wall_s, 1e-9),
                                       "ratio")
    m["trace.spans"] = metric(len(spans[0]), "count")

    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.tsv.gz" % (name, seed))
    tracer.write(path, spans)
    notes.append("spans written to %s" % path.relative_to(HERE.parent))
    notes.append("tracing overhead %.3f s (%.1f%% of untraced wall_s %.3f s)"
                 % (overhead, 100 * m["trace.overhead_ratio"]["value"],
                    plain.wall_s))
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.failures = plain.failures + rec.failures
    return rec, m, notes


def run_one(args) -> int:
    started = clock()
    w = WORKLOADS[args.workload]
    inputs = w.inputs(args.seed, args.seconds)
    deadline = started + RUN_CAP_S
    if args.trace:
        rec, metrics, notes = per_layer(w, args.workload, args.seed, inputs,
                                        deadline)
    else:
        rec, metrics, notes = end_to_end(w, inputs, deadline)
    print("workload %s, seed %d, seconds %g, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for note in notes:
        print(note)
    print("fail_rate %.6f (%d failed of %d solve calls)"
          % (rec.failed / max(1, rec.attempted), rec.failed, rec.attempted))
    for failure in rec.failures:
        print("failure: %s" % failure)
    for key, m in metrics.items():
        print("%-36s %16.6f %s" % (key, m["value"], m["unit"]))
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("workload %s exited with %d" % (name, proc.returncode),
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    keys = list(results[WORKLOAD_NAMES[0]]["metrics"])
    width = max(len(k) for k in keys + ["fail_rate"])
    print()
    print("%-*s  %-6s %s" % (width, "metric", "unit",
                            " ".join("%14s" % n for n in WORKLOAD_NAMES)))
    for key in keys:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][key]["unit"]
        print("%-*s  %-6s %s" % (width, key, unit, " ".join(
            "%14.6g" % results[n]["metrics"][key]["value"]
            for n in WORKLOAD_NAMES)))
    print("%-*s  %-6s %s" % (width, "fail_rate", "ratio", " ".join(
        "%14.6g" % (r["failed"] / r["attempted"]) for r in results.values())))
    combined = {"%s/%s" % (n, k): v for n, r in results.items()
                for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="incqbf benchmark")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # The run size grows with --seconds; the pools of stored inputs do not.
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        w = WORKLOADS[name]
        most = w.capacity / w.PER_SECOND
        if args.seconds > most:
            ap.error("--seconds %g is too large for %s: its pool holds %d "
                     "items, enough for --seconds %.2f at most"
                     % (args.seconds, name, w.capacity, most))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
