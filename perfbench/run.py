#!/usr/bin/env python3
"""Build the benchmark harness from source and run one benchmark run.

    python3 perfbench/run.py --workload fig3-pages --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository: the harness is
built with dune at the checkout root (dune's shared cache disabled, so
nothing is written outside the checkout).

A run is PARTS parts of the seed's op sequence, each measured for
seconds / PARTS in its own harness process, one after another.  How
fast this program runs on a shared VM changes from one process to the
next, so one run pools several processes: throughput and latency
percentiles are taken over the ops of every part, set-up time is the
median of every timed set-up of every part, the per-layer totals in
SUMMED are summed, and every other metric is the mean over the parts.
The times pooled are the harness's host-adjusted ones (see the Probe
module in xbench.ml); a line above the result gives the same pooled
figures as measured.  The parts' summary lines are passed through; the
last line of standard output is the combined JSON result.

Exits non-zero without a result when the checkout holds no dune project
to build, when the build fails, when a part fails or reports a value
that is not a number, or when the run exceeds RUN_TIMEOUT_S.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "xbench.exe")
PARTS = 5
RUN_TIMEOUT_S = 170
# per-layer counts that are totals over a pass: the run's total is their sum
SUMMED = {
    "plan_cache.evictions", "result_cache.invalidations", "result_cache.evictions",
    "shred.batch_steps", "shred.rel_steps", "shred.dom_fallbacks", "shred_vm.fallback_docs",
    "trace.spans",
}


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, as the harness computes it."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(len(sorted_values) - 1, lo + 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def as_measured(results):
    """Summary line of the pooled times as measured, before host adjustment."""
    pooled = {}
    for r in results:
        for cls, ns in r["raw_latencies_ns"].items():
            pooled.setdefault(cls, []).extend(ns)
    every = [ns for l in pooled.values() for ns in l]
    line = "as measured, all parts: throughput %.4f/s" % (len(every) / (sum(every) / 1e9))
    for cls, ns in pooled.items():
        if ns:
            s = sorted(ns)
            line += ", %s p50 %.6gms p90 %.6gms" % (cls, percentile(s, 0.5) / 1e6, percentile(s, 0.9) / 1e6)
    setup = statistics.median([t for r in results for t in r["raw_setup_times"]])
    return line + ", set-up %.6gs" % setup


def combine(results, trace):
    names = list(results[0]["metrics"])
    metrics = {}
    pooled = {}
    if trace == 0:
        for r in results:
            for cls, ns in r["latencies_ns"].items():
                pooled.setdefault(cls, []).extend(ns)
        every = [ns for l in pooled.values() for ns in l]
        pooled = {cls: sorted(ns) for cls, ns in pooled.items()}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            return None, name
        cls, _, q = name.partition("_p")
        if trace == 0 and name == "throughput_rps":
            value = len(every) / (sum(every) / 1e9)
        elif trace == 0 and name.endswith("_ms") and cls in pooled:
            value = percentile(pooled[cls], int(q[:-3]) / 100) / 1e6
        elif trace == 0 and name == "setup_s":
            value = statistics.median([t for r in results for t in r["setup_times"]])
        elif name in SUMMED:
            value = sum(values)
        else:
            value = statistics.fmean(values)
        metrics[name] = {"value": value, "unit": results[0]["metrics"][name]["unit"]}
    return metrics, None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("no dune project at %s (dune-project and lib/ are missing)" % ROOT, 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/xbench.exe"],
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return fail("build failed", build.returncode)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for part in range(PARTS):
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
               "--seconds", repr(args.seconds / PARTS), "--trace", str(args.trace)]
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return fail("run exceeded %ds (in part %d)" % (RUN_TIMEOUT_S, part), 3)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            return fail("part %d exited %d" % (part, out.returncode), 3)
        for line in lines[:-1]:
            print("part %d: %s" % (part, line))
        results.append(json.loads(lines[-1]))
    metrics, bad = combine(results, args.trace)
    if metrics is None:
        return fail("metric %s is not a number in some part" % bad, 4)
    if args.trace == 0:
        print(as_measured(results))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
