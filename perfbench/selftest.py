#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [--seconds 1] [--workloads a,b]

For every workload:
  - two traced runs with the same seed must report identical counts:
    every per-layer metric that is not a time (cache, compile, executor,
    allocation, shred-step, GC and span counters);
  - a run with another seed must pass its oracles too.
Exits 1 on the first difference or failure.

The untraced run's allocation and heap figures are measurements, not
counts: two same-seed runs have been seen to differ by 0.1 % and 2 %.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIME_UNITS = {"ms", "s", "%", "1/s"}


def run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit("FAIL %s seed %d trace %d exited %d:\n%s"
                         % (workload, seed, trace, out.returncode, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("FAIL %s seed %d trace %d: correct=%s failed=%d"
                         % (workload, seed, trace, result["correct"], result["failed"]))
    return result


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] not in TIME_UNITS}


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        a = counts(run(workload, 1, args.seconds, 1))
        b = counts(run(workload, 1, args.seconds, 1))
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        if diff:
            raise SystemExit("FAIL %s: same seed, different counts: %s" % (workload, diff))
        print("ok   %s: %d counts identical across two seed-1 traced runs" % (workload, len(a)),
              flush=True)
        run(workload, 2, args.seconds, 1)
        print("ok   %s: seed 2 passes its oracles" % workload, flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
