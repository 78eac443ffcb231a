#!/usr/bin/env python3
"""Steadiness check: run every workload with several seeds and report,
for each end-to-end metric, the median, the quartiles and the spread
(interquartile distance as a share of the median) against the metric's
bound in BENCHMARK.json; compare two such sets of runs.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--first-seed 1]
                                    [--save set1.json]
    python3 perfbench/steadiness.py --report set1.json [set2.json]
                                    [--markdown perfbench/STEADINESS.md]

Runs are sequential (one benchmark run at a time).  --report renders
saved sets: a table per set and workload and, given two sets, each
median's change from the first set to the second, flagged where the
second set is worse by more than the bound.  With --markdown the record
is written as Markdown, keeping whatever an existing file holds above
its marker line.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARKER = "<!-- generated below by steadiness.py -->"


def run_once(cmd, workload, seed, seconds):
    out = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, out.returncode, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d reported incorrect output" % (workload, seed))
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def measure(bench, workloads, runs, first_seed):
    record = {"host": "%s, %d CPUs, Python %s" % (platform.platform(), os.cpu_count(),
                                                 platform.python_version()),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in workloads:
        values = {}
        t0 = time.time()
        for k in range(runs):
            result = run_once(bench["command"], workload, first_seed + k, bench["run_seconds"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        record["workloads"][workload] = {"seeds": [first_seed, first_seed + runs - 1],
                                         "wall_s": time.time() - t0, "values": values}
        print("\n".join(set_table(bench, record, workload)[0]), flush=True)
    return record


def set_table(bench, record, workload):
    """Markdown lines for one workload of one set, and its largest spread/bound."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    w = record["workloads"][workload]
    runs = len(next(iter(w["values"].values())))
    lines = ["%d runs, seeds %d-%d, %.0f s wall.\n" % (runs, w["seeds"][0], w["seeds"][1], w["wall_s"]),
             "| metric | Q1 | median | Q3 | spread | bound | spread/bound |",
             "|---|---|---|---|---|---|---|"]
    worst = (0.0, "")
    for name, vals in w["values"].items():
        q1, med, q3, s = spread(vals)
        b = bounds[name]
        worst = max(worst, (s / b, "%s %s" % (workload, name)))
        lines.append("| %s | %.6g | %.6g | %.6g | %.4f | %.2f | %.2f |" % (name, q1, med, q3, s, b, s / b))
    return lines + [""], worst


def compare_table(bench, a, b):
    """Markdown lines comparing the medians of two sets, and how many are worse past their bound."""
    spec = {m["name"]: m for m in bench["end_to_end"]}
    lines = ["| workload | metric | median, first set | median, second set | change | worse by | bound |",
             "|---|---|---|---|---|---|---|"]
    past = 0
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for name, va in wa["values"].items():
            ma, mb = statistics.median(va), statistics.median(wb["values"][name])
            change = (mb - ma) / ma
            worse = change if spec[name]["better"] == "lower" else -change
            flag = ""
            if worse > spec[name]["bound"]:
                past += 1
                flag = " **past bound**"
            lines.append("| %s | %s | %.6g | %.6g | %+.3f | %+.3f%s | %.2f |"
                         % (workload, name, ma, mb, change, worse, flag, spec[name]["bound"]))
    return lines + [""], past


def report(bench, sets):
    lines = []
    worst = (0.0, "")
    for k, record in enumerate(sets):
        lines.append("## Set %d\n" % (k + 1))
        lines.append("Host: %s; run_seconds %d.\n" % (record["host"], record["run_seconds"]))
        for workload in record["workloads"]:
            t, wst = set_table(bench, record, workload)
            lines += ["### %s\n" % workload] + t
            worst = max(worst, wst)
    lines.append("Largest spread/bound over both sets, setup_s included: %.2f (%s).\n" % worst)
    if len(sets) == 2:
        t, past = compare_table(bench, sets[0], sets[1])
        lines += ["## Second set against the first\n",
                  "Change is (second median - first median) / first median; worse by is the "
                  "change in the metric's worse direction.\n"] + t
        lines.append("Medians worse than the first set's by more than their bound: %d.\n" % past)
    return lines


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--save")
    ap.add_argument("--report", nargs="+")
    ap.add_argument("--markdown")
    args = ap.parse_args()
    if args.report:
        sets = [json.load(open(p)) for p in args.report[:2]]
    else:
        sets = [measure(bench, args.workloads.split(","), args.runs, args.first_seed)]
        if args.save:
            with open(args.save, "w") as f:
                json.dump(sets[0], f, indent=1)
    lines = report(bench, sets)
    print("\n".join(lines if args.report else lines[-1:]))
    if args.markdown:
        # keep the hand-written part of an existing record, above the marker
        head = "# Steadiness record\n\n"
        if os.path.exists(args.markdown):
            text = open(args.markdown).read()
            if MARKER in text:
                head = text[:text.index(MARKER)]
        with open(args.markdown, "w") as f:
            f.write(head + MARKER + "\n\n")
            f.write("Written by `python3 perfbench/steadiness.py %s`.\n" % " ".join(sys.argv[1:]))
            f.write("Spread is (Q3 - Q1) / median over the runs, quartiles as "
                    "`statistics.quantiles(values, n=4)` gives them.\n\n")
            f.write("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
