#!/usr/bin/env python3
"""Summarise benchmark run records: per workload and metric, the median,
quartiles and IQR/median over runs, as the acceptance check computes them
(statistics.quantiles(values, n=4)).

Run from the repository root after some runs:

    python3 perfbench/spread.py [.bench_build/runs/*.json ...]

With no arguments it reads every record under .bench_build/runs.
"""
import glob
import json
import statistics
import sys
from collections import defaultdict


def main(paths):
    paths = paths or sorted(glob.glob(".bench_build/runs/*.json"))
    values = defaultdict(list)
    reps = defaultdict(list)
    for path in paths:
        with open(path) as f:
            rec = json.load(f)
        key = (rec["workload"], "trace" if rec["trace"] else "e2e")
        for name, m in rec["result"]["metrics"].items():
            values[key + (name,)].append(m["value"])
        reps[key].append(len(rec["reps"]))
    print(f"{'workload':14} {'mode':5} {'metric':28} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for key in sorted(values):
        vs = values[key]
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"{key[0]:14} {key[1]:5} {key[2]:28} {len(vs):4} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    for key, n in sorted(reps.items()):
        print(f"{key[0]:14} {key[1]:5} repetitions per run: {statistics.median(n)}")


if __name__ == "__main__":
    main(sys.argv[1:])
