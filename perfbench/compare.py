#!/usr/bin/env python3
"""Summarize and compare benchmark runs.

Each FILE holds result lines of perfbench/run.py (its last stdout line,
one run per line) for one workload.  With one file, prints each
metric's median, quartiles and quartile spread (q3 - q1) / median.
With two (parent first), also prints the change of the median and
whether it stays within the metric's bound from BENCHMARK.json:

  python3 perfbench/compare.py runs_parent.jsonl [runs_change.jsonl]
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    values = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    failed = sum(run["failed"] for run in runs)
    return values, len(runs), failed


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, n_base, failed_base = load(argv[1])
    print(f"{argv[1]}: {n_base} runs, {failed_base} failed checks")
    change = None
    if len(argv) == 3:
        change, n_change, failed_change = load(argv[2])
        print(f"{argv[2]}: {n_change} runs, {failed_change} failed checks")
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
          + ("  change  verdict" if change else ""))
    for name, values in base.items():
        med, q1, q3, spread = summary(values)
        line = f"{name:<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f}"
        if change and name in change and med:
            new = statistics.median(change[name])
            rel = new / med - 1.0
            entry = better.get(name, {})
            worse = -rel if entry.get("better") == "higher" else rel
            bound = entry.get("bound")
            verdict = ("" if bound is None else
                       "ok" if worse <= bound else "WORSE than bound")
            line += f"  {rel:+7.3f}  {verdict}"
        print(line)


if __name__ == "__main__":
    main(sys.argv)
