"""Summarize benchmark result files, or compare a change against its parent.

    python3 perfbench/summarize.py RESULTS_DIR [--against PARENT_RESULTS_DIR]

Reads the ``*-trace0.json`` files that ``run.py`` writes and prints, per
workload and end-to-end metric: run count, median, quartiles (Python's
``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median next to the
metric's bound.  With ``--against``, runs are paired by seed and each row also
gives the parent's median, the change's share of pairs won (ties count for
neither) and a verdict under the rules of README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """{workload: {seed: {metric: value}}} from the untraced result files."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        values = {name: m["value"] for name, m in doc["metrics"].items()}
        runs.setdefault(doc["workload"], {})[doc["stamp"]["seed"]] = values
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", help="directory of result files (the change)")
    parser.add_argument("--against", help="directory of the parent's result files")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    change = load(args.results)
    parent = load(args.against) if args.against else {}
    ok = True
    for workload in sorted(change):
        print(f"\n{workload}")
        for name, m in spec.items():
            seeds = sorted(change[workload])
            values = [change[workload][s][name] for s in seeds]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            line = (f"  {name:14s} n={len(values):2d} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                    f"spread={spread:.3f} bound={m['bound']}")
            if name != "setup_s" and spread > m["bound"]:
                line += "  SPREAD ABOVE BOUND"
                ok = False
            if workload in parent:
                paired = [s for s in seeds if s in parent[workload]]
                base = [parent[workload][s][name] for s in parent[workload]]
                b1, bmed, b3 = quartiles(base)
                sign = 1.0 if m["better"] == "higher" else -1.0
                wins = sum(sign * (change[workload][s][name] - parent[workload][s][name]) > 0
                           for s in paired)
                gain = sign * (med - bmed) / bmed
                if -gain > m["bound"]:
                    verdict = "REGRESSION"
                    ok = False
                elif paired and wins >= 0.9 * len(paired) and gain > (b3 - b1) / bmed:
                    verdict = "gain"
                else:
                    verdict = "no claim"
                line += (f" | parent median={bmed:.6g} gain {100 * gain:+.1f}% "
                         f"wins={wins}/{len(paired)} -> {verdict}")
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
