#!/usr/bin/env python3
"""Compare sets of benchmark runs metric by metric.

    python3 perfbench/compare.py BASE_OUT [CHANGE_OUT] [--details]

Each argument is a directory a set of runs wrote to (`run.py --out`); the
result files under its `results/` are grouped by workload. For every metric
of `BENCHMARK.json` the table shows each side's median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median. It flags:

  noisy       the spread is above a third of the metric's bound
  UNSTEADY    the spread is above the bound
  REGRESSION  the change's median is worse than the base's by more than the bound

Untraced runs are compared on the end-to-end metrics, traced runs on the
per-layer metrics (which have no bound, so they are never flagged).
`--details` adds every per-workload metric a run reports (q_count_p50_ms,
get_p99_us, serve_max_rate, ...). The exit code is 1 when anything is
UNSTEADY or a REGRESSION.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(out_dir):
    """{(workload, traced): [result document, ...]}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "results", "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(base, change, better):
    if base == 0:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def main(argv):
    details = "--details" in argv
    dirs = [a for a in argv if not a.startswith("--")]
    if not 1 <= len(dirs) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sides = [load(d) for d in dirs]
    flagged = False
    for key in sorted(set(sides[0]) | set(sides[-1])):
        workload, traced = key
        metrics = bench["per_layer"] if traced else bench["end_to_end"]
        rows = [(m["name"], m.get("bound"), m.get("better", "lower"), "metrics") for m in metrics]
        if details:
            names = sorted({n for side in sides for doc in side.get(key, []) for n in doc["detail"]})
            rows += [(n, None, "lower", "detail") for n in names]
        counts = "/".join(str(len(side.get(key, []))) for side in sides)
        print(f"\n{workload} ({'traced' if traced else 'untraced'}, runs {counts})")
        print(f"  {'metric':<34} {'side':<6} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7}  flags")
        for name, bound, better, section in rows:
            medians = []
            for label, side in zip(("base", "change"), sides):
                values = [d[section][name]["value"] for d in side.get(key, []) if name in d[section]]
                if not values:
                    continue
                q1, med, q3 = summary(values)
                s = spread(values)
                flags = []
                if bound is not None and s > bound / 3:
                    flags.append("noisy")
                if bound is not None and s > bound:
                    flags.append("UNSTEADY")
                    flagged = True
                medians.append(med)
                if len(medians) == 2 and bound is not None:
                    w = worse_by(medians[0], medians[1], better)
                    flags.append(f"{w:+.1%} worse" if w > 0 else f"{-w:.1%} better")
                    if w > bound:
                        flags.append("REGRESSION")
                        flagged = True
                print(f"  {name:<34} {label:<6} {q1:>12.4g} {med:>12.4g} {q3:>12.4g} {s:>7.1%}  {' '.join(flags)}")
        failed = [d for side in sides for d in side.get(key, []) if not d["correct"]]
        if failed:
            flagged = True
            print(f"  {len(failed)} run(s) were not correct")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
