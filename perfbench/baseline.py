#!/usr/bin/env python3
"""Summarise benchmark records into one baseline file (BENCH_<n>.json).

    python3 perfbench/baseline.py --label "seed commit" \\
        --out perfbench/BENCH_0.json

Reads the records ``run.py`` wrote under ``.bench_build/perfbench/`` and,
for each workload, keeps the median and quartiles of each end-to-end metric
over the untraced runs (one per seed), and each per-layer metric's median
over the traced runs. Smoke runs are skipped.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict

from run import OUT


def summary(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*.json"))
               if not p.name.startswith("spans-")]
    records = [r for r in records if not r["smoke"]]
    by = defaultdict(lambda: defaultdict(list))
    for r in records:
        by[(r["workload"], r["trace"])]["seeds"].append(r["seed"])
        for name, value in r["metrics"].items():
            by[(r["workload"], r["trace"])][name].append(value)
    workloads = {}
    for (workload, trace), metrics in sorted(by.items()):
        seeds = metrics.pop("seeds")
        entry = workloads.setdefault(workload, {})
        entry["per_layer" if trace else "end_to_end"] = {
            "seeds": seeds,
            "metrics": {k: summary(v) for k, v in metrics.items()}}
    baseline = {"label": args.label, "machine": records[-1]["machine"],
                "seconds": records[-1]["seconds"], "workloads": workloads}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
