#!/usr/bin/env python3
"""Compares two sets of tpa_bench results against the bounds in BENCHMARK.json.

    python3 tpa_bench/compare_runs.py BASE CHANGE

BASE and CHANGE are each a directory of result files or a single file, as
written by `run.py --out FILE`. For every (metric, workload) pair the script
prints each side's median and quartiles, and, for end-to-end metrics, one
verdict:

  ok          the change's median is not worse than the base's by more than
              the metric's bound
  worse       it is
  unresolved  either side's spread (quartile distance over median) is wider
              than the bound, and not every change run beats every base run

Per-layer metrics (from --trace 1 runs) have no bound and are listed only.
The exit code is 1 when any pair is worse.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(trace, workload, metric): [values]} from one file or a directory."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    out = {}
    for f in files:
        with open(f) as fh:
            r = json.loads(fh.read().strip().splitlines()[-1])
        for name, m in r["metrics"].items():
            out.setdefault((r["trace"], r["workload"], name), []).append(
                m["value"])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, bound, higher_is_better):
    sign = -1 if higher_is_better else 1
    b_q1, b_med, b_q3 = summary(base)
    c_q1, c_med, c_q3 = summary(change)
    all_better = (max(change) < min(base) if sign > 0
                  else min(change) > max(base))
    spread = max((b_q3 - b_q1) / b_med if b_med else 0,
                 (c_q3 - c_q1) / c_med if c_med else 0)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = sign * (c_med - b_med) / b_med if b_med else 0
    return "worse" if worse_by > bound else "ok"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    order = [w["name"] for w in bench["workloads"]]
    base, change = load(argv[1]), load(argv[2])

    worse = 0
    print(f"{'workload':9} {'metric':32} {'base q1/median/q3':>36}   "
          f"{'change q1/median/q3':>36}  verdict")
    for key in sorted(set(base) & set(change),
                      key=lambda k: (k[0], order.index(k[1]), k[2])):
        trace, workload, name = key
        m = metrics[name]
        status = "-"
        if trace == 0:
            status = verdict(base[key], change[key], m["bound"],
                             m["better"] == "higher")
            worse += status == "worse"
        cols = ["/".join(f"{v:.4g}" for v in summary(side[key]))
                + f" n={len(side[key])}" for side in (base, change)]
        print(f"{workload:9} {name:32} {cols[0]:>36}   {cols[1]:>36}  {status}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
