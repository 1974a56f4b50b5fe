"""Compare the benchmark results of two commits, one row per workload x metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``result-<workload>-seed<n>-trace0.json`` records
that ``run.py`` writes to ``perfbench/out/`` (copy them out of each
checkout). Runs of the two commits are paired by workload and seed; run the
pairs alternately, parent first in half of them. Each row says:

* ``improved``: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians are further apart than the
  parent's own quartile spread;
* ``regressed``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's quartile spread is wider than the bound,
  unless every change run reads better than every parent run;
* ``no worse``: otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(directory: str) -> dict:
    """{(workload, seed): record} for the untraced, non-smoke runs."""
    out = {}
    for path in glob.glob(os.path.join(directory, "result-*-trace0.json")):
        with open(path) as fh:
            rec = json.load(fh)
        s = rec["stamp"]
        if not s["smoke"]:
            out[(s["workload"], s["seed"])] = rec
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, dict]:
    """Verdict for one metric on paired runs (same order in both lists)."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    spread = q3 - q1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse_by = sign * (mp - mc) / abs(mp)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    stats = {"parent_median": mp, "parent_q1": q1, "parent_q3": q3,
             "change_median": mc, "pairs": len(parent), "wins": wins,
             "worse_by": worse_by}
    if spread / abs(mp) > bound and not all_better:
        return "unresolved", stats
    if worse_by > bound:
        return "regressed", stats
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and sign * (mc - mp) > spread):
        return "improved", stats
    return "no worse", stats


def compare(parent_dir: str, change_dir: str, bench: dict) -> list[dict]:
    parent, change = load_results(parent_dir), load_results(change_dir)
    keys = sorted(set(parent) & set(change))
    rows = []
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        parent_first = sum(parent[(workload, s)]["stamp"]["started_at"]
                           < change[(workload, s)]["stamp"]["started_at"]
                           for s in seeds)
        for m in bench["end_to_end"]:
            p = [parent[(workload, s)]["result"]["metrics"][m["name"]]["value"]
                 for s in seeds]
            c = [change[(workload, s)]["result"]["metrics"][m["name"]]["value"]
                 for s in seeds]
            v, stats = verdict(p, c, m["better"], m["bound"])
            rows.append({"workload": workload, "metric": m["name"], "unit": m["unit"],
                         "verdict": v, "parent_first": parent_first, **stats})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    rows = compare(args.parent_dir, args.change_dir, bench)
    if not rows:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 1
    print(f"{'workload':14s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change':>10s} {'wins':>7s}  verdict")
    for r in rows:
        print(f"{r['workload']:14s} {r['metric']:16s} {r['parent_median']:12.5g} "
              f"[{r['parent_q1']:.5g}, {r['parent_q3']:.5g}] {r['unit']:>4s} "
              f"{r['change_median']:10.5g} {r['wins']:3d}/{r['pairs']:<3d}  "
              f"{r['verdict']}")
    for workload in sorted({r["workload"] for r in rows}):
        r = next(r for r in rows if r["workload"] == workload)
        note = "" if abs(2 * r["parent_first"] - r["pairs"]) <= 1 else \
            " -- not alternated; rerun alternating which side runs first"
        print(f"# {workload}: parent ran first in {r['parent_first']} of "
              f"{r['pairs']} pairs{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
