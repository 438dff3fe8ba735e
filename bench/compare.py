#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (workload, metric).

    for s in $(seq 1 10); do
        python3 bench/run.py --workload solve_sweep --seed $s --seconds 30 \\
            --trace 0 --record parent.jsonl
    done
    # ... the same on the change, into change.jsonl, alternating sides ...
    python3 bench/compare.py parent.jsonl change.jsonl

Runs are paired by (workload, seed, trace).  Each row reads:

- improved: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (per-layer metrics have no bound: worse
  means the change loses 9 of 10 pairs by more than the parent's spread);
- unresolved: fewer than 10 pairs, or the parent's spread is wider than the
  bound and not every run of the change reads better than every run of the
  parent;
- unchanged: otherwise.

A change is never called improved on a workload where more of its ops
failed (``failed`` over ``attempted``) than the parent's, or where any of
its runs reads incorrect: such a row reads unresolved and says why.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec():
    """{metric: (its BENCHMARK.json entry, the --trace value that reports it)}."""
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    return {m["name"]: (m, trace)
            for trace, key in enumerate(("end_to_end", "per_layer"))
            for m in spec[key]}


def load_runs(path):
    """From a --record file: the metric values,
    {(workload, metric): {(seed, trace): [values]}}, and the check counts,
    {(workload, trace): [failed, attempted, incorrect runs]}."""
    runs = defaultdict(lambda: defaultdict(list))
    checks = defaultdict(lambda: [0, 0, 0])
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line) if line.strip() else {}
            if "result" not in rec:  # other lines, such as machine info, are skipped
                continue
            res = rec["result"]
            for name, m in res["metrics"].items():
                runs[rec["workload"], name][rec["seed"], rec["trace"]].append(
                    m["value"])
            c = checks[rec["workload"], rec["trace"]]
            c[0] += res["failed"]
            c[1] += res["attempted"]
            c[2] += not res["correct"]
    return runs, checks


def check_regression(parent, change):
    """Why the change's checks are worse than the parent's, or None."""
    if change is None or parent is None:
        return None
    if change[2]:
        return f"{change[2]} incorrect run(s)"
    if change[0] * parent[1] > parent[0] * change[1]:
        return (f"failed {change[0]}/{change[1]} ops, "
                f"parent {parent[0]}/{parent[1]}")
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(pairs, parent, change, better, bound):
    """One of improved / worse / unchanged / unresolved, with the win count."""
    n = len(pairs)
    sign = 1.0 if better == "lower" else -1.0     # sign * (c - p) > 0: worse
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    if n < MIN_PAIRS:
        return "unresolved", wins
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    if wins >= WIN_SHARE * n and abs(mc - mp) > iqr:
        return "improved", wins
    if bound is None:
        if losses >= WIN_SHARE * n and abs(mc - mp) > iqr:
            return "worse", wins
        return ("unchanged" if wins == losses == 0 else "unresolved"), wins
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if mp == 0:
        return ("unchanged" if mc == 0 or all_better else "unresolved"), wins
    if iqr / abs(mp) > bound and not all_better:
        return "unresolved", wins
    worse_by = sign * (mc - mp) / abs(mp)
    return ("worse" if worse_by > bound else "unchanged"), wins


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit("usage: compare.py PARENT.jsonl CHANGE.jsonl")
    spec = load_spec()
    (parent, p_checks), (change, c_checks) = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':16} {'metric':40} {'unit':12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>7}  verdict")
    for key in sorted(set(parent) | set(change)):
        workload, name = key
        if name not in spec:
            continue
        meta, trace = spec[name]
        p_runs, c_runs = parent.get(key, {}), change.get(key, {})
        pairs = [(p, c) for k in sorted(set(p_runs) & set(c_runs))
                 for p, c in zip(p_runs[k], c_runs[k])]
        p_vals = [v for vs in p_runs.values() for v in vs]
        c_vals = [v for vs in c_runs.values() for v in vs]
        if not p_vals or not c_vals:
            print(f"{workload:16} {name:40} {meta['unit']:12} unresolved: runs on one side only")
            continue
        result, wins = verdict(pairs, p_vals, c_vals, meta["better"],
                               meta.get("bound"))
        why = check_regression(p_checks.get((workload, trace)),
                               c_checks.get((workload, trace)))
        if why and result == "improved":
            result = f"unresolved: {why}"

        def cell(vals):
            q1, q3 = quartiles(vals)
            return f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}]"

        print(f"{workload:16} {name:40} {meta['unit']:12} {cell(p_vals):>32} "
              f"{cell(c_vals):>32} {wins:>3}/{len(pairs):<3}  {result}")


if __name__ == "__main__":
    main()
