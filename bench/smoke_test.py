#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about a minute):

    python3 bench/smoke_test.py

Runs every workload at tiny size, untraced and traced, and checks that each
metric BENCHMARK.json names is reported with its unit and a finite value.
Then it biases every reference by 0.1%, and separately makes one library
call raise, and checks each time that failed_frac rises and the result is
no longer marked correct.  Exits 1 if any workload shows a problem, after
listing them all.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads

SEED = 7
REF_BIAS = 1e-3


def _raising(fn, when=lambda *args: True):
    def broken(*args, **kwargs):
        if when(*args):
            raise RuntimeError("broken on purpose by the smoke test")
        return fn(*args, **kwargs)
    return broken


def _break_power_weighted(tsvar):
    tsvar.solve = _raising(tsvar.solve, lambda p: p.kind == "power_weighted")


def _break_perturbation(tsvar):
    tsvar.perturbation_verify = _raising(tsvar.perturbation_verify)


def _break_csv_writer(tsvar):
    tsvar.cli.write_trajectory_csv = _raising(tsvar.cli.write_trajectory_csv)


#: the library call each workload's run is broken at
BREAKS = {
    "solve_sweep": _break_power_weighted,
    "certify_lattice": _break_perturbation,
    "cli_files": _break_csv_writer,
}


def check_metrics(label, got, wanted):
    problems = []
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            problems.append(f"{label}: {m['name']} missing")
        elif v["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {v['unit']}, "
                            f"expected {m['unit']}")
        elif not math.isfinite(v["value"]):
            problems.append(f"{label}: {m['name']} = {v['value']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    return problems


def smoke(workload, spec):
    problems = []
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        res, notes = run.measure(workload, SEED, 0, trace, tiny=True, min_ops=1)
        problems += check_metrics(f"{workload} trace={trace}", res["metrics"], wanted)
        if res["attempted"] < 1:
            problems.append(f"{workload} trace={trace}: no ops attempted")
        if trace == 0:
            base_failed = notes["failed_frac"][0]
            rel = notes["max_rel_err"]
            if rel is not None and not math.isfinite(rel[0]):
                problems.append(f"{workload}: max_rel_err = {rel[0]}")
    res, notes = run.measure(workload, SEED, 0, 0, tiny=True, ref_bias=REF_BIAS,
                             min_ops=1)
    if not notes["failed_frac"][0] > base_failed:
        problems.append(f"{workload}: a {REF_BIAS} reference bias left "
                        f"failed_frac at {notes['failed_frac'][0]}")
    if res["correct"]:
        problems.append(f"{workload}: a biased reference still reads correct")
    patch = BREAKS[workload]
    res, _ = run.measure(workload, SEED, 0, 0, tiny=True, min_ops=1,
                         patch=patch)
    if not res["failed"] > base_failed * res["attempted"]:
        problems.append(f"{workload}: {patch.__name__} left failed at "
                        f"{res['failed']} of {res['attempted']}")
    if res["correct"]:
        problems.append(f"{workload}: {patch.__name__} still reads correct")
    return problems


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        found = smoke(workload, spec)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
