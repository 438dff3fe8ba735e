#!/usr/bin/env python3
"""tsvar benchmark: one closed-loop client running one op at a time.

    python3 bench/run.py --workload solve_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a tsvar checkout; the library is imported from its
``src/`` and nowhere else.  With ``--trace 0`` the ops of the workload run in
whole rounds until ``--seconds`` have passed and at least 100 ops are done
(so the 90th percentile has ten samples beyond it), and the end-to-end
metrics are printed.  With ``--trace 1`` each op of one fixed round runs
untraced, traced and untraced again, and the per-layer metrics of the traced
runs are printed.  The last line of stdout is the JSON result.  Scratch files go to
``.bench_work/`` and span dumps to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: tail latency percentile, and the samples a run needs beyond it
TAIL_PCT = 90
TAIL_SAMPLES = 10
MIN_OPS = math.ceil(TAIL_SAMPLES / (1 - TAIL_PCT / 100))

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 9

MAKE_OPS = {
    "solve_sweep": workloads.build_solve_sweep,
    "certify_lattice": workloads.build_certify_lattice,
    "cli_files": workloads.build_cli_files,
}
#: workloads whose ops also run as child processes, once, in the traced run
CHILD_PROCESS = {"cli_files"}
#: workloads with a reference optimum behind every solve
REPORTS_REL_ERR = {"solve_sweep", "cli_files"}


def import_tsvar():
    """Import tsvar afresh from this checkout's src/, refusing any other copy."""
    pkg = SRC / "tsvar"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no tsvar package under {SRC}; "
                         "run from the root of a tsvar checkout")
    for name in [m for m in sys.modules if m == "tsvar" or m.startswith("tsvar.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tsvar = importlib.import_module("tsvar")
    importlib.import_module("tsvar.cli")
    if Path(tsvar.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported tsvar from {tsvar.__file__}, not {pkg}")
    return tsvar


def setup(workload, seed, workdir, tiny=False, ref_bias=0.0):
    """Import, generate inputs, write files and warm up; returns (tsvar, ops)."""
    tsvar = import_tsvar()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    extra = {"src_dir": str(SRC)} if workload in CHILD_PROCESS else {}
    ops = MAKE_OPS[workload](tsvar, np.random.default_rng(seed), str(workdir),
                             tiny=tiny, ref_bias=ref_bias, **extra)
    # every code path once at small size, from inputs of another seed
    warmdir = workdir / "warm"
    warmdir.mkdir()
    for op in MAKE_OPS[workload](tsvar, np.random.default_rng(seed + 1),
                                 str(warmdir), tiny=True, **extra):
        op.run()
    return tsvar, ops


class Pass:
    """Latencies and check results of ops run one after another."""

    def __init__(self):
        self.latencies = []
        self.completed = 0
        self.failed = 0
        self.wrong = 0
        self.unexpected = 0
        self.rel_errs = []
        self.bytes_written = 0

    def run(self, ops, process=False, count_bytes=False):
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            fn = op.run_process if process else op.run
            start = perf_counter()
            out = fn()
            self.latencies.append(perf_counter() - start)
            status, err = op.check(out)
            self.completed += status == workloads.OK
            self.failed += status != workloads.OK
            self.wrong += status == workloads.WRONG
            self.unexpected += status != workloads.OK and not op.known_defect
            if err is not None:
                self.rel_errs.append(err)
            if count_bytes and op.out_dir is not None:
                self.bytes_written += sum(
                    p.stat().st_size for p in Path(op.out_dir).glob("*"))
        return self

    @property
    def busy_s(self):
        """Seconds spent inside ops."""
        return math.fsum(self.latencies)


def result(p, metrics):
    """The JSON result; any failed op outside the recorded seed defects,
    and any wrong value, makes it incorrect."""
    return {"correct": p.wrong == 0 and p.unexpected == 0,
            "attempted": len(p.latencies),
            "failed": p.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def end_to_end(workload, ops, seconds, setup_s, min_ops=MIN_OPS):
    """Whole rounds until `seconds` have passed and `min_ops` ops are done."""
    p = Pass()
    start = perf_counter()
    while perf_counter() - start < seconds or len(p.latencies) < min_ops:
        p.run(ops)
    lat = np.asarray(p.latencies)
    tail = float(np.percentile(lat, TAIL_PCT))
    metrics = {
        "setup_s": (setup_s, "s"),
        # ops that passed their check, per second spent inside timed ops
        "ops_per_s": (p.completed / p.busy_s, "ops/s"),
        "op_p50_ms": (1e3 * float(np.median(lat)), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {
        "op_tail_ms": f"p{TAIL_PCT}, {int(np.sum(lat > tail))} of {len(lat)} ops beyond",
        "failed_frac": (p.failed / len(lat), "ratio"),
        "max_rel_err": ((max(p.rel_errs) if p.rel_errs else math.nan, "ratio")
                        if workload in REPORTS_REL_ERR else None),
    }
    return p, metrics, notes


def per_layer(workload, tsvar, ops, seed):
    """One fixed round; each op runs untraced, traced, then untraced again.

    Running the three back to back keeps the machine's drift in speed out
    of trace.overhead_frac.
    """
    tracer = tracing.Tracer(tsvar)
    traced, base = Pass(), Pass()
    for i, op in enumerate(ops):
        base.run([op])
        tracer.op = i
        tracer.install()
        try:
            traced.run([op], count_bytes=True)
        finally:
            tracer.uninstall()
        base.run([op])
    walls = (Pass().run(ops, process=True).latencies
             if workload in CHILD_PROCESS else ())
    metrics = tracing.layer_metrics(tracer.spans, walls, traced.bytes_written)
    metrics["trace.overhead_frac"] = (2.0 * traced.busy_s / base.busy_s - 1.0,
                                      "ratio")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "ops": [op.label for op in ops], "spans": tracer.spans}, fh)
    return traced, metrics


def measure(workload, seed, seconds, trace, tiny=False, ref_bias=0.0,
            min_ops=MIN_OPS, patch=None):
    """Run one benchmark invocation; returns (result dict, printable notes).

    ``patch(tsvar)``, if given, runs after the last set-up and before the
    measured ops; the smoke test uses it to break the library on purpose.
    """
    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            tsvar, ops = setup(workload, seed, workdir, tiny, ref_bias)
            times.append(perf_counter() - start)
        if patch is not None:
            patch(tsvar)
        if trace:
            p, metrics = per_layer(workload, tsvar, ops, seed)
            return result(p, metrics), {}
        p, metrics, notes = end_to_end(workload, ops, seconds,
                                       statistics.median(times), min_ops)
        return result(p, metrics), notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="also append the result with its workload and seed "
                         "to FILE as one JSON line (input of compare.py)")
    args = ap.parse_args(argv)
    res, notes = measure(args.workload, args.seed, args.seconds, args.trace)
    for name, m in res["metrics"].items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}{extra}")
    for name in ("failed_frac", "max_rel_err"):
        if notes.get(name) is not None:
            value, unit = notes[name]
            print(f"{args.workload} {name} {value:.3g} {unit}")
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": res}) + "\n")
    print(json.dumps(res))


if __name__ == "__main__":
    main()
