"""Spans around tsvar's public entry points, recorded from outside the library.

``Tracer.install`` replaces each traced callable by a wrapper that records a
span ``[name, start, end, parent, op, size]``.  A function is replaced in its
defining module and under every other name that refers to it in the tsvar
package (``tsvar.solve``, ``tsvar.validation.evaluate_functional``, ...);
a method is replaced on its class.  Spans stay in memory until ``uninstall``.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

NAME, START, END, PARENT, OP, SIZE = range(6)


def _points(args, _out):
    return len(args[0].points)


def _problem_points(args, _out):
    return len(args[0].ts.points)


def _candidates(_args, out):
    return out.candidates_evaluated


def targets(tsvar):
    """(owner, attribute, span name, size function) for every traced callable."""
    ts, sv, va, je, cli = (tsvar.timescale, tsvar.solvers, tsvar.validation,
                           tsvar.jensen, tsvar.cli)
    T = ts.TimeScale
    return [
        (T, "__init__", "timescale.construct", _points),
        (T, "delta_integral", "timescale.integral", _points),
        (T, "cumulative_delta_integral", "timescale.integral", _points),
        (T, "delta_derivative_grid", "timescale.derivative", _points),
        (tsvar.roots, "invert_increasing", "roots.invert", None),
        (sv, "solve", "solvers.solve", _problem_points),
        (sv, "evaluate_functional", "solvers.evaluate", _problem_points),
        (va, "exhaustive_verify", "validation.exhaustive", _candidates),
        (va, "random_verify", "validation.random", _candidates),
        (va, "perturbation_verify", "validation.perturbation", _candidates),
        (je, "weighted_jensen_gap", "jensen.check", None),
        (je, "jensen_gap", "jensen.check", None),
        (je, "special_case_gap", "jensen.check", None),
        (je, "quasi_arithmetic_gap", "jensen.check", None),
        (cli, "main", "cli.main", None),
        (cli, "_load_json", "cli.parse", None),
        (cli, "parse_problem_file", "cli.parse", None),
        (cli, "parse_check_file", "cli.parse", None),
        (cli, "write_trajectory_csv", "cli.write", None),
    ]


class Tracer:
    def __init__(self, tsvar):
        self.tsvar = tsvar
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args, out)
            return out

        return traced

    def install(self):
        """Wrap every target; safe to repeat after ``uninstall``."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "tsvar" or k.startswith("tsvar."))]
        for owner, attr, name, size in targets(self.tsvar):
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, size)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- per-layer metrics -----------------------------------------------------


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans, cli_process_walls=(), bytes_written=0):
    """Per-layer metrics from one traced round.

    Self time is a span's duration minus its children's.  Calls and sizes
    count outermost spans only (``jensen_gap`` calls ``weighted_jensen_gap``),
    and rates divide them by the inclusive time of those spans.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    agg = {}
    perturb_evals = 0
    for i, s in enumerate(spans):
        a = agg.setdefault(s[NAME], {"calls": 0, "self": 0.0, "incl": 0.0,
                                     "size": 0, "incl_each": []})
        dur = s[END] - s[START]
        a["self"] += dur - child[i]
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if parent is None or parent[NAME] != s[NAME]:
            a["calls"] += 1
            a["incl"] += dur
            a["size"] += s[SIZE]
            a["incl_each"].append(dur)
        if (s[NAME] == "solvers.evaluate" and parent is not None
                and parent[NAME] == "validation.perturbation"):
            perturb_evals += 1

    def get(name):
        return agg.get(name, {"calls": 0, "self": 0.0, "incl": 0.0, "size": 0,
                              "incl_each": []})

    m = {}
    for layer in ("timescale.construct", "timescale.integral",
                  "timescale.derivative", "solvers.solve", "solvers.evaluate"):
        a = get(layer)
        m[f"{layer}.calls"] = (a["calls"], "count")
        m[f"{layer}.self_s"] = (a["self"], "s")
        m[f"{layer}.points_per_s"] = (_rate(a["size"], a["incl"]), "points/s")
    for layer in ("roots.invert", "jensen.check"):
        a = get(layer)
        m[f"{layer}.calls"] = (a["calls"], "count")
        m[f"{layer}.self_s"] = (a["self"], "s")
        m[f"{layer}.us_per_call"] = (1e6 * _rate(a["incl"], a["calls"]), "us")
    for oracle in ("exhaustive", "random", "perturbation"):
        a = get(f"validation.{oracle}")
        m[f"validation.{oracle}.self_s"] = (a["self"], "s")
        m[f"validation.{oracle}.candidates_per_s"] = (
            _rate(a["size"], a["incl"]), "candidates/s")
    m["validation.perturbation.useful_ratio"] = (
        _rate(get("validation.perturbation")["size"], perturb_evals), "ratio")
    main = get("cli.main")
    m["cli.main_s"] = (main["incl"], "s")
    m["cli.parse_s"] = (get("cli.parse")["self"], "s")
    m["cli.write_s"] = (get("cli.write")["self"], "s")
    m["cli.bytes_written"] = (bytes_written, "bytes")
    startup = 0.0
    if cli_process_walls and main["incl_each"]:
        startup = (statistics.median(cli_process_walls)
                   - statistics.median(main["incl_each"]))
    m["cli.startup_s"] = (startup, "s")
    return m
