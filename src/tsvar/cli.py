"""Command-line front end: ``solve <file> -o <dir>`` solves a variational
problem file and writes solution.json and trajectory.csv, ``check <file>``
evaluates an inequality check file, ``verify <file>`` runs the oracle block of
a problem file, and ``verify --wsc`` reproduces the counterexample to the
prior literature's constant-bound claim.

Input files are strict JSON with an explicit schema_version.  The whole file
is checked against ``_SCHEMA`` before any time scale, function or problem is
built, so an unknown, missing or ill-typed key, kind or family exits 2 even
in a file that would also fail to build; only the oracle's mode waits for
``verify``.  ``verify --candidate`` reads a CSV with a finite ``y`` in each of
its rows, one per point; ``--corrupt`` needs a perturbation oracle and no
``--candidate``; ``solve -o`` exits 2 when it cannot write.  Exit codes:
0 success / certified / holds, 2 parse or usage error, 3 precondition /
feasibility / budget error, 4 inequality violated, 5 oracle refuted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import functions, jensen, solvers, timescale, validation
from .errors import DegenerateProblemError, SchemaError, TsvarError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATED = 4
EXIT_REFUTED = 5


def _fail(category, message):
    print(f"error[{category}]: {message}", file=sys.stderr)


# -- leaf kinds: each checks one value and names it in the error ------------

_MAX = sys.float_info.max


def _number(value, name, types=(int, float), what="a finite number"):
    # false for NaN, for infinities and for ints beyond the float range
    if type(value) not in types or not abs(value) <= _MAX:
        raise SchemaError(f"{name!r} must be {what}, got {value!r}")


def _integer(value, name):
    # counts, exponents and seeds, which 2.5 or 2.0 would truncate
    _number(value, name, (int,), "an integer")


def _string(value, name):
    if not isinstance(value, str):
        raise SchemaError(f"{name!r} must be a string, got {value!r}")


def _numbers(value, name):
    if not isinstance(value, list):
        raise SchemaError(f"{name!r} must be an array of numbers, got {value!r}")
    # the whole array: one pass over the types and one vectorised range
    # check (an int whose float is below _MAX is in range too); the loop
    # below runs only to name the first element that fails
    if set(map(type, value)) <= {int, float}:
        try:
            if (np.abs(np.array(value, dtype=float)) < _MAX).all():
                return
        except OverflowError:  # an int past the float range
            pass
    for i, v in enumerate(value):
        # _number's test inline: an element's name is built only if it fails
        if type(v) not in (int, float) or not abs(v) <= _MAX:
            _number(v, f"{name}[{i}]")


def _pairs(value, name):
    if not isinstance(value, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in value):
        raise SchemaError(f"{name!r} must be an array of [lo, hi] pairs, got {value!r}")
    for i, pair in enumerate(value):
        _numbers(pair, f"{name}[{i}]")


# -- variant tables: name -> (constructor, required keys passed in order,
# -- optional keys -> the argument names they are passed by when present) --

# tables of names alone: a version, or a problem kind, builds nothing
_VERSIONS = {SCHEMA_VERSION: (None, (), {})}
_PROBLEMS = {kind: (None, ("alpha",) if k.needs_alpha else (), {})
             for kind, k in solvers.KINDS.items()}

_SCALES = {
    "uniform": (timescale.uniform, ("a", "b", "n"), {}),
    "q_scale": (timescale.q_scale, ("q", "n", "m"), {}),
    "real_interval": (timescale.real_interval, ("a", "b"), {"nodes": "nodes"}),
    "custom": (timescale.custom, (), {"atoms": "atoms", "intervals": "intervals",
                                      "quad_nodes": "quad_nodes_per_interval"}),
}

_FAMILIES = {
    "constant": (lambda value=0.0: functions.Constant(value), (), {"value": "value"}),
    "affine": (lambda slope=1.0, intercept=0.0: functions.Affine(slope, intercept),
               (), {"slope": "slope", "intercept": "intercept"}),
    "identity": (functions.Identity, (), {}),
    "power": (functions.Power, ("alpha",), {}),
    "exp": (functions.Exp, (), {}),
    "log": (functions.Log, (), {}),
    "xlogx": (functions.XLogX, (), {}),
    "polynomial": (functions.Polynomial, ("coefficients",), {}),
}

# Checks and oracles look jensen's and validation's functions up when called, so
# they see a wrapper put on the module; a check takes ts and f first, an oracle p.
_CHECKS = {
    "weighted_jensen": (lambda ts, f, h, F: jensen.weighted_jensen_gap(
        ts, f, timescale.GridFunction(ts, h), parse_function(F)), ("h", "F"), {}),
    "jensen": (lambda ts, f, F: jensen.jensen_gap(ts, f, parse_function(F)),
               ("F",), {}),
    **{kind: (lambda ts, f, alpha=None, kind=kind: jensen.special_case_gap(
        kind, ts, f, alpha=alpha), (), {"alpha": "alpha"})
       for kind in jensen.SPECIAL_KINDS},
    "quasi_arithmetic": (lambda ts, f, phi, psi: jensen.quasi_arithmetic_gap(
        ts, f, parse_function(phi), parse_function(psi)), ("phi", "psi"), {}),
}

_ORACLES = {
    "exhaustive": (lambda p, resolution: validation.exhaustive_verify(
        p, float(resolution)), ("resolution",), {}),
    "random": (lambda p, samples, seed=0: validation.random_verify(
        p, samples, seed), ("samples",), {"seed": "seed"}),
    "perturbation": (lambda p, eps, trajectory=None: validation.perturbation_verify(
        p, float(eps), trajectory=trajectory), ("eps",), {}),
}

#: block -> (required keys, optional keys); a key maps to the leaf kind that
#: checks its value, the block it holds, or the variant table its value names.
#: A block accepts every key its variants read; each variant requires its own.
_SCHEMA = {
    "problem file": ({"schema_version": _VERSIONS, "timescale": "timescale",
                      "problem": "problem"}, {"oracle": "oracle"}),
    "check file": ({"schema_version": _VERSIONS, "timescale": "timescale",
                    "check": "check"}, {}),
    "timescale": ({"kind": _SCALES},
                  {"a": _number, "b": _number, "n": _integer, "q": _number,
                   "m": _integer, "nodes": _integer, "atoms": _numbers,
                   "intervals": _pairs, "quad_nodes": _integer}),
    "problem": ({"kind": _PROBLEMS, "B": _number, "phi": "function"},
                {"alpha": _number}),
    "function": ({"family": _FAMILIES},
                 {"value": _number, "slope": _number, "intercept": _number,
                  "alpha": _number, "coefficients": _numbers,
                  "transform": "transform"}),
    # keys named as Transformed's arguments, with its defaults
    "transform": ({}, {"in_scale": _number, "in_shift": _number,
                       "out_scale": _number, "out_shift": _number}),
    # a string here: verify alone reads the mode, from _ORACLES
    "oracle": ({"mode": _string}, {"resolution": _number, "samples": _integer,
                                   "seed": _integer, "eps": _number}),
    "check": ({"kind": _CHECKS, "f": _numbers},
              {"h": _numbers, "F": "function", "alpha": _number,
               "phi": "function", "psi": "function"}),
}


def _walk(block, name, where):
    """Check a block, and each block in it, against ``_SCHEMA[name]``."""
    if not isinstance(block, dict):
        raise SchemaError(f"{where} must be an object, got {block!r}")
    required, optional = _SCHEMA[name]
    unknown = block.keys() - required.keys() - optional.keys()
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required.keys() - block.keys()
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    for key, value in block.items():
        kind = required[key] if key in required else optional[key]
        if isinstance(kind, str):
            _walk(value, kind, f"{where}.{key}")
        elif isinstance(kind, dict):
            _variant(kind, key, block, where)
        else:
            kind(value, key)


def _variant(table, key, block, where):
    """The entry of ``table`` that ``block[key]`` names, bound to the keys
    it reads from ``block``: call it with the leading arguments to build."""
    name = block[key]
    if not isinstance(name, str) or name not in table:
        raise SchemaError(f"{where}: {key!r} is {name!r}, not one of {list(table)}")
    build, required, optional = table[name]
    missing = [k for k in required if k not in block]
    if missing:
        raise SchemaError(f"{where} ({name}): missing keys {missing}")
    args = [block[k] for k in required]
    kwargs = {arg: block[k] for k, arg in optional.items() if k in block}
    return lambda *lead, **extra: build(*lead, *args, **kwargs, **extra)


def parse_function(block, where="function"):
    _walk(block, "function", where)
    fn = _variant(_FAMILIES, "family", block, where)()
    if "transform" in block:
        fn = functions.Transformed(fn, **block["transform"])
    return fn


def parse_timescale(block, where="timescale"):
    _walk(block, "timescale", where)
    return _variant(_SCALES, "kind", block, where)()


def parse_problem_file(raw):
    _walk(raw, "problem file", "file")
    pb = raw["problem"]
    problem = solvers.VariationalProblem(
        kind=pb["kind"],
        ts=_variant(_SCALES, "kind", raw["timescale"], "timescale")(),
        B=float(pb["B"]),
        phi=parse_function(pb["phi"]),
        alpha=float(pb["alpha"]) if "alpha" in pb else None,
    )
    return problem, raw.get("oracle")


def parse_check_file(raw):
    _walk(raw, "check file", "file")
    ts = _variant(_SCALES, "kind", raw["timescale"], "timescale")()
    f = timescale.GridFunction(ts, raw["check"]["f"])
    return lambda: _variant(_CHECKS, "kind", raw["check"], "check")(ts, f)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and bytes that are not UTF-8;
        # RecursionError, arrays nested deeper than the decoder recurses
        raise SchemaError(f"cannot read {path}: {exc}") from exc


# -- output ---------------------------------------------------------------


#: rows per block: the writer's buffers hold one block's values and text
_CSV_BLOCK_ROWS = 1024


def write_trajectory_csv(path, ts, traj):
    """Write t, y and y_delta at every point of ts under a ``t,y,y_delta``
    header: 17 significant digits, which round-trip every double, rows
    ended by ``\\r\\n``, and an empty y_delta where it is undefined (NaN)."""
    # imported here: a process that writes no trajectory never compiles it
    from ._csvtext import CsvText

    d = ts.delta_derivative_grid(traj)
    block = np.empty((min(len(d), _CSV_BLOCK_ROWS), 3))
    text = CsvText(len(block))
    with open(path, "wb") as fh:
        fh.write(b"t,y,y_delta")  # each row brings the '\r\n' before it
        for i in range(0, len(d), _CSV_BLOCK_ROWS):
            rows = block[:len(d) - i]
            for j, col in enumerate((ts.points, traj.values, d)):
                rows[:, j] = col[i:i + _CSV_BLOCK_ROWS]
            fh.write(text(rows))
        fh.write(b"\r\n")


def read_trajectory_csv(path, ts):
    """The ``y`` column of a trajectory CSV: a finite number in each row,
    one row per point of ``ts``, rows counted from 1 after the header."""
    try:
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if len(rows) != len(ts.points):
        raise SchemaError(f"{path}: {len(rows)} rows but the time scale has "
                          f"{len(ts.points)} points")
    if "y" not in rows[0]:  # there are rows: a time scale has two points
        raise SchemaError(f"{path}: no 'y' column")
    for i, row in enumerate(rows, start=1):
        try:
            row["y"] = float(row["y"])
        except (TypeError, ValueError):  # not a number, or None in a short row
            pass
        _number(row["y"], f"{path}, row {i}, y")
    return timescale.GridFunction(ts, [row["y"] for row in rows])


_JSON_CHUNK = 1024  # numbers per write of an array of plain numbers


def _dump_json(obj, fh, indent="\n"):
    """Write what json.load gives as ``json.dump(obj, fh, indent=2,
    sort_keys=True)`` writes it, without json's pure-Python indenting
    encoder: an array of plain numbers goes out in chunks of reprs."""
    sep = "," + indent + "  "
    if not obj or not isinstance(obj, (dict, list)):
        fh.write(json.dumps(obj))   # a scalar, or an empty object or array
    elif isinstance(obj, dict):
        fh.write("{" + sep[1:])
        for i, key in enumerate(sorted(obj)):
            fh.write((sep if i else "") + json.dumps(key) + ": ")
            _dump_json(obj[key], fh, sep[1:])
        fh.write(indent + "}")
    else:
        fh.write("[" + sep[1:])
        try:    # exact ints and finite floats, whose reprs are json's text: a
            # float sum is finite just when each float is, and an int past
            # the float range overflows beside a float
            plain = set(map(type, obj)) <= {int, float} and abs(sum(obj)) <= _MAX
        except OverflowError:
            plain = False
        for i in range(0, len(obj), _JSON_CHUNK if plain else 1):
            fh.write(sep if i else "")
            if plain:
                fh.write(sep.join(map(repr, obj[i:i + _JSON_CHUNK])))
            else:
                _dump_json(obj[i], fh, sep[1:])
        fh.write(indent + "]")


# -- subcommands ----------------------------------------------------------


def cmd_solve(args):
    raw = _load_json(args.file)
    problem, _ = parse_problem_file(raw)
    sol = solvers.solve(problem)
    out_dir = Path(args.out_dir)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "problem": raw["problem"],
        "timescale": raw["timescale"],
        "C": sol.C,
        "optimal_value": sol.optimal_value,
        "extremum": sol.extremum,
        "trajectory_file": "trajectory.csv",
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out_dir / "trajectory.csv", problem.ts, sol.trajectory)
        with open(out_dir / "solution.json", "w") as fh:
            _dump_json(summary, fh)
            fh.write("\n")
    except OSError as exc:
        raise SchemaError(f"cannot write {out_dir}: {exc}") from exc
    print(json.dumps({"C": sol.C, "optimal_value": sol.optimal_value,
                      "extremum": sol.extremum}, sort_keys=True))
    return EXIT_OK


def cmd_check(args):
    report = parse_check_file(_load_json(args.file))()
    print(json.dumps(report.to_dict(), sort_keys=True))
    if not report.holds:
        _fail("violated", f"inequality violated with gap {report.gap}")
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_verify(args):
    if args.wsc:
        report = validation.wsc_counterexample()
        print(json.dumps(report.to_dict(), sort_keys=True))
        return EXIT_OK
    if args.file is None:
        raise SchemaError("verify needs a problem file (or --wsc)")
    problem, oracle = parse_problem_file(_load_json(args.file))
    if args.corrupt is not None and (args.candidate is not None or
                                     (oracle or {}).get("mode") != "perturbation"):
        raise SchemaError("--corrupt needs a perturbation oracle and no --candidate")

    if args.candidate is not None:
        # debug path: re-evaluate an externally supplied trajectory
        traj = read_trajectory_csv(args.candidate, problem.ts)
        sol = solvers.solve(problem)
        value = solvers.evaluate_functional(problem, traj)
        print(json.dumps({
            "functional_value": value,
            "closed_form_value": sol.optimal_value,
            "difference": value - sol.optimal_value,
        }, sort_keys=True))
        return EXIT_OK

    if oracle is None:
        raise SchemaError("problem file has no oracle block")
    run = _variant(_ORACLES, "mode", oracle, "oracle")
    corrupted = {}
    if args.corrupt is not None:
        vals = solvers.solve(problem).trajectory.values.copy()
        try:
            idx, delta = args.corrupt.split(":")
            idx, delta = int(idx), float(delta)
            if not (0 <= idx < len(vals) and np.isfinite(float(vals[idx]) + delta)):
                raise ValueError
        except ValueError:
            raise SchemaError(
                f"--corrupt wants INDEX:DELTA, an index of one of the "
                f"{len(vals)} points and a number; got {args.corrupt!r}"
            ) from None
        vals[idx] += delta
        corrupted["trajectory"] = timescale.GridFunction(problem.ts, vals)
    report = run(problem, **corrupted)
    print(json.dumps(report.to_dict(), sort_keys=True))
    if not report.certified:
        _fail("refuted", "oracle refuted the closed-form optimum")
        return EXIT_REFUTED
    return EXIT_OK


@functools.cache
def build_parser():
    """The one parser of a process, built on the first call: parse_args
    leaves it as it was, so repeated calls of main share it."""
    parser = argparse.ArgumentParser(
        prog="tsvar",
        description="Variational problems and Jensen-type inequalities "
                    "on time scales.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a variational problem file")
    p_solve.add_argument("file")
    p_solve.add_argument("-o", "--out-dir", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="evaluate an inequality check file")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="run an optimality oracle")
    p_verify.add_argument("file", nargs="?")
    p_verify.add_argument("--wsc", action="store_true",
                          help="reproduce the literature counterexample")
    p_verify.add_argument("--candidate", metavar="CSV",
                          help="debug: evaluate a trajectory CSV instead of "
                               "running the oracle")
    p_verify.add_argument("--corrupt", metavar="INDEX:DELTA",
                          help="debug: corrupt the solver trajectory before a "
                               "perturbation oracle")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except SchemaError as exc:
        _fail("parse", exc)
        code = EXIT_PARSE
    except DegenerateProblemError as exc:
        _fail("degenerate", f"{exc} (constant value {exc.constant_value})")
        code = EXIT_PRECONDITION
    except TsvarError as exc:
        _fail("precondition", exc)
        code = EXIT_PRECONDITION
    sys.exit(code)


if __name__ == "__main__":
    main()
