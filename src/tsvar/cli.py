"""Command-line front end.

Subcommands:
    solve <file> -o <dir>   solve a variational problem file, write
                            solution.json and trajectory.csv
    check <file>            evaluate an inequality check file
    verify <file>           run the oracle block of a problem file
    verify --wsc            reproduce the counterexample to the prior
                            literature's constant-bound claim

Problem files are strict JSON with an explicit schema_version; unknown keys
are rejected.  Exit codes: 0 success / certified / holds, 2 parse error,
3 precondition / feasibility / budget error, 4 inequality violated,
5 oracle refuted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import functions, jensen, solvers, timescale, validation
from .errors import (
    AdmissibilityError,
    BudgetError,
    ClassificationError,
    ConstructionError,
    DegenerateProblemError,
    DomainError,
    FeasibilityError,
    ParameterError,
    PreconditionError,
    SchemaError,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATED = 4
EXIT_REFUTED = 5

_PRECONDITION_ERRORS = (
    AdmissibilityError,
    BudgetError,
    ClassificationError,
    ConstructionError,
    DegenerateProblemError,
    DomainError,
    FeasibilityError,
    ParameterError,
    PreconditionError,
)


def _fail(category, message):
    print(f"error[{category}]: {message}", file=sys.stderr)


def _fmt(x):
    return format(float(x), ".17g")


# -- strict schema parsing ------------------------------------------------


def _check_keys(block, required, optional=(), where="file"):
    if not isinstance(block, dict):
        raise SchemaError(f"{where} must be an object")
    keys = set(block)
    missing = set(required) - keys
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def parse_function(block, where="function"):
    _check_keys(block, ["family"],
                ["value", "slope", "intercept", "alpha", "coefficients",
                 "transform"], where)
    family = block["family"]
    if family == "constant":
        fn = functions.Constant(block.get("value", 0.0))
    elif family == "affine":
        fn = functions.Affine(block.get("slope", 1.0), block.get("intercept", 0.0))
    elif family == "identity":
        fn = functions.Identity()
    elif family == "power":
        if "alpha" not in block:
            raise SchemaError(f"{where}: power family needs alpha")
        fn = functions.Power(block["alpha"])
    elif family == "exp":
        fn = functions.Exp()
    elif family == "log":
        fn = functions.Log()
    elif family == "xlogx":
        fn = functions.XLogX()
    elif family == "polynomial":
        if "coefficients" not in block:
            raise SchemaError(f"{where}: polynomial family needs coefficients")
        fn = functions.Polynomial(block["coefficients"])
    else:
        raise SchemaError(f"{where}: unknown family {family!r}")
    if "transform" in block:
        tr = block["transform"]
        _check_keys(tr, [], ["in_scale", "in_shift", "out_scale", "out_shift"],
                    f"{where}.transform")
        fn = functions.Transformed(fn,
                                   in_scale=tr.get("in_scale", 1.0),
                                   in_shift=tr.get("in_shift", 0.0),
                                   out_scale=tr.get("out_scale", 1.0),
                                   out_shift=tr.get("out_shift", 0.0))
    return fn


#: time scale kind -> (constructor, required keys passed in order,
#: optional keys passed by name when present); any other scale key the
#: schema knows is accepted and ignored
_SCALE_KINDS = {
    "uniform": (timescale.uniform, ("a", "b", "n"), {}),
    "q_scale": (timescale.q_scale, ("q", "n", "m"), {}),
    "real_interval": (timescale.real_interval, ("a", "b"), {"nodes": "nodes"}),
    "custom": (timescale.custom, (),
               {"atoms": "atoms", "intervals": "intervals",
                "quad_nodes": "quad_nodes_per_interval"}),
}

_SCALE_KEYS = sorted({key for _, required, optional in _SCALE_KINDS.values()
                      for key in (*required, *optional)})


def parse_timescale(block, where="timescale"):
    _check_keys(block, ["kind"], _SCALE_KEYS, where)
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in _SCALE_KINDS:
        raise SchemaError(f"{where}: unknown kind {kind!r}")
    build, required, optional = _SCALE_KINDS[kind]
    _check_keys(block, ["kind", *required], _SCALE_KEYS, f"{where} ({kind})")
    return build(*(block[k] for k in required),
                 **{arg: block[k] for k, arg in optional.items() if k in block})


def parse_problem_file(raw):
    _check_keys(raw, ["schema_version", "timescale", "problem"], ["oracle"])
    if raw["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {raw['schema_version']!r}")
    ts = parse_timescale(raw["timescale"])
    pb = raw["problem"]
    _check_keys(pb, ["kind", "B", "phi"], ["alpha"], "problem")
    problem = solvers.VariationalProblem(
        kind=pb["kind"],
        ts=ts,
        B=float(pb["B"]),
        phi=parse_function(pb["phi"], "problem.phi"),
        alpha=float(pb["alpha"]) if "alpha" in pb else None,
    )
    oracle = raw.get("oracle")
    if oracle is not None:
        _check_keys(oracle, ["mode"], ["resolution", "samples", "seed", "eps"],
                    "oracle")
    return problem, oracle


def parse_check_file(raw):
    _check_keys(raw, ["schema_version", "timescale", "check"])
    if raw["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {raw['schema_version']!r}")
    ts = parse_timescale(raw["timescale"])
    ck = raw["check"]
    _check_keys(ck, ["kind", "f"], ["h", "F", "alpha", "phi", "psi"], "check")
    f = timescale.GridFunction(ts, ck["f"])
    kind = ck["kind"]
    if kind == "weighted_jensen":
        if "h" not in ck or "F" not in ck:
            raise SchemaError("weighted_jensen needs h and F")
        h = timescale.GridFunction(ts, ck["h"])
        return lambda: jensen.weighted_jensen_gap(ts, f, h,
                                                  parse_function(ck["F"], "check.F"))
    if kind == "jensen":
        if "F" not in ck:
            raise SchemaError("jensen needs F")
        return lambda: jensen.jensen_gap(ts, f, parse_function(ck["F"], "check.F"))
    if kind in ("power", "reciprocal_power", "exp", "log", "xlogx"):
        alpha = ck.get("alpha")
        return lambda: jensen.special_case_gap(kind, ts, f, alpha=alpha)
    if kind == "quasi_arithmetic":
        if "phi" not in ck or "psi" not in ck:
            raise SchemaError("quasi_arithmetic needs phi and psi")
        return lambda: jensen.quasi_arithmetic_gap(
            ts, f,
            parse_function(ck["phi"], "check.phi"),
            parse_function(ck["psi"], "check.psi"))
    raise SchemaError(f"check: unknown kind {kind!r}")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


# -- output ---------------------------------------------------------------


def write_trajectory_csv(path, ts, traj):
    d = ts.delta_derivative_grid(traj)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y", "y_delta"])
        for t, y, yd in zip(ts.points, traj.values, d):
            w.writerow([_fmt(t), _fmt(y), "" if np.isnan(yd) else _fmt(yd)])


def read_trajectory_csv(path, ts):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(ts.points):
        raise SchemaError(
            f"{path}: {len(rows)} rows but the time scale has "
            f"{len(ts.points)} points")
    return timescale.GridFunction(ts, [float(r["y"]) for r in rows])


# -- subcommands ----------------------------------------------------------


def cmd_solve(args):
    raw = _load_json(args.file)
    problem, _ = parse_problem_file(raw)
    sol = solvers.solve(problem)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / "trajectory.csv"
    write_trajectory_csv(traj_path, problem.ts, sol.trajectory)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "problem": raw["problem"],
        "timescale": raw["timescale"],
        "C": sol.C,
        "optimal_value": sol.optimal_value,
        "extremum": sol.extremum,
        "trajectory_file": traj_path.name,
    }
    with open(out_dir / "solution.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"C": sol.C, "optimal_value": sol.optimal_value,
                      "extremum": sol.extremum}, sort_keys=True))
    return EXIT_OK


def cmd_check(args):
    run = parse_check_file(_load_json(args.file))
    report = run()
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
    mode = oracle["mode"]
    if mode == "exhaustive":
        if "resolution" not in oracle:
            raise SchemaError("exhaustive oracle needs a resolution")
        report = validation.exhaustive_verify(problem, float(oracle["resolution"]))
    elif mode == "random":
        if "samples" not in oracle:
            raise SchemaError("random oracle needs samples")
        report = validation.random_verify(problem, int(oracle["samples"]),
                                          int(oracle.get("seed", 0)))
    elif mode == "perturbation":
        if "eps" not in oracle:
            raise SchemaError("perturbation oracle needs eps")
        traj = None
        if args.corrupt is not None:
            idx, delta = args.corrupt.split(":")
            traj = solvers.solve(problem).trajectory
            vals = traj.values.copy()
            vals[int(idx)] += float(delta)
            traj = timescale.GridFunction(problem.ts, vals)
        report = validation.perturbation_verify(problem, float(oracle["eps"]),
                                                trajectory=traj)
    else:
        raise SchemaError(f"oracle: unknown mode {mode!r}")
    print(json.dumps(report.to_dict(), sort_keys=True))
    if not report.certified:
        _fail("refuted", "oracle refuted the closed-form optimum")
        return EXIT_REFUTED
    return EXIT_OK


def build_parser():
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
    except _PRECONDITION_ERRORS as exc:
        _fail("precondition", exc)
        code = EXIT_PRECONDITION
    sys.exit(code)


if __name__ == "__main__":
    main()
