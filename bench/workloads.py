"""The three workloads: generated ops with their checks.

Each workload is a fixed table of 35 slots, one op each.  The seed draws the
scales' end points, the weights' coefficients and the boundary values within
narrow ranges; sizes are fixed by the table.  So every seed loads the same
layers with about the same work, and runs with different seeds compare.

35 slots put both the median and the 90th percentile of a run's pooled
latencies inside one slot's cluster of samples (17.5 and 31.5 slots up),
never on the edge between two slots of different cost.  Sizes near the
top of each table are set so that the four ops around the 90th percentile
cost about the same, and the tail pools their samples.

An op's ``run`` is timed; its ``check`` is not.  ``check`` returns
``(status, rel_err)`` with status "ok", "failed" (an undocumented error or a
wrong exit code) or "wrong" (a wrong value, verdict, count or output).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import traceback

import numpy as np

from inputs import (KIND_NAMES, discrete_atoms, feasible_B, infeasible_B,
                    is_discrete, phi_spec, ref_optimum, rel_err, scale_spec)

#: relative tolerance on purely discrete scales (exact sums, round-off only)
TOL_DISCRETE = 1e-9
#: relative tolerance with a continuous part: fourth-order quadrature and
#: differentiation at >= 10**2 nodes per interval stay well inside it
TOL_CONTINUOUS = 1e-5
#: seconds before a CLI process counts as hung
CLI_TIMEOUT_S = 60

OK, FAILED, WRONG = "ok", "failed", "wrong"

WORKLOADS = ("solve_sweep", "certify_lattice", "cli_files")


class Op:
    """One operation: ``run`` is timed, ``prepare`` and ``check`` are not.

    ``run_process`` is the same CLI op as a fresh child process; the traced
    run times it for ``cli.startup_s``.  ``known_defect`` marks the op of a
    recorded seed defect: it counts in ``failed`` without making the run
    incorrect.
    """

    def __init__(self, label, run, check, run_process=None, prepare=None,
                 out_dir=None, known_defect=False):
        self.label = label
        self.run = run
        self.check = check
        self.run_process = run_process
        self.prepare = prepare
        self.out_dir = out_dir
        self.known_defect = known_defect


def attempt(fn):
    """(result, None) or (None, exception): check() judges every error."""
    try:
        return fn(), None
    except Exception as exc:  # the benchmark boundary keeps running
        return None, exc


def _logsize(logsize, tiny):
    return round(10 ** (min(logsize, 2.2) if tiny else logsize))


def _problem_B(kind, spec, phi, rng, expect):
    if expect == "infeasible":
        return infeasible_B(spec, phi)
    if kind == "xlogx_shifted":
        return feasible_B(spec, phi, rng)
    return rng.uniform(1.8, 2.2)


def _extremum(kind, alpha):
    return "max" if kind == "power_weighted" and 0.0 < alpha < 1.0 else "min"


# -- solve_sweep -----------------------------------------------------------

# (kind, scale, weight family, log10 points, alpha, expected error)
# power_weighted stays below 10**4 points: it runs one root find per point.
# The six costliest slots cost about the same, so the 90th percentile (3.5
# slots from the top) falls inside their pooled samples.
SOLVE_SLOTS = [
    ("pw", "real_interval", "affine", 2.0, 2.5, None),
    ("pw", "uniform", "poly", 2.33, -1.5, None),
    ("pw", "q_scale", "exp", 2.67, 0.5, None),
    ("pw", "custom", "texp", 3.0, 3.0, None),
    ("pw", "real_interval", "poly", 3.0, 0.3, None),
    ("pw", "uniform", "affine", 3.67, -0.7, None),
    ("pw", "real_interval", "texp", 3.65, 1.7, None),
    ("pw", "custom", "affine", 3.75, 0.8, None),
    ("pw", "q_scale", "poly", 2.5, 2.0, None),
    ("pw", "uniform", "exp", 2.5, 0.0, "degenerate"),
    ("pw", "real_interval", "affine", 2.0, 1.0, "degenerate"),
    ("exp", "uniform", "affine", 5.0, None, None),
    ("exp", "real_interval", "affine", 2.0, None, None),
    ("exp", "q_scale", "texp", 4.5, None, None),
    ("exp", "custom", "poly", 3.5, None, None),
    ("exp", "real_interval", "poly", 4.0, None, None),
    ("exp", "uniform", "texp", 3.0, None, None),
    ("exp", "real_interval", "texp", 5.0, None, None),
    ("exp", "q_scale", "affine", 2.5, None, None),
    ("exp", "custom", "affine", 4.5, None, None),
    ("exp", "uniform", "poly", 2.0, None, None),
    ("exp", "q_scale", "poly", 3.5, None, None),
    ("xlogx", "uniform", "poly", 4.5, None, None),
    ("xlogx", "real_interval", "affine", 5.0, None, None),
    ("xlogx", "q_scale", "affine", 3.5, None, None),
    ("xlogx", "custom", "affine", 4.0, None, None),
    ("xlogx", "real_interval", "poly", 2.5, None, None),
    ("xlogx", "uniform", "texp", 2.0, None, None),
    ("xlogx", "custom", "texp", 3.0, None, None),
    ("xlogx", "q_scale", "poly", 4.9, None, None),
    ("xlogx", "uniform", "affine", 3.0, None, None),
    ("xlogx", "real_interval", "texp", 4.0, None, None),
    ("xlogx", "custom", "poly", 2.5, None, None),
    ("xlogx", "uniform", "affine", 2.5, None, "infeasible"),
    ("xlogx", "real_interval", "texp", 3.0, None, "infeasible"),
]


def _solve_op(tsvar, slot, rng, tiny, ref_bias):
    key, scale_kind, family, logsize, alpha, expect = slot
    kind = KIND_NAMES[key]
    spec = scale_spec(scale_kind, _logsize(logsize, tiny), rng)
    phi = phi_spec(family, rng)
    B = _problem_B(kind, spec, phi, rng, expect)
    phi_fn = tsvar.cli.parse_function(phi)
    expected_error = {"degenerate": tsvar.DegenerateProblemError,
                      "infeasible": tsvar.FeasibilityError}.get(expect)
    ref = None if expect else ref_optimum(kind, spec, phi, B, alpha)
    if ref is not None:
        ref *= 1.0 + ref_bias
    tol = TOL_DISCRETE if is_discrete(spec) else TOL_CONTINUOUS

    def run():
        def op():
            ts = tsvar.cli.parse_timescale(spec)
            p = tsvar.VariationalProblem(kind, ts, B, phi_fn, alpha)
            sol = tsvar.solve(p)
            return sol, tsvar.evaluate_functional(p, sol.trajectory)
        return attempt(op)

    def check(out):
        result, exc = out
        if expected_error is not None:
            return (OK if isinstance(exc, expected_error) else FAILED), None
        if exc is not None:
            return FAILED, None
        sol, value = result
        # where no closed form exists the re-evaluated functional is the reference
        err_eval = rel_err(sol.optimal_value, value * (1.0 + ref_bias))
        err = err_eval if ref is None else rel_err(sol.optimal_value, ref)
        y = sol.trajectory.values
        good = (err <= tol and err_eval <= tol
                and sol.extremum == _extremum(kind, alpha)
                and y[0] == 0.0 and abs(y[-1] - B) <= 1e-9 * max(1.0, abs(B)))
        return (OK if good else WRONG), err

    return Op(f"{kind}/{scale_kind}/{family}/{_logsize(logsize, tiny)}", run, check)


def build_solve_sweep(tsvar, rng, workdir, tiny=False, ref_bias=0.0):
    return [_solve_op(tsvar, slot, rng, tiny, ref_bias) for slot in SOLVE_SLOTS]


# -- certify_lattice -------------------------------------------------------

# (oracle, kind, atoms, size, alpha, weight family)
# size: target candidate count (exhaustive) or sample count (random);
# "corrupt" perturbs a node of the optimum, so the expected verdict is refuted.
CERTIFY_SLOTS = [
    ("exhaustive", "exp", 4, 1e3, None, "affine"),
    ("exhaustive", "exp", 6, 5e3, None, "poly"),
    ("exhaustive", "exp", 8, 2e4, None, "texp"),
    ("exhaustive", "exp", 5, 1.2e5, None, "affine"),
    ("exhaustive", "xlogx", 5, 2e3, None, "poly"),
    ("exhaustive", "xlogx", 7, 1e4, None, "affine"),
    ("exhaustive", "xlogx", 6, 3e4, None, "poly"),
    ("exhaustive", "xlogx", 8, 3e5, None, "texp"),
    ("exhaustive", "pw", 8, 1e3, 2.0, "affine"),
    ("exhaustive", "pw", 4, 3e3, 0.5, "poly"),
    ("exhaustive", "pw", 6, 1e5, -1.0, "affine"),
    ("exhaustive", "pw", 7, 7e4, 3.0, "poly"),
    ("random", "exp", 200, 1e3, None, "affine"),
    ("random", "exp", 50, 1e4, None, "texp"),
    ("random", "exp", 20, 3e4, None, "poly"),
    ("random", "xlogx", 10, 1e5, None, "poly"),
    ("random", "xlogx", 100, 3e3, None, "affine"),
    ("random", "xlogx", 30, 2e4, None, "texp"),
    ("random", "pw", 10, 1e5, 2.0, "affine"),
    ("random", "pw", 100, 3e3, 0.5, "poly"),
    ("random", "pw", 50, 1e4, -1.5, "affine"),
    ("random", "pw", 200, 2e3, 3.0, "affine"),
    ("perturbation", "exp", 10, None, None, "affine"),
    ("perturbation", "exp", 60, None, None, "poly"),
    ("perturbation", "exp", 30, None, None, "texp"),
    ("perturbation", "xlogx", 30, None, None, "texp"),
    ("perturbation", "xlogx", 100, None, None, "affine"),
    ("perturbation", "xlogx", 15, None, None, "poly"),
    ("perturbation", "pw", 20, None, 2.0, "affine"),
    ("perturbation", "pw", 40, None, 0.5, "poly"),
    ("perturbation", "pw", 10, None, -1.0, "affine"),
    ("corrupt", "exp", 20, None, None, "affine"),
    ("corrupt", "xlogx", 50, None, None, "poly"),
    ("corrupt", "pw", 30, None, 2.0, "affine"),
    ("corrupt", "pw", 15, None, 0.5, "texp"),
]

#: random perturbation pairs tried per run (perturbation_verify's default)
PAIR_SAMPLES = 16


def lattice_size(atoms, target):
    """Smallest lattice divisor M giving at least `target` candidates.

    With B = M * resolution the oracle enumerates compositions of at most
    M - 1 units into atoms - 2 positive parts: C(M - 1, atoms - 2) of them.
    """
    M = atoms - 1
    while math.comb(M - 1, atoms - 2) < target:
        M += 1
    return M, math.comb(M - 1, atoms - 2)


def _discrete_spec(n_atoms, rng):
    return {"kind": "custom", "atoms": discrete_atoms(n_atoms, rng).tolist()}


def _corruption(traj_values, rng):
    """(index, delta): shift an interior node by 30% of its smaller gap.

    The node with the widest gaps is taken, so the shift keeps the trajectory
    admissible and undoing it gains far more than the oracle's slack.
    """
    inc = np.abs(np.diff(traj_values))
    gaps = np.minimum(inc[:-1], inc[1:])
    i = int(np.argmax(gaps)) + 1
    return i, float(0.3 * gaps[i - 1] * (1.0 if rng.random() < 0.5 else -1.0))


class OracleCase:
    """A problem on a reused discrete scale and one oracle run on it.

    ``block`` is the CLI's oracle block for the same run, ``call`` runs it
    in-process, ``count`` is the number of candidates the run must report
    and ``corrupt`` is the ``(index, delta)`` given to ``verify --corrupt``.
    """

    def __init__(self, tsvar, slot, rng, scales, tiny):
        oracle, key, n_atoms, size, alpha, family = slot
        if tiny:
            n_atoms = min(n_atoms, 6 if oracle == "exhaustive" else 12)
            size = size and min(size, 500)
        if n_atoms not in scales:
            spec = _discrete_spec(n_atoms, rng)
            scales[n_atoms] = (spec, tsvar.cli.parse_timescale(spec))
        self.spec, ts = scales[n_atoms]
        self.kind, self.alpha = KIND_NAMES[key], alpha
        self.phi = phi_spec(family, rng)
        self.B = B = _problem_B(self.kind, self.spec, self.phi, rng, None)
        p = tsvar.VariationalProblem(self.kind, ts, B,
                                     tsvar.cli.parse_function(self.phi), alpha)
        self.ref = ref_optimum(self.kind, self.spec, self.phi, B, alpha)
        self.label = f"{oracle}/{self.kind}/{n_atoms}"
        self.verdict = "refuted" if oracle == "corrupt" else "certified"
        self.corrupt = None
        if oracle == "exhaustive":
            M, self.count = lattice_size(n_atoms, size)
            block = {"mode": "exhaustive", "resolution": B / M}
            self.call = lambda: tsvar.exhaustive_verify(p, block["resolution"])
        elif oracle == "random":
            block = {"mode": "random", "samples": int(size),
                     "seed": int(rng.integers(2 ** 31))}
            self.count = block["samples"]
            self.call = lambda: tsvar.random_verify(p, block["samples"],
                                                    block["seed"])
        else:
            self.count = 2 * (n_atoms - 2) + (PAIR_SAMPLES if n_atoms >= 4 else 0)
            y = tsvar.solve(p).trajectory.values
            if oracle == "corrupt":
                self.corrupt = i, delta = _corruption(y, rng)
                y = y.copy()
                y[i] += delta
                eps = abs(delta)      # undoing the corruption is a candidate move
            else:
                eps = 1.5 * float(np.median(np.abs(np.diff(y))))  # halvings happen
            block = {"mode": "perturbation", "eps": eps}
            traj = tsvar.GridFunction(ts, y)
            self.call = lambda: tsvar.perturbation_verify(
                p, eps, trajectory=traj, pair_samples=PAIR_SAMPLES)
        self.block = block


def _certify_op(tsvar, slot, rng, scales, tiny, ref_bias):
    case = OracleCase(tsvar, slot, rng, scales, tiny)
    ref = case.ref * (1.0 + ref_bias)

    def check(out):
        report, exc = out
        if exc is not None:
            return FAILED, None
        err = rel_err(report.closed_form_value, ref)
        good = (report.verdict == case.verdict and err <= TOL_DISCRETE
                and report.candidates_evaluated == case.count)
        return (OK if good else WRONG), err

    return Op(f"{case.label}/{case.count}", lambda: attempt(case.call), check)


def build_certify_lattice(tsvar, rng, workdir, tiny=False, ref_bias=0.0):
    scales = {}
    return [_certify_op(tsvar, slot, rng, scales, tiny, ref_bias)
            for slot in CERTIFY_SLOTS]


# -- cli_files -------------------------------------------------------------

# One op is one CLI invocation, ``tsvar.cli.main(argv)`` called in-process on
# a generated file: parsing, solving or checking, and writing to disk, with
# the exit code taken from SystemExit.  The same invocations run as fresh
# processes only in the traced run, for cli.startup_s: process start-up
# swings with the machine's load too much to hold a bound.

# The six largest solves cost about the same, so the 90th percentile of
# cli_files (3.5 slots from the top) falls inside their pooled samples.
CLI_SOLVE_SLOTS = [
    ("xlogx", "uniform", "affine", 2.0, None),
    ("xlogx", "real_interval", "affine", 4.3, None),
    ("xlogx", "q_scale", "poly", 4.3, None),
    ("exp", "uniform", "poly", 4.3, None),
    ("exp", "real_interval", "affine", 3.0, None),
    ("exp", "q_scale", "texp", 2.5, None),
    ("exp", "custom", "affine", 4.3, None),
    ("pw", "real_interval", "affine", 3.45, 2.0),
    ("pw", "uniform", "exp", 2.5, 0.5),
    ("pw", "q_scale", "poly", 2.0, -1.0),
    ("pw", "custom", "texp", 3.4, 3.0),
]

# (check kind, scale, log10 points, extra check keys)
CLI_CHECK_SLOTS = [
    ("weighted_jensen", "uniform", 3.0, {"F": {"family": "power", "alpha": 2}}),
    ("jensen", "real_interval", 3.5, {"F": {"family": "exp"}}),
    ("power", "uniform", 4.0, {"alpha": 2.5}),
    ("reciprocal_power", "q_scale", 3.0, {"alpha": 1.5}),
    ("exp", "uniform", 3.5, {}),
    ("log", "custom", 3.0, {}),
    ("xlogx", "uniform", 4.0, {}),
    ("quasi_arithmetic", "uniform", 3.0,
     {"phi": {"family": "log"}, "psi": {"family": "identity"}}),
]

# (oracle, kind, atoms, size, alpha, weight family) as in CERTIFY_SLOTS
CLI_VERIFY_SLOTS = [
    ("exhaustive", "exp", 5, 2e3, None, "affine"),
    ("exhaustive", "pw", 6, 1e4, 2.0, "poly"),
    ("random", "xlogx", 50, 2e3, None, "texp"),
    ("random", "pw", 20, 5e3, -1.0, "affine"),
    ("perturbation", "xlogx", 20, None, None, "affine"),
    ("corrupt", "pw", 10, None, 2.0, "affine"),
    ("corrupt", "xlogx", 15, None, None, "poly"),
]

EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_REFUTED = 0, 2, 3, 5


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _problem_file(spec, kind, B, phi, alpha=None, oracle=None):
    problem = {"kind": kind, "B": B, "phi": phi}
    if alpha is not None:
        problem["alpha"] = alpha
    raw = {"schema_version": "1", "timescale": spec, "problem": problem}
    if oracle is not None:
        raw["oracle"] = oracle
    return raw


class _Cli:
    """Runs one CLI invocation as a child process or in-process."""

    def __init__(self, tsvar, src_dir):
        self.tsvar = tsvar
        self.env = dict(os.environ)
        outer = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = (os.pathsep.join([src_dir, outer]) if outer
                                  else src_dir)

    def process(self, argv):
        try:
            res = subprocess.run([sys.executable, "-m", "tsvar.cli", *argv],
                                 env=self.env, capture_output=True, text=True,
                                 timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", "timeout"
        return res.returncode, res.stdout, res.stderr

    def inproc(self, argv):
        out, err = io.StringIO(), io.StringIO()
        code = EXIT_OK
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.tsvar.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:   # an uncaught error exits 1, as the process does
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()


def _stdout_json(stdout):
    """The JSON object a command printed, or {} for anything else."""
    try:
        got = json.loads(stdout)
    except ValueError:
        return {}
    return got if isinstance(got, dict) else {}


def _same(a, b, keys, tol=1e-12):
    for k in keys:
        x, y = a.get(k), b.get(k)
        if isinstance(y, float) and isinstance(x, (int, float)):
            if rel_err(x, y) > tol:
                return False
        elif x != y:
            return False
    return True


def _cli_op(cli, label, argv, check, out_dir=None, known_defect=False):
    prepare = None
    if out_dir is not None:
        def prepare():
            shutil.rmtree(out_dir, ignore_errors=True)
    return Op(label, lambda: cli.inproc(argv), check,
              run_process=lambda: cli.process(argv), prepare=prepare,
              out_dir=out_dir, known_defect=known_defect)


def _cli_solve(tsvar, cli, slot, rng, workdir, idx, tiny, ref_bias):
    key, scale_kind, family, logsize, alpha = slot
    kind = KIND_NAMES[key]
    spec = scale_spec(scale_kind, _logsize(logsize, tiny), rng)
    phi = phi_spec(family, rng)
    B = _problem_B(kind, spec, phi, rng, None)
    path = os.path.join(workdir, f"solve{idx}.json")
    _write_json(path, _problem_file(spec, kind, B, phi, alpha))
    out_dir = os.path.join(workdir, f"out{idx}")
    ts = tsvar.cli.parse_timescale(spec)
    rows = len(ts.points) + 1
    ref = ref_optimum(kind, spec, phi, B, alpha)
    if ref is None:   # in-process reference: the functional at the optimum
        p = tsvar.VariationalProblem(kind, ts, B, tsvar.cli.parse_function(phi),
                                     alpha)
        ref = tsvar.evaluate_functional(p, tsvar.solve(p).trajectory)
    ref *= 1.0 + ref_bias
    tol = TOL_DISCRETE if is_discrete(spec) else TOL_CONTINUOUS

    def check(out):
        code, stdout, _ = out
        if code != EXIT_OK:
            return FAILED, None
        line = _stdout_json(stdout)
        try:
            with open(os.path.join(out_dir, "solution.json")) as fh:
                summary = json.load(fh)
            with open(os.path.join(out_dir, "trajectory.csv")) as fh:
                n_rows = sum(1 for _ in fh)
        except (OSError, ValueError):
            return WRONG, None
        value = summary.get("optimal_value") if isinstance(summary, dict) else None
        if not isinstance(value, float):
            return WRONG, None
        err = rel_err(value, ref)
        good = (err <= tol and n_rows == rows and line.get("optimal_value") == value
                and line.get("extremum") == _extremum(kind, alpha))
        return (OK if good else WRONG), err

    return _cli_op(cli, f"solve/{kind}/{scale_kind}/{rows - 1}",
                   ["solve", path, "-o", out_dir], check, out_dir)


def _cli_check(tsvar, cli, slot, rng, workdir, idx, tiny):
    kind, scale_kind, logsize, extra = slot
    spec = scale_spec(scale_kind, _logsize(logsize, tiny), rng)
    n = len(tsvar.cli.parse_timescale(spec).points)
    raw = {"schema_version": "1", "timescale": spec,
           "check": {"kind": kind, "f": rng.uniform(0.5, 2.0, n).tolist(),
                     **extra}}
    if kind == "weighted_jensen":
        raw["check"]["h"] = rng.uniform(0.1, 1.0, n).tolist()
    path = os.path.join(workdir, f"check{idx}.json")
    _write_json(path, raw)
    expected = tsvar.cli.parse_check_file(raw)().to_dict()

    def check(out):
        code, stdout, _ = out
        if code != EXIT_OK:
            return FAILED, None
        got = _stdout_json(stdout)
        good = got.get("holds") is True and _same(got, expected, expected)
        return (OK if good else WRONG), None

    return _cli_op(cli, f"check/{kind}/{n}", ["check", path], check)


def _cli_verify(tsvar, cli, slot, rng, workdir, idx, tiny, scales):
    case = OracleCase(tsvar, slot, rng, scales, tiny)
    path = os.path.join(workdir, f"verify{idx}.json")
    _write_json(path, _problem_file(case.spec, case.kind, case.B, case.phi,
                                    case.alpha, case.block))
    argv = ["verify", path]
    if case.corrupt is not None:
        i, delta = case.corrupt
        argv += ["--corrupt", f"{i}:{delta!r}"]
    expected = case.call().to_dict()
    code = EXIT_REFUTED if case.corrupt is not None else EXIT_OK

    def check(out):
        got_code, stdout, _ = out
        if got_code != code:
            return FAILED, None
        got = _stdout_json(stdout)
        good = (got.get("verdict") == case.verdict
                and _same(got, expected, ["verdict", "candidates_evaluated",
                                          "closed_form_value", "best_value_found"])
                and rel_err(expected["closed_form_value"], case.ref) <= TOL_DISCRETE)
        return (OK if good else WRONG), None

    return _cli_op(cli, f"verify/{case.label}", argv, check)


def _cli_wsc(tsvar, cli):
    expected = tsvar.wsc_counterexample().to_dict()

    def check(out):
        code, stdout, _ = out
        if code != EXIT_OK:
            return FAILED, None
        got = _stdout_json(stdout)
        good = got.get("contradiction") is True and _same(got, expected, expected)
        return (OK if good else WRONG), None

    return _cli_op(cli, "verify/wsc", ["verify", "--wsc"], check)


def _cli_errors(tsvar, cli, rng, workdir):
    """Files that must fail inside the documented exit-code contract.

    The missing-key file (a uniform scale without n) is documented as a
    parse error, exit 2.  The seed exits 1 there with a KeyError traceback:
    that op counts as failed, and is the one failure that leaves the run
    correct.
    """
    spec = scale_spec("uniform", 50, rng)
    phi = phi_spec("affine", rng)
    good = _problem_file(spec, "xlogx_shifted", feasible_B(spec, phi, rng), phi)
    no_n = {k: v for k, v in spec.items() if k != "n"}
    lattice = {"kind": "uniform", "a": 0, "b": 7, "n": 7}
    cases = [
        ("unknown_key", EXIT_PARSE, "solve", {**good, "extra": 1}),
        ("schema_version", EXIT_PARSE, "solve", {**good, "schema_version": "2"}),
        ("missing_key", EXIT_PARSE, "solve", {**good, "timescale": no_n}),
        ("infeasible", EXIT_PRECONDITION, "solve", _problem_file(
            spec, "xlogx_shifted", infeasible_B(spec, phi), phi)),
        ("degenerate", EXIT_PRECONDITION, "solve", _problem_file(
            spec, "power_weighted", 2.0, phi, alpha=1.0)),
        ("budget", EXIT_PRECONDITION, "verify", _problem_file(
            lattice, "exp_derivative", 2.0, phi,
            oracle={"mode": "exhaustive", "resolution": 1e-3})),
        ("check_alpha", EXIT_PRECONDITION, "check", {
            "schema_version": "1", "timescale": spec,
            "check": {"kind": "power", "f": [1.0] * 50, "alpha": 1.0}}),
    ]
    files = []
    for name, code, sub, raw in cases:
        path = os.path.join(workdir, f"error_{name}.json")
        _write_json(path, raw)
        files.append((name, code, sub, path))
    bad_json = os.path.join(workdir, "error_bad_json.json")
    with open(bad_json, "w") as fh:
        fh.write('{"schema_version": "1", "timescale": ')
    files.append(("bad_json", EXIT_PARSE, "solve", bad_json))

    ops = []
    for name, code, sub, path in files:
        argv = [sub, path]
        if sub == "solve":
            argv += ["-o", os.path.join(workdir, f"error_out_{name}")]

        def check(out, code=code):
            got_code, stdout, stderr = out
            if got_code != code:
                return FAILED, None
            good = stdout == "" and stderr.startswith("error[")
            return (OK if good else WRONG), None

        ops.append(_cli_op(cli, f"error/{name}", argv, check,
                           known_defect=name == "missing_key"))
    return ops


def build_cli_files(tsvar, rng, workdir, tiny=False, ref_bias=0.0,
                    src_dir=None):
    cli = _Cli(tsvar, src_dir)
    ops = [_cli_solve(tsvar, cli, s, rng, workdir, i, tiny, ref_bias)
           for i, s in enumerate(CLI_SOLVE_SLOTS)]
    ops += [_cli_check(tsvar, cli, s, rng, workdir, i, tiny)
            for i, s in enumerate(CLI_CHECK_SLOTS)]
    scales = {}
    ops += [_cli_verify(tsvar, cli, s, rng, workdir, i, tiny, scales)
            for i, s in enumerate(CLI_VERIFY_SLOTS)]
    ops.append(_cli_wsc(tsvar, cli))
    ops += _cli_errors(tsvar, cli, rng, workdir)
    return ops
