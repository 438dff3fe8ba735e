"""Acceptance gate: one test per headline criterion, each printing a
pass/fail line so `pytest -s tests/test_acceptance.py` doubles as a report."""

import math
import random
import time

import numpy as np
import pytest

from tsvar import (
    Affine,
    Constant,
    Exp,
    FeasibilityError,
    GridFunction,
    Log,
    Power,
    TsvarError,
    VariationalProblem,
    custom,
    evaluate_functional,
    exhaustive_verify,
    jensen_gap,
    quasi_arithmetic_gap,
    random_verify,
    real_interval,
    solve,
    special_case_gap,
    uniform,
    weighted_jensen_gap,
    wsc_counterexample,
)
from generators import (
    random_admissible_trajectory,
    random_discrete_timescale,
    random_grid,
)
from tsvar.roots import invert_increasing
from tsvar.solvers import weight_antiderivative


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    p = VariationalProblem("xlogx_shifted", uniform(0, 5, 5), 25.0,
                           Affine(2.0, 1.0))
    sol = solve(p)
    elapsed = time.perf_counter() - t0
    ok = (
        np.array_equal(sol.trajectory.values, [0, 9, 16, 21, 24, 25])
        and abs(sol.optimal_value - 50 * math.log(10)) <= 1e-9
        and elapsed < 0.1
    )
    report("criterion 1: worked example trajectory and value", ok)


def test_criterion_2_exhaustive_certification():
    t0 = time.perf_counter()
    p = VariationalProblem("xlogx_shifted", uniform(0, 5, 5), 25.0,
                           Affine(2.0, 1.0))
    rep = exhaustive_verify(p, resolution=1.0)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.candidates_evaluated == 10626
        and rep.best_value_found >= 50 * math.log(10) - 1e-9
        and rep.optima_count == 1
        and np.array_equal(np.diff(rep.best_candidate.values), [9, 7, 5, 3, 1])
        and elapsed < 1.0
    )
    report("criterion 2: exhaustive enumeration of 10626 candidates", ok)


def test_criterion_3_counterexample_reproduction():
    rep = wsc_counterexample()
    ok = (
        abs(rep.I_tilde - (2 * math.log(2) - 1)) <= 1e-8
        and abs(rep.I_max_claimed - (-math.log(math.log(2)))) <= 1e-8
        and rep.contradiction
        and abs(rep.margin - 0.0197814) <= 1e-6
    )
    report("criterion 3: literature counterexample values", ok)


def test_criterion_4_jensen_property_suite():
    t0 = time.perf_counter()

    def draw(rng, min_atoms=2):
        ts = random_discrete_timescale(rng, min_atoms=min_atoms)
        f = random_grid(rng, ts, 0.5, 3.0)
        return ts, f

    checkers = {
        "weighted": lambda rng: _weighted_case(rng),
        "unweighted": lambda rng: jensen_gap(*draw(rng), Exp()),
        "power": lambda rng: special_case_gap(
            "power", *draw(rng), alpha=rng.choice([-2.0, -0.5, 0.5, 2.0, 3.0])),
        "reciprocal_power": lambda rng: special_case_gap(
            "reciprocal_power", *draw(rng),
            alpha=rng.choice([-2.0, -0.5, 0.5, 2.0])),
        "exp": lambda rng: special_case_gap("exp", *draw(rng)),
        "log": lambda rng: special_case_gap("log", *draw(rng)),
        "xlogx": lambda rng: special_case_gap("xlogx", *draw(rng)),
        "quasi_arithmetic": lambda rng: quasi_arithmetic_gap(
            *draw(rng), Log(), Affine(1.0, 0.0)),
    }

    def _weighted_case(rng):
        ts, f = draw(rng)
        h = random_grid(rng, ts, -2.0, 2.0)
        rep = weighted_jensen_gap(ts, f, h, Power(2))
        return rep

    worst = math.inf
    for seed, (name, make) in enumerate(checkers.items()):
        rng = random.Random(1000 + seed)
        done = 0
        while done < 1000:
            try:
                rep = make(rng)
            except TsvarError:
                continue  # precondition not met (e.g. zero total weight)
            worst = min(worst, rep.gap)
            assert rep.gap >= -1e-10, (name, rep)
            done += 1

    # constant-integrand cases: the gap must vanish
    rng = random.Random(777)
    worst_const = 0.0
    for _ in range(100):
        ts = random_discrete_timescale(rng)
        c = rng.uniform(0.5, 3.0)
        f = GridFunction(ts, np.full(len(ts.points), c))
        kind = rng.choice(["weighted", "power", "exp", "log", "xlogx"])
        if kind == "weighted":
            h = random_grid(rng, ts, 0.5, 2.0)
            rep = weighted_jensen_gap(ts, f, h, Exp())
        else:
            alpha = rng.choice([-0.5, 2.0]) if kind == "power" else None
            rep = special_case_gap(kind, ts, f, alpha=alpha)
        worst_const = max(worst_const, abs(rep.gap))
        assert abs(rep.gap) <= 1e-10, (kind, rep)
        assert rep.equality

    # sharpness: strictly convex F, non-constant f, nowhere-zero weight
    rng = random.Random(4242)
    for _ in range(100):
        ts = random_discrete_timescale(rng, min_atoms=3)
        f = random_grid(rng, ts, 0.5, 3.0, min_spread=0.1)
        h = random_grid(rng, ts, 0.5, 2.0)
        rep = weighted_jensen_gap(ts, f, h, Power(2))
        assert rep.gap > 1e-8, rep

    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(
        f"criterion 4: inequality property suite "
        f"(worst gap {worst:.2e}, worst |constant gap| {worst_const:.2e}, "
        f"{elapsed:.1f}s)", ok)


def test_criterion_5_solver_cross_check():
    # root-found inverse versus the known closed form ln(1 + t)
    ts = real_interval(0.0, 1.0, 129)
    p = VariationalProblem("power_weighted", ts, math.log(2), Exp(), alpha=2.0)
    sol = solve(p)
    # invert G(y) = e^y - 1 at 100 targets C (t - a) with C = 1, so the
    # trajectory should be ln(1 + t); also spot-check stored grid values
    G = weight_antiderivative(Exp())
    # the roots lie in [0, ln 2] within [0, 1], where G rises with G' = e^y
    samples = np.linspace(0.0, 1.0, 100)
    max_err = max(
        abs(invert_increasing(G, t, 0.0, 1.0, Exp()) - math.log(1.0 + t))
        for t in samples)
    grid_err = float(np.max(np.abs(sol.trajectory.values
                                   - np.log(1.0 + ts.points))))
    ok1 = max_err <= 1e-9 and grid_err <= 1e-9 \
        and abs(sol.optimal_value - 1.0) <= 1e-8

    # exponential-of-derivative solver plus a large random oracle run
    p2 = VariationalProblem("exp_derivative", uniform(0, 2, 2), 2.0,
                            Constant(1.0))
    sol2 = solve(p2)
    rep = random_verify(p2, samples=10 ** 4, seed=20240817)
    ok2 = abs(sol2.optimal_value - 2 * math.e) <= 1e-10 and rep.certified
    report(f"criterion 5: solver cross-check (max inverse error {max_err:.2e})",
           ok1 and ok2)


def test_criterion_6_degenerate_alpha_constant():
    ts = uniform(0, 2, 4)
    B = 3.0
    G = weight_antiderivative(Exp())
    p0 = VariationalProblem("power_weighted", ts, B, Exp(), alpha=0.0)
    p1 = VariationalProblem("power_weighted", ts, B, Exp(), alpha=1.0)
    rng = random.Random(31415)
    ok = True
    for _ in range(100):
        y = random_admissible_trajectory(rng, ts, B)
        ok = ok and abs(evaluate_functional(p0, y) - 2.0) <= 1e-8
        ok = ok and abs(evaluate_functional(p1, y) - float(G(B))) <= 1e-8
    report("criterion 6: degenerate exponents give a constant functional", ok)


def test_criterion_7_feasibility_rejection():
    p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), -1.0,
                           Constant(1.0))
    try:
        solve(p)
    except FeasibilityError as exc:
        ok = exc.point is not None and str(exc.point) in str(exc)
    else:
        ok = False
    report("criterion 7: infeasible shift rejected naming a point", ok)


def test_criterion_8_quadrature_sanity():
    ts = real_interval(0.0, 1.0, 129)
    val = ts.delta_integral(GridFunction(ts, 1.0 / (ts.points + 1.0)))
    ok1 = abs(val - math.log(2)) <= 1e-8

    # fundamental theorem on a discrete scale: telescoping must be exact
    ds = custom(atoms=[0.0, 0.5, 1.5, 1.75, 4.75])
    y = GridFunction(ds, [1.0, -2.0, 0.25, 7.0, 3.5])
    d = ds.delta_derivative_grid(y)[ds.kappa_indices()]
    total = ds.delta_integral(GridFunction(ds, d))
    ok2 = total == y.values[-1] - y.values[0]
    report(f"criterion 8: quadrature sanity (ln 2 error {abs(val - math.log(2)):.2e})",
           ok1 and ok2)
