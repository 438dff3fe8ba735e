import math
import random

import numpy as np
import pytest

from tsvar import (
    Affine,
    BudgetError,
    Constant,
    Exp,
    FeasibilityError,
    GridFunction,
    PreconditionError,
    VariationalProblem,
    custom,
    evaluate_functional,
    exhaustive_verify,
    perturbation_verify,
    random_verify,
    real_interval,
    solve,
    uniform,
    wsc_counterexample,
)
from tsvar.generators import random_discrete_timescale
import tsvar.validation as validation


def worked_problem():
    return VariationalProblem("xlogx_shifted", uniform(0, 5, 5), 25.0,
                              Affine(2.0, 1.0))


class TestExhaustive:
    def test_worked_example_unit_lattice(self):
        rep = exhaustive_verify(worked_problem(), resolution=1.0)
        # increments are 5 positive integers summing to 25: C(24, 4) = 10626
        assert rep.candidates_evaluated == 10626
        assert rep.certified
        assert rep.optima_count == 1
        assert rep.best_value_found == pytest.approx(50 * math.log(10),
                                                     abs=1e-9)
        assert np.array_equal(rep.best_candidate.values, [0, 9, 16, 21, 24, 25])
        assert np.array_equal(np.diff(rep.best_candidate.values),
                              [9, 7, 5, 3, 1])

    def test_exp_fine_lattice(self):
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        rep = exhaustive_verify(p, resolution=0.01)
        # first increment in {0.01, ..., 1.99}
        assert rep.candidates_evaluated == 199
        assert rep.certified
        assert rep.best_value_found == pytest.approx(2 * math.e, abs=1e-4)

    def test_single_step_scale(self):
        p = VariationalProblem("exp_derivative", uniform(0, 1, 1), 3.0,
                               Constant(1.0))
        rep = exhaustive_verify(p, resolution=0.5)
        assert rep.candidates_evaluated == 1
        assert rep.certified
        assert rep.best_value_found == pytest.approx(math.exp(3.0), abs=1e-12)

    def test_max_problem_direction(self):
        # alpha in (0, 1) makes the closed form a maximum; lattice values
        # must all sit at or below it
        p = VariationalProblem("power_weighted", uniform(0, 2, 2), 2.0,
                               Constant(1.0), alpha=0.5)
        rep = exhaustive_verify(p, resolution=0.05)
        assert rep.certified
        assert rep.best_value_found <= rep.closed_form_value + 1e-9
        assert rep.best_value_found == pytest.approx(2.0, abs=1e-3)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            exhaustive_verify(worked_problem(), resolution=0.01, budget=1000)

    def test_continuous_scale_rejected(self):
        p = VariationalProblem("exp_derivative", real_interval(0, 1, 9), 1.0,
                               Constant(1.0))
        with pytest.raises(PreconditionError):
            exhaustive_verify(p, resolution=0.1)

    def test_bad_resolution(self):
        with pytest.raises(PreconditionError):
            exhaustive_verify(worked_problem(), resolution=0.0)

    def test_nonlattice_boundary(self):
        # B = 1.05 with resolution 0.5: the tail absorbs the remainder
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 1.05,
                               Constant(1.0))
        rep = exhaustive_verify(p, resolution=0.5)
        assert rep.candidates_evaluated == 2  # first increment 0.5 or 1.0
        assert rep.certified
        for inc in np.diff(rep.best_candidate.values):
            assert inc > 0


class TestRandom:
    def test_deterministic(self):
        p = worked_problem()
        r1 = random_verify(p, samples=500, seed=42)
        r2 = random_verify(p, samples=500, seed=42)
        assert r1.best_value_found == r2.best_value_found
        assert np.array_equal(r1.best_candidate.values, r2.best_candidate.values)
        r3 = random_verify(p, samples=500, seed=43)
        assert r3.best_value_found != r1.best_value_found

    def test_certifies_worked_example(self):
        rep = random_verify(worked_problem(), samples=5000, seed=7)
        assert rep.certified
        assert rep.candidates_evaluated == 5000
        assert rep.best_value_found >= 50 * math.log(10) - 1e-9

    def test_max_direction(self):
        p = VariationalProblem("power_weighted", uniform(0, 2, 4), 2.0,
                               Exp(), alpha=0.5)
        rep = random_verify(p, samples=2000, seed=3)
        assert rep.certified
        assert rep.best_value_found <= rep.closed_form_value + 1e-9

    def test_bad_samples(self):
        with pytest.raises(PreconditionError):
            random_verify(worked_problem(), samples=0, seed=1)

    def test_many_random_problems_certified(self):
        rng = random.Random(2024)
        kinds = ["power_weighted", "exp_derivative", "xlogx_shifted"]
        phis = [Constant(1.0), Affine(0.5, 1.0), Exp()]
        done = 0
        while done < 50:
            ts = random_discrete_timescale(rng, min_atoms=3, max_atoms=7)
            kind = rng.choice(kinds)
            phi = rng.choice(phis)
            B = rng.uniform(0.5, 4.0)
            alpha = rng.choice([-1.0, 0.5, 2.0, 3.0]) \
                if kind == "power_weighted" else None
            p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
            try:
                rep = random_verify(p, samples=200, seed=done)
            except FeasibilityError:
                continue  # xlogx draw with no admissible closed form
            assert rep.certified, (kind, B, alpha)
            done += 1


def discrete_sum(p, y):
    """The functional on a discrete scale as the plain sum over its gaps."""
    mu = np.diff(p.ts.points)
    d = np.diff(y) / mu
    phi_t = p.phi(p.ts.points[:-1])
    if p.kind == "exp_derivative":
        terms = phi_t * np.exp(d)
    elif p.kind == "xlogx_shifted":
        terms = (phi_t + d) * np.log(phi_t + d)
    else:
        terms = (np.diff(p.phi.antideriv(y)) / mu) ** p.alpha
    return float(np.sum(mu * terms))


class TestDiscreteObjective:
    """The oracles' batched evaluation equals the per-row evaluation and
    the plain sum over the gaps."""

    @pytest.mark.parametrize("kind,phi,B,alpha", [
        ("power_weighted", Exp(), 2.0, 2.0),
        ("power_weighted", Affine(1.0, 0.5), 1.5, -1.0),
        ("exp_derivative", Affine(0.5, 1.0), 2.0, None),
        ("xlogx_shifted", Constant(1.0), 3.0, None),
    ])
    def test_matches_evaluate_functional(self, kind, phi, B, alpha):
        ts = custom(atoms=[0.0, 0.5, 1.25, 2.0, 3.0])
        p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
        rng = np.random.default_rng(5)
        W = 1.0 - rng.random((20, len(ts.points) - 1))
        D = W / W.sum(axis=1, keepdims=True) * B
        Y = np.concatenate([np.zeros((len(D), 1)), np.cumsum(D, axis=1)], axis=1)
        batched = evaluate_functional(p, Y, check_admissible=False)
        assert batched.shape == (20,)
        for row, v in zip(Y, batched):
            assert evaluate_functional(p, GridFunction(ts, row)) == \
                pytest.approx(float(v), abs=1e-10)
            assert discrete_sum(p, row) == pytest.approx(float(v), abs=1e-10)


class TestPerturbation:
    @pytest.mark.parametrize("kind,phi,B,alpha", [
        ("power_weighted", Constant(1.0), 2.0, 2.0),
        ("power_weighted", Exp(), 1.5, 0.5),
        ("exp_derivative", Constant(1.0), 2.0, None),
        ("xlogx_shifted", Affine(2.0, 1.0), 25.0, None),
    ])
    def test_solver_output_certified(self, kind, phi, B, alpha):
        ts = uniform(0, 5, 5) if kind == "xlogx_shifted" else uniform(0, 2, 4)
        p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
        rep = perturbation_verify(p, eps=1e-4)
        assert rep.certified
        assert rep.refuting_candidate is None

    def test_corrupted_trajectory_refuted(self):
        p = worked_problem()
        y = GridFunction(p.ts, [0, 9, 17, 21, 24, 25])  # bumped interior point
        rep = perturbation_verify(p, eps=0.5, trajectory=y)
        assert rep.verdict == "refuted"
        assert rep.refuting_candidate is not None
        better = evaluate_functional(p, rep.refuting_candidate)
        assert better < evaluate_functional(p, y)

    def test_eps_halving(self):
        # eps so large that every first shift breaks monotonicity
        p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), 1.0,
                               Constant(1.0))
        rep = perturbation_verify(p, eps=100.0)
        assert rep.certified

    def test_bad_eps(self):
        with pytest.raises(PreconditionError):
            perturbation_verify(worked_problem(), eps=-1.0)

    def test_unexpected_error_propagates(self, monkeypatch):
        # only admissibility and domain failures shrink eps; anything else
        # is a fault and must surface unchanged
        p = worked_problem()
        base = solve(p).trajectory
        real = validation.evaluate_functional

        def broken(problem, y, check_admissible=True):
            if y is base:
                return real(problem, y, check_admissible)
            raise RuntimeError("evaluator fault")

        monkeypatch.setattr(validation, "evaluate_functional", broken)
        with pytest.raises(RuntimeError, match="evaluator fault"):
            perturbation_verify(p, eps=1e-3, trajectory=base)


class TestWsc:
    def test_closed_forms(self):
        rep = wsc_counterexample()
        assert rep.I_tilde == pytest.approx(2 * math.log(2) - 1, abs=1e-8)
        assert rep.C == pytest.approx(math.log(2), abs=1e-8)
        assert rep.I_max_claimed == pytest.approx(-math.log(math.log(2)),
                                                  abs=1e-8)
        assert rep.contradiction
        assert rep.margin == pytest.approx(0.0197814, abs=1e-6)

    def test_node_refinement_stable(self):
        coarse = wsc_counterexample(nodes=33)
        fine = wsc_counterexample(nodes=513)
        assert coarse.margin == pytest.approx(fine.margin, abs=1e-7)
        assert coarse.contradiction and fine.contradiction

    def test_to_dict(self):
        d = wsc_counterexample().to_dict()
        assert set(d) == {"I_tilde", "C", "I_max_claimed", "contradiction",
                          "margin"}
