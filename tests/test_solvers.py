import math
import random

import numpy as np
import pytest

from tsvar import (
    AdmissibilityError,
    Affine,
    Constant,
    DegenerateProblemError,
    DomainError,
    Exp,
    FeasibilityError,
    GridFunction,
    PreconditionError,
    Solution,
    VariationalProblem,
    custom,
    evaluate_functional,
    real_interval,
    solve,
    solve_exp_derivative,
    solve_power_weighted,
    solve_xlogx_shifted,
    uniform,
)
from tsvar.generators import random_admissible_trajectory
from tsvar.roots import invert_increasing
from tsvar.solvers import weight_antiderivative


def worked_problem():
    return VariationalProblem("xlogx_shifted", uniform(0, 5, 5), 25.0,
                              Affine(2.0, 1.0))


class TestPowerWeighted:
    def test_unit_weight_straight_line(self):
        ts = real_interval(0, 1, 129)
        p = VariationalProblem("power_weighted", ts, 1.0, Constant(1.0), alpha=2.0)
        sol = solve_power_weighted(p)
        assert sol.C == pytest.approx(1.0, abs=1e-12)
        assert sol.extremum == "min"
        assert sol.optimal_value == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(sol.trajectory.values - ts.points)) < 1e-10

    def test_exp_weight_log_solution(self):
        ts = real_interval(0, 1, 129)
        p = VariationalProblem("power_weighted", ts, math.log(2), Exp(), alpha=2.0)
        sol = solve_power_weighted(p)
        assert sol.C == pytest.approx(1.0, abs=1e-12)
        expected = np.log(1.0 + ts.points)
        assert np.max(np.abs(sol.trajectory.values - expected)) < 1e-9
        assert sol.optimal_value == pytest.approx(1.0, abs=1e-12)
        # functional value re-evaluated by quadrature
        assert evaluate_functional(p, sol.trajectory) == pytest.approx(1.0, abs=1e-8)

    def test_fractional_alpha_is_max(self):
        ts = uniform(0, 2, 4)
        p = VariationalProblem("power_weighted", ts, 4.0, Constant(1.0), alpha=0.5)
        sol = solve_power_weighted(p)
        assert sol.C == pytest.approx(2.0, abs=1e-12)
        assert sol.extremum == "max"
        assert sol.optimal_value == pytest.approx(2.0 * math.sqrt(2), abs=1e-12)
        assert np.allclose(sol.trajectory.values, 2.0 * ts.points)

    def test_inverse_fidelity(self):
        p = VariationalProblem("power_weighted", real_interval(0, 1, 65),
                               math.log(2), Exp(), alpha=2.0)
        sol = solve_power_weighted(p)
        G = weight_antiderivative(p.phi)
        for y in sol.trajectory.values:
            u_back = float(G(y))
            # G(G^{-1}(u)) = u for every trajectory target u
            t = u_back  # C = 1 here, so target u = t - a
            assert abs(u_back - t) <= 1e-10

    def test_degenerate_alphas(self):
        ts = uniform(0, 2, 2)
        for alpha, const in [(0.0, 2.0), (1.0, math.e ** 3 - 1.0)]:
            p = VariationalProblem("power_weighted", ts, 3.0, Exp(), alpha=alpha)
            with pytest.raises(DegenerateProblemError) as exc:
                solve_power_weighted(p)
            assert exc.value.constant_value == pytest.approx(const, abs=1e-12)

    def test_nonpositive_B_rejected(self):
        p = VariationalProblem("power_weighted", uniform(0, 2, 2), -1.0,
                               Constant(1.0), alpha=2.0)
        with pytest.raises(PreconditionError):
            solve_power_weighted(p)

    def test_boundary_exactness(self):
        p = VariationalProblem("power_weighted", uniform(0, 3, 6), 2.5,
                               Affine(1.0, 0.5), alpha=3.0)
        sol = solve_power_weighted(p)
        assert sol.trajectory.values[0] == 0.0
        assert abs(sol.trajectory.values[-1] - 2.5) <= 1e-9


class TestExpDerivative:
    def test_unit_weight(self):
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        sol = solve_exp_derivative(p)
        assert sol.C == pytest.approx(1.0, abs=1e-14)
        assert sol.optimal_value == pytest.approx(2 * math.e, abs=1e-10)
        assert np.allclose(sol.trajectory.values, [0, 1, 2])

    def test_zero_boundary(self):
        ts = custom(atoms=[0.0, 0.5, 1.75, 3.0])
        p = VariationalProblem("exp_derivative", ts, 0.0, Constant(1.0))
        sol = solve_exp_derivative(p)
        assert sol.C == 0.0
        assert np.allclose(sol.trajectory.values, 0.0)
        assert sol.optimal_value == pytest.approx(3.0, abs=1e-12)

    def test_exponential_weight(self):
        ts = uniform(0, 2, 2)
        p = VariationalProblem("exp_derivative", ts, 2.0, Exp())
        sol = solve_exp_derivative(p)
        assert sol.C == pytest.approx(1.5, abs=1e-14)
        assert sol.optimal_value == pytest.approx(2 * math.exp(1.5), abs=1e-12)
        # y(t) = -integral of s + 1.5 t on the integer scale
        assert np.allclose(sol.trajectory.values, [0.0, 1.5, 2.0])

    def test_brute_force_two_step(self):
        # minimize e^{d0} + e^{d1} with d0 + d1 = 2 by scanning
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        sol = solve_exp_derivative(p)
        d0 = np.linspace(-3, 5, 20001)
        brute = np.min(np.exp(d0) + np.exp(2.0 - d0))
        assert sol.optimal_value == pytest.approx(float(brute), abs=1e-7)

    def test_nonpositive_phi_rejected(self):
        from tsvar import DomainError
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 1.0,
                               Affine(1.0, -1.0))
        with pytest.raises(DomainError):
            solve_exp_derivative(p)


class TestXLogXShifted:
    def test_worked_example(self):
        sol = solve_xlogx_shifted(worked_problem())
        assert sol.C == 10.0
        assert np.array_equal(sol.trajectory.values, [0, 9, 16, 21, 24, 25])
        assert sol.optimal_value == pytest.approx(50 * math.log(10), abs=1e-9)

    def test_unit_weight(self):
        p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        sol = solve_xlogx_shifted(p)
        assert sol.C == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(sol.trajectory.values, [0, 1, 2])
        assert sol.optimal_value == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_feasibility_margin(self):
        p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), 0.5,
                               Constant(1.0))
        sol = solve_xlogx_shifted(p)  # C = 1.25 > 1
        assert sol.C == pytest.approx(1.25, abs=1e-14)

    def test_infeasible_names_point(self):
        p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), -1.0,
                               Constant(1.0))
        with pytest.raises(FeasibilityError) as exc:
            solve_xlogx_shifted(p)
        assert exc.value.point is not None
        assert str(exc.value.point) in str(exc.value)

    def test_continuous_scale(self):
        ts = real_interval(0, 1, 129)
        p = VariationalProblem("xlogx_shifted", ts, 2.0, Affine(1.0, 1.0))
        sol = solve_xlogx_shifted(p)
        # C = (2 + 3/2) / 1 = 3.5; y(t) = 3.5 t - t - t^2/2
        assert sol.C == pytest.approx(3.5, abs=1e-10)
        expected = 2.5 * ts.points - 0.5 * ts.points ** 2
        assert np.max(np.abs(sol.trajectory.values - expected)) < 1e-9
        assert evaluate_functional(p, sol.trajectory) == pytest.approx(
            sol.optimal_value, abs=1e-8)


class TestEvaluateFunctional:
    def test_worked_optimal_trajectory(self):
        p = worked_problem()
        y = GridFunction(p.ts, [0, 9, 16, 21, 24, 25])
        assert evaluate_functional(p, y) == pytest.approx(50 * math.log(10),
                                                          abs=1e-9)

    def test_worked_competitor(self):
        p = worked_problem()
        y = GridFunction(p.ts, [0, 5, 10, 15, 20, 25])
        expected = sum((2 * t + 6) * math.log(2 * t + 6) for t in range(5))
        got = evaluate_functional(p, y)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got > 50 * math.log(10)

    def test_exp_competitor(self):
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        y = GridFunction(p.ts, [0.0, 0.5, 2.0])
        got = evaluate_functional(p, y)
        assert got == pytest.approx(math.exp(0.5) + math.exp(1.5), abs=1e-12)
        assert got > 2 * math.e

    def test_boundary_violations(self):
        p = worked_problem()
        with pytest.raises(AdmissibilityError):
            evaluate_functional(p, GridFunction(p.ts, [1, 9, 16, 21, 24, 25]))
        with pytest.raises(AdmissibilityError):
            evaluate_functional(p, GridFunction(p.ts, [0, 9, 16, 21, 24, 26]))

    def test_monotonicity_violation_reports_point(self):
        p = worked_problem()
        with pytest.raises(AdmissibilityError) as exc:
            evaluate_functional(p, GridFunction(p.ts, [0, 9, 8, 21, 24, 25]))
        assert exc.value.point == 1.0

    @pytest.mark.parametrize("kind,phi,B,alpha", [
        ("power_weighted", Affine(1.0, 0.5), 2.0, 2.0),
        ("power_weighted", Exp(), 1.5, -1.0),
        ("power_weighted", Constant(2.0), 3.0, 0.5),
        ("exp_derivative", Constant(1.0), 2.5, None),
        ("exp_derivative", Affine(0.5, 1.0), 1.0, None),
        ("xlogx_shifted", Constant(1.0), 2.0, None),
        ("xlogx_shifted", Affine(0.3, 0.7), 4.0, None),
    ])
    def test_consistency_discrete(self, kind, phi, B, alpha):
        ts = custom(atoms=[0.0, 0.5, 1.25, 2.0, 3.0])
        p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
        sol = solve(p)
        assert evaluate_functional(p, sol.trajectory) == pytest.approx(
            sol.optimal_value, abs=1e-8)
        d = ts.delta_derivative_grid(sol.trajectory)
        if kind != "exp_derivative":
            assert np.all(d[ts.kappa_indices()] > 1e-12)

    @pytest.mark.parametrize("kind,phi,B,alpha", [
        ("power_weighted", Exp(), math.log(2), 2.0),
        ("exp_derivative", Affine(1.0, 1.0), 1.0, None),
        ("xlogx_shifted", Constant(0.5), 2.0, None),
    ])
    def test_consistency_continuous(self, kind, phi, B, alpha):
        ts = real_interval(0.0, 1.0, 129)
        p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
        sol = solve(p)
        assert evaluate_functional(p, sol.trajectory) == pytest.approx(
            sol.optimal_value, abs=1e-8)

    def test_degenerate_alpha_constant_functional(self):
        ts = uniform(0, 2, 4)
        rng = random.Random(99)
        G = weight_antiderivative(Exp())
        p0 = VariationalProblem("power_weighted", ts, 3.0, Exp(), alpha=0.0)
        p1 = VariationalProblem("power_weighted", ts, 3.0, Exp(), alpha=1.0)
        for _ in range(25):
            y = random_admissible_trajectory(rng, ts, 3.0)
            assert evaluate_functional(p0, y) == pytest.approx(2.0, abs=1e-8)
            assert evaluate_functional(p1, y) == pytest.approx(float(G(3.0)),
                                                               abs=1e-8)


class TestInvertIncreasing:
    def test_converges(self):
        x = invert_increasing(math.exp, 3.0, 0.0, 5.0, gprime=math.exp)
        assert abs(math.exp(x) - 3.0) <= 1e-12

    def test_unconverged_raises(self):
        # one step from the bracket midpoint cannot reach the tolerance
        with pytest.raises(DomainError):
            invert_increasing(math.exp, 3.0, 0.0, 5.0, gprime=math.exp,
                              max_iter=1)

    def test_float_spacing_counts_as_converged(self):
        # near 1e13 floats are ~2e-3 apart, so |g(x) - target| <= 1e-12 is
        # out of reach; a bracket a float or two wide is the answer
        x = invert_increasing(math.exp, 1e13, 0.0, gprime=math.exp)
        assert x == pytest.approx(13.0 * math.log(10.0), rel=1e-15)
