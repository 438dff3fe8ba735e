import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import (
    AdmissibilityError,
    Affine,
    Constant,
    DegenerateProblemError,
    DomainError,
    Exp,
    FeasibilityError,
    GridFunction,
    Log,
    ParameterError,
    Polynomial,
    Power,
    PreconditionError,
    Solution,
    Transformed,
    VariationalProblem,
    XLogX,
    admissible,
    classify_convexity,
    custom,
    evaluate_functional,
    exhaustive_verify,
    real_interval,
    solve,
    uniform,
)
from generators import random_admissible_trajectory, random_discrete_timescale
from reference_power_weight import power_weighted_values
from tsvar import cli
from tsvar import roots
from tsvar.roots import invert_increasing
from tsvar.solvers import weight_antiderivative
import tsvar.solvers as solvers
import tsvar.timescale as timescale


def worked_problem():
    return VariationalProblem("xlogx_shifted", uniform(0, 5, 5), 25.0,
                              Affine(2.0, 1.0))


class TestPowerWeighted:
    def test_unit_weight_straight_line(self):
        ts = real_interval(0, 1, 129)
        p = VariationalProblem("power_weighted", ts, 1.0, Constant(1.0), alpha=2.0)
        sol = solve(p)
        assert sol.C == pytest.approx(1.0, abs=1e-12)
        assert sol.extremum == "min"
        assert sol.optimal_value == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(sol.trajectory.values - ts.points)) < 1e-10

    def test_exp_weight_log_solution(self):
        ts = real_interval(0, 1, 129)
        p = VariationalProblem("power_weighted", ts, math.log(2), Exp(), alpha=2.0)
        sol = solve(p)
        assert sol.C == pytest.approx(1.0, abs=1e-12)
        expected = np.log(1.0 + ts.points)
        assert np.max(np.abs(sol.trajectory.values - expected)) < 1e-9
        assert sol.optimal_value == pytest.approx(1.0, abs=1e-12)
        # functional value re-evaluated by quadrature
        assert evaluate_functional(p, sol.trajectory) == pytest.approx(1.0, abs=1e-8)

    def test_fractional_alpha_is_max(self):
        ts = uniform(0, 2, 4)
        p = VariationalProblem("power_weighted", ts, 4.0, Constant(1.0), alpha=0.5)
        sol = solve(p)
        assert sol.C == pytest.approx(2.0, abs=1e-12)
        assert sol.extremum == "max"
        assert sol.optimal_value == pytest.approx(2.0 * math.sqrt(2), abs=1e-12)
        assert np.allclose(sol.trajectory.values, 2.0 * ts.points)

    def test_inverse_fidelity(self):
        ts = real_interval(0, 1, 65)
        p = VariationalProblem("power_weighted", ts, math.log(2), Exp(),
                               alpha=2.0)
        sol = solve(p)
        G = weight_antiderivative(p.phi)
        # y = G^{-1}(C (t - a)), so G(y(t)) = C (t - a) at every point
        residual = G(sol.trajectory.values) - sol.C * (ts.points - ts.a)
        assert np.max(np.abs(residual)) <= 1e-12

    def test_degenerate_alphas(self):
        ts = uniform(0, 2, 2)
        for alpha, const in [(0.0, 2.0), (1.0, math.e ** 3 - 1.0)]:
            p = VariationalProblem("power_weighted", ts, 3.0, Exp(), alpha=alpha)
            with pytest.raises(DegenerateProblemError) as exc:
                solve(p)
            assert exc.value.constant_value == pytest.approx(const, abs=1e-12)

    def test_nonpositive_B_rejected(self):
        p = VariationalProblem("power_weighted", uniform(0, 2, 2), -1.0,
                               Constant(1.0), alpha=2.0)
        with pytest.raises(PreconditionError):
            solve(p)

    def test_nonpositive_B_rejected_before_degenerate_alpha(self):
        # x^0 makes every admissible y optimal, but no y rises from 0 to B <= 0
        p = VariationalProblem("power_weighted", uniform(0, 2, 4), -1.0,
                               Constant(1.0), alpha=0.0)
        with pytest.raises(PreconditionError, match="requires B > 0"):
            solve(p)

    def test_boundary_exactness(self):
        p = VariationalProblem("power_weighted", uniform(0, 3, 6), 2.5,
                               Affine(1.0, 0.5), alpha=3.0)
        sol = solve(p)
        assert sol.trajectory.values[0] == 0.0
        assert abs(sol.trajectory.values[-1] - 2.5) <= 1e-9


class TestExpDerivative:
    def test_unit_weight(self):
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        sol = solve(p)
        assert sol.C == pytest.approx(1.0, abs=1e-14)
        assert sol.optimal_value == pytest.approx(2 * math.e, abs=1e-10)
        assert np.allclose(sol.trajectory.values, [0, 1, 2])

    def test_zero_boundary(self):
        ts = custom(atoms=[0.0, 0.5, 1.75, 3.0])
        p = VariationalProblem("exp_derivative", ts, 0.0, Constant(1.0))
        sol = solve(p)
        assert sol.C == 0.0
        assert np.allclose(sol.trajectory.values, 0.0)
        assert sol.optimal_value == pytest.approx(3.0, abs=1e-12)

    def test_exponential_weight(self):
        ts = uniform(0, 2, 2)
        p = VariationalProblem("exp_derivative", ts, 2.0, Exp())
        sol = solve(p)
        assert sol.C == pytest.approx(1.5, abs=1e-14)
        assert sol.optimal_value == pytest.approx(2 * math.exp(1.5), abs=1e-12)
        # y(t) = -integral of s + 1.5 t on the integer scale
        assert np.allclose(sol.trajectory.values, [0.0, 1.5, 2.0])

    def test_brute_force_two_step(self):
        # minimize e^{d0} + e^{d1} with d0 + d1 = 2 by scanning
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        sol = solve(p)
        d0 = np.linspace(-3, 5, 20001)
        brute = np.min(np.exp(d0) + np.exp(2.0 - d0))
        assert sol.optimal_value == pytest.approx(float(brute), abs=1e-7)

    def test_nonpositive_phi_rejected(self):
        from tsvar import DomainError
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 1.0,
                               Affine(1.0, -1.0))
        with pytest.raises(DomainError):
            solve(p)


class TestXLogXShifted:
    def test_worked_example(self):
        sol = solve(worked_problem())
        assert sol.C == 10.0
        assert np.array_equal(sol.trajectory.values, [0, 9, 16, 21, 24, 25])
        assert sol.optimal_value == pytest.approx(50 * math.log(10), abs=1e-9)

    def test_unit_weight(self):
        p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        sol = solve(p)
        assert sol.C == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(sol.trajectory.values, [0, 1, 2])
        assert sol.optimal_value == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_feasibility_margin(self):
        p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), 0.5,
                               Constant(1.0))
        sol = solve(p)  # C = 1.25 > 1
        assert sol.C == pytest.approx(1.25, abs=1e-14)

    def test_infeasible_names_point(self):
        p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), -1.0,
                               Constant(1.0))
        with pytest.raises(FeasibilityError) as exc:
            solve(p)
        assert exc.value.point is not None
        assert str(exc.value.point) in str(exc.value)

    def test_continuous_scale(self):
        ts = real_interval(0, 1, 129)
        p = VariationalProblem("xlogx_shifted", ts, 2.0, Affine(1.0, 1.0))
        sol = solve(p)
        # C = (2 + 3/2) / 1 = 3.5; y(t) = 3.5 t - t - t^2/2
        assert sol.C == pytest.approx(3.5, abs=1e-10)
        expected = 2.5 * ts.points - 0.5 * ts.points ** 2
        assert np.max(np.abs(sol.trajectory.values - expected)) < 1e-9
        assert evaluate_functional(p, sol.trajectory) == pytest.approx(
            sol.optimal_value, abs=1e-8)


class TestDegenerateAndOverflow:
    @pytest.mark.parametrize("kind", ["power_weighted", "exp_derivative",
                                      "xlogx_shifted"])
    def test_one_point_scale_rejected(self, kind):
        with pytest.raises(PreconditionError):
            VariationalProblem(kind, custom(atoms=[3.0]), 1.0, Constant(1.0),
                               alpha=2.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("B,phi", [(1.0, Constant(1.0)),
                                       (2.0, Affine(0.5, 1.0))])
    def test_nonfinite_exponent_rejected(self, B, phi, alpha):
        # alpha = nan once solved to a "max" of 1.0 or raised DomainError,
        # depending on B and phi, and alpha = inf to a "min"
        with pytest.raises(ParameterError, match="not finite"):
            VariationalProblem("power_weighted", uniform(0, 1, 4), B, phi,
                               alpha=alpha)

    @pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["power_weighted", "exp_derivative",
                                      "xlogx_shifted"])
    def test_nonfinite_boundary_value_rejected(self, kind, B):
        # B = inf once leaked a RuntimeWarning from the power-weighted solve
        # and blamed phi's domain
        with pytest.raises(ParameterError, match="not finite"):
            VariationalProblem(kind, uniform(0, 1, 4), B, Constant(1.0),
                               alpha=2.0)

    def test_exp_optimal_value_overflow(self):
        p = VariationalProblem("exp_derivative", uniform(0, 5, 5), 5000.0,
                               Constant(1.0))
        with pytest.raises(DomainError, match="not finite"):
            solve(p)

    def test_power_optimal_value_overflow(self):
        p = VariationalProblem("power_weighted", uniform(0, 1, 2), 2.0,
                               Constant(1.0), alpha=1e308)
        with pytest.raises(DomainError, match="not finite"):
            solve(p)

    def test_xlogx_optimal_value_overflow(self):
        p = VariationalProblem("xlogx_shifted", uniform(0, 1, 2), 1e308,
                               Constant(1.0))
        with pytest.raises(DomainError, match="not finite"):
            solve(p)

    def test_nonfinite_C(self):
        # B + the integral of phi overflows to inf before the division
        p = VariationalProblem("xlogx_shifted", uniform(0, 0.5, 2), 1.7e308,
                               Constant(1.5e308))
        with pytest.raises(DomainError, match="C = inf"):
            solve(p)

    def test_power_weight_integral_overflow(self):
        # G(B) = e^1000 - 1 overflows, so C is not finite; the error names C
        # and no warning leaks
        p = VariationalProblem("power_weighted", uniform(0, 1, 2), 1000.0,
                               Exp(), alpha=2.0)
        with pytest.raises(DomainError, match="C = inf is not finite"):
            solve(p)

    def test_power_root_bracket_overflow(self):
        # C = e^700 is finite, but the optimum C^2 overflows
        p = VariationalProblem("power_weighted", uniform(0, 1, 2), 700.0,
                               Exp(), alpha=2.0)
        with pytest.raises(DomainError, match="optimal value"):
            solve(p)

    @pytest.mark.parametrize("kind", ["exp_derivative", "xlogx_shifted"])
    def test_overflowing_phi_names_its_point(self, kind):
        # exp(1000) overflows at t = 1000, the first point where phi is not
        # a finite positive number; phi(0) = 1 is fine
        p = VariationalProblem(kind, uniform(0, 2000, 2), 1.0, Exp())
        with pytest.raises(DomainError, match=r"phi\(1000\.0\) = inf"):
            solve(p)


    @pytest.mark.parametrize("phi", [Log(), XLogX()])
    def test_weight_undefined_at_zero(self, phi):
        # the antiderivative at 0 is log(0): the probe of phi rejects the
        # weight, and no warning leaks from G
        p = VariationalProblem("power_weighted", uniform(0, 1, 2), 2.0, phi,
                               alpha=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"phi must be positive on \[0, B\]"):
                solve(p)

    def test_weight_infinite_at_zero(self):
        # Power(-0.5) is inf at 0, which passes the positivity probe but lies
        # outside its domain: the solver rejects the weight, where it used to
        # return a trajectory that evaluate_functional rejects
        p = VariationalProblem("power_weighted", uniform(0, 2, 4), 2.0,
                               Power(-0.5), alpha=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"outside open domain "
                                                  r"\(0\.0, inf\) of Power"):
                solve(p)


class TestKindRows:
    """solve reads F, the shift g on phi and T = G or the identity from the
    kind's row of KINDS, and sets u = (T o y)^Delta + g(phi) to C."""

    @pytest.mark.parametrize("alpha", [-2.0, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(solvers.KINDS))
    def test_one_point_decides_curvature(self, name, alpha):
        # F'' keeps one sign on F's range, so F''(1) decides for all of it;
        # e^x is sampled on [-700, 700], as its F'' overflows past 709
        F = solvers.KINDS[name].F(alpha)
        lo, hi = (-700.0, 700.0) if isinstance(F, Exp) else (1e-6, 1e6)
        assert solvers._curvature(F) == classify_convexity(F, lo, hi)[0]

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(name=st.sampled_from(sorted(solvers.KINDS)),
           alpha=st.sampled_from([-1.0, 0.5, 2.0, 3.0]),
           gaps=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=12),
           B=st.floats(0.5, 20.0), slope=st.floats(0.0, 2.0),
           intercept=st.floats(0.1, 2.0))
    def test_u_is_C_and_value_is_span_F_of_C(self, name, alpha, gaps, B,
                                             slope, intercept):
        # bounds relative to u's terms and to the value, with a margin of
        # about 30 and 70 over the worst of 3000 seeded draws
        kind = solvers.KINDS[name]
        ts, phi = custom(atoms=np.cumsum([0.0] + gaps)), Affine(slope, intercept)
        p = VariationalProblem(name, ts, B, phi,
                               alpha=alpha if kind.needs_alpha else None)
        try:
            sol = solve(p)
        except FeasibilityError:
            return                      # C <= phi somewhere: no closed form
        T = weight_antiderivative(phi) if kind.substitute else np.positive
        g = 0.0 if kind.shift is None else kind.shift(p.phi_on_kappa)
        u = np.diff(T(sol.trajectory.values)) / np.diff(ts.points) + g
        assert np.all(np.abs(u - sol.C) <= 1e-9 * (abs(sol.C) + np.abs(g)))
        span_F_C = (ts.b - ts.a) * float(kind.F(alpha)(sol.C))
        assert evaluate_functional(p, sol.trajectory) == pytest.approx(
            span_F_C, rel=1e-12, abs=0.0)


def long_q_problem():
    # b ~ 1.04e16: C (t - a) and the integral of ln(phi) cancel at ~1e18,
    # so the closed form's y(b) rounds to 128 instead of B
    return VariationalProblem("exp_derivative", timescale.q_scale(1.5065, 0, 90),
                              92.76, Polynomial([1, 0.768, 0.00807]))


class TestBoundaryResidual:
    def test_long_q_scale_misses_B(self):
        p = long_q_problem()
        with pytest.raises(DomainError, match=r"misses y\(b\) = B = 92\.76 by "
                                              r"35\.2\d* \(y\(b\) = 128\.0\)"):
            solve(p)
        # the rule is the walk's: the trajectory it rejects is inadmissible
        with pytest.raises(AdmissibilityError, match=r"y\(b\) = 128\.0"):
            evaluate_functional(p, np.append(np.linspace(0, 92.76, 90), 128.0))

    def test_long_q_scale_exit_3(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({
            "schema_version": "1",
            "timescale": {"kind": "q_scale", "q": 1.5065, "n": 0, "m": 90},
            "problem": {"kind": "exp_derivative", "B": 92.76,
                        "phi": {"family": "polynomial",
                                "coefficients": [1, 0.768, 0.00807]}}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", str(f), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert exc.value.code == 3
        assert err.startswith("error[precondition]: the closed form misses")
        assert not (tmp_path / "out").exists()

    def test_large_B_rounding_sets_y_b(self):
        # C = 2**27 / 49 and C * 49 rounds one ulp below B, 1.5e-8 off: a
        # miss past BOUNDARY_TOL but within rounding of B, so y(b) = B
        p = VariationalProblem("power_weighted", uniform(0, 49, 3), 2.0 ** 27,
                               Constant(1.0), alpha=2.0)
        sol = solve(p)
        assert sol.trajectory.values[-1] == 2.0 ** 27
        assert evaluate_functional(p, sol.trajectory) == pytest.approx(
            sol.optimal_value, rel=1e-12)

    def test_admitted_miss_is_kept(self):
        # y(b) = B - 5.6e-17 passes the rule, so the closed form stays as is
        p = VariationalProblem("exp_derivative", uniform(0, 1, 3), 0.3,
                               Affine(0.1, 1.0))
        assert solve(p).trajectory.values[-1] == 0.3 - 2.0 ** -54

    def test_power_weighted_roots_interior_points_only(self, monkeypatch):
        # y(a) = 0 and y(b) = B by definition: the root finder sees the
        # interior points only, and none of their targets reaches G(B)
        targets = []

        def spy(g, target, *a, **kw):
            targets.append(np.array(target))
            return invert_increasing(g, target, *a, **kw)

        monkeypatch.setattr(solvers, "invert_increasing", spy)
        p = VariationalProblem("power_weighted", uniform(0, 1, 4), 2.0,
                               Exp(), alpha=2.0)
        y = solve(p).trajectory.values
        assert y[0] == 0.0 and y[-1] == 2.0
        assert len(targets) == 1 and targets[0].shape == (3,)
        assert np.all(targets[0] < weight_antiderivative(p.phi)(2.0))

    def test_power_weighted_root_stays_in_zero_to_B(self):
        # doubling from 1 used to leave [0, B], where G falls for this phi
        # (G(2) = 0.29 < G(1) = 0.331 < G(B) = 0.351), and failed to bracket
        p = VariationalProblem("power_weighted", uniform(0, 1, 4), 1.16637,
                               Affine(-0.37184, 0.51745), alpha=3.0)
        sol = solve(p)
        assert (sol.optimal_value, sol.extremum) == (0.04309921939379533, "min")
        assert exhaustive_verify(p, 1.16637 / 12).certified


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
        x = invert_increasing(math.exp, 3.0, 0.0, 5.0, math.exp)
        assert abs(math.exp(x) - 3.0) <= 1e-12

    def test_unconverged_raises(self, monkeypatch):
        # one step from the bracket midpoint cannot reach the tolerance
        monkeypatch.setattr(roots, "MAX_ITER", 1)
        with pytest.raises(DomainError):
            invert_increasing(math.exp, 3.0, 0.0, 5.0, math.exp)

    def test_float_spacing_counts_as_converged(self):
        # near 1e13 floats are ~2e-3 apart, so |g(x) - target| <= 1e-12 is
        # out of reach; a bracket a float or two wide is the answer
        x = invert_increasing(math.exp, 1e13, 0.0, 32.0, math.exp)
        assert x == pytest.approx(13.0 * math.log(10.0), rel=1e-15)

    @pytest.mark.parametrize("g,gprime,x_hi", [
        (np.exp, np.exp, 32.0),
        (weight_antiderivative(Affine(3.0, 0.25)), Affine(3.0, 0.25), 2.0 ** 22),
        (Polynomial([0.0, 1.0, 0.3, 0.2, 0.1]), Polynomial([1.0, 0.6, 0.6, 0.4]),
         2.0 ** 12),
    ])
    def test_array_matches_scalar_bit_for_bit(self, g, gprime, x_hi):
        # mixed magnitudes in one bracket: a target just above g(0), targets
        # from 0.25 to 1e3 above it, and 1e13, where floats are too far
        # apart for |g(x) - target| <= tol
        g0 = float(g(0.0))
        targets = g0 + np.array([1e-9, 0.5, 2.0, 7.0, 1e3, 1e13, 3.0, 0.25])
        xs = invert_increasing(g, targets, 0.0, x_hi, gprime)
        one_by_one = [invert_increasing(g, t, 0.0, x_hi, gprime)
                      for t in targets]
        assert all(type(x) is float for x in one_by_one)
        assert xs.shape == targets.shape
        assert xs.tobytes() == np.array(one_by_one).tobytes()

    def test_array_with_given_bracket(self):
        targets = np.array([[1.5, 3.0], [100.0, 1.0]])
        xs = invert_increasing(np.exp, targets, 0.0, 5.0, np.exp)
        one_by_one = [invert_increasing(np.exp, t, 0.0, 5.0, np.exp)
                      for t in targets.ravel()]
        assert xs.tobytes() == np.array(one_by_one).tobytes()

    def test_array_unconverged_names_first_element(self, monkeypatch):
        # the bracket midpoint is the exact root of the first target only
        monkeypatch.setattr(roots, "MAX_ITER", 1)
        targets = np.linspace(1.0, 1.9, 1000)
        with pytest.raises(DomainError, match=r"element 1\b") as exc:
            invert_increasing(lambda x: 1.0 * np.asarray(x), targets, 0.0, 2.0,
                              lambda x: np.ones_like(x))
        assert len(str(exc.value)) < 200


class TestAdmissible:
    """The row mask against the errors evaluate_functional raises."""

    @staticmethod
    def _error(p, y):
        try:
            evaluate_functional(p, y)
        except (AdmissibilityError, DomainError) as exc:
            return type(exc), str(exc), exc.__dict__.get("point"), \
                exc.__dict__.get("condition")
        return None

    # (problem, trajectory on its points, error class, message, point, condition)
    CONDITIONS = [
        (worked_problem(), [1, 9, 16, 21, 24, 25], AdmissibilityError,
         "y(a) must be 0", 0.0, "y(a) = 0"),
        (worked_problem(), [0, 9, 16, 21, 24, 26], AdmissibilityError,
         "y(b) = 26.0 differs from B = 25.0", 5.0, "y(b) = B"),
        (worked_problem(), [0, 9, 8, 21, 24, 25], AdmissibilityError,
         "delta derivative not strictly positive at t = 1.0", 1.0,
         "y_delta > 0"),
        (VariationalProblem("xlogx_shifted", uniform(0, 2, 2), 2.0,
                            Affine(-2.0, 0.5)),
         [0, 1, 2], AdmissibilityError,
         "phi + y_delta must be positive; fails at t = 1.0", 1.0,
         "phi + y_delta > 0"),
        # phi = log(x - 1) is undefined at y = 0.5
        (VariationalProblem("power_weighted", uniform(0, 2, 2), 2.0,
                            Transformed(Log(), in_shift=-1.0), alpha=2.0),
         [0, 0.5, 2], DomainError,
         "argument outside open domain (1.0, inf) of Transformed(Log(), "
         "in_scale=1.0, in_shift=-1.0, out_scale=1.0, out_shift=0.0)",
         None, None),
        # phi = log(10 - x): every y lies in its domain, but the last jump
        # ends at y(b) = 12
        (VariationalProblem("power_weighted", uniform(0, 2, 2), 12.0,
                            Transformed(Log(), in_scale=-1.0, in_shift=10.0),
                            alpha=2.0),
         [0, 5, 12], DomainError,
         "argument outside open domain (-inf, 10.0) of Transformed(Log(), "
         "in_scale=-1.0, in_shift=10.0, out_scale=1.0, out_shift=0.0)",
         None, None),
        (VariationalProblem("exp_derivative", uniform(0, 2, 2), 1000.0,
                            Constant(1.0)),
         [0, 1000, 1000], DomainError,
         "the functional's integrand is not finite", None, None),
    ]

    @pytest.mark.parametrize("p,y,cls,msg,point,condition", CONDITIONS)
    def test_each_condition(self, p, y, cls, msg, point, condition):
        y = np.asarray(y, dtype=float)
        assert self._error(p, y) == (cls, msg, point, condition)
        assert admissible(p, y) is False
        assert admissible(p, GridFunction(p.ts, y)) is False
        assert admissible(p, np.stack([y, y])).tolist() == [False, False]

    def test_nonfinite_values(self):
        # with alpha = 0 a NaN gives a finite integrand; the mask still
        # rejects it, and the evaluator raises
        p = VariationalProblem("power_weighted", uniform(0, 2, 2), 2.0,
                               Constant(1.0), alpha=0.0)
        y = np.array([0.0, np.nan, 2.0])
        assert admissible(p, y) is False
        with pytest.raises(DomainError, match="grid values must be finite"):
            evaluate_functional(p, y)

    def test_overflow_on_interval_raises_silently(self):
        # exp(y^Delta) overflows on an interval, where the quadrature would
        # meet it times zero graininess: a DomainError, with no warning
        p = VariationalProblem("exp_derivative", real_interval(0, 1, 5), 1.0,
                               Constant(1.0))
        y = np.array([0.0, 0.25, 800.0, 0.75, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="integrand is not finite"):
                evaluate_functional(p, y)

    def test_one_antiderivative_per_walk(self, monkeypatch):
        # the power-weighted walk values each jump from G at its two ends,
        # with one antiderivative call over all the rows' nodes; a scale
        # without jumps never calls it
        p = VariationalProblem("power_weighted", uniform(0, 2, 4), 2.0, Exp(),
                               alpha=2.0)
        Y = np.stack([solve(p).trajectory.values] * 3)
        calls = []
        real = p.phi.antideriv

        def spy(x):
            calls.append(np.shape(x))
            return real(x)

        q = VariationalProblem("power_weighted", real_interval(0, 2, 9), 2.0,
                               p.phi, alpha=2.0)
        y = solve(q).trajectory
        monkeypatch.setattr(p.phi, "antideriv", spy)
        evaluate_functional(p, Y)
        admissible(p, Y[0])
        evaluate_functional(q, y)
        assert calls == [(3, 5), (1, 5)]

    def test_first_condition_wins_over_first_row(self):
        # row 0 is not increasing and row 1 misses y(a): the y(a) check
        # comes first, whatever the rows' order
        p = worked_problem()
        Y = np.array([[0, 9, 8, 21, 24, 25], [1, 9, 16, 21, 24, 25],
                      [0, 9, 16, 21, 24, 25]], dtype=float)
        with pytest.raises(AdmissibilityError, match="y\\(a\\) must be 0"):
            evaluate_functional(p, Y)
        assert admissible(p, Y).tolist() == [False, False, True]

    @pytest.mark.parametrize("kind,phi,alpha,other", [
        ("xlogx_shifted", Affine(-2.0, 0.5), None, [0, 1, 2]),
        # phi = log(x - 1) is undefined at y = 0.5
        ("power_weighted", Transformed(Log(), in_shift=-1.0), 2.0, [0, 0.5, 2]),
    ])
    def test_increase_rule_comes_first(self, kind, phi, alpha, other):
        # other fails the kind's second rule and [0, 2.5, 2] its increase
        # rule: the increase error is reported, whatever the rows' order
        p = VariationalProblem(kind, uniform(0, 2, 2), 2.0, phi, alpha=alpha)
        falling = [0, 2.5, 2]
        for Y in (np.array([other, falling], dtype=float),
                  np.array([falling, other], dtype=float)):
            with pytest.raises(AdmissibilityError) as exc:
                evaluate_functional(p, Y)
            assert str(exc.value) == \
                "delta derivative not strictly positive at t = 1.0"
            assert (exc.value.point, exc.value.condition) == (1.0, "y_delta > 0")
            assert admissible(p, Y).tolist() == [False, False]

    def test_exp_derivative_needs_no_increase(self):
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        assert admissible(p, np.array([0, 2.5, 2.0])) is True

    def test_point_is_first_failing_column_over_rows(self):
        p = worked_problem()
        Y = np.array([[0, 9, 16, 21, 20, 25], [0, 9, 8, 21, 24, 25]],
                     dtype=float)
        with pytest.raises(AdmissibilityError) as exc:
            evaluate_functional(p, Y)
        assert exc.value.point == 1.0

    @pytest.mark.parametrize("kind,phi,B,alpha", [
        ("power_weighted", Affine(1.0, 0.5), 2.0, 2.0),
        ("power_weighted", Transformed(Log(), in_shift=2.0), 3.0, -1.0),
        ("exp_derivative", Constant(1.0), 2.5, None),
        ("xlogx_shifted", Affine(0.3, 0.7), 4.0, None),
    ])
    def test_mask_is_where_evaluation_succeeds(self, kind, phi, B, alpha):
        for ts in (custom(atoms=[0.0, 0.5, 1.25, 2.0, 3.0]),
                   custom(atoms=[0.0, 0.5, 3.0], intervals=[(1.0, 2.0)],
                          quad_nodes_per_interval=5)):
            self._check_mask(VariationalProblem(kind, ts, B, phi, alpha=alpha))

    def _check_mask(self, p):
        rng = np.random.default_rng(5)
        ts = p.ts
        base = solve(p).trajectory.values
        Y = base + rng.normal(0.0, 0.6, (300, len(base))) * \
            rng.integers(0, 2, (300, len(base)))
        Y[rng.random(300) < 0.1, 0] = 0.25
        Y[:, 1] = np.where(rng.random(300) < 0.05, 1e300, Y[:, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = admissible(p, Y)
            ok = [self._error(p, row) is None for row in Y]
            _, rows, _, values = solvers._admissibility(p, Y)
        assert mask.tolist() == ok
        assert 0 < sum(ok) < len(ok)
        np.testing.assert_array_equal(
            evaluate_functional(p, Y[mask]),
            [evaluate_functional(p, GridFunction(ts, row)) for row in Y[mask]])
        # the walk's value of each accepted row is the checked evaluation's
        assert rows.tolist() == np.flatnonzero(mask).tolist()
        assert values.tobytes() == np.array(
            [evaluate_functional(p, Y[i]) for i in rows]).tobytes()


class TestChainRuleValues:
    """The walk values a power-weighted jump by the chain rule, as
    (G(y(sigma)) - G(y)) / mu from one antiderivative per node; the
    reference averages phi over the jump's segment [y, y + mu y^Delta].
    Without a jump both take phi(y) y^Delta, so interval-only scales give
    the same bits.  Across a jump each form rounds its own difference of
    antiderivative values, whose cancellation scales the error by
    |G| / (phi Delta y), and alpha scales it again.  The bound is 64 ulps:
    these 60 cases reach 6, and 300 cases of the same kind reached 31
    (phi = ln(x + 2), B = 0.5, alpha = 2)."""

    PHIS = [Exp(), Affine(0.5, 1.0), Polynomial([1.0, 0.3, 0.2]),
            Transformed(Log(), in_shift=2.0), Constant(1.7)]

    @staticmethod
    def _rows(p, rng, random_increments):
        # y = B (t + t^g) / 2 for a spread of g, and on discrete scales
        # also normalized random increments; only admissible rows are kept
        t = (p.ts.points - p.ts.a) / (p.ts.b - p.ts.a)
        rows = [p.B * (t + t ** g) / 2 for g in rng.uniform(0.3, 3.0, 20)]
        if random_increments:
            W = 1.0 - rng.random((20, len(t) - 1))
            rows += list(np.cumsum(np.column_stack(
                [np.zeros(20), W / W.sum(axis=1, keepdims=True) * p.B]),
                axis=1))
        Y = np.array(rows)
        Y[:, -1] = p.B
        return Y[admissible(p, Y)]

    @pytest.mark.parametrize("ts", [
        real_interval(0, 2, 9), real_interval(0, 3, 129),
        custom(intervals=[(0.0, 1.0), (1.0, 2.5)],
               quad_nodes_per_interval=9),
    ], ids=["9 nodes", "129 nodes", "touching intervals"])
    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0, 3.0])
    def test_interval_only_values_are_the_same_bits(self, ts, alpha):
        rng = np.random.default_rng(7)
        for phi in self.PHIS:
            p = VariationalProblem("power_weighted", ts, 3.0, phi, alpha=alpha)
            Y = self._rows(p, rng, False)
            assert len(Y) == 20
            assert evaluate_functional(p, Y).tobytes() == \
                power_weighted_values(p, Y).tobytes()

    def test_interval_only_errors_are_unchanged(self):
        # phi = ln(10 - x) is undefined at y(b) = 12, which is a kappa
        # point of an interval: the domain error, as before
        p = VariationalProblem("power_weighted", real_interval(0, 2, 9), 12.0,
                               Transformed(Log(), in_scale=-1.0,
                                           in_shift=10.0), alpha=2.0)
        y = 12.0 * (p.ts.points / 2.0 + (p.ts.points / 2.0) ** 2) / 2.0
        assert admissible(p, np.stack([y, y])).tolist() == [False, False]
        with pytest.raises(DomainError, match="outside open domain"):
            evaluate_functional(p, y)

    def test_jumps_move_values_by_a_few_ulps(self):
        rng = np.random.default_rng(3)
        pyrng = random.Random(3)
        mixed = custom(atoms=[0.0, 0.4, 2.8, 3.5], intervals=[(1.0, 2.5)],
                       quad_nodes_per_interval=9)
        worst = 0.0
        for case in range(60):
            ts = mixed if case % 2 else random_discrete_timescale(pyrng, 3, 12)
            phi = self.PHIS[case % len(self.PHIS)]
            B = pyrng.choice([0.5, 3.0, 20.0, 1e3][:4 - isinstance(phi, Exp)])
            p = VariationalProblem("power_weighted", ts, B, phi,
                                   alpha=pyrng.choice([-1.0, 0.5, 2.0, 3.0]))
            Y = self._rows(p, rng, not case % 2)
            assert len(Y) >= 20
            new, old = evaluate_functional(p, Y), power_weighted_values(p, Y)
            worst = max(worst, float(np.max(
                np.abs(new - old) / np.spacing(np.abs(old)))))
        assert 0 < worst <= 64
