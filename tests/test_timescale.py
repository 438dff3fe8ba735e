import math

import numpy as np
import pytest

from tsvar import (
    Affine,
    Constant,
    ConstructionError,
    DomainError,
    Exp,
    GridFunction,
    TimeScale,
    averaged_chain_factor,
    custom,
    q_scale,
    real_interval,
    uniform,
)


class TestConstruction:
    def test_uniform(self):
        ts = uniform(0, 5, 5)
        assert np.array_equal(ts.points, [0, 1, 2, 3, 4, 5])

    def test_q_scale(self):
        ts = q_scale(2, 0, 2)
        assert np.array_equal(ts.points, [1, 2, 4])

    def test_real_interval(self):
        ts = real_interval(0, 1, 64)
        assert len(ts.intervals) == 1
        assert ts.a == 0 and ts.b == 1
        # node count is forced odd internally
        assert len(ts.points) == 65

    def test_custom_mixed(self):
        ts = custom(atoms=[2.0, 3.0], intervals=[(0.0, 1.0)],
                    quad_nodes_per_interval=5)
        assert ts.a == 0 and ts.b == 3
        assert not ts.is_discrete

    @pytest.mark.parametrize("bad", [
        lambda: uniform(1, 1, 5),
        lambda: uniform(0, 1, 0),
        lambda: q_scale(1, 0, 2),
        lambda: q_scale(2, 2, 2),
        lambda: real_interval(1, 0),
        lambda: TimeScale(),
        lambda: custom(atoms=[0, 0.5], intervals=[(0, 1)]),
        lambda: custom(intervals=[(0, 2), (1, 3)]),
        lambda: custom(atoms=[1, 1]),
        lambda: custom(atoms=None),
        lambda: custom(atoms=[0.0, math.nan]),
        lambda: custom(intervals=[(0.0, math.inf)]),
        lambda: custom(intervals=[(0.0, 1.0, 2.0)]),
    ])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(ConstructionError):
            bad()

    def test_atom_at_interval_endpoint_absorbed(self):
        ts = custom(atoms=[1.0], intervals=[(0.0, 1.0)],
                    quad_nodes_per_interval=5)
        assert len(ts.points) == 5

    def test_touching_intervals_share_a_node(self):
        ts = custom(intervals=[(0.0, 1.0), (1.0, 2.0)],
                    quad_nodes_per_interval=5)
        assert np.array_equal(ts.points, np.linspace(0.0, 2.0, 9))
        assert ts.mu(1.0) == 0.0 and ts.sigma(1.0) == 1.0
        assert ts.rho(1.0) == 1.0 and not ts.b_left_scattered

    def test_intervals_out_of_order(self):
        a = custom(intervals=[(2.0, 3.0), (0.0, 1.0)], quad_nodes_per_interval=5)
        b = custom(intervals=[(0.0, 1.0), (2.0, 3.0)], quad_nodes_per_interval=5)
        assert np.array_equal(a.points, b.points)
        assert a.intervals == ((0.0, 1.0), (2.0, 3.0))
        assert a.sigma(1.0) == 2.0 and a.mu(1.0) == 1.0 and a.rho(2.0) == 1.0

    def test_atom_between_intervals(self):
        ts = custom(atoms=[1.5], intervals=[(0.0, 1.0), (2.0, 3.0)],
                    quad_nodes_per_interval=5)
        assert len(ts.points) == 11 and ts.atoms == (1.5,)
        assert ts.jump_operators(1.0) == (1.5, 1.0, 0.5)
        assert ts.jump_operators(1.5) == (2.0, 1.0, 0.5)
        assert ts.jump_operators(2.0) == (2.0, 1.5, 0.0)
        y = GridFunction(ts, ts.points ** 2)
        # scattered points take the exact quotient, dense ones the stencil
        assert ts.delta_derivative(y, 1.0) == (1.5 ** 2 - 1.0) / 0.5
        assert ts.delta_derivative(y, 1.5) == (4.0 - 1.5 ** 2) / 0.5
        assert ts.delta_derivative(y, 2.5) == pytest.approx(5.0, abs=1e-12)


class TestJumpOperators:
    def test_scattered(self):
        ts = custom(atoms=[0, 1, 3])
        sigma, rho, mu = ts.jump_operators(1)
        assert sigma == 3 and rho == 0 and mu == 2

    def test_max_point_convention(self):
        ts = custom(atoms=[0, 1, 3])
        sigma, _, mu = ts.jump_operators(3)
        assert sigma == 3 and mu == 0

    def test_interval_interior_dense(self):
        ts = real_interval(0, 1, 129)
        sigma, rho, mu = ts.jump_operators(0.5)
        assert sigma == 0.5 and rho == 0.5 and mu == 0

    def test_not_a_point(self):
        ts = custom(atoms=[0, 1, 3])
        with pytest.raises(DomainError):
            ts.sigma(2)

    def test_membership_tolerance(self):
        ts = custom(atoms=[0, 1, 3])
        assert ts.index_of(1 + 1e-13) == 1
        assert (1 + 1e-13) in ts and 2 not in ts

    def test_mu_nonnegative_and_dense_iff_zero(self):
        ts = custom(atoms=[2, 3], intervals=[(0, 1)], quad_nodes_per_interval=9)
        for t in ts.points:
            mu = ts.mu(t)
            assert mu >= 0
            assert (mu == 0) == (ts.sigma(t) == t)


class TestDeltaIntegral:
    def test_two_term_sum(self):
        ts = custom(atoms=[0, 1, 2])
        f = GridFunction(ts, [1, 2])
        assert ts.delta_integral(f) == 3

    def test_constant_total_graininess(self):
        ts = custom(atoms=[0, 1, 3])
        f = GridFunction(ts, [5, 5])
        assert ts.delta_integral(f) == 15

    def test_continuous_log(self):
        ts = real_interval(0, 1, 129)
        f = GridFunction(ts, 1.0 / (ts.points + 1))
        assert ts.delta_integral(f) == pytest.approx(math.log(2), abs=1e-8)

    def test_single_step_rule_exact(self):
        ts = custom(atoms=[0.0, 0.7, 2.1, 2.2])
        f = GridFunction(ts, [3.0, -1.5, 4.0, 0.0])
        for t in ts.points[:-1]:
            assert ts.delta_integral(f, t, ts.sigma(t)) == ts.mu(t) * f(t)

    def test_additivity_discrete(self):
        ts = custom(atoms=[0.0, 0.3, 1.1, 2.0, 5.5])
        f = GridFunction(ts, [1.0, -2.0, 0.5, 3.0, 0.0])
        whole = ts.delta_integral(f)
        for c in ts.points:
            split = ts.delta_integral(f, ts.a, c) + ts.delta_integral(f, c, ts.b)
            assert abs(split - whole) <= 1e-12

    def test_additivity_mixed_scale(self):
        ts = custom(atoms=[2.0, 3.0], intervals=[(0.0, 1.0)])
        f = GridFunction(ts, np.sin(ts.points) + 2.0)
        whole = ts.delta_integral(f)
        split = ts.delta_integral(f, 0.0, 1.0) + ts.delta_integral(f, 1.0, 3.0)
        assert split == pytest.approx(whole, abs=1e-12)

    def test_fundamental_theorem_discrete(self):
        # dyadic graininess keeps the quotient/product round trip exact
        ts = custom(atoms=[0.0, 0.5, 1.5, 1.75, 4.75])
        y = GridFunction(ts, [0.0, 1.25, -0.5, 2.0, 3.5])
        d = ts.delta_derivative_grid(y)
        integrand = GridFunction(ts, np.where(np.isnan(d), 0.0, d))
        assert ts.delta_integral(integrand) == y(ts.b) - y(ts.a)

    def test_cumulative_matches_full_range(self):
        ts = custom(atoms=[3.0], intervals=[(0.0, 2.0)])
        f = GridFunction(ts, np.exp(-ts.points))
        cum = ts.cumulative_delta_integral(f)
        assert cum[-1] == pytest.approx(ts.delta_integral(f), abs=1e-14)
        assert cum[0] == 0.0

    def test_subrange_equals_cumulative_difference(self):
        # one integration rule: a cut at interior nodes uses the stencils
        # of the whole interval, so it matches the running integral
        ts = custom(atoms=[3.0], intervals=[(0.0, 2.0)], quad_nodes_per_interval=17)
        f = GridFunction(ts, np.exp(-ts.points) * np.sin(3.0 * ts.points))
        cum = ts.cumulative_delta_integral(f)
        for lo, hi in [(0.25, 1.5), (0.125, 0.25), (1.0, 3.0), (0.0, 0.875)]:
            part = ts.delta_integral(f, lo, hi)
            assert part == pytest.approx(cum[ts.index_of(hi)] - cum[ts.index_of(lo)],
                                         abs=1e-14)

    def test_subrange_exact_on_cubic(self):
        ts = real_interval(0.0, 2.0, 9)
        f = GridFunction(ts, ts.points ** 3 - 2.0 * ts.points + 1.0)
        F = lambda t: t ** 4 / 4.0 - t ** 2 + t
        for lo, hi in [(0.5, 1.25), (0.25, 0.5), (0.75, 2.0)]:
            assert ts.delta_integral(f, lo, hi) == pytest.approx(F(hi) - F(lo),
                                                                 abs=1e-14)

    def test_domain_errors(self):
        ts = custom(atoms=[0, 1, 2])
        f = GridFunction(ts, [1, 2])
        with pytest.raises(DomainError):
            ts.delta_integral(f, 2, 0)
        with pytest.raises(DomainError):
            ts.delta_integral(f, 0, 1.5)


class TestDeltaDerivative:
    def test_square_on_integers(self):
        ts = uniform(0, 5, 5)
        y = GridFunction(ts, ts.points ** 2)
        assert ts.delta_derivative(y, 2) == 5  # 2t + 1 on the integer scale

    def test_constant_is_zero(self):
        ts = custom(atoms=[0, 0.4, 2])
        y = GridFunction(ts, [7.0, 7.0, 7.0])
        for t in ts.kappa_points():
            assert ts.delta_derivative(y, t) == 0

    def test_linear_on_interval(self):
        ts = real_interval(0, 1, 65)
        y = GridFunction(ts, ts.points)
        for t in ts.points[1:-1:7]:
            assert ts.delta_derivative(y, t) == pytest.approx(1.0, abs=1e-8)

    def test_smooth_on_interval(self):
        ts = real_interval(0, 1, 129)
        y = GridFunction(ts, np.log(1 + ts.points))
        d = ts.delta_derivative_grid(y)
        assert np.max(np.abs(d - 1.0 / (1.0 + ts.points))) < 1e-8

    def test_excluded_at_scattered_max(self):
        ts = custom(atoms=[0, 1, 3])
        y = GridFunction(ts, [0.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            ts.delta_derivative(y, 3)
        assert np.isnan(ts.delta_derivative_grid(y)[-1])

    def test_dense_max_included(self):
        ts = real_interval(0, 1, 65)
        y = GridFunction(ts, ts.points ** 2)
        assert ts.delta_derivative(y, 1.0) == pytest.approx(2.0, abs=1e-8)


class TestGridFunction:
    def test_kappa_length_padding(self):
        ts = custom(atoms=[0, 1, 2])
        f = GridFunction(ts, [1, 2])
        assert len(f.values) == 3 and f.values[-1] == 2

    def test_bad_length(self):
        ts = custom(atoms=[0, 1, 2])
        with pytest.raises(DomainError):
            GridFunction(ts, [1.0])

    def test_nonfinite_rejected(self):
        ts = custom(atoms=[0, 1, 2])
        with pytest.raises(DomainError):
            GridFunction(ts, [1.0, math.inf, 0.0])

    def test_from_callable_and_lookup(self):
        ts = uniform(0, 2, 2)
        f = GridFunction.from_callable(ts, lambda t: t ** 2)
        assert f(2) == 4


class TestAveragedChainFactor:
    def test_collapses_at_zero_graininess(self):
        assert averaged_chain_factor(Exp(), 0.0, 0.0, 5.0) == 1.0

    def test_reproduces_integer_chain_rule(self):
        # factor times the delta derivative gives (t^2)^Delta = 2t + 1 on Z
        g = Affine(2.0, 0.0)
        for t in range(5):
            assert averaged_chain_factor(g, float(t), 1.0, 1.0) == 2 * t + 1

    def test_constant_independent_of_inputs(self):
        g = Constant(4.25)
        for mu, yd in [(0.0, 1.0), (1.0, 2.0), (0.5, -3.0)]:
            assert averaged_chain_factor(g, 0.3, mu, yd) == pytest.approx(4.25, abs=1e-12)

    def test_matches_quadrature(self):
        # midpoint-rule refinement as an independent check
        g = Exp()
        y, mu, yd = 0.2, 0.7, 1.3
        hs = (np.arange(20000) + 0.5) / 20000
        brute = float(np.mean(g(y + hs * mu * yd)))
        assert averaged_chain_factor(g, y, mu, yd) == pytest.approx(brute, abs=1e-8)

    def test_domain_error(self):
        from tsvar import Log
        with pytest.raises(DomainError):
            averaged_chain_factor(Log(), 1.0, 1.0, -2.0)
