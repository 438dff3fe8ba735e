import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import (
    Affine,
    Constant,
    ConstructionError,
    DomainError,
    Exp,
    GridFunction,
    TimeScale,
    custom,
    q_scale,
    real_interval,
    uniform,
)
from tsvar.timescale import chain_delta


class TestConstruction:
    def test_uniform(self):
        ts = uniform(0, 5, 5)
        assert np.array_equal(ts.points, [0, 1, 2, 3, 4, 5])

    def test_q_scale(self):
        ts = q_scale(2, 0, 2)
        assert np.array_equal(ts.points, [1, 2, 4])

    @pytest.mark.parametrize("build", [
        lambda: uniform(0, 1, 4, intervals=[(2, 3)]),
        lambda: q_scale(2, 0, 2, quad_nodes_per_interval=9),
    ])
    def test_atom_constructors_take_no_scale_options(self, build):
        # a mixed scale is built by custom, never by an atom constructor
        with pytest.raises(TypeError):
            build()

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
        lambda: q_scale(2, 0, 5000),     # 2.0 ** 5000 overflows a float
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

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_nonfinite_point_rejected(self, t):
        # a relative tolerance of POINT_TOL * |t| is inf at +-inf, which
        # matched b or a
        ts = uniform(0, 1, 4)
        with pytest.raises(DomainError):
            ts.index_of(t)
        assert t not in ts
        with pytest.raises(DomainError):
            ts.sigma(t)
        with pytest.raises(DomainError):
            ts.delta_integral(GridFunction(ts, ts.points), 0.0, t)

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


class TestConvergenceOrder:
    """Interval quadrature and differentiation are fourth order: the max
    error falls ~16x per doubling of the nodes (observed order ~4.0)."""

    @staticmethod
    def _orders(error):
        errs = []
        for nodes in (65, 129, 257):
            ts = real_interval(0, 2, nodes)
            errs.append(error(ts, ts.points))
        return [math.log2(a / b) for a, b in zip(errs, errs[1:])]

    def test_cumulative_integral_order(self):
        # f = sin 3x + e^x, whose running integral from 0 is known
        def error(ts, x):
            got = ts.cumulative_delta_integral(np.sin(3 * x) + np.exp(x))
            exact = (1 - np.cos(3 * x)) / 3 + np.exp(x) - 1
            return np.max(np.abs(got - exact))
        assert min(self._orders(error)) >= 3.5

    def test_derivative_order(self):
        def error(ts, x):
            got = ts.delta_derivative_grid(np.sin(3 * x) + np.exp(x))
            return np.max(np.abs(got - (3 * np.cos(3 * x) + np.exp(x))))
        assert min(self._orders(error)) >= 3.5


@st.composite
def mixed_scales(draw):
    """A custom scale of 2-6 pieces, each an atom or an interval, laid out
    from 0 with power-of-two gaps and lengths, so the points between
    pieces and every graininess are dyadic; touching intervals share a
    node."""
    pieces = draw(st.lists(st.booleans(), min_size=2, max_size=6))
    t, atoms, intervals = 0.0, [], []
    for i, is_interval in enumerate(pieces):
        if i:
            touch = is_interval and pieces[i - 1] and draw(st.booleans())
            t += 0.0 if touch else 2.0 ** draw(st.integers(-3, 1))
        if is_interval:
            intervals.append((t, t + 2.0 ** draw(st.integers(-1, 1))))
            t = intervals[-1][1]
        else:
            atoms.append(t)
    nodes = draw(st.sampled_from([5, 9, 17, 33]))
    return custom(atoms=atoms, intervals=intervals, quad_nodes_per_interval=nodes)


@st.composite
def smooth_on(draw, ts):
    """(y, M5, M6): y = A sin(w t + c) + beta t on the grid, rounded to
    multiples of 2**-40 so that differences of its values are exact, with
    bounds on |y^(5)| and |y^(6)|."""
    A = draw(st.floats(0.5, 2.0))
    w = draw(st.floats(0.5, 3.0))
    c = draw(st.floats(0.0, 3.0))
    beta = draw(st.floats(-1.0, 1.0))
    y = A * np.sin(w * ts.points + c) + beta * ts.points
    return np.round(y * 2.0 ** 40) / 2.0 ** 40, A * w ** 5, A * w ** 6


def _interval_error_bound(ts, lo, hi, y, M5, M6):
    """Fourth-order bound on |integral of y^Delta over [lo, hi] - (y(hi) -
    y(lo))|: the difference stencils and the cubic quadrature each err by
    less than h^4 M5 per unit length (h^5 M6 at the one-sided edges), plus
    the stencils' amplification of the 2**-41 value rounding, and float
    rounding."""
    h = (hi - lo) / (ts._spans[0, 1] - ts._spans[0, 0] - 1)
    u = np.finfo(float).eps / 2
    return ((hi - lo) * (h ** 4 * M5 + h ** 5 * M6 + 32 * 2.0 ** -41 / h)
            + 64 * len(ts.points) * u * np.abs(y).max())


class TestMixedScaleProperties:
    """The calculus as properties on random mixed scales."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_subrange_additivity(self, data):
        ts = data.draw(mixed_scales())
        n = len(ts.points)
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        f = np.random.default_rng(seed).uniform(-10.0, 10.0, n)
        i, j, k = sorted(data.draw(st.lists(st.integers(0, n - 1),
                                            min_size=3, max_size=3)))
        t = ts.points
        whole = ts.delta_integral(f, t[i], t[k])
        split = ts.delta_integral(f, t[i], t[j]) + ts.delta_integral(f, t[j], t[k])
        u = np.finfo(float).eps / 2
        assert abs(split - whole) <= 8 * n * u * (ts.b - ts.a) * 10.0

    @staticmethod
    def _discrete_runs(ts):
        """The maximal runs (i, j) of grid indices joined by scattered gaps."""
        scattered = ts._mu[:-1] > 0.0
        runs, i = [], None
        for g, s in enumerate(scattered):
            if s and i is None:
                i = g
            if not s and i is not None:
                runs.append((i, g))
                i = None
        if i is not None:
            runs.append((i, len(scattered)))
        return runs

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_integral_of_derivative(self, data):
        # exact on the discrete parts: mu (y(sigma) - y) / mu round-trips
        # for dyadic mu, and the differences of y are exact; within the
        # fourth-order bound on each interval whose right end is
        # right-dense (see test_integral_of_derivative_at_scattered_end)
        ts = data.draw(mixed_scales())
        y, M5, M6 = data.draw(smooth_on(ts))
        d = ts.delta_derivative_grid(y)
        t, intervals = ts.points, ts.intervals
        for i, j in self._discrete_runs(ts):
            assert ts.delta_integral(d, t[i], t[j]) == y[j] - y[i]
        for lo, hi in intervals:
            if ts.mu(hi) > 0.0:
                continue
            i, j = ts.index_of(lo), ts.index_of(hi)
            assert abs(ts.delta_integral(d, lo, hi) - (y[j] - y[i])) <= \
                _interval_error_bound(ts, lo, hi, y, M5, M6)
        if not any(ts.mu(hi) > 0.0 for _, hi in intervals):
            assert abs(ts.delta_integral(d) - (y[-1] - y[0])) <= sum(
                _interval_error_bound(ts, lo, hi, y, M5, M6) for lo, hi in intervals)

    @pytest.mark.xfail(strict=True, reason=(
        "the quadrature of an interval samples y^Delta at its right end, "
        "which is the jump quotient when that end is right-scattered, so "
        "the error there is first order in h"))
    def test_integral_of_derivative_at_scattered_end(self):
        # [0, 2] followed by the atom 3: at 129 nodes the error is 1.8e-3,
        # where the fourth-order bound allows 1.2e-7
        ts = custom(atoms=[3.0], intervals=[(0.0, 2.0)])
        y = np.sin(ts.points)
        d = ts.delta_derivative_grid(y)
        assert abs(ts.delta_integral(d, 0.0, 2.0) - (y[-2] - y[0])) <= \
            _interval_error_bound(ts, 0.0, 2.0, y, 1.0, 1.0)


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

    def test_shared_arrays_are_read_only(self):
        # kappa_points and the lattice DP hold views of the scale's arrays
        ts = custom(atoms=[0, 0.4, 2])
        for shared in (ts.points, ts.kappa_points(), ts._gaps):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1.0

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


def _peak_copies(fn, n):
    """The heap peak of fn() beyond what was allocated before, in copies
    of an n-float array; numpy reports its buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * n)
    finally:
        if not tracing:
            tracemalloc.stop()


class TestPeakMemory:
    """Construction and the interval kernels work in contiguous passes
    over per-scale tables, so at 10^5 nodes their heap peak stays within a
    few copies of the n floats they return (or of the points they build).
    A memory bound is deterministic where a timing bound is not."""

    N = 100001
    COPIES = 4

    @pytest.fixture(scope="class")
    def scale(self):
        ts = real_interval(0.0, 3.0, self.N)
        return ts, np.sin(ts.points)

    def test_real_interval(self):
        assert _peak_copies(lambda: real_interval(0.0, 3.0, self.N), self.N) \
            < self.COPIES

    def test_delta_derivative_grid(self, scale):
        ts, y = scale
        assert _peak_copies(lambda: ts.delta_derivative_grid(y), self.N) \
            < self.COPIES

    def test_delta_integral(self, scale):
        ts, y = scale
        assert _peak_copies(lambda: ts.delta_integral(y), self.N) < self.COPIES


class TestGridFunction:
    def test_kappa_length_padding(self):
        ts = custom(atoms=[0, 1, 2])
        f = GridFunction(ts, [1, 2])
        assert len(f.values) == 3 and f.values[-1] == 2

    def test_bad_length(self):
        ts = custom(atoms=[0, 1, 2])
        with pytest.raises(DomainError, match="expected 2 or 3 values, got 1"):
            GridFunction(ts, [1.0])

    def test_no_padding_when_b_is_right_dense(self):
        # the stencils read y(b), so n - 1 values cannot stand for n there;
        # padding them gave an integral of t over [0, 1] of 0.4792
        ts = real_interval(0, 1, 5)
        with pytest.raises(DomainError, match="expected 5 values, got 4"):
            GridFunction(ts, ts.points[:-1])
        assert ts.delta_integral(GridFunction(ts, ts.points)) == pytest.approx(0.5)

    def test_nonfinite_rejected(self):
        ts = custom(atoms=[0, 1, 2])
        with pytest.raises(DomainError):
            GridFunction(ts, [1.0, math.inf, 0.0])

    @pytest.mark.parametrize("values", [np.ones((5, 5)), 1.0])
    def test_not_one_dimensional_rejected(self, values):
        # a (5, 5) array once passed the length check, and the functional
        # of it was an array
        with pytest.raises(DomainError, match="1-D"):
            GridFunction(uniform(0, 1, 4), values)

    def test_from_callable_and_lookup(self):
        ts = uniform(0, 2, 2)
        f = GridFunction.from_callable(ts, lambda t: t ** 2)
        assert f(2) == 4


class TestAveragedChainFactor:
    """chain_delta over y^Delta: across a jump, the factor (G o y)^Delta /
    y^Delta is G' averaged over the segment [y, y + mu y^Delta]."""

    @staticmethod
    def chain(g, y, d, mu):
        return chain_delta(g, y, d, mu,
                           lambda: g.antideriv(y + mu * d) - g.antideriv(y))

    def test_collapses_at_zero_graininess(self):
        def rise():
            raise AssertionError("no jump, so no antiderivative")
        assert chain_delta(Exp(), 0.0, 5.0, 0.0, rise) == 1.0 * 5.0

    def test_reproduces_integer_chain_rule(self):
        # (t^2)^Delta = 2t + 1 on Z, with G' = 2y and y = t
        t = np.arange(5.0)
        assert np.array_equal(self.chain(Affine(2.0, 0.0), t, 1.0, 1.0),
                              2 * t + 1)

    def test_constant_independent_of_inputs(self):
        g = Constant(4.25)
        for mu, yd in [(0.0, 1.0), (1.0, 2.0), (0.5, -3.0)]:
            assert self.chain(g, 0.3, yd, mu) == pytest.approx(4.25 * yd, abs=1e-12)

    def test_matches_quadrature(self):
        # midpoint-rule refinement as an independent check
        g = Exp()
        y, mu, yd = 0.2, 0.7, 1.3
        hs = (np.arange(20000) + 0.5) / 20000
        brute = float(np.mean(g(y + hs * mu * yd)))
        assert self.chain(g, y, yd, mu) == pytest.approx(brute * yd, abs=1e-8)


class TestIntegralCounts:
    """A count int() would truncate is refused: 2.5 built a one-point
    q-scale and 1.9 a single gap."""

    @pytest.mark.parametrize("build", [
        lambda: q_scale(2, 2, 2.5),
        lambda: q_scale(2, 0.5, 3),
        lambda: uniform(0, 1, 1.9),
        lambda: uniform(0, 1, math.nan),
        lambda: uniform(0, 1, math.inf),
    ])
    def test_non_integral_count_rejected(self, build):
        with pytest.raises(ConstructionError, match="integer"):
            build()

    def test_integral_float_count_accepted(self):
        assert np.array_equal(uniform(0, 1, 4.0).points, uniform(0, 1, 4).points)
        assert np.array_equal(q_scale(2, 0.0, 3.0).points, [1, 2, 4, 8])


class TestReadOnlyTables:
    @pytest.mark.parametrize("ts", [
        uniform(0, 1, 4), q_scale(1.5, 0, 4),
        custom(atoms=[2.0, 3.0], intervals=[(0.0, 1.0)], quad_nodes_per_interval=5),
    ])
    def test_graininess_and_gaps_refuse_writes(self, ts):
        # a write to mu once made the integral of ones on uniform(0, 1, 4)
        # 5.75
        for table in (ts._mu, ts._gaps, ts.points):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 5.0

    def test_atom_only_gaps_view_graininess(self):
        ts = uniform(0, 1, 4)
        assert ts._gaps.base is ts._mu and len(ts._gaps) == len(ts._mu) - 1
        assert ts._mu[-1] == 0.0
        assert ts.delta_integral(np.ones(5)) == 1.0


class TestAtomScalePeakMemory:
    """q_scale builds its atoms on two pair arrays and three buffers of
    half their length, and an atom-only scale its gaps with one
    subtraction into mu.  At 10^5 atoms the heap peak of construction was
    8.0 copies of the atoms for q_scale (a list of Python floats and pow
    per atom) and 4.0 for uniform (two diffs and an append); it is 3.6
    and 3.1 now."""

    N = 10 ** 5

    def test_q_scale(self):
        q = math.exp(0.9 / self.N)
        assert _peak_copies(lambda: q_scale(q, 0, self.N), self.N + 1) < 4.0

    def test_uniform(self):
        assert _peak_copies(lambda: uniform(0, 1.5, self.N), self.N + 1) < 3.5
