import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsvar import (
    Affine,
    ClassificationError,
    DomainError,
    Exp,
    GridFunction,
    Identity,
    InequalityReport,
    Log,
    ParameterError,
    Polynomial,
    Power,
    PreconditionError,
    Transformed,
    XLogX,
    classify_convexity,
    custom,
    jensen_gap,
    q_scale,
    quasi_arithmetic_gap,
    real_interval,
    special_case_gap,
    uniform,
    weighted_jensen_gap,
)
from generators import random_discrete_timescale, random_grid
from tsvar import jensen, roots

T3 = custom(atoms=[0, 1, 2])


class TestWeightedJensen:
    def test_hand_computed_example(self):
        rep = weighted_jensen_gap(T3, GridFunction(T3, [1, 2]),
                                  GridFunction(T3, [1, 3]), Power(2))
        assert rep.lhs == pytest.approx(13 / 4, abs=1e-14)
        assert rep.rhs == pytest.approx(49 / 16, abs=1e-14)
        assert rep.gap == pytest.approx(3 / 16, abs=1e-14)
        assert rep.holds and not rep.equality and not rep.f_is_constant

    def test_constant_f_equality(self):
        rep = weighted_jensen_gap(T3, GridFunction(T3, [2.5, 2.5]),
                                  GridFunction(T3, [1, -3]), Exp())
        assert rep.equality and rep.f_is_constant

    def test_constant_on_q_scale(self):
        ts = q_scale(2, 0, 2)
        rep = weighted_jensen_gap(ts, GridFunction(ts, [1, 1]),
                                  GridFunction(ts, [2, 0.5]), Power(2))
        assert rep.gap == pytest.approx(0.0, abs=1e-10)
        assert rep.f_is_constant

    def test_zero_weight_rejected(self):
        with pytest.raises(PreconditionError):
            weighted_jensen_gap(T3, GridFunction(T3, [1, 2]),
                                GridFunction(T3, [0, 0]), Power(2))

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            weighted_jensen_gap(T3, GridFunction(T3, [-1, 2]),
                                GridFunction(T3, [1, 1]), Log())

    def test_classification_failure(self):
        from tsvar import Polynomial
        cubic = Polynomial([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ClassificationError):
            weighted_jensen_gap(T3, GridFunction(T3, [-1, 1]),
                                GridFunction(T3, [1, 1]), cubic)

    def test_weight_scale_invariance(self):
        f = GridFunction(T3, [1.0, 2.4])
        h = GridFunction(T3, [0.7, 1.9])
        h2 = GridFunction(T3, [0.7 * 5, 1.9 * 5])
        r1 = weighted_jensen_gap(T3, f, h, Exp())
        r2 = weighted_jensen_gap(T3, f, h2, Exp())
        assert r1.lhs == pytest.approx(r2.lhs, abs=1e-12)
        assert r1.rhs == pytest.approx(r2.rhs, abs=1e-12)
        assert r1.gap == pytest.approx(r2.gap, abs=1e-12)

    def test_zeros_in_h_allowed(self):
        ts = custom(atoms=[0, 1, 2, 3])
        rep = weighted_jensen_gap(ts, GridFunction(ts, [1, 2, 3]),
                                  GridFunction(ts, [0, 1, 2]), Power(2))
        assert rep.holds


class TestUnweightedJensen:
    def test_hand_computed_example(self):
        rep = jensen_gap(T3, GridFunction(T3, [1, 2]), Power(2))
        assert rep.lhs == pytest.approx(2.5, abs=1e-14)
        assert rep.rhs == pytest.approx(2.25, abs=1e-14)
        assert rep.gap == pytest.approx(0.25, abs=1e-14)

    def test_agrees_with_weighted_unit_h(self):
        rng = random.Random(7)
        for _ in range(25):
            ts = random_discrete_timescale(rng)
            f = random_grid(rng, ts, 0.5, 3.0)
            ones = GridFunction(ts, np.ones(len(ts.points)))
            r1 = jensen_gap(ts, f, Exp())
            r2 = weighted_jensen_gap(ts, f, ones, Exp())
            assert r1.lhs == pytest.approx(r2.lhs, abs=1e-12)
            assert r1.gap == pytest.approx(r2.gap, abs=1e-12)

    def test_affine_gap_zero(self):
        rep = jensen_gap(T3, GridFunction(T3, [1.0, 2.7]), Affine(3.0, -2.0))
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_concave_direction(self):
        rep = jensen_gap(T3, GridFunction(T3, [1, 2]), Log())
        assert rep.direction == "concave_le"
        assert rep.rhs >= rep.lhs
        assert rep.holds

    def test_orientation_flip(self):
        f = GridFunction(T3, [1.0, 2.0])
        convex = jensen_gap(T3, f, Exp())
        concave = jensen_gap(T3, f, Transformed_neg_exp())
        assert concave.direction == "concave_le"
        assert concave.lhs == pytest.approx(-convex.lhs, abs=1e-12)
        assert concave.rhs == pytest.approx(-convex.rhs, abs=1e-12)
        assert concave.gap == pytest.approx(convex.gap, abs=1e-12)
        assert concave.holds


def Transformed_neg_exp():
    from tsvar import Transformed
    return Transformed(Exp(), out_scale=-1.0)


class TestSpecialCases:
    def test_power_example(self):
        rep = special_case_gap("power", T3, GridFunction(T3, [1, 2]), alpha=2)
        assert rep.lhs == pytest.approx(5.0, abs=1e-14)
        assert rep.rhs == pytest.approx(4.5, abs=1e-14)
        assert rep.gap == pytest.approx(0.5, abs=1e-14)

    def test_power_sign_matches_jensen(self):
        rng = random.Random(11)
        for _ in range(50):
            ts = random_discrete_timescale(rng)
            f = random_grid(rng, ts, 0.5, 3.0)
            alpha = rng.choice([-2.0, -0.5, 0.5, 2.0, 3.0])
            special = special_case_gap("power", ts, f, alpha=alpha)
            plain = jensen_gap(ts, f, Power(alpha))
            if abs(plain.gap) > 1e-12:
                assert math.copysign(1, special.gap) == math.copysign(1, plain.gap)
            assert special.holds

    def test_power_concave_regime(self):
        rep = special_case_gap("power", T3, GridFunction(T3, [1, 4]), alpha=0.5)
        assert rep.direction == "concave_le"
        # lhs = 1 + 2 = 3, rhs = 2^{1/2} * 5^{1/2}
        assert rep.lhs == pytest.approx(3.0, abs=1e-14)
        assert rep.rhs == pytest.approx(math.sqrt(10), abs=1e-12)
        assert rep.holds

    def test_exp_constant_zero(self):
        rep = special_case_gap("exp", T3, GridFunction(T3, [0, 0]))
        assert rep.lhs == pytest.approx(2.0, abs=1e-14)
        assert rep.rhs == pytest.approx(2.0, abs=1e-14)
        assert rep.equality

    def test_reciprocal_power_constant(self):
        for c in (0.5, 1.0, 3.7):
            rep = special_case_gap("reciprocal_power", T3,
                                   GridFunction(T3, [c, c]), alpha=1)
            assert rep.lhs == pytest.approx(4.0, abs=1e-12)
            assert rep.rhs == pytest.approx(4.0, abs=1e-14)
            assert rep.equality

    def test_reciprocal_power_negative_regime(self):
        rep = special_case_gap("reciprocal_power", T3,
                               GridFunction(T3, [1, 3]), alpha=-0.5)
        assert rep.direction == "concave_le"
        assert rep.holds

    def test_log_direction(self):
        rep = special_case_gap("log", T3, GridFunction(T3, [1, 4]))
        assert rep.direction == "concave_le"
        # lhs = ln 1 + ln 4; rhs = 2 ln(5/2)
        assert rep.lhs == pytest.approx(math.log(4), abs=1e-14)
        assert rep.rhs == pytest.approx(2 * math.log(2.5), abs=1e-14)
        assert rep.holds

    def test_xlogx_example(self):
        rep = special_case_gap("xlogx", T3, GridFunction(T3, [1, 4]))
        # lhs = 0 + 4 ln 4; rhs = 5 ln(5/2)
        assert rep.lhs == pytest.approx(4 * math.log(4), abs=1e-12)
        assert rep.rhs == pytest.approx(5 * math.log(2.5), abs=1e-12)
        assert rep.holds

    def test_excluded_alpha(self):
        with pytest.raises(ParameterError):
            special_case_gap("power", T3, GridFunction(T3, [1, 2]), alpha=1)
        with pytest.raises(ParameterError):
            special_case_gap("reciprocal_power", T3, GridFunction(T3, [1, 2]),
                             alpha=-1)

    def test_positivity_required(self):
        for kind in ("power", "reciprocal_power", "log", "xlogx"):
            with pytest.raises(DomainError):
                special_case_gap(kind, T3, GridFunction(T3, [1, -2]), alpha=2)

    def test_unknown_kind(self):
        # the kind is checked before f, so a non-positive f does not hide it
        for f in ([1, 2], [-1, 2]):
            with pytest.raises(ParameterError, match="unknown special"):
                special_case_gap("nope", T3, GridFunction(T3, f))


class TestQuasiArithmetic:
    def test_hand_computed_example(self):
        f = GridFunction(T3, [0.0, math.log(4)])
        rep = quasi_arithmetic_gap(T3, f, Identity(), Exp())
        assert rep.lhs == pytest.approx(math.log(2.5), abs=1e-12)
        assert rep.rhs == pytest.approx(math.log(2), abs=1e-12)
        assert rep.gap == pytest.approx(math.log(1.25), abs=1e-12)
        assert rep.holds

    def test_constant_equality(self):
        f = GridFunction(T3, [1.7, 1.7])
        rep = quasi_arithmetic_gap(T3, f, Log(), Identity())
        assert rep.equality and rep.f_is_constant

    def test_identical_means(self):
        f = GridFunction(T3, [1.0, 2.0])
        rep = quasi_arithmetic_gap(T3, f, Exp(), Exp())
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_decreasing_phi_allowed(self):
        # phi = 1/x is strictly decreasing but invertible; harmonic vs
        # arithmetic mean comparison
        f = GridFunction(T3, [1.0, 4.0])
        rep = quasi_arithmetic_gap(T3, f, Power(-1.0), Identity())
        assert rep.holds
        assert rep.rhs == pytest.approx(1.6, abs=1e-10)  # harmonic mean of 1, 4

    # phi whose inverse has no short formula: the phi-mean from the
    # monotone search, against the exact root
    F5 = np.array([1.0, 2.0, 3.5, 0.7, 5.0])

    def test_search_inverse_increasing(self):
        ts = uniform(0, 1, 4)
        mean = np.mean(self.F5[:4] + self.F5[:4] ** 2)
        rep = quasi_arithmetic_gap(ts, self.F5, Polynomial([0.0, 1.0, 1.0]),
                                   Identity())
        assert rep.rhs == pytest.approx((math.sqrt(1.0 + 4.0 * mean) - 1.0) / 2.0,
                                        abs=1e-12)

    def test_search_inverse_decreasing(self):
        ts = uniform(0, 1, 4)
        phi = Transformed(Polynomial([0.0, 0.0, 1.0]), out_scale=-1.0)
        rep = quasi_arithmetic_gap(ts, self.F5, phi, Identity())
        assert rep.rhs == pytest.approx(math.sqrt(np.mean(self.F5[:4] ** 2)),
                                        abs=1e-12)

    def test_noninjective_phi_rejected(self):
        f = GridFunction(T3, [-1.0, 1.0])
        with pytest.raises(PreconditionError):
            quasi_arithmetic_gap(T3, f, Polynomial([0.0, 0.0, 1.0]), Exp())

    def test_decreasing_psi_rejected(self):
        f = GridFunction(T3, [1.0, 2.0])
        with pytest.raises(PreconditionError):
            quasi_arithmetic_gap(T3, f, Identity(), Power(-1.0))


# Each family's quasi-arithmetic mean of values v with weights w (summing to
# 1), written out through the family's inverse in closed form, and the ranges
# of f it is checked on: magnitudes from 1e-20 to 2e13, negative where the
# family's domain allows, and phi(f) far below 1e-12 (Exp on [-40, -30]).
POSITIVE = [(1e-20, 2e-19), (1e-3, 2e-3), (0.5, 2.0), (1e6, 2e6), (1e12, 2e13)]
CLOSED_FORM_MEANS = [
    (Log(), lambda v, w: math.exp(np.sum(w * np.log(v))), POSITIVE),
    (Power(-1.0), lambda v, w: 1.0 / np.sum(w / v), POSITIVE),
    (Power(2.0), lambda v, w: math.sqrt(np.sum(w * v ** 2)), POSITIVE),
    (Power(0.5), lambda v, w: np.sum(w * np.sqrt(v)) ** 2, POSITIVE),
    (Exp(), lambda v, w: math.log(np.sum(w * np.exp(v))),
     [(-40.0, -30.0), (-5.0, 5.0), (1e-3, 2e-3), (600.0, 700.0)]),
    (Affine(2.0, 1.0), lambda v, w: (np.sum(w * (2.0 * v + 1.0)) - 1.0) / 2.0,
     [(-2e13, -1e12), (-5.0, 5.0), *POSITIVE]),
    (Transformed(Exp(), in_scale=2.0, out_scale=3.0),
     lambda v, w: math.log(np.sum(w * 3.0 * np.exp(2.0 * v)) / 3.0) / 2.0,
     [(-20.0, -15.0), (-2.5, 2.5), (300.0, 350.0)]),
    (Transformed(Log(), in_scale=-1.0, in_shift=10.0),
     lambda v, w: 10.0 - math.exp(np.sum(w * np.log(10.0 - v))),
     [(-2e13, -1e12), (-2e6, -1e6), (0.5, 2.0), (9.998, 9.999)]),
]


class TestQuasiMeansAgainstClosedForms:
    """Both sides of quasi_arithmetic_gap come from the bracketed search; each
    family that has an inverse in closed form checks them against it."""

    SCALES = [uniform(0, 1, 7), custom(atoms=[0.0, 0.1, 0.5, 0.6, 1.4, 2.0, 2.05])]

    @staticmethod
    def assert_mean(got, ref, fn, v, n):
        # the quadrature's mean of fn(v) and the written-out one each round
        # to within n ulps of the largest |fn(v)|; over |fn'| at the mean that
        # is an error in x, to which the inverses add a few ulps of the mean
        target_err = 2.0 * n * np.finfo(float).eps * np.max(np.abs(fn(v)))
        bound = target_err / abs(float(fn.deriv(ref))) + 4.0 * np.spacing(abs(ref))
        assert abs(got - ref) <= bound, (got, ref, bound)

    @pytest.mark.parametrize("fn,mean,ranges", CLOSED_FORM_MEANS,
                             ids=[repr(fn) for fn, _, _ in CLOSED_FORM_MEANS])
    @pytest.mark.parametrize("ts", SCALES, ids=["uniform", "custom"])
    def test_both_sides(self, ts, fn, mean, ranges):
        rng = np.random.default_rng(23)
        w = np.diff(ts.points) / (ts.b - ts.a)
        n = len(w)
        for lo, hi in ranges:
            for _ in range(10):
                f = rng.uniform(lo, hi, n + 1)
                v = f[:n]
                rep = quasi_arithmetic_gap(ts, f, fn, Identity())
                self.assert_mean(rep.lhs, np.sum(w * v), Identity(), v, n)
                self.assert_mean(rep.rhs, mean(v, w), fn, v, n)
                if float(fn.deriv(lo)) > 0:   # fn can be psi: phi = identity
                    rep = quasi_arithmetic_gap(ts, f, Identity(), fn)
                    self.assert_mean(rep.lhs, mean(v, w), fn, v, n)
                    self.assert_mean(rep.rhs, np.sum(w * v), Identity(), v, n)

    @pytest.mark.parametrize("i,lo,hi", [(1, 1e13, 2e13), (4, -40.0, -30.0),
                                         (0, 1e6, 1e6 + 10.0)])
    def test_gap_of_a_spread_f(self, i, lo, hi):
        # phi(f) below 1e-12, or phi' below 1e-5: a search that stops within
        # 1e-12 of the target in phi's values takes the first midpoints here
        phi, mean, _ = CLOSED_FORM_MEANS[i]
        ts = self.SCALES[0]
        w = np.diff(ts.points) / (ts.b - ts.a)
        f = np.random.default_rng(5).uniform(lo, hi, len(w) + 1)
        rep = quasi_arithmetic_gap(ts, f, phi, Identity())
        assert rep.holds and not rep.equality and not rep.f_is_constant
        gap = abs(np.sum(w * f[:-1]) - mean(f[:-1], w))
        assert rep.gap == pytest.approx(gap, rel=1e-2)


class TestQuasiConstantF:
    """A constant f is the sharp case at any magnitude: both means are f.
    The quadrature's mean of phi(f) may fall an ulp outside [phi(min f),
    phi(max f)], which the search's end clamp absorbs."""

    def test_repro_real_interval_8e6_polynomial_phi(self):
        ts = real_interval(0, 2.499925877849083, 33)
        rep = quasi_arithmetic_gap(ts, np.full(len(ts.points), 8020895.836996855),
                                   Polynomial([0.0, 1.0]), Identity())
        assert rep.equality and rep.f_is_constant
        assert rep.lhs == rep.rhs == 8020895.836996855

    @pytest.mark.parametrize("phi", [Polynomial([0.0, 1.0]), Identity(), Log(),
                                     Power(-1.0)], ids=repr)
    @pytest.mark.parametrize("ts", [
        uniform(0, 2.5, 33),
        real_interval(0, 2.499925877849083, 33),
        custom(atoms=[0.0, 0.3, 2.9, 3.7], intervals=[(1.0, 2.0)],
               quad_nodes_per_interval=17),
    ], ids=["uniform", "real_interval", "custom"])
    def test_equality_at_every_magnitude(self, ts, phi):
        rng = np.random.default_rng(6)
        for c in rng.uniform(1.0, 10.0, 64) * 10.0 ** np.repeat(np.arange(-3, 13), 4):
            rep = quasi_arithmetic_gap(ts, np.full(len(ts.points), c), phi,
                                       Identity())
            assert rep.equality and rep.f_is_constant, c

    @pytest.mark.parametrize("phi", [Identity(), Log()], ids=repr)
    def test_equality_near_the_float_max(self, phi):
        # c + c overflows, so the bracket's midpoint is taken from halves
        c = 1.5e308
        rep = quasi_arithmetic_gap(uniform(0, 1, 4), np.full(5, c), phi,
                                   Identity())
        assert rep.equality and rep.lhs == rep.rhs == c


class TestSharpness:
    def test_equality_iff_constant(self):
        rng = random.Random(1234)
        for _ in range(100):
            # at least 3 atoms so the kappa-grid can carry a non-constant f
            ts = random_discrete_timescale(rng, min_atoms=3)
            constant = rng.random() < 0.5
            if constant:
                c = rng.uniform(0.5, 3.0)
                f = GridFunction(ts, np.full(len(ts.points), c))
            else:
                f = random_grid(rng, ts, 0.5, 3.0, min_spread=0.1)
            h = random_grid(rng, ts, 0.5, 2.0)  # min |h| > 0
            rep = weighted_jensen_gap(ts, f, h, Power(2))
            if constant:
                assert abs(rep.gap) <= 1e-10
                assert rep.f_is_constant
            else:
                assert rep.gap > 1e-8
                assert not rep.f_is_constant


class TestOverflow:
    """An overflow raises DomainError naming the side that is not finite;
    pytest turns any leaked RuntimeWarning into a failure."""

    def test_exp_lhs_sum_overflows(self):
        # each e^709.7 is finite, their sum is not
        with pytest.raises(DomainError, match="lhs is not finite"):
            special_case_gap("exp", T3, [709.7, 709.7])

    @pytest.mark.parametrize("kind,f,alpha", [
        ("exp", [800.0, 800.0], None),
        ("power", [1e300, 1e300], 2.0),
        ("reciprocal_power", [1e-300, 1e300], 2.0),
    ])
    def test_special_lhs_overflows(self, kind, f, alpha):
        with pytest.raises(DomainError, match="lhs is not finite"):
            special_case_gap(kind, T3, f, alpha)

    @pytest.mark.parametrize("kind", ["log", "xlogx"])
    def test_special_mean_overflows(self, kind):
        with pytest.raises(DomainError, match="mean is not finite"):
            special_case_gap(kind, T3, [1e308, 1e308])

    def test_weighted_lhs_overflows(self):
        with pytest.raises(DomainError, match="lhs is not finite"):
            weighted_jensen_gap(T3, [1e300, 2.0], [1.0, 3.0], Power(2.0))

    def test_weighted_mean_overflows(self):
        with pytest.raises(DomainError, match="mean is not finite"):
            weighted_jensen_gap(T3, [1e308, 1e308], [1.0, 3.0], Identity())

    def test_quasi_arithmetic_mean_overflows(self):
        with pytest.raises(DomainError, match="mean is not finite"):
            quasi_arithmetic_gap(T3, [1e308, 1e308], Identity(), Power(2.0))

    def test_large_finite_values_still_checked(self):
        rep = special_case_gap("exp", T3, [709.0, 709.0])
        assert math.isfinite(rep.lhs) and rep.equality


class TestAtExtremeMagnitude:
    """Where a factor of a side or of a second derivative leaves the floats
    but the result does not, the check still answers."""

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_reciprocal_power_sides_free_of_scale(self, scale):
        # (1/f) f^2 overflows at 1e200 and underflows at 1e-200, but the sides,
        # (integral of 1/f)^alpha times the integral of f^alpha and
        # (b - a)^(1 + alpha), are homogeneous of degree 0 in f
        ts = uniform(0, 1, 3)
        f = scale * np.array([1.0, 2.0, 3.0, 4.0])
        rep = special_case_gap("reciprocal_power", ts, f, alpha=1.0)
        lhs = (ts.delta_integral(GridFunction(ts, 1.0 / f))
               * ts.delta_integral(GridFunction(ts, f)))
        assert rep.lhs == pytest.approx(lhs, rel=1e-14)
        assert rep.rhs == pytest.approx(1.0, rel=1e-14)
        assert rep.holds and not rep.equality

    def test_quasi_where_phi_derivatives_overflow(self):
        # log' = 1/f and log'' = -1/f^2 overflow on subnormal f, and psi'' = 0:
        # psi'' phi' is 0, not NaN, and psi' phi'' = -inf gives the sign
        ts = uniform(0, 1, 3)
        f = np.array([1e-310, 2e-310, 3e-310, 4e-310])
        rep = quasi_arithmetic_gap(ts, f, Log(), Identity())
        assert rep.direction == "convex_ge" and rep.holds
        assert rep.lhs == pytest.approx(2e-310, rel=1e-9)
        assert rep.rhs == pytest.approx(6.0 ** (1 / 3) * 1e-310, rel=1e-9)


# Each corollary written out as weighted Jensen: F from alpha, and whether
# the weight is 1/f (else 1); the exponents are those of the corollaries'
# regimes on either side of their excluded values.
COROLLARY_ROWS = {
    "power": (Power, False),
    "reciprocal_power": (lambda alpha: Power(alpha + 1.0), True),
    "exp": (lambda alpha: Exp(), False),
    "log": (lambda alpha: Log(), False),
    "xlogx": (lambda alpha: XLogX(), False),
}
ROW_CASES = ([("power", a) for a in (-2.0, -0.5, 0.5, 2.0, 3.0)]
             + [("reciprocal_power", a) for a in (-2.0, -0.5, 0.5, 2.0)]
             + [("exp", None), ("log", None), ("xlogx", None)])
ROW_SCALES = [uniform(0, 1, 10), real_interval(0.1, 1.6, 21), q_scale(1.1, 0, 12),
              custom(atoms=[0.0, 0.3, 0.5], intervals=[(0.7, 1.5)],
                     quad_nodes_per_interval=11)]


class TestCorollaryRows:
    """special_case_gap is weighted Jensen with its row's F and weight: the
    two decide the same direction, and the same verdict, at every magnitude
    of f.  A classifier that reads a tiny F'' as zero calls log on
    [1e7, 2e7] affine, hence convex, while the corollary is concave."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=st.sampled_from(ROW_CASES), exponent=st.floats(-20.0, 13.0),
           spread=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]),
           ts=st.sampled_from(ROW_SCALES), seed=st.integers(0, 2 ** 32 - 1))
    @example(case=("log", None), exponent=7.0, spread=1.0, ts=ROW_SCALES[0], seed=1)
    @example(case=("power", 0.5), exponent=8.0, spread=1.0, ts=ROW_SCALES[0], seed=1)
    @example(case=("reciprocal_power", -0.5), exponent=9.0, spread=1.0,
             ts=ROW_SCALES[1], seed=2)
    def test_same_direction_and_verdict(self, case, exponent, spread, ts, seed):
        kind, alpha = case
        make_F, reciprocal = COROLLARY_ROWS[kind]
        # e**f stays finite: exp's f is drawn over the same exponents, to 40
        c = min(10.0 ** exponent, 40.0) if kind == "exp" else 10.0 ** exponent
        f = c * (1.0 + spread * np.random.default_rng(seed).uniform(0, 1, len(ts.points)))
        special = special_case_gap(kind, ts, f, alpha=alpha)
        h = 1.0 / f if reciprocal else np.ones_like(f)
        plain = weighted_jensen_gap(ts, f, h, make_F(alpha))
        assert (special.direction, special.holds) == (plain.direction, plain.holds)
        assert special.holds


class TestDirectionAtMagnitude:
    """F'' is tiny at large magnitudes but has its sign: the direction
    follows it, for F and for psi o phi^{-1}."""

    # F'' is about -1e-13 and -5e-15 here: tiny, but of one sign
    AT_MAGNITUDE = [("power", 0.5, 1e8, 2e8), ("log", None, 1e7, 2e7)]

    @pytest.mark.parametrize("kind,alpha,lo,hi", AT_MAGNITUDE)
    def test_classifier(self, kind, alpha, lo, hi):
        F = COROLLARY_ROWS[kind][0](alpha)
        assert classify_convexity(F, lo, hi) == ("concave", True)

    @pytest.mark.parametrize("kind,alpha,lo,hi", AT_MAGNITUDE)
    def test_jensen_matches_its_corollary(self, kind, alpha, lo, hi):
        ts = uniform(0, 1, 10)
        f = np.random.default_rng(1).uniform(lo, hi, 11)
        rep = jensen_gap(ts, f, COROLLARY_ROWS[kind][0](alpha))
        special = special_case_gap(kind, ts, f, alpha=alpha)
        assert rep.direction == special.direction == "concave_le"
        assert rep.holds and special.holds

    @pytest.mark.parametrize("phi,lo,hi", [(Power(2.0), 1e12, 2e13), (Exp(), 600.0, 700.0)],
                             ids=repr)
    def test_quasi_concave(self, phi, lo, hi):
        # psi o phi^{-1} is sqrt(u) or ln(u): its second derivative, about
        # -1e-37 or below the smallest float, is concave all the same
        ts = uniform(0, 1, 7)
        rng = np.random.default_rng(54)
        for _ in range(20):
            rep = quasi_arithmetic_gap(ts, rng.uniform(lo, hi, 8), phi, Identity())
            assert rep.direction == "concave_le" and rep.holds and not rep.equality


class TestEqualityTolerance:
    """A gap within the sides' rounding is equality at any magnitude: an
    absolute 1e-10 is below an ulp of f from about 1e6."""

    @pytest.mark.parametrize("phi,c", [(Log(), 1e5), (Power(-1.0), 1e6), (Log(), 1e6)],
                             ids=["log-1e5", "inverse-1e6", "log-1e6"])
    def test_near_constant_f_holds(self, phi, c):
        ts = uniform(0, 1, 6)
        rng = np.random.default_rng(53)
        for _ in range(1000):
            f = c + rng.uniform(0, 1e-9, len(ts.points))
            rep = quasi_arithmetic_gap(ts, f, phi, Identity())
            assert rep.f_is_constant and rep.holds and rep.equality, rep

    @pytest.mark.parametrize("side", [1.0, 3e3, 1e7, 1e300])
    def test_tolerance_is_the_larger_bound(self, side):
        # EQUALITY_TOL up to |side| ~ 3500, as it always was; a side's
        # rounding, SIDE_ROUNDING of it, beyond
        tol = max(jensen.EQUALITY_TOL, jensen.SIDE_ROUNDING * side)
        for gap, within in ((0.5 * tol, True), (2.0 * tol, False)):
            over = InequalityReport.build(side + gap, side, "convex", [1.0, 2.0])
            under = InequalityReport.build(side - gap, side, "convex", [1.0, 2.0])
            assert over.holds and over.equality == within
            assert under.holds == under.equality == within
