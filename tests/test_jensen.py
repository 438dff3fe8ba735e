import math
import random

import numpy as np
import pytest

from tsvar import (
    Affine,
    ClassificationError,
    DomainError,
    Exp,
    GridFunction,
    Identity,
    Log,
    ParameterError,
    Power,
    PreconditionError,
    custom,
    jensen_gap,
    q_scale,
    quasi_arithmetic_gap,
    special_case_gap,
    uniform,
    weighted_jensen_gap,
)
from generators import random_discrete_timescale, random_grid

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

    # phi with no closed-form inverse: the phi-mean comes from the monotone
    # search, against the exact root
    F5 = np.array([1.0, 2.0, 3.5, 0.7, 5.0])

    def test_search_inverse_increasing(self):
        from tsvar import Polynomial
        ts = uniform(0, 1, 4)
        mean = np.mean(self.F5[:4] + self.F5[:4] ** 2)
        rep = quasi_arithmetic_gap(ts, self.F5, Polynomial([0.0, 1.0, 1.0]),
                                   Identity())
        assert rep.rhs == pytest.approx((math.sqrt(1.0 + 4.0 * mean) - 1.0) / 2.0,
                                        abs=1e-12)

    def test_search_inverse_decreasing(self):
        from tsvar import Polynomial, Transformed
        ts = uniform(0, 1, 4)
        phi = Transformed(Polynomial([0.0, 0.0, 1.0]), out_scale=-1.0)
        rep = quasi_arithmetic_gap(ts, self.F5, phi, Identity())
        assert rep.rhs == pytest.approx(math.sqrt(np.mean(self.F5[:4] ** 2)),
                                        abs=1e-12)

    def test_noninjective_phi_rejected(self):
        from tsvar import Polynomial
        f = GridFunction(T3, [-1.0, 1.0])
        with pytest.raises(PreconditionError):
            quasi_arithmetic_gap(T3, f, Polynomial([0.0, 0.0, 1.0]), Exp())

    def test_decreasing_psi_rejected(self):
        f = GridFunction(T3, [1.0, 2.0])
        with pytest.raises(PreconditionError):
            quasi_arithmetic_gap(T3, f, Identity(), Power(-1.0))


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
