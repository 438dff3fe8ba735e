import math

import numpy as np
import pytest

from tsvar import (
    Affine,
    ClassificationError,
    Constant,
    DomainError,
    Exp,
    Identity,
    Log,
    Polynomial,
    Power,
    Transformed,
    XLogX,
    classify_convexity,
)

ALL = [
    Constant(3.5),
    Affine(2.0, -1.0),
    Power(2.0),
    Power(-1.0),
    Power(0.5),
    Exp(),
    Log(),
    XLogX(),
    Polynomial([1.0, 0.0, -2.0, 0.5]),
    Transformed(Exp(), in_scale=2.0, in_shift=0.5, out_scale=-1.5, out_shift=3.0),
    Transformed(Power(3.0), in_scale=0.5, out_scale=2.0),
]


def _sample_points(fn):
    lo, hi = fn.domain
    lo = max(lo, -3.0) + 0.25
    hi = min(hi, 3.0) - 0.25
    return np.linspace(lo, hi, 11)


@pytest.mark.parametrize("fn", ALL, ids=lambda f: repr(f))
def test_deriv_matches_finite_difference(fn):
    eps = 1e-6
    for x in _sample_points(fn):
        fd = (fn(x + eps) - fn(x - eps)) / (2 * eps)
        assert float(fn.deriv(x)) == pytest.approx(fd, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("fn", ALL, ids=lambda f: repr(f))
def test_deriv2_matches_finite_difference(fn):
    eps = 1e-4
    for x in _sample_points(fn):
        fd = (fn(x + eps) - 2 * fn(x) + fn(x - eps)) / eps ** 2
        assert float(fn.deriv2(x)) == pytest.approx(fd, rel=1e-4, abs=1e-4)


@pytest.mark.parametrize("fn", ALL, ids=lambda f: repr(f))
def test_antideriv_differentiates_back(fn):
    eps = 1e-6
    for x in _sample_points(fn):
        fd = (fn.antideriv(x + eps) - fn.antideriv(x - eps)) / (2 * eps)
        assert fd == pytest.approx(float(fn(x)), rel=1e-5, abs=1e-5)


def test_exact_values():
    assert float(Power(2)(3.0)) == 9.0
    assert float(Exp().antideriv(0.0)) == 1.0
    assert float(Log()(math.e)) == pytest.approx(1.0, abs=1e-15)
    assert float(XLogX()(1.0)) == 0.0
    assert float(Polynomial([1, 2, 3])(2.0)) == 1 + 4 + 12
    assert float(Identity()(7.3)) == 7.3


@pytest.mark.parametrize("fn", ALL + [
    Transformed(Log(), in_scale=-1.0, in_shift=10.0),
    Transformed(Power(2.0), in_scale=-2.0, in_shift=-1.0)])
def test_outside_domain_masks_match_comparing_both_bounds(fn):
    # only finite bounds are compared, as x <= -inf or x >= inf is isinf(x);
    # NaN stays inside
    lo, hi = fn.domain
    x = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, lo, hi,
                  np.nextafter(lo, 0.0), np.nextafter(hi, 0.0), 1.5, -1.5])
    expected = (x <= lo) | (x >= hi)
    assert fn.outside_domain(x).tolist() == expected.tolist()
    assert [bool(fn.outside_domain(v)) for v in x] == expected.tolist()
    assert fn.outside_domain(x.reshape(1, -1)).tolist() == [expected.tolist()]


def test_domain_checks():
    with pytest.raises(DomainError):
        Log().check_domain(-1.0)
    with pytest.raises(DomainError):
        Power(0.5).check_domain(np.array([1.0, 0.0]))
    Exp().check_domain(np.array([-100.0, 100.0]))


class TestClassifyConvexity:
    def test_strictly_convex(self):
        assert classify_convexity(Power(2), 0.5, 3.0) == ("convex", True)
        assert classify_convexity(Exp(), -2.0, 2.0) == ("convex", True)
        assert classify_convexity(XLogX(), 0.1, 9.0) == ("convex", True)

    def test_strictly_concave(self):
        assert classify_convexity(Log(), 0.5, 3.0) == ("concave", True)
        assert classify_convexity(Power(0.5), 0.5, 3.0) == ("concave", True)

    def test_affine(self):
        assert classify_convexity(Affine(2.0, 1.0), -5.0, 5.0) == ("affine", False)
        assert classify_convexity(Constant(1.0), -5.0, 5.0) == ("affine", False)

    def test_mixed_sign_rejected(self):
        cubic = Polynomial([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ClassificationError):
            classify_convexity(cubic, -1.0, 1.0)
        # F'' overflows: rejected without a numpy warning
        with pytest.raises(ClassificationError):
            classify_convexity(Power(4.6e16), 1.0, 2.0)

    def test_power_regimes(self):
        assert classify_convexity(Power(-0.5), 0.5, 2.0)[0] == "convex"
        assert classify_convexity(Power(1.0), 0.5, 2.0)[0] == "affine"
