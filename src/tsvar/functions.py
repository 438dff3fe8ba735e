"""Closed family of scalar functions with exact derivatives and antiderivatives.

Every member evaluates pointwise on floats or numpy arrays and exposes exact
first/second derivatives, an antiderivative and its open domain, but no
inverse (``roots`` inverts): convexity is decided from the second derivative,
and the chain rule across a jump reduces to an antiderivative difference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ClassificationError, DomainError

_INF = math.inf


class ScalarFunction:
    """Base class. Subclasses define value/deriv/deriv2/antideriv in closed form."""

    #: open interval (lo, hi) on which the function is defined
    domain = (-_INF, _INF)

    def __call__(self, x):
        raise NotImplementedError

    def deriv(self, x):
        raise NotImplementedError

    def deriv2(self, x):
        raise NotImplementedError

    def antideriv(self, x):
        """One fixed antiderivative (additive constant is arbitrary but consistent)."""
        raise NotImplementedError

    def outside_domain(self, x):
        """Elementwise: x lies outside the open domain (NaN does not)."""
        xa = np.asarray(x, dtype=float)
        out = np.isinf(xa)        # beyond any bound: only finite ones are compared
        for bound, beyond in zip(self.domain, (np.less_equal, np.greater_equal)):
            if math.isfinite(bound):
                out |= beyond(xa, bound)
        return out

    def domain_error(self):
        lo, hi = self.domain
        return DomainError(f"argument outside open domain ({lo}, {hi}) of {self!r}")

    def check_domain(self, x):
        if np.any(self.outside_domain(x)):
            raise self.domain_error()


class Constant(ScalarFunction):
    def __init__(self, c):
        self.c = float(c)

    def __call__(self, x):
        return self.c + 0.0 * np.asarray(x, dtype=float)

    def deriv(self, x):
        return 0.0 * np.asarray(x, dtype=float)

    deriv2 = deriv

    def antideriv(self, x):
        return self.c * np.asarray(x, dtype=float)

    def __repr__(self):
        return f"Constant({self.c})"


class Affine(ScalarFunction):
    def __init__(self, slope, intercept):
        self.slope = float(slope)
        self.intercept = float(intercept)

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def deriv(self, x):
        return self.slope + 0.0 * np.asarray(x, dtype=float)

    def deriv2(self, x):
        return 0.0 * np.asarray(x, dtype=float)

    def antideriv(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.slope * x * x + self.intercept * x

    def __repr__(self):
        return f"Affine({self.slope}, {self.intercept})"


def Identity():
    return Affine(1.0, 0.0)


class Power(ScalarFunction):
    """x**alpha on (0, inf)."""

    domain = (0.0, _INF)

    def __init__(self, alpha):
        self.alpha = float(alpha)

    def __call__(self, x):
        return np.asarray(x, dtype=float) ** self.alpha

    def deriv(self, x):
        return self.alpha * np.asarray(x, dtype=float) ** (self.alpha - 1.0)

    def deriv2(self, x):
        a = self.alpha
        return a * (a - 1.0) * np.asarray(x, dtype=float) ** (a - 2.0)

    def antideriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.alpha == -1.0:
            return np.log(x)
        return x ** (self.alpha + 1.0) / (self.alpha + 1.0)

    def __repr__(self):
        return f"Power({self.alpha})"


class Exp(ScalarFunction):
    def __call__(self, x):
        return np.exp(np.asarray(x, dtype=float))

    deriv = __call__
    deriv2 = __call__
    antideriv = __call__

    def __repr__(self):
        return "Exp()"


class Log(ScalarFunction):
    domain = (0.0, _INF)

    def __call__(self, x):
        return np.log(np.asarray(x, dtype=float))

    def deriv(self, x):
        return 1.0 / np.asarray(x, dtype=float)

    def deriv2(self, x):
        return -1.0 / np.asarray(x, dtype=float) ** 2

    def antideriv(self, x):
        x = np.asarray(x, dtype=float)
        return x * np.log(x) - x

    def __repr__(self):
        return "Log()"


class XLogX(ScalarFunction):
    """x*ln(x) on (0, inf); strictly convex there."""

    domain = (0.0, _INF)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x * np.log(x)

    def deriv(self, x):
        return np.log(np.asarray(x, dtype=float)) + 1.0

    def deriv2(self, x):
        return 1.0 / np.asarray(x, dtype=float)

    def antideriv(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x * x * np.log(x) - 0.25 * x * x

    def __repr__(self):
        return "XLogX()"


class Polynomial(ScalarFunction):
    """Polynomial with ascending coefficients: coeffs[k] * x**k."""

    def __init__(self, coeffs):
        self.coeffs = [float(c) for c in coeffs]
        if not self.coeffs:
            raise DomainError("polynomial needs at least one coefficient")

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)

    def deriv(self, x):
        c = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)

    def deriv2(self, x):
        c = np.polynomial.polynomial.polyder(self.coeffs, 2)
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)

    def antideriv(self, x):
        c = np.polynomial.polynomial.polyint(self.coeffs)
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)

    def __repr__(self):
        return f"Polynomial({self.coeffs})"


class Transformed(ScalarFunction):
    """out_scale * inner(in_scale * x + in_shift) + out_shift."""

    def __init__(self, inner, in_scale=1.0, in_shift=0.0, out_scale=1.0, out_shift=0.0):
        if in_scale == 0.0:
            raise DomainError("in_scale must be nonzero")
        self.inner = inner
        self.in_scale = float(in_scale)
        self.in_shift = float(in_shift)
        self.out_scale = float(out_scale)
        self.out_shift = float(out_shift)

    @property
    def domain(self):
        lo, hi = self.inner.domain
        a = (lo - self.in_shift) / self.in_scale
        b = (hi - self.in_shift) / self.in_scale
        return (min(a, b), max(a, b))

    def _u(self, x):
        return self.in_scale * np.asarray(x, dtype=float) + self.in_shift

    def __call__(self, x):
        return self.out_scale * self.inner(self._u(x)) + self.out_shift

    def deriv(self, x):
        return self.out_scale * self.in_scale * self.inner.deriv(self._u(x))

    def deriv2(self, x):
        return self.out_scale * self.in_scale ** 2 * self.inner.deriv2(self._u(x))

    def antideriv(self, x):
        x = np.asarray(x, dtype=float)
        return (self.out_scale / self.in_scale) * self.inner.antideriv(self._u(x)) + self.out_shift * x

    def __repr__(self):
        return (f"Transformed({self.inner!r}, in_scale={self.in_scale}, "
                f"in_shift={self.in_shift}, out_scale={self.out_scale}, "
                f"out_shift={self.out_shift})")


#: sample count for sign-checking a second derivative on a range
CONVEXITY_SAMPLES = 257


def convexity_samples(lo, hi):
    """The points of [lo, hi] at which convexity is decided."""
    return np.linspace(lo, hi, CONVEXITY_SAMPLES) if hi > lo else np.array([lo])


def classify_samples(d2, err, lo, hi):
    """The sign rule: (kind, strict) from samples d2 of a second derivative on
    [lo, hi], each within err of its exact value, so a sample counts as zero
    only when |d2| <= err.  kind is "convex", "concave" or "affine" (every
    sample zero); strict is True when no sample is zero.  A non-finite sample
    or a sign change raises ClassificationError.
    """
    if not np.all(np.isfinite(d2)):
        raise ClassificationError("second derivative not finite on range")
    pos, neg = d2 > err, d2 < -err
    if pos.any() and neg.any():
        raise ClassificationError(f"second derivative changes sign on [{lo}, {hi}]")
    if pos.any():
        return "convex", bool(pos.all())
    if neg.any():
        return "concave", bool(neg.all())
    return "affine", False


def classify_convexity(F, lo, hi):
    """Decide convexity of F on [lo, hi] from the sign of its second derivative.

    Returns (kind, strict) with kind in {"convex", "concave", "affine"};
    strict is True when the second derivative is nonzero at every sample.
    A sign change raises ClassificationError.  F'' is a closed form, whose
    rounding is relative to its own value, so only a sample of exactly 0
    counts as zero: -1/x**2 at x = 1e7 is concave, not affine.
    """
    if lo > hi:
        raise DomainError("empty classification range")
    xs = convexity_samples(lo, hi)
    F.check_domain(xs)
    with np.errstate(all="ignore"):    # an overflow is rejected by the sign rule
        d2 = np.asarray(F.deriv2(xs), dtype=float)
    return classify_samples(d2, 0.0, lo, hi)
