"""Jensen-type inequality gap checkers on time scales.

The corollaries are rows of weighted Jensen, and every direction comes from
one sign rule, functions.classify_samples.  Each checker orients the gap so
that ``gap >= 0`` means the inequality holds, and flags the sharp equality
case (which, for strictly convex/concave F and nowhere-zero weights, occurs
exactly when the integrand is constant).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, ParameterError, PreconditionError
from .functions import (Exp, Log, Power, XLogX, classify_convexity,
                        classify_samples, convexity_samples)
from .roots import invert_increasing
from .timescale import GridFunction, TimeScale, pad_kappa

#: absolute tolerance separating genuine equality from quadrature noise
EQUALITY_TOL = 1e-10

#: a side's rounding relative to its magnitude, 2**7 ulps: a quadrature sum,
#: or a quasi mean, whose phi-mean's rounding phi^{-1} multiplies (about 50
#: ulps for log at 1e13); it sets the tolerance from |side| ~ 3500 up
SIDE_ROUNDING = 2.0 ** -45

#: tolerance on max(f) - min(f) for declaring f constant
CONSTANCY_TOL = 1e-8

#: the kind of F (functions.classify_samples) -> the report's direction, and
#: whether the gap is rhs - lhs
_DIRECTIONS = {"convex": ("convex_ge", False), "affine": ("convex_ge", False),
               "concave": ("concave_le", True)}

#: each corollary as a row of weighted Jensen: F from alpha, the alphas it
#: excludes (None: it takes no alpha), and whether its weight is 1/f, not 1
_COROLLARIES = {
    "power": (Power, (0.0, 1.0), False),
    "reciprocal_power": (lambda alpha: Power(alpha + 1.0), (-1.0, 0.0), True),
    "exp": (lambda alpha: Exp(), None, False),
    "log": (lambda alpha: Log(), None, False),
    "xlogx": (lambda alpha: XLogX(), None, False),
}

#: the kinds of special_case_gap's corollary inequalities
SPECIAL_KINDS = tuple(_COROLLARIES)


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of one inequality instance, with its oriented gap."""

    lhs: float
    rhs: float
    gap: float
    direction: str            # "convex_ge" | "concave_le"
    holds: bool
    equality: bool
    f_is_constant: bool

    @classmethod
    def build(cls, lhs, rhs, kind, f_values):
        """The report for F of the given kind (functions.classify_samples).
        A gap within the larger of EQUALITY_TOL and SIDE_ROUNDING times the
        larger side is rounding."""
        lhs = _finite("lhs", lhs)
        rhs = _finite("rhs", rhs)
        direction, flip = _DIRECTIONS[kind]
        gap = _finite("gap", rhs - lhs if flip else lhs - rhs)
        tol = max(EQUALITY_TOL, SIDE_ROUNDING * max(abs(lhs), abs(rhs)))
        spread = float(np.max(f_values) - np.min(f_values))
        return cls(lhs, rhs, gap, direction, holds=gap >= -tol,
                   equality=abs(gap) <= tol, f_is_constant=spread <= CONSTANCY_TOL)

    def to_dict(self):
        return asdict(self)


def _finite(name, value):
    """value as a float; DomainError naming it when it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"the inequality's {name} is not finite: {value}")
    return value


def _overflow_checked(checker):
    """Run a checker with numpy's floating-point warnings off: an overflow
    shows as a non-finite mean or side, which is raised as a DomainError."""
    @functools.wraps(checker)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return checker(*args, **kwargs)
    return run


def _kappa_integral(ts, v):
    """Delta integral of values given on [a, b]^kappa, not required to be
    finite as in a GridFunction, so an overflow reaches the checks."""
    return ts.delta_integral(pad_kappa(v, ts))


def _as_grid(ts, f):
    return f if isinstance(f, GridFunction) else GridFunction(ts, f)


def _weighted_sides(ts, f, g, F):
    """W, the integral of the weight g >= 0; the integral of g F(f); F at the
    g-weighted mean of f, each checked finite before F is classified, so an
    overflow is named; the kind of F on the range of f; f on [a, b]^kappa."""
    fk = f[:len(ts.kappa_points())]
    fmin, fmax = float(np.min(fk)), float(np.max(fk))
    F.check_domain(np.array([fmin, fmax]))
    w = ts.delta_integral(g)
    if w <= 0.0:
        raise PreconditionError("total weight integral of |h| must be positive")
    mean = _finite("mean", ts.delta_integral(g * f) / w)
    lhs = _finite("lhs", _kappa_integral(ts, g[:len(fk)] * F(fk)))
    rhs = _finite("rhs", F(mean))
    return w, lhs, rhs, classify_convexity(F, fmin, fmax)[0], fk


@_overflow_checked
def weighted_jensen_gap(ts: TimeScale, f, h, F) -> InequalityReport:
    """Gap of the weighted Jensen inequality with weight |h|.

    lhs is the |h|-weighted mean of F(f); rhs is F at the |h|-weighted mean
    of f.  Requires the total weight to be positive and F to have a definite
    convexity regime on the range of f.
    """
    f, h = _as_grid(ts, f), _as_grid(ts, h)
    w, lhs, rhs, kind, fk = _weighted_sides(ts, f.values, np.abs(h.values), F)
    return InequalityReport.build(lhs / w, rhs, kind, fk)


def jensen_gap(ts: TimeScale, f, F) -> InequalityReport:
    """Unweighted Jensen gap: mean of F(f) versus F of the mean of f."""
    ones = GridFunction(ts, np.ones(len(ts.points)))
    return weighted_jensen_gap(ts, f, ones, F)


@_overflow_checked
def special_case_gap(kind: str, ts: TimeScale, f, alpha=None) -> InequalityReport:
    """Gap of one of the corollary inequalities, a row of weighted Jensen.

    kind is one of SPECIAL_KINDS; power variants take the exponent alpha.
    lhs/rhs are the corollaries' two sides as stated: the integral of
    g F(f) and W F(mean), W the integral of the weight g (no normalization),
    times W**alpha for reciprocal_power.
    """
    if kind not in _COROLLARIES:
        raise ParameterError(f"unknown special inequality kind {kind!r}")
    make_F, excluded, reciprocal = _COROLLARIES[kind]
    if excluded is not None and (alpha is None or alpha in excluded):
        raise ParameterError(f"{kind.replace('_', ' ')} inequality needs alpha "
                             f"outside {{{excluded[0]:g}, {excluded[1]:g}}}")
    f = _as_grid(ts, f).values
    fk = f[:len(ts.kappa_points())]
    if reciprocal:  # sides of degree 0 in f: formed on f / 2**k (exact), about 1
        k = sum(math.frexp(float(v))[1] for v in (np.min(fk), np.max(fk))) // 2
        f = np.ldexp(f, -k)
    g = 1.0 / f if reciprocal else np.ones_like(f)
    w, lhs, rhs, convexity, _ = _weighted_sides(ts, f, g, make_F(alpha))
    # a numpy scalar, so a power that overflows gives inf instead of raising
    scale = np.float64(w) ** alpha if reciprocal else 1.0
    return InequalityReport.build(scale * lhs, scale * (w * rhs), convexity, fk)


@_overflow_checked
def quasi_arithmetic_gap(ts: TimeScale, f, phi, psi) -> InequalityReport:
    """Gap between the psi- and phi-quasi-arithmetic means of f.

    Requires phi strictly monotone on the range of f, psi strictly
    increasing (else PreconditionError), and psi o phi^{-1} of definite
    convexity on Im(phi) (else ClassificationError, from the sign rule).
    The convex orientation gives psi-mean >= phi-mean.
    """
    f = _as_grid(ts, f)
    fk = f.values[:len(ts.kappa_points())]
    fmin, fmax = float(np.min(fk)), float(np.max(fk))
    xs = convexity_samples(fmin, fmax)
    phi.check_domain(xs)
    psi.check_domain(xs)
    dphi = np.asarray(phi.deriv(xs), dtype=float)
    if np.any(dphi == 0.0) or (np.any(dphi > 0) and np.any(dphi < 0)):
        raise PreconditionError("phi is not strictly monotone on the range of f")
    dpsi = np.asarray(psi.deriv(xs), dtype=float)
    if np.any(dpsi <= 0.0):
        raise PreconditionError("psi must be strictly increasing on the range of f")
    span = ts.b - ts.a
    mean_psi = _finite("mean", _kappa_integral(ts, psi(fk)) / span)
    mean_phi = _finite("mean", _kappa_integral(ts, phi(fk)) / span)
    # (psi o phi^{-1})'' at phi(x) is (psi'' phi' - psi' phi'') / phi'^3, of
    # the sign of the difference times sign phi' (the cube underflows near
    # the float max); the difference rounds within a few u of |a| + |b|, and
    # one that overflows (one term infinite, or both of opposite signs) is
    # decided by its sign alone
    a, b = _times(psi.deriv2(xs), dphi), _times(dpsi, phi.deriv2(xs))
    d = np.sign(dphi) * (a - b)
    err = 4.0 * np.finfo(float).eps * (np.abs(a) + np.abs(b))
    big = np.isinf(d)
    kind, _ = classify_samples(np.where(big, np.sign(d), d), np.where(big, 0.0, err),
                               fmin, fmax)
    return InequalityReport.build(_apply_inverse(psi, mean_psi, fmin, fmax),
                                  _apply_inverse(phi, mean_phi, fmin, fmax), kind, fk)


def _times(u, v):
    """u * v, and 0 wherever a factor is exactly 0, which 0 * inf is not."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return np.where((u == 0.0) | (v == 0.0), 0.0, u * v)


def _apply_inverse(fn, target, xmin, xmax):
    """fn^{-1}(target) on [xmin, xmax] by the monotone search.  A target past
    fn's ends is rounding of a positive-weight mean, and is clamped.  fn, and x
    below 1, are scaled by 2**k and 2**-j, exactly: the search's stops are absolute."""
    s = 1.0 if float(fn.deriv(0.5 * xmin + 0.5 * xmax)) > 0 else -1.0
    lo, hi = s * float(fn(xmin)), s * float(fn(xmax))
    k = 13 - math.frexp(max(abs(lo), abs(hi)))[1]
    j = min(0, math.frexp(max(abs(xmin), abs(xmax)))[1])
    u = invert_increasing(lambda u: np.ldexp(s * fn(np.ldexp(u, j)), k),
                          np.ldexp(min(max(s * target, lo), hi), k),
                          math.ldexp(xmin, -j), math.ldexp(xmax, -j),
                          lambda u: np.ldexp(s * fn.deriv(np.ldexp(u, j)), k + j))
    return math.ldexp(u, j)
