"""Jensen-type inequality gap checkers on time scales.

Each checker computes both sides of an inequality, orients the gap so that
``gap >= 0`` means the inequality holds, and flags the sharp equality case
(which, for strictly convex/concave F and nowhere-zero weights, occurs
exactly when the integrand is constant).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, ParameterError, PreconditionError
from .functions import classify_convexity
from .roots import invert_increasing
from .timescale import GridFunction, TimeScale, pad_kappa

#: absolute tolerance separating genuine equality from quadrature noise
EQUALITY_TOL = 1e-10

#: tolerance on max(f) - min(f) for declaring f constant
CONSTANCY_TOL = 1e-8

#: the kinds of special_case_gap's corollary inequalities
SPECIAL_KINDS = ("power", "reciprocal_power", "exp", "log", "xlogx")


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
    def build(cls, lhs, rhs, direction, f_values):
        lhs = _finite("lhs", lhs)
        rhs = _finite("rhs", rhs)
        gap = _finite("gap", lhs - rhs if direction == "convex_ge" else rhs - lhs)
        spread = float(np.max(f_values) - np.min(f_values))
        return cls(
            lhs=lhs,
            rhs=rhs,
            gap=gap,
            direction=direction,
            holds=gap >= -EQUALITY_TOL,
            equality=abs(gap) <= EQUALITY_TOL,
            f_is_constant=spread <= CONSTANCY_TOL,
        )

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


def _direction(kind):
    return "convex_ge" if kind in ("convex", "affine") else "concave_le"


@_overflow_checked
def weighted_jensen_gap(ts: TimeScale, f, h, F) -> InequalityReport:
    """Gap of the weighted Jensen inequality with weight |h|.

    lhs is the |h|-weighted mean of F(f); rhs is F at the |h|-weighted mean
    of f.  Requires the total weight to be positive and F to have a definite
    convexity regime on the range of f.
    """
    f = _as_grid(ts, f)
    h = _as_grid(ts, h)
    habs = GridFunction(ts, np.abs(h.values))
    w = ts.delta_integral(habs)
    if w <= 0.0:
        raise PreconditionError("total weight integral of |h| must be positive")
    kappa = slice(len(ts.kappa_points()))
    fk = f.values[kappa]
    fmin, fmax = float(np.min(fk)), float(np.max(fk))
    F.check_domain(np.array([fmin, fmax]))
    kind, _ = classify_convexity(F, fmin, fmax)
    mean_f = _finite("mean", ts.delta_integral(habs.values * f.values) / w)
    lhs = _kappa_integral(ts, habs.values[kappa] * F(fk)) / w
    rhs = float(F(mean_f))
    return InequalityReport.build(lhs, rhs, _direction(kind), fk)


def jensen_gap(ts: TimeScale, f, F) -> InequalityReport:
    """Unweighted Jensen gap: mean of F(f) versus F of the mean of f."""
    ones = GridFunction(ts, np.ones(len(ts.points)))
    return weighted_jensen_gap(ts, f, ones, F)


@_overflow_checked
def special_case_gap(kind: str, ts: TimeScale, f, alpha=None) -> InequalityReport:
    """Gap of one of the specialized corollary inequalities.

    kind is one of SPECIAL_KINDS; power variants take the exponent alpha.
    lhs/rhs are the corollaries' two sides as stated (no normalization by b - a).
    """
    if kind not in SPECIAL_KINDS:
        raise ParameterError(f"unknown special inequality kind {kind!r}")
    f = _as_grid(ts, f)
    span = ts.b - ts.a
    vals = f.values[:len(ts.kappa_points())]
    if kind != "exp" and np.any(vals <= 0.0):
        raise DomainError(f"{kind} inequality requires positive f")
    # numpy scalars, so a power that overflows gives inf instead of raising
    span, total = np.float64(span), np.float64(ts.delta_integral(f))
    if kind != "reciprocal_power":
        _finite("mean", total / span)

    if kind == "power":
        if alpha is None or alpha in (0.0, 1.0):
            raise ParameterError("power inequality needs alpha outside {0, 1}")
        direction = "convex_ge" if (alpha < 0.0 or alpha > 1.0) else "concave_le"
        lhs = _kappa_integral(ts, vals ** alpha)
        rhs = span ** (1.0 - alpha) * total ** alpha
    elif kind == "reciprocal_power":
        if alpha is None or alpha in (-1.0, 0.0):
            raise ParameterError(
                "reciprocal power inequality needs alpha outside {-1, 0}"
            )
        direction = "convex_ge" if (alpha < -1.0 or alpha > 0.0) else "concave_le"
        recip = np.float64(_kappa_integral(ts, 1.0 / vals))
        lhs = recip ** alpha * _kappa_integral(ts, vals ** alpha)
        rhs = span ** (1.0 + alpha)
    elif kind == "exp":
        direction = "convex_ge"
        lhs = _kappa_integral(ts, np.exp(vals))
        try:
            rhs = span * math.exp(total / span)
        except OverflowError:
            rhs = math.inf
    elif kind == "log":
        direction = "concave_le"
        lhs = _kappa_integral(ts, np.log(vals))
        rhs = span * math.log(total / span)
    else:
        direction = "convex_ge"
        lhs = _kappa_integral(ts, vals * np.log(vals))
        rhs = total * math.log(total / span)
    return InequalityReport.build(lhs, rhs, direction, vals)


@_overflow_checked
def quasi_arithmetic_gap(ts: TimeScale, f, phi, psi) -> InequalityReport:
    """Gap between the psi- and phi-quasi-arithmetic means of f.

    Requires phi strictly monotone on the range of f, psi strictly
    increasing, and psi o phi^{-1} of definite convexity on Im(phi).
    The convex orientation gives psi-mean >= phi-mean.
    """
    f = _as_grid(ts, f)
    fk = f.values[:len(ts.kappa_points())]
    fmin, fmax = float(np.min(fk)), float(np.max(fk))
    xs = np.linspace(fmin, fmax, 257) if fmax > fmin else np.array([fmin])
    phi.check_domain(xs)
    psi.check_domain(xs)
    dphi = np.asarray(phi.deriv(xs), dtype=float)
    if np.any(dphi == 0.0) or (np.any(dphi > 0) and np.any(dphi < 0)):
        raise PreconditionError("phi is not strictly monotone on the range of f")
    dpsi = np.asarray(psi.deriv(xs), dtype=float)
    if np.any(dpsi <= 0.0):
        raise PreconditionError("psi must be strictly increasing on the range of f")

    # second derivative of psi o phi^{-1} at u = phi(x), by the chain rule
    d2 = (np.asarray(psi.deriv2(xs), dtype=float) * dphi
          - dpsi * np.asarray(phi.deriv2(xs), dtype=float)) / dphi ** 3
    pos, neg = np.any(d2 > 1e-12), np.any(d2 < -1e-12)
    if pos and neg:
        raise PreconditionError(
            "psi o phi^{-1} has no definite convexity on Im(phi)"
        )
    direction = "convex_ge" if not neg else "concave_le"

    span = ts.b - ts.a
    mean_psi = _finite("mean", _kappa_integral(ts, psi(fk)) / span)
    mean_phi = _finite("mean", _kappa_integral(ts, phi(fk)) / span)
    return InequalityReport.build(_apply_inverse(psi, mean_psi, fmin, fmax),
                                  _apply_inverse(phi, mean_phi, fmin, fmax), direction, fk)


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
