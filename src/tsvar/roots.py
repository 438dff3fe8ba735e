"""tsvar's one inversion of a monotone function: bisection of a given
bracket, refined by Newton steps on the function's derivative."""

from __future__ import annotations

import sys

import numpy as np

from .errors import DomainError

#: an element is solved once |g(x) - target| falls to this
TOL = 1e-12

#: Newton or bisection steps before an unsolved element is an error
MAX_ITER = 200


def invert_increasing(g, target, x_lo, x_hi, gprime):
    """Solve g(x) = target for strictly increasing g on [x_lo, x_hi], elementwise.

    ``target`` is a float, giving a float, or an array, giving an array of
    its shape from one vectorised pass (g and gprime then take whole arrays).
    Newton steps on gprime are kept inside the bracket, else it is bisected.
    Each element stops, keeping its x, at |g(x) - target| <= TOL or at a
    bracket 2 eps * max(1, |hi|) wide, an ulp or two at |x| >= 1.  DomainError
    is raised for a target beyond g(x_lo) or g(x_hi) by more than TOL, or for
    an element that stops at neither within MAX_ITER steps."""
    t = np.asarray(target, dtype=float)
    if np.any(g(x_lo) > t + TOL):
        raise DomainError("target below g(x_lo); bracket does not contain root")
    if np.any(g(x_hi) < t - TOL):
        raise DomainError("target above g(x_hi); bracket does not contain root")

    lo = np.full(t.shape, float(x_lo))
    hi = np.full(t.shape, float(x_hi))
    x = 0.5 * lo + 0.5 * hi       # halved first, as lo + hi may overflow
    live = np.ones(t.shape, dtype=bool)
    for _ in range(MAX_ITER):
        if not live.any():
            break
        err = g(x) - t
        live &= ~(np.abs(err) <= TOL)
        lo = np.where(err > 0.0, lo, x)
        hi = np.where(err > 0.0, x, hi)
        slope = gprime(x)
        with np.errstate(all="ignore"):
            xn = x - err / slope
        step = np.where((slope > 0.0) & (lo < xn) & (xn < hi), xn,
                        0.5 * lo + 0.5 * hi)
        x = np.where(live, step, x)
        # at most a float or two left inside the bracket
        live &= ~(hi - lo <= 2.0 * sys.float_info.epsilon * np.maximum(1.0, np.abs(hi)))
    if live.any():
        i = int(np.flatnonzero(live)[0])
        raise DomainError(f"no root to tolerance {TOL} within {MAX_ITER} iterations "
                          f"(element {i}: target {t.flat[i]}, last x = {x.flat[i]})")
    return float(x) if t.ndim == 0 else x
