"""Monotone root finding: bracketed bisection refined by Newton steps."""

from __future__ import annotations

import sys

import numpy as np

from .errors import DomainError


def invert_increasing(g, target, x_lo=0.0, x_hi=None, gprime=None,
                      tol=1e-12, max_iter=200):
    """Solve g(x) = target for strictly increasing g, elementwise.

    ``target`` is a float, giving a float, or an array, giving an array of
    the same shape from one vectorised pass; g and gprime are then called on
    whole arrays.  The bracket starts at [x_lo, x_hi]; when x_hi is None it
    is found by doubling from max(x_lo + 1, 1) until g(x_hi) >= target.
    Newton steps (when gprime is given) are kept inside the bracket, else
    the bracket is bisected.  Each element stops, and keeps its x, at
    |g(x) - target| <= tol or at a bracket one ulp wide; DomainError is
    raised when some element does neither within max_iter steps.
    """
    t = np.asarray(target, dtype=float)
    if np.any(g(x_lo) > t + tol):
        raise DomainError("target below g(x_lo); no root in [x_lo, inf)")
    if x_hi is None:
        hi = np.full(t.shape, max(x_lo + 1.0, 1.0))
        for _ in range(200):
            short = ~(g(hi) >= t)
            if not short.any():
                break
            hi = np.where(short, 2.0 * hi, hi)
        else:
            raise DomainError("failed to bracket the root by doubling")
    else:
        hi = np.full(t.shape, float(x_hi))
    if np.any(g(hi) < t - tol):
        raise DomainError("target above g(x_hi); bracket does not contain root")

    lo = np.full(t.shape, float(x_lo))
    x = 0.5 * (lo + hi)
    live = np.ones(t.shape, dtype=bool)
    for _ in range(max_iter):
        if not live.any():
            break
        err = g(x) - t
        live &= ~(np.abs(err) <= tol)
        lo = np.where(err > 0.0, lo, x)
        hi = np.where(err > 0.0, x, hi)
        step = 0.5 * (lo + hi)
        if gprime is not None:
            slope = gprime(x)
            with np.errstate(all="ignore"):
                xn = x - err / slope
            step = np.where((slope > 0.0) & (lo < xn) & (xn < hi), xn, step)
        x = np.where(live, step, x)
        # at most a float or two left inside the bracket
        live &= ~(hi - lo <= 2.0 * sys.float_info.epsilon * np.maximum(1.0, np.abs(hi)))
    if live.any():
        i = int(np.flatnonzero(live)[0])
        raise DomainError(f"no root to tolerance {tol} within {max_iter} "
                          f"iterations (element {i}: target {t.flat[i]}, "
                          f"last x = {x.flat[i]})")
    return float(x) if t.ndim == 0 else x
