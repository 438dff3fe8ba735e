"""tsvar's one inversion of a monotone function: Newton steps on its
derivative inside a given bracket, bisected when a step leaves it.  The
stops are relative to g's values and to x, so no caller scales either."""

from __future__ import annotations

import sys

import numpy as np

from .errors import DomainError

#: Newton or bisection steps before an unsolved element is an error
MAX_ITER = 200


def invert_increasing(g, target, x_lo, x_hi, gprime):
    """Solve g(x) = target for strictly increasing g on [x_lo, x_hi], elementwise.

    ``target`` is a float, giving a float, or an array, giving an array of
    its shape from one vectorised pass (g and gprime then take whole arrays).
    Each element starts where the chord through the bracket's ends meets its
    target, and stops, keeping its x, at |g(x) - target| <= tol = 2 eps *
    max(|g(x_lo)|, |g(x_hi)|) (g is monotone, so no value on the bracket
    rounds more coarsely than its larger end) or at a bracket 2 eps * |hi|
    wide.  DomainError is raised for a target beyond [g(x_lo), g(x_hi)] by
    more than tol, or for an element that stops at neither in MAX_ITER steps."""
    t = np.asarray(target, dtype=float)
    g_lo, g_hi = float(g(x_lo)), float(g(x_hi))
    tol = 2.0 * sys.float_info.epsilon * max(abs(g_lo), abs(g_hi))
    if np.any(g_lo > t + tol) or np.any(g_hi < t - tol):
        raise DomainError("target outside [g(x_lo), g(x_hi)]: no root in the bracket")

    lo = np.full(t.shape, float(x_lo))
    hi = np.full(t.shape, float(x_hi))
    span = g_hi - g_lo                  # a chord of slope 0 or inf: the midpoint
    w = np.clip((t - g_lo) / span, 0.0, 1.0) if 0.0 < span < np.inf else 0.5
    x = (1.0 - w) * lo + w * hi         # as lo + w * (hi - lo) may overflow
    live = np.ones(t.shape, dtype=bool)
    for _ in range(MAX_ITER):
        if not live.any():
            break
        err = g(x) - t
        live &= ~(np.abs(err) <= tol)
        up = err > 0.0
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        slope = gprime(x)
        with np.errstate(all="ignore"):
            d = err / slope
        xn = x - d      # a step below half an ulp of x: the root is within an ulp
        xn = np.where((xn == x) & (d != 0.0), np.nextafter(x, np.where(up, lo, hi)), xn)
        step = np.where((slope > 0.0) & (lo < xn) & (xn < hi), xn,
                        0.5 * lo + 0.5 * hi)
        x = np.where(live, step, x)
        # at most a float or two left inside the bracket
        live &= ~(hi - lo <= 2.0 * sys.float_info.epsilon * np.abs(hi))
    if live.any():
        i = int(np.flatnonzero(live)[0])
        raise DomainError(f"no root within {MAX_ITER} iterations (element {i}: "
                          f"target {t.flat[i]}, last x = {x.flat[i]})")
    return float(x) if t.ndim == 0 else x
