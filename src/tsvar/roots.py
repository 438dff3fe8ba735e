"""Monotone root finding: bracketed bisection refined by Newton steps."""

from __future__ import annotations

import sys

from .errors import DomainError


def invert_increasing(g, target, x_lo=0.0, x_hi=None, gprime=None,
                      tol=1e-12, max_iter=200):
    """Solve g(x) = target for strictly increasing g.

    The bracket starts at [x_lo, x_hi]; when x_hi is None it is found by
    doubling from max(x_lo + 1, 1) until g(x_hi) >= target.  Newton steps
    (using gprime when given, else a secant slope) are kept inside the
    bracket, falling back to bisection.  Converges to |g(x) - target| <= tol
    or to a bracket one ulp wide; raises DomainError when neither happens
    within max_iter steps.
    """
    glo = float(g(x_lo))
    if glo > target + tol:
        raise DomainError("target below g(x_lo); no root in [x_lo, inf)")
    if x_hi is None:
        x_hi = max(x_lo + 1.0, 1.0)
        for _ in range(200):
            if float(g(x_hi)) >= target:
                break
            x_hi = 2.0 * x_hi
        else:
            raise DomainError("failed to bracket the root by doubling")
    ghi = float(g(x_hi))
    if ghi < target - tol:
        raise DomainError("target above g(x_hi); bracket does not contain root")

    lo, hi = float(x_lo), float(x_hi)
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        gx = float(g(x))
        err = gx - target
        if abs(err) <= tol:
            return x
        if err > 0.0:
            hi = x
        else:
            lo = x
        slope = float(gprime(x)) if gprime is not None else None
        step_ok = False
        if slope is not None and slope > 0.0:
            xn = x - err / slope
            if lo < xn < hi:
                x = xn
                step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
        # at most a float or two left inside the bracket
        if hi - lo <= 2.0 * sys.float_info.epsilon * max(1.0, abs(hi)):
            return x
    raise DomainError(f"no root to tolerance {tol} within {max_iter} "
                      f"iterations (last x = {x})")
