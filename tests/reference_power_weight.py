"""Reference power-weighted integrand: phi averaged over each jump's segment.

Before the walk valued a jump by the chain rule, (G(y(sigma)) - G(y)) / mu
from one antiderivative per node, it built the segment [y, y + mu y^Delta]
of each kappa point and took phi's mean over it, (A(z) - A(y)) / s, times
y^Delta.  The two agree in exact arithmetic; these helpers are that older
form, kept verbatim, so the tests can bound how far the values moved.
"""

from __future__ import annotations

import numpy as np


def averaging_segment(y_t, mu_t, ydelta_t):
    """(y, s, jump, z): the segment [y, z] that the averaging walk
    averaged over, s = mu * ydelta, and where it jumps (|s| >= 1e-12;
    elsewhere z = y), on broadcast arrays."""
    y, s = np.broadcast_arrays(np.asarray(y_t, dtype=float),
                               np.asarray(mu_t, dtype=float) * ydelta_t)
    jump = np.abs(s) >= 1e-12
    return y, s, jump, np.where(jump, y + s, y)


def segment_mean(gprime, y, s, jump, z):
    """Mean of gprime over the segments [y, z] of averaging_segment."""
    out = np.array(gprime(y), dtype=float)
    np.divide(gprime.antideriv(z) - gprime.antideriv(y), s, out=out, where=jump)
    return out


def power_weighted_values(p, Y):
    """The power-weighted functional of the rows of Y, all admissible, as
    the averaging walk valued them: (mean * y^Delta)^alpha on the kappa
    points, integrated by the scale's delta integral."""
    ts = p.ts
    Y = np.asarray(Y, dtype=float)
    kap = slice(len(ts.kappa_points()))
    d = ts.delta_derivative_grid(Y)
    _, s, jump, z = averaging_segment(Y[..., kap], ts._mu[kap], d[..., kap])
    w = segment_mean(p.phi, Y[..., kap], s, jump, z)
    d[..., kap] = (w * d[..., kap]) ** p.alpha
    return ts.delta_integral(d)
