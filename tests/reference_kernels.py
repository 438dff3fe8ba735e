"""Reference time-scale constructor and interval kernels.

This is the constructor and the two kernels that `tsvar.timescale.TimeScale`
replaced with per-scale tables and whole-grid passes: here every call
gathers each interval's nodes into a (k, nodes) array, runs the stencils on
that copy and scatters the results back.  The equivalence tests assert
that both give the same bits and raise the same errors.
"""

from __future__ import annotations

import numpy as np

from tsvar.errors import ConstructionError
from tsvar.timescale import (DEFAULT_QUAD_NODES, POINT_TOL, _EDGE0_W,
                             _EDGE1_W, _force_odd)


class ReferenceTimeScale:
    """points, atoms, intervals, _spans, _gaps and _mu as the constructor
    built them, and the kernels over arrays of shape (..., n)."""

    def __init__(self, atoms=(), intervals=(), quad_nodes_per_interval=None):
        if quad_nodes_per_interval is None:
            quad_nodes_per_interval = DEFAULT_QUAD_NODES
        if quad_nodes_per_interval < 2:
            raise ConstructionError("quad_nodes_per_interval must be >= 2")
        self.quad_nodes_per_interval = int(quad_nodes_per_interval)
        nodes = _force_odd(self.quad_nodes_per_interval)

        atoms = np.asarray(atoms, dtype=float).ravel()
        iv = np.asarray(intervals, dtype=float)
        if iv.size == 0:
            iv = iv.reshape(0, 2)
        if iv.ndim != 2 or iv.shape[1] != 2:
            raise ConstructionError("intervals must be (lo, hi) pairs")
        if atoms.size == 0 and iv.size == 0:
            raise ConstructionError("time scale must be nonempty")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(iv))):
            raise ConstructionError("atoms and interval ends must be finite")
        if np.any(np.diff(atoms) <= POINT_TOL):
            raise ConstructionError("atoms must be strictly increasing")
        iv = iv[np.lexsort((iv[:, 1], iv[:, 0]))]
        lo, hi = iv[:, 0], iv[:, 1]
        bad = np.flatnonzero(~(lo < hi))
        if bad.size:
            raise ConstructionError(
                f"degenerate interval [{lo[bad[0]]}, {hi[bad[0]]}]")
        if np.any(lo[1:] < hi[:-1] - POINT_TOL):
            raise ConstructionError("intervals overlap")

        # atoms at an interval endpoint are absorbed into that endpoint;
        # the others must not lie inside the last interval starting below
        # them (j = -1 picks the -inf pad: no interval starts below)
        ends = np.concatenate([[-np.inf], np.sort(iv.ravel()), [np.inf]])
        near = np.searchsorted(ends, atoms)
        absorbed = np.minimum(atoms - ends[near - 1], ends[near] - atoms) <= POINT_TOL
        j = np.searchsorted(lo, atoms, side="right") - 1
        inside = np.flatnonzero((atoms < np.append(hi, -np.inf)[j]) & ~absorbed)
        if inside.size:
            i = inside[0]
            raise ConstructionError(
                f"atom {atoms[i]} lies strictly inside interval "
                f"[{lo[j[i]]}, {hi[j[i]]}]")
        kept = atoms[~absorbed]

        # touching intervals share one node: the later one drops its first
        seg = np.linspace(lo, hi, nodes, axis=1)
        shared = np.zeros(len(iv), dtype=bool)
        shared[1:] = np.abs(lo[1:] - hi[:-1]) <= POINT_TOL
        pts = np.sort(np.concatenate([kept, seg[~shared, 0], seg[:, 1:].ravel()]))
        if np.any(np.diff(pts) <= 0):
            raise ConstructionError("evaluation points are not strictly increasing")
        pts.flags.writeable = False  # kappa_points hands out views of it
        self.points = pts
        self.atoms = tuple(kept.tolist())
        self.intervals = tuple(map(tuple, iv.tolist()))

        # (start, stop) grid-index pair of every interval's nodes
        stop = np.searchsorted(pts, hi) + 1
        self._spans = np.stack([stop - nodes, stop], axis=1)
        # the grid's gaps; graininess is zero on every interval gap and at
        # the max point (sigma(b) = b by convention)
        self._gaps = np.diff(pts)
        self._gaps.flags.writeable = False  # shared with the lattice DP
        mu = np.append(self._gaps, 0.0)
        mu[(self._spans[:, :1] + np.arange(nodes - 1)).ravel()] = 0.0
        self._mu = mu

    def _intervals_on_grid(self, vals):
        """Node indices (k, m+1), node values (..., k, m+1) and node
        spacing (k,) of the k continuous intervals."""
        start, stop = self._spans[:, 0], self._spans[:, 1]
        idx = start[:, None] + np.arange(_force_odd(self.quad_nodes_per_interval))
        h = (self.points[stop - 1] - self.points[start]) / (idx.shape[1] - 1)
        return idx, vals[..., idx], h

    def _amounts(self, vals):
        """Integral over each grid gap [t_i, t_{i+1}], along the last axis.

        Right-scattered gaps give mu * f; continuous gaps use the
        fourth-order stencils of their whole interval.
        """
        out = self._mu[:-1] * vals[..., :-1]
        if self.intervals:
            idx, f, h = self._intervals_on_grid(vals)
            out[..., idx[:, :-1]] = (h / 24.0)[:, None] * _cubic_stencils(f)
        return out

    def delta_integral(self, vals):
        total = self._amounts(vals).sum(axis=-1)
        return float(total) if total.ndim == 0 else total

    def cumulative_delta_integral(self, vals):
        out = np.zeros_like(vals)
        np.cumsum(self._amounts(vals), axis=-1, out=out[..., 1:])
        return out

    def delta_derivative_grid(self, vals):
        """Delta derivative at every evaluation point; NaN at b when excluded.

        Right-scattered points use the exact difference quotient; right-dense
        points use fourth-order finite differences on the interval's nodes
        (the earlier interval's at a node two touching intervals share).
        Works along the last axis of an array of shape (..., n).
        """
        out = np.empty_like(vals)
        np.subtract(vals[..., 1:], vals[..., :-1], out=out[..., :-1])
        out[..., :-1] /= self._gaps
        out[..., -1] = np.nan
        if self.intervals:
            idx, f, h = self._intervals_on_grid(vals)
            own = self._mu[idx] == 0.0
            own[1:, 0] &= idx[1:, 0] != idx[:-1, -1]
            out[..., idx[own]] = _difference_stencils(f, h)[..., own]
        return out


def _cubic_stencils(f):
    """24/h times the fourth-order integral of every subinterval.

    Interior subintervals integrate the cubic through the four surrounding
    nodes; the first and last use the one-sided cubic.  Exact for cubics.
    Needs at least 5 nodes.
    """
    c = np.empty(f.shape[:-1] + (f.shape[-1] - 1,))
    c[..., 1:-1] = -f[..., :-3] + 13.0 * f[..., 1:-2] + 13.0 * f[..., 2:-1] - f[..., 3:]
    c[..., 0] = 9.0 * f[..., 0] + 19.0 * f[..., 1] - 5.0 * f[..., 2] + f[..., 3]
    c[..., -1] = 9.0 * f[..., -1] + 19.0 * f[..., -2] - 5.0 * f[..., -3] + f[..., -4]
    return c


def _difference_stencils(f, h):
    """Fourth-order finite differences on a uniform grid (>= 5 nodes) with
    spacing h broadcast against the second-to-last axis."""
    n = f.shape[-1]
    d = np.empty(f.shape)
    d[..., 2:-2] = (f[..., :-4] - 8.0 * f[..., 1:-3] + 8.0 * f[..., 3:-1]
                    - f[..., 4:]) / (12.0 * h[:, None])
    if n == 5:
        d[..., 0] = (-25.0 * f[..., 0] + 48.0 * f[..., 1] - 36.0 * f[..., 2]
                     + 16.0 * f[..., 3] - 3.0 * f[..., 4]) / (12.0 * h)
        d[..., 1] = (-3.0 * f[..., 0] - 10.0 * f[..., 1] + 18.0 * f[..., 2]
                     - 6.0 * f[..., 3] + f[..., 4]) / (12.0 * h)
        d[..., 3] = (3.0 * f[..., 4] + 10.0 * f[..., 3] - 18.0 * f[..., 2]
                     + 6.0 * f[..., 1] - f[..., 0]) / (12.0 * h)
        d[..., 4] = (25.0 * f[..., 4] - 48.0 * f[..., 3] + 36.0 * f[..., 2]
                     - 16.0 * f[..., 1] + 3.0 * f[..., 0]) / (12.0 * h)
        return d
    # sixth-node one-sided stencils keep the boundary error below the
    # interior error instead of dominating it
    d[..., 0] = (f[..., :6] @ _EDGE0_W) / h
    d[..., 1] = (f[..., :6] @ _EDGE1_W) / h
    d[..., -2] = -(f[..., :-7:-1] @ _EDGE1_W) / h
    d[..., -1] = -(f[..., :-7:-1] @ _EDGE0_W) / h
    return d
