"""Time scales as finite unions of isolated points and closed intervals.

A time scale carries a finite evaluation grid: the isolated points (atoms)
plus equally spaced quadrature nodes on each continuous interval.  The delta
calculus reduces to graininess-weighted sums at right-scattered points and
to quadrature / finite differences on the continuous parts.

Every integral is built from one set of per-gap amounts: mu(t) f(t) on each
right-scattered gap, and a fourth-order piecewise scheme (cubic-interpolant
Newton--Cotes per subinterval, always on the whole interval's stencils) on
each continuous gap.  A delta integral is the sum of a slice of these
amounts and the cumulative integral is their running sum, so both agree and
are additive at every grid point.  The kernels work along the last axis, so
a stack of grid functions is handled in one call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DomainError

#: absolute tolerance for matching a float against a grid point
POINT_TOL = 1e-12

#: default quadrature nodes per continuous interval (forced odd, >= 5)
DEFAULT_QUAD_NODES = 129

_QUAD_NODES_ENV = "TSVAR_QUAD_NODES"


def default_quad_nodes():
    raw = os.environ.get(_QUAD_NODES_ENV)
    if raw is None:
        return DEFAULT_QUAD_NODES
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConstructionError(f"bad {_QUAD_NODES_ENV}={raw!r}") from exc
    if n < 2:
        raise ConstructionError(f"{_QUAD_NODES_ENV} must be >= 2")
    return n


def _force_odd(n):
    n = max(int(n), 5)
    return n if n % 2 == 1 else n + 1


class TimeScale:
    """Immutable time scale with precomputed jump structure.

    Use the constructors :func:`uniform`, :func:`q_scale`,
    :func:`real_interval`, or :func:`custom` rather than ``__init__``.
    """

    def __init__(self, atoms=(), intervals=(), quad_nodes_per_interval=None):
        if quad_nodes_per_interval is None:
            quad_nodes_per_interval = default_quad_nodes()
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
        self.points = pts
        self.atoms = tuple(kept.tolist())
        self.intervals = tuple(map(tuple, iv.tolist()))

        # (start, stop) grid-index pair of every interval's nodes
        stop = np.searchsorted(pts, hi) + 1
        self._spans = np.stack([stop - nodes, stop], axis=1)
        # graininess: zero on every interval gap and at the max point
        # (sigma(b) = b by convention)
        mu = np.append(np.diff(pts), 0.0)
        mu[(self._spans[:, :1] + np.arange(nodes - 1)).ravel()] = 0.0
        self._mu = mu

    # -- basic queries ----------------------------------------------------

    @property
    def a(self):
        return float(self.points[0])

    @property
    def b(self):
        return float(self.points[-1])

    @property
    def is_discrete(self):
        return not self.intervals

    @property
    def b_left_scattered(self):
        return self._left_scattered(len(self.points) - 1)

    def _left_scattered(self, i):
        return bool(i > 0 and self._mu[i - 1] > 0.0)

    def index_of(self, t):
        """Index of t in the evaluation grid, matched to absolute tolerance."""
        i = int(np.searchsorted(self.points, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.points) and abs(self.points[j] - t) <= max(
                POINT_TOL, POINT_TOL * abs(t)
            ):
                return j
        raise DomainError(f"point {t} is not in the time scale")

    def __contains__(self, t):
        try:
            self.index_of(t)
            return True
        except DomainError:
            return False

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return (f"TimeScale(atoms={list(self.atoms)}, "
                f"intervals={list(self.intervals)})")

    def kappa_indices(self):
        """Indices of [a, b]^kappa: all points, minus b when b is left-scattered."""
        n = len(self.points)
        if self.b_left_scattered:
            return np.arange(n - 1)
        return np.arange(n)

    def kappa_points(self):
        return self.points[self.kappa_indices()]

    # -- jump operators ---------------------------------------------------

    def sigma(self, t):
        i = self.index_of(t)
        return float(self.points[i + 1 if self._mu[i] > 0.0 else i])

    def rho(self, t):
        i = self.index_of(t)
        return float(self.points[i - 1 if self._left_scattered(i) else i])

    def mu(self, t):
        return float(self._mu[self.index_of(t)])

    def jump_operators(self, t):
        """(sigma, rho, mu) at an evaluation point of the scale."""
        return self.sigma(t), self.rho(t), self.mu(t)

    # -- integration ------------------------------------------------------

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

    def delta_integral(self, f, lo=None, hi=None):
        """Delta integral of a grid function from lo to hi.

        Right-scattered points contribute mu(t) * f(t); interval segments are
        integrated by the fourth-order piecewise quadrature.  A sub-range
        whose lo or hi lies strictly inside an interval still uses the
        stencils of the whole interval, so it equals ``cum[hi] - cum[lo]``
        of :meth:`cumulative_delta_integral` and integrals are additive at
        every grid point up to rounding.  ``f`` may also be an array of
        shape (..., n); the integral is then taken along the last axis and
        returned as an array.
        """
        vals = _grid_values(self, f)
        ilo = self.index_of(self.a if lo is None else lo)
        ihi = self.index_of(self.b if hi is None else hi)
        if ilo > ihi:
            raise DomainError("delta_integral requires lo <= hi")
        total = self._amounts(vals)[..., ilo:ihi].sum(axis=-1)
        return float(total) if total.ndim == 0 else total

    def cumulative_delta_integral(self, f):
        """Integral from a to every evaluation point, as an array.

        The running sum of the same amounts ``delta_integral`` sums, so the
        cumulative values are smooth samples of the true running integral.
        """
        vals = _grid_values(self, f)
        out = np.zeros_like(vals)
        np.cumsum(self._amounts(vals), axis=-1, out=out[..., 1:])
        return out

    # -- differentiation --------------------------------------------------

    def delta_derivative(self, y, t):
        """Delta derivative of a grid function at one kappa-point."""
        return float(self.delta_derivative_grid(y)[self._kappa_check(t)])

    def _kappa_check(self, t):
        i = self.index_of(t)
        if i == len(self.points) - 1 and self.b_left_scattered:
            raise DomainError(f"{t} is outside [a, b]^kappa")
        return i

    def delta_derivative_grid(self, y):
        """Delta derivative at every evaluation point; NaN at b when excluded.

        Right-scattered points use the exact difference quotient; right-dense
        points use fourth-order finite differences on the interval's nodes
        (the earlier interval's at a node two touching intervals share).
        Works along the last axis of an array of shape (..., n).
        """
        vals = _grid_values(self, y)
        out = np.empty_like(vals)
        out[..., :-1] = np.diff(vals, axis=-1) / np.diff(self.points)
        out[..., -1] = np.nan
        if self.intervals:
            idx, f, h = self._intervals_on_grid(vals)
            own = self._mu[idx] == 0.0
            own[1:, 0] &= idx[1:, 0] != idx[:-1, -1]
            out[..., idx[own]] = _difference_stencils(f, h)[..., own]
        return out


# -- grid functions -------------------------------------------------------


@dataclass(frozen=True)
class GridFunction:
    """Real values sampled at every evaluation point of a time scale."""

    timescale: TimeScale
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        n = len(self.timescale.points)
        if len(vals) == n - 1:
            # kappa-length data: pad the (never integrated) max point
            vals = np.append(vals, vals[-1])
        if len(vals) != n:
            raise DomainError(
                f"expected {n} (or {n - 1}) values, got {len(self.values)}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, ts, fn):
        return cls(ts, np.asarray(fn(ts.points), dtype=float))

    def __call__(self, t):
        return float(self.values[self.timescale.index_of(t)])

    @property
    def spread(self):
        return float(np.max(self.values) - np.min(self.values))


def _grid_values(ts, f):
    if isinstance(f, GridFunction):
        if f.timescale is not ts and not np.array_equal(f.timescale.points, ts.points):
            raise DomainError("grid function lives on a different time scale")
        return f.values
    vals = np.asarray(f, dtype=float)
    if vals.shape[-1:] != (len(ts.points),):
        raise DomainError("value array length does not match the time scale")
    return vals


# -- constructors ---------------------------------------------------------


def uniform(a, b, n, **kw):
    """n+1 equally spaced atoms on [a, b]."""
    if not a < b:
        raise ConstructionError("uniform requires a < b")
    if n < 1:
        raise ConstructionError("uniform requires n >= 1")
    return TimeScale(atoms=np.linspace(a, b, int(n) + 1), **kw)


def q_scale(q, n, m, **kw):
    """Atoms {q**n, ..., q**m} of the quantum scale, q > 1."""
    if q <= 1:
        raise ConstructionError("q_scale requires q > 1")
    if not n < m:
        raise ConstructionError("q_scale requires n < m")
    return TimeScale(atoms=[float(q) ** k for k in range(int(n), int(m) + 1)], **kw)


def real_interval(a, b, nodes=None):
    """Single closed interval [a, b] with the given quadrature resolution."""
    if not a < b:
        raise ConstructionError("real_interval requires a < b")
    if nodes is None:
        nodes = default_quad_nodes()
    return TimeScale(intervals=[(a, b)], quad_nodes_per_interval=nodes)


def custom(atoms=(), intervals=(), quad_nodes_per_interval=None):
    return TimeScale(atoms=atoms, intervals=intervals,
                     quad_nodes_per_interval=quad_nodes_per_interval)


# -- uniform-grid stencils, along the last axis of node values -------------


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


_EDGE0_W = np.array([-137.0 / 60.0, 5.0, -5.0, 10.0 / 3.0, -5.0 / 4.0, 1.0 / 5.0])
_EDGE1_W = np.array([-1.0 / 5.0, -13.0 / 12.0, 2.0, -1.0, 1.0 / 3.0, -1.0 / 20.0])


# -- averaged chain-rule factor -------------------------------------------


def averaged_chain_factor(gprime, y_t, mu_t, ydelta_t):
    """Average of gprime over the segment [y, y + mu * ydelta].

    Equals (A(y + s) - A(y)) / s with A an antiderivative of gprime and
    s = mu * ydelta; collapses to gprime(y) when s vanishes.  Multiplied by
    the delta derivative it reproduces the chain rule for (A o y)^Delta.
    Works elementwise on broadcast arrays; scalar inputs give a float.
    """
    y, s = np.broadcast_arrays(np.asarray(y_t, dtype=float),
                               np.asarray(mu_t, dtype=float) * ydelta_t)
    jump = np.abs(s) >= 1e-12
    z = np.where(jump, y + s, y)          # far end of each averaging segment
    gprime.check_domain(y)
    gprime.check_domain(z)
    out = np.array(gprime(y), dtype=float)
    np.divide(gprime.antideriv(z) - gprime.antideriv(y), s, out=out, where=jump)
    return float(out) if out.ndim == 0 else out
