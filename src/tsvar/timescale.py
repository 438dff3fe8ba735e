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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstructionError, DomainError

#: absolute tolerance for matching a float against a grid point
POINT_TOL = 1e-12

#: default quadrature nodes per continuous interval (forced odd, >= 5)
DEFAULT_QUAD_NODES = 129


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
        # an atom-only scale checks its gaps once they are built, below
        if len(iv) and np.any(np.diff(atoms) <= POINT_TOL):
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
        # the others must not lie inside the last interval starting at or
        # below them.  The nodes of touching intervals share one node: the
        # later one drops its first.  The atoms left are merged into the
        # nodes, which are in order.
        if not len(iv):
            # the gaps are the graininess but at b: one subtraction builds
            # both
            pts = atoms.copy()
            mu = np.empty_like(pts)
            gaps = mu[:-1]
            np.subtract(pts[1:], pts[:-1], out=gaps)
            mu[-1] = 0.0
            if (gaps <= POINT_TOL).any():
                raise ConstructionError("atoms must be strictly increasing")
        else:
            if atoms.size:
                atoms = _outside_intervals(atoms, iv)
            pts = np.linspace(lo, hi, nodes, axis=1).ravel()
            shared = np.flatnonzero(np.abs(lo[1:] - hi[:-1]) <= POINT_TOL) + 1
            if shared.size:
                pts = np.delete(pts, shared * nodes)
            if atoms.size:
                pts = np.insert(pts, np.searchsorted(pts, atoms), atoms)
            gaps = np.diff(pts)
            if (gaps <= 0).any():
                # also an interval shorter than POINT_TOL that overlaps the
                # one before: its nodes would interleave that interval's
                raise ConstructionError(
                    "evaluation points are not strictly increasing")
            mu = np.append(gaps, 0.0)
        pts.flags.writeable = False  # kappa_points hands out views of it
        self.points = pts
        self.intervals = tuple(map(tuple, iv.tolist()))

        # (start, stop) grid-index pair of every interval's nodes
        stop = np.searchsorted(pts, hi) + 1
        start = stop - nodes
        self._spans = np.stack([start, stop], axis=1)
        # graininess is zero on every interval gap and at the max point
        # (sigma(b) = b by convention).  The grid's gaps are shared with
        # the lattice DP; an atom-only scale's are a view of mu
        self._mu, self._gaps = mu, gaps
        if len(iv):
            np.copyto(mu[:-1], 0.0, where=_runs(start, stop - 1, len(gaps)))
            self._build_interval_tables(start, stop, nodes)
        mu.flags.writeable = gaps.flags.writeable = False

    def _build_interval_tables(self, start, stop, nodes):
        """The tables the interval kernels read on every call.

        Each kernel runs its interior stencil once over one slice of the
        grid, from the first interval's interior to the last's, divides or
        scales by the spacing of the interval at each position, and keeps
        the positions its mask sets.  Positions between intervals are
        computed and dropped.  The <= 4 edge positions of each interval
        come from a gathered window of its first and last nodes.
        """
        pts = self.points
        h = (pts[stop - 1] - pts[start]) / (nodes - 1)
        self._h = h
        self._h24 = h / 24.0
        # interior gaps [start + 1, stop - 2) and nodes [start + 2, stop - 2)
        lo, hi = start[0] + 1, stop[-1] - 2
        self._gap_range = lo, hi
        self._gap_h24 = _by_interval(self._h24, start - lo, hi - lo)
        self._inner_gaps = _runs(start + 1 - lo, stop - 2 - lo, hi - lo)
        lo += 1
        self._node_range = lo, hi
        self._node_h12 = _by_interval(12.0 * h, start - lo, hi - lo)
        self._inner_nodes = _runs(start + 2 - lo, stop - 2 - lo, hi - lo)
        # the window: all five nodes, or the first six and the last six
        head = np.arange(min(nodes, 6))
        self._window = start[:, None] + (
            head if nodes == 5 else np.concatenate([head, head + nodes - 6]))
        self._last_gaps = stop - 2
        # edge nodes 0, 1, m - 1 and m; a node two touching intervals share
        # takes the earlier interval's stencil, and m is right-dense only
        # there and at b
        own = np.ones((len(start), 4), dtype=bool)
        own[1:, 0] = start[1:] != stop[:-1] - 1
        own[:, 3] = self._mu[stop - 1] == 0.0
        self._edge_own = own
        self._edge_at = (start[:, None] + [0, 1, nodes - 2, nodes - 1])[own]

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
        """Index of t in the evaluation grid, matched to absolute tolerance;
        DomainError off the grid, and for a non-finite t (infinite tolerance)."""
        if math.isfinite(t):
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

    @cached_property
    def atoms(self):
        """The isolated points, as a tuple of floats: every grid point that
        is not an interval node.  Built on first access."""
        n = len(self.points)
        start, stop = self._spans.T
        # touching intervals share a node, which ends the earlier one's run
        stop = np.minimum(stop, np.append(start[1:], n))
        return tuple(self.points[~_runs(start, stop, n)].tolist())

    def kappa_indices(self):
        """Indices of [a, b]^kappa: all points, minus b when b is left-scattered."""
        return np.arange(len(self.kappa_points()))

    def kappa_points(self):
        """The points of [a, b]^kappa, as a view of ``points``."""
        return self.points[:len(self.points) - self.b_left_scattered]

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

    def _amounts(self, vals):
        """Integral over each grid gap [t_i, t_{i+1}], along the last axis.

        Right-scattered gaps give mu * f; continuous gaps use the
        fourth-order stencils of their whole interval: interior gaps
        integrate the cubic through the four surrounding nodes, the first
        and last gap the one-sided cubic.  Exact for cubics.
        """
        if not self.intervals:
            return self._mu[:-1] * vals[..., :-1]
        lo, hi = self._gap_range
        # positions between intervals overflow freely; they are dropped.
        # c's temporaries are freed before out is allocated
        with np.errstate(all="ignore"):
            c = 13.0 * vals[..., lo:hi]
            c -= vals[..., lo - 1:hi - 1]
            c += 13.0 * vals[..., lo + 1:hi + 1]
            c -= vals[..., lo + 2:hi + 2]
            c *= self._gap_h24
        out = self._mu[:-1] * vals[..., :-1]
        np.copyto(out[..., lo:hi], c, where=self._inner_gaps)
        del c
        f = vals[..., self._window]
        out[..., self._spans[:, 0]] = self._h24 * (
            9.0 * f[..., 0] + 19.0 * f[..., 1] - 5.0 * f[..., 2] + f[..., 3])
        out[..., self._last_gaps] = self._h24 * (
            9.0 * f[..., -1] + 19.0 * f[..., -2] - 5.0 * f[..., -3] + f[..., -4])
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
        ilo = 0 if lo is None else self.index_of(lo)
        ihi = len(self.points) - 1 if hi is None else self.index_of(hi)
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
        np.subtract(vals[..., 1:], vals[..., :-1], out=out[..., :-1])
        out[..., :-1] /= self._gaps
        out[..., -1] = np.nan
        if self.intervals:
            lo, hi = self._node_range
            # positions between intervals overflow freely; they are dropped
            with np.errstate(all="ignore"):
                d = 8.0 * vals[..., lo - 1:hi - 1]
                np.subtract(vals[..., lo - 2:hi - 2], d, out=d)
                d += 8.0 * vals[..., lo + 1:hi + 1]
                d -= vals[..., lo + 2:hi + 2]
                d /= self._node_h12
            np.copyto(out[..., lo:hi], d, where=self._inner_nodes)
            del d
            edges = _edge_differences(vals[..., self._window], self._h)
            out[..., self._edge_at] = edges[..., self._edge_own]
        return out


# -- grid functions -------------------------------------------------------


@dataclass(frozen=True)
class GridFunction:
    """Real values sampled at every evaluation point of a time scale."""

    timescale: TimeScale
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        ts = self.timescale
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise DomainError(f"grid values must be 1-D, got shape {vals.shape}")
        vals = pad_kappa(vals, ts)
        if len(vals) != len(ts.points):
            lengths = sorted({len(ts.points), len(ts.kappa_points())})
            raise DomainError(f"expected {' or '.join(map(str, lengths))} "
                              f"values, got {len(self.values)}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, ts, fn):
        return cls(ts, np.asarray(fn(ts.points), dtype=float))

    def __call__(self, t):
        return float(self.values[self.timescale.index_of(t)])


def pad_kappa(vals, ts):
    """vals as floats; values on [a, b]^kappa without b (b left-scattered)
    are padded by repeating the last at b, which no integral reads."""
    vals = np.asarray(vals, dtype=float)
    short = len(vals) == len(ts.kappa_points()) < len(ts.points)
    return np.append(vals, vals[-1:]) if short else vals


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


def uniform(a, b, n):
    """n+1 equally spaced atoms on [a, b]."""
    if not a < b:
        raise ConstructionError("uniform requires a < b")
    n = _integer(n, "uniform", "n")
    if n < 1:
        raise ConstructionError("uniform requires n >= 1")
    return TimeScale(atoms=np.linspace(a, b, n + 1))


def q_scale(q, n, m):
    """Atoms {q**n, ..., q**m} of the quantum scale, q > 1.

    Each atom is the double nearest q**k, ties to even, on every platform,
    while both ends lie in [2**-960, 2**960] (see :func:`_power_ladder`);
    outside that range it is ``float(q) ** k``, as libm's pow rounds it.
    """
    if q <= 1:
        raise ConstructionError("q_scale requires q > 1")
    n, m = _integer(n, "q_scale", "n"), _integer(m, "q_scale", "m")
    if not n < m:
        raise ConstructionError("q_scale requires n < m")
    try:
        x = float(q)
        if _LADDER_MIN <= x ** n and x ** m <= _LADDER_MAX:
            atoms = _power_ladder(x, n, m - n + 1)
        else:
            atoms = [x ** k for k in range(n, m + 1)]
    except OverflowError:
        raise ConstructionError(f"q_scale atom {q}**{m} overflows a float") from None
    return TimeScale(atoms=atoms)


def real_interval(a, b, nodes=None):
    """Single closed interval [a, b] with the given quadrature resolution."""
    if not a < b:
        raise ConstructionError("real_interval requires a < b")
    return TimeScale(intervals=[(a, b)], quad_nodes_per_interval=nodes)


def custom(atoms=(), intervals=(), quad_nodes_per_interval=None):
    return TimeScale(atoms=atoms, intervals=intervals,
                     quad_nodes_per_interval=quad_nodes_per_interval)


# -- construction helpers and edge stencils ---------------------------------


def _integer(value, kind, name):
    """value as an int; ConstructionError for a value int() would truncate
    (2.5) or cannot take (NaN, inf)."""
    try:
        k = int(value)
    except (ValueError, OverflowError):
        k = None
    if k is None or k != value:
        raise ConstructionError(f"{kind} requires an integer {name}, got {value!r}")
    return k


#: the ends between which q_scale builds its atoms by the ladder: there the
#: Veltkamp split of a factor stays finite and the low words stay normal
_LADDER_MIN, _LADDER_MAX = 2.0 ** -960, 2.0 ** 960
#: a bound on the relative error one double-double product or reciprocal
#: adds: 64 u**2, u = 2**-53, where Joldes, Muller and Popescu (ACM TOMS
#: 44, 2017) prove 7 u**2 for the product
_DD_ERROR = 2.0 ** -100
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
#: q**s is squared into the ladder's next step only up to this, so that
#: the step stays below 2**960
_SQUARE_MAX = 2.0 ** 480
#: the powers the ladder builds as Python floats before its numpy steps
_CHAIN = 32


def _power_ladder(q, n, count):
    """The doubles nearest q**n, ..., q**(n + count - 1), ties to even, as
    an array; q > 1 and both ends in [2**-960, 2**960].

    Each power is a double-double pair hi + lo, normalised so that hi is
    the double nearest the pair: q**n by binary powering (and a reciprocal
    for n < 0), the next powers by products with q, then the ladder
    H[f:f + t] = H[f - s:f - s + t] q**s, the step s doubling while
    q**(2 s) <= 2**960.  A product of pairs is Dekker's exact product of
    the high words plus the cross terms; the ladder's products run on
    three buffers of count / 2 values.  They need only IEEE +, - and x, so
    the bits are the same on every platform.  A pair is within
    (|n| + count + 1) * _DD_ERROR of the exact power, relative, so its hi
    is the nearest double unless a rounding midpoint lies that close; such
    an atom, an exact tie among them, is rounded by :func:`_nearest_power`.
    """
    x = (q, 0.0)
    first = _power(x, abs(n), _dd_mul, (1.0, 0.0))
    # steps this short cost less as Python floats than as numpy calls:
    # the first _CHAIN powers are a chain of products by q
    powers = [_dd_reciprocal(first) if n < 0 else first]
    for _ in range(min(count, _CHAIN) - 1):
        powers.append(_dd_mul(powers[-1], x))
    f = len(powers)
    hi, lo = np.empty(count), np.empty(count)
    hi[:f], lo[:f] = zip(*powers)
    size = (count + 1) // 2
    buf = np.empty((3, size))
    s, step = 1, x
    while f < count:
        while 2 * s <= f and step[0] <= _SQUARE_MAX:
            step = _dd_mul(step, step)
            s *= 2
        ph, pl = step
        t = min(s, count - f)
        a, al = hi[f - s:f - s + t], lo[f - s:f - s + t]
        h, p = hi[f:f + t], lo[f:f + t]
        a1, a2, e = buf[:, :t]
        c = ph * _SPLIT
        p1 = c - (c - ph)
        p2 = ph - p1
        # a ph = p + e exactly, from a = a1 + a2 in 26-bit halves
        np.multiply(a, ph, out=p)
        np.multiply(a, _SPLIT, out=a2)
        np.subtract(a2, a, out=a1)
        np.subtract(a2, a1, out=a1)
        np.subtract(a, a1, out=a2)
        np.multiply(a1, p1, out=e)
        e -= p
        a1 *= p2
        e += a1
        np.multiply(a2, p1, out=a1)
        e += a1
        a2 *= p2
        e += a2
        # the cross terms a pl + al ph, then hi + lo = p + e
        np.multiply(a, pl, out=a1)
        np.multiply(al, ph, out=a2)
        a1 += a2
        e += a1
        np.add(p, e, out=h)
        np.subtract(h, p, out=a1)
        np.subtract(e, a1, out=p)
        f += t
    # hi is the nearest double unless hi + lo +- 2 eps hi round apart; the
    # factor 2 covers the rounding of 2 eps hi and of the sums
    bound = 2.0 * (abs(n) + count + 1) * _DD_ERROR
    near = []
    for i in (0, size):
        h, l = hi[i:i + size], lo[i:i + size]
        up, down, _ = buf[:, :len(h)]
        np.multiply(h, bound, out=down)
        np.add(l, down, out=up)
        up += h
        np.subtract(l, down, out=down)
        down += h
        near.extend((np.flatnonzero(up != down) + i).tolist())
    for i in near:
        hi[i] = _nearest_power(q, n + i)
    return hi


def _two_product(a, b):
    """(p, e): p = a b rounded and a b = p + e exactly (Dekker)."""
    p = a * b
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    c = b * _SPLIT
    b1 = c - (c - b)
    b2 = b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _dd_mul(a, b):
    """The product of pairs a = ah + al and b = bh + bl, normalised."""
    (ah, al), (bh, bl) = a, b
    p, e = _two_product(ah, bh)
    e += ah * bl + al * bh
    h = p + e
    return h, e - (h - p)


def _dd_reciprocal(x):
    """1 / (h + l) for the pair x = h + l, normalised: r = 1 / h,
    corrected by the residual 1 - (h + l) r, whose h r part is exact."""
    h, l = x
    r = 1.0 / h
    p, e = _two_product(h, r)
    c = r * (((1.0 - p) - e) - l * r)
    s = r + c
    return s, c - (s - r)


def _nearest_power(q, k):
    """The double nearest q**k, ties to even, by integer arithmetic; q**k
    must lie in the normal range.

    q = M 2**z with M odd, so q**k = M**k 2**(z k), or 2**(z k) / M**|k|
    for k < 0.  M**|k| is bracketed by binary powering with every product
    truncated down, and again up, to p bits, p = 128 + the bits of |k|,
    doubled until both ends of the bracket round to one double.  While
    M**|k| fits in p bits the bracket is exact, so an exact tie such as
    1.5**34 = 3**34 / 2**34 (3**34 takes 54 bits) ends the loop too; a
    reciprocal of M**|k| > 1 is never a tie.
    """
    num, den = q.as_integer_ratio()
    zeros = (num & -num).bit_length() - 1
    odd, shift = num >> zeros, (zeros - den.bit_length() + 1) * k
    j = abs(k)
    bits = 128 + j.bit_length()
    while True:
        low, high = (_nearest_double(*_truncated_power(odd, j, bits, up),
                                     k < 0, shift) for up in (False, True))
        if low == high:
            return low
        bits *= 2


def _truncated_power(odd, j, bits, up):
    """(A, E) with A 2**E = odd**j rounded down (or up) through every
    product of binary powering, A of at most bits + 1 bits."""
    def mul(x, y):
        a = x[0] * y[0]
        cut = max(a.bit_length() - bits, 0)
        return (-(-a >> cut) if up else a >> cut), x[1] + y[1] + cut

    return _power((odd, 0), j, mul, (1, 0))


def _power(base, k, mul, one):
    """base**k, k >= 0, by binary powering with the product mul."""
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def _nearest_double(a, e, reciprocal, shift):
    """The double nearest a 2**e, or its reciprocal, times 2**shift, for a
    normal result: CPython rounds int / int correctly, ties to even, and
    the quotient here lies in [1/2, 2]."""
    c = a.bit_length()
    if reciprocal:
        return math.ldexp((1 << c) / a, shift - c - e)
    return math.ldexp(a / (1 << c), shift + c + e)


def _outside_intervals(atoms, iv):
    """The atoms not absorbed into an end of the sorted intervals iv;
    ConstructionError at the first atom strictly inside an interval, the
    last one starting at or below it.  An atom within POINT_TOL of an end
    is absorbed; atoms lie more than POINT_TOL apart, so only the two
    around each end can be."""
    ends = iv.ravel()
    p = np.searchsorted(atoms, ends)
    below = np.maximum(p - 1, 0)
    above = np.minimum(p, len(atoms) - 1)
    absorbed = np.unique(np.concatenate([
        below[(p > 0) & (ends - atoms[below] <= POINT_TOL)],
        above[(p < len(atoms)) & (atoms[above] - ends <= POINT_TOL)]]))
    lo, hi = iv[:, 0], iv[:, 1]
    first = np.searchsorted(atoms, lo)
    past = np.searchsorted(atoms, np.minimum(hi, np.append(lo[1:], np.inf)))
    inside = (past - first) - (np.searchsorted(absorbed, past)
                               - np.searchsorted(absorbed, first))
    if inside.any():
        j = np.flatnonzero(inside)[0]
        i = next(i for i in range(first[j], past[j]) if i not in absorbed)
        raise ConstructionError(f"atom {atoms[i]} lies strictly inside "
                                f"interval [{lo[j]}, {hi[j]}]")
    return np.delete(atoms, absorbed) if absorbed.size else atoms


def _runs(begin, end, size):
    """Boolean mask of the given size, set on each [begin_i, end_i) of
    ordered, disjoint runs."""
    edges = np.empty(2 * len(begin) + 2, dtype=np.intp)
    edges[0], edges[1:-1:2], edges[2:-1:2], edges[-1] = 0, begin, end, size
    return np.repeat(np.arange(len(edges) - 1) % 2 == 1, edges[1:] - edges[:-1])


def _by_interval(values, start, size):
    """values[i] at every position from start[i] (clipped at 0) up to
    start[i + 1], as an array of the given size: a position inside an
    interval reads that interval's value.  The one value, as a scalar, when
    all intervals share it."""
    if (values == values[0]).all():
        return values[0]
    edges = np.append(np.maximum(start, 0), size)
    return np.repeat(values, edges[1:] - edges[:-1])


def _edge_differences(f, h):
    """Fourth-order derivatives at nodes 0, 1, m - 1 and m of intervals
    with spacing h, shape (..., k, 4), from their windows f: all five
    nodes of a 5-node interval, else the first six and the last six."""
    if f.shape[-1] == 5:
        return np.stack([
            (-25.0 * f[..., 0] + 48.0 * f[..., 1] - 36.0 * f[..., 2]
             + 16.0 * f[..., 3] - 3.0 * f[..., 4]) / (12.0 * h),
            (-3.0 * f[..., 0] - 10.0 * f[..., 1] + 18.0 * f[..., 2]
             - 6.0 * f[..., 3] + f[..., 4]) / (12.0 * h),
            (3.0 * f[..., 4] + 10.0 * f[..., 3] - 18.0 * f[..., 2]
             + 6.0 * f[..., 1] - f[..., 0]) / (12.0 * h),
            (25.0 * f[..., 4] - 48.0 * f[..., 3] + 36.0 * f[..., 2]
             - 16.0 * f[..., 1] + 3.0 * f[..., 0]) / (12.0 * h)], axis=-1)
    # sixth-node one-sided stencils keep the boundary error below the
    # interior error instead of dominating it
    head, tail = f[..., :6], f[..., :5:-1]
    return np.stack([(head @ _EDGE0_W) / h, (head @ _EDGE1_W) / h,
                     -(tail @ _EDGE1_W) / h, -(tail @ _EDGE0_W) / h], axis=-1)


_EDGE0_W = np.array([-137.0 / 60.0, 5.0, -5.0, 10.0 / 3.0, -5.0 / 4.0, 1.0 / 5.0])
_EDGE1_W = np.array([-1.0 / 5.0, -13.0 / 12.0, 2.0, -1.0, 1.0 / 3.0, -1.0 / 20.0])


# -- the chain rule --------------------------------------------------------

#: a step |y(sigma(t)) - y(t)| = |mu y^Delta| below this is not a jump
JUMP_TOL = 1e-12


def chain_delta(gprime, y, d, mu, rise):
    """(G o y)^Delta, G' = gprime, where y has delta derivative d and
    graininess mu (Bohner and Peterson 2001, Sec. 1.6): rise() / mu where y
    jumps, |mu d| >= JUMP_TOL, with rise() a new array of G(y(sigma)) -
    G(y) called only then, and gprime(y) d elsewhere."""
    jump = np.abs(mu * d) >= JUMP_TOL
    if not jump.any():
        return gprime(y) * d
    out = np.asarray(rise(), dtype=float)
    np.divide(out, mu, out=out, where=jump)
    if not jump.all():
        np.copyto(out, gprime(y) * d, where=~jump)
    return out

