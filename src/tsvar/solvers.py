"""Closed-form global solver for the three variational problem classes.

One solver turns a boundary-value variational problem on a time scale into
its closed-form optimal trajectory plus the optimal value, both from the
equality case of Jensen's inequality, with what differs between the kinds
read from one table, KINDS.  A generic functional evaluator handles
arbitrary admissible candidate trajectories.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    AdmissibilityError,
    DegenerateProblemError,
    DomainError,
    FeasibilityError,
    ParameterError,
    PreconditionError,
)
from .functions import (CONVEXITY_SAMPLES, Exp, Power, ScalarFunction, XLogX,
                        classify_samples)
from .roots import invert_increasing
from .timescale import (JUMP_TOL, GridFunction, TimeScale, _grid_values,
                        chain_delta)

#: |y(b) - B| tolerance for boundary admissibility
BOUNDARY_TOL = 1e-9

#: |y(a)| tolerance for the initial condition y(a) = 0
POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class VariationalProblem:
    """Problem kind, time scale, boundary value y(b) = B, weight phi, exponent."""

    kind: str
    ts: TimeScale
    B: float
    phi: ScalarFunction
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown problem kind {self.kind!r}")
        if KINDS[self.kind].needs_alpha and self.alpha is None:
            raise ParameterError(f"{self.kind} problem needs an exponent")
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ParameterError(f"exponent {self.alpha} is not finite")
        if not math.isfinite(self.B):
            raise ParameterError(f"boundary value B = {self.B} is not finite")
        if len(self.ts) < 2:
            raise PreconditionError("the time scale has one point, so a = b")

    @cached_property
    def phi_on_kappa(self):
        """phi on [a, b]^kappa, read-only, evaluated on first access and kept
        out of the fields, so equality and hashing ignore it."""
        with np.errstate(all="ignore"):
            vals = np.array(self.phi(self.ts.kappa_points()), dtype=float)
        vals.flags.writeable = False
        return vals


@dataclass(frozen=True)
class Solution:
    """Optimal trajectory with its functional value and problem constant."""

    trajectory: GridFunction
    optimal_value: float
    extremum: str             # "min" | "max"
    C: float


def weight_antiderivative(phi):
    """G(x) = integral of phi from 0 to x, via the exact antiderivative."""
    # a weight undefined at 0 (log, x ln x) makes G NaN without a warning;
    # the solver's positivity probe of phi on [0, B] rejects it
    with np.errstate(all="ignore"):
        base = float(phi.antideriv(0.0))

    def G(x):
        return phi.antideriv(x) - base

    return G


def _misses_b(p, yb):
    """Where the values yb at b miss B by more than BOUNDARY_TOL: the walk's
    boundary rule, which every solver also applies to its own trajectory."""
    return np.abs(yb - p.B) > BOUNDARY_TOL


def _trajectory(p, yvals, increasing=False):
    """The closed form's values yvals as a GridFunction that meets the
    walk's boundary rule at b (and increase rule, if ``increasing``).  A
    miss past BOUNDARY_TOL but within BOUNDARY_TOL * max(1, |B|) is rounding
    at the scale of B, and y(b) is set to B; a larger one is cancellation,
    and raises DomainError.  A miss the rule admits is kept, as it is."""
    traj = GridFunction(p.ts, yvals)
    yb = float(traj.values[-1])
    miss, tol = abs(yb - p.B), BOUNDARY_TOL * max(1.0, abs(p.B))
    if miss > tol:
        raise DomainError(f"the closed form misses y(b) = B = {p.B} by "
                          f"{miss} (y(b) = {yb}), more than {tol}")
    if _misses_b(p, yb):
        traj.values[-1] = p.B
    if increasing:
        bad, fault = _increasing(p, None, p.ts.delta_derivative_grid(traj)[None])
        if bad.any():
            raise fault()
    return traj


def _curvature(F):
    """The sign rule on F''(1), which decides: each row's F'' keeps one sign
    on (0, inf).  Its sign is passed, as alpha (alpha - 1) may overflow."""
    return classify_samples(np.sign(F.deriv2(np.ones(1))), 0.0, 1.0, 1.0)[0]


def solve(p: VariationalProblem) -> Solution:
    """Optimal trajectory and value of any kind, by Jensen's equality case.

    The functional is the integral of F(u), u = (T o y)^Delta + g(phi(t)),
    with F, the shift g and T = G (see weight_antiderivative) or the identity
    from the kind's row.  Jensen's inequality is an equality just when u is
    one constant C on [a, b]^kappa, so C = (T(B) + integral of g(phi)) /
    (b - a), T(y(t)) = C (t - a) - integral_a^t g(phi), and the value is
    (b - a) F(C): the minimum for a convex F, the maximum for a concave one.
    An affine F (x^0 or x^1) makes every y optimal: DegenerateProblemError.
    Under the increase rule a shifted y rises by C - g(phi) > 0, else
    FeasibilityError."""
    kind, ts, B, phi = KINDS[p.kind], p.ts, float(p.B), p.phi
    span = ts.b - ts.a
    F = kind.F(p.alpha)
    curvature, slope = _curvature(F), float(F.deriv(1.0))
    if kind.shift is not None:          # phi is read on the scale
        phik = p.phi_on_kappa
        bad = np.flatnonzero(~(np.isfinite(phik) & (phik > 0.0)))
        if len(bad):
            t_bad = float(ts.points[bad[0]])
            raise DomainError(f"phi must be finite and positive on the scale; "
                              f"phi({t_bad}) = {float(phik[bad[0]])}")
    if kind.substitute and B <= 0.0:    # y rises from 0 to B, where G is read
        raise PreconditionError(f"{p.kind} problem requires B > 0")
    G = weight_antiderivative(phi) if kind.substitute else None
    # an overflow here shows as a non-finite C, trajectory or value, rejected below
    with np.errstate(all="ignore"):
        P, Q = 0.0, float(G(B)) if kind.substitute else B
        if kind.shift is not None:
            P = ts.cumulative_delta_integral(GridFunction(ts, kind.shift(phik)))
            Q += float(P[-1])
        C = Q / span
        yvals = C * (ts.points - ts.a) - P
        value = span * float(F(C))
    if curvature == "affine":           # F = x^1 sums to G(B), x^0 to b - a
        const = Q if slope else span
        raise DegenerateProblemError(
            f"exponent {p.alpha} makes the functional constant at {const}",
            constant_value=const)
    if kind.substitute:                 # phi is read on y's range [0, B]
        xs = np.linspace(0.0, B, CONVEXITY_SAMPLES)
        with np.errstate(all="ignore"):
            if np.any(np.asarray(phi(xs), dtype=float) <= 0.0):
                raise DomainError("phi must be positive on [0, B]")
            phi.check_domain(xs)
    if not math.isfinite(C):
        raise DomainError(f"C = {C} is not finite")
    increasing = _increasing in kind.rules
    if increasing and kind.shift is not None:
        g = kind.shift(phik)
        bad = np.flatnonzero(C - g <= 0.0)
        if len(bad):
            t_bad = float(ts.points[bad[0]])
            raise FeasibilityError(f"infeasible: C = {C} is not greater than "
                                   f"phi({t_bad}) = {float(g[bad[0]])}", point=t_bad)
    if kind.substitute:     # G rises on [0, B], which holds the interior roots;
        A = phi.antideriv   # G = A - A(0) rounds at A's scale, so A is inverted
        yvals[1:-1] = invert_increasing(A, yvals[1:-1] + float(A(0.0)), 0.0, B,
                                        gprime=phi)
        yvals[-1] = B
    yvals[0] = 0.0
    traj = _trajectory(p, yvals, increasing)
    if not math.isfinite(value):
        raise DomainError(f"the optimal value at C = {C} is not finite")
    return Solution(traj, value, "min" if curvature == "convex" else "max", C)


def _increasing(p, Y, d):
    """Rows not strictly increasing on [a, b]^kappa; errs at the first such t."""
    ts, kap = p.ts, slice(len(p.ts.kappa_points()))
    def fault():
        t_bad = float(ts.points[np.flatnonzero(
            (d[:, kap] <= 0.0).any(axis=0))[0]])
        return AdmissibilityError(
            f"delta derivative not strictly positive at t = {t_bad}",
            point=t_bad, condition="y_delta > 0")
    return (d[:, kap] <= 0.0).any(axis=1), fault


def _in_phi_domain(p, Y, d):
    """Rows with a jump end outside phi's domain: at kappa, or b after a jump."""
    ts, kap = p.ts, slice(len(p.ts.kappa_points()))
    to_b = np.abs(ts._mu[kap][-1] * d[:, kap][:, -1]) >= JUMP_TOL
    outside = p.phi.outside_domain
    return (outside(Y[:, kap]).any(axis=1) | (outside(Y[:, -1]) & to_b),
            p.phi.domain_error)


def _shift_positive(p, Y, d):
    """Rows with phi + y^Delta <= 0; errs where it is least over all the rows."""
    ts, kap = p.ts, slice(len(p.ts.kappa_points()))
    # phi + y^Delta is formed once, by the integrand: a float sum is <= 0
    # just when the exact sum is, so when y^Delta <= -phi; -phi = inf is read
    # as the largest float, as inf - inf is NaN (-inf failed the increase rule)
    limit = np.minimum(-p.phi_on_kappa, sys.float_info.max)
    def fault():
        t_bad = float(ts.points[np.argmin(
            (p.phi_on_kappa + d[:, kap]).min(axis=0))])
        return AdmissibilityError(
            f"phi + y_delta must be positive; fails at t = {t_bad}",
            point=t_bad, condition="phi + y_delta > 0")
    return (d[:, kap] <= limit).any(axis=1), fault


def _power_integrand(p, y, d, mu, rise, at):
    return chain_delta(p.phi, y, d, mu, rise) ** p.alpha


def _exp_integrand(p, y, d, mu, rise, at):
    return p.phi_on_kappa[at] * np.exp(d)


def _xlogx_integrand(p, y, d, mu, rise, at):
    s = p.phi_on_kappa[at] + d
    out = np.maximum(s, 1e-300)
    np.log(out, out=out)
    out *= s
    return out


@dataclass(frozen=True)
class _Kind:
    """What makes a problem kind a kind, read wherever kinds differ: its
    functional is the integral of F(u), u = (T o y)^Delta + g(phi(t))."""

    F: Callable               # alpha -> F, a ScalarFunction
    shift: Optional[Callable]  # g, on phi's values on the scale, or None
    substitute: bool          # T = G, phi's antiderivative, else T = id
    integrand: Callable       # as gap_integrand takes it
    # the walk's rules after the boundary values, in order: (p, Y, d) ->
    # (mask of the rows dropped, a function building their error)
    rules: tuple = ()
    needs_alpha: bool = False


KINDS = {
    "power_weighted": _Kind(Power, None, True, _power_integrand,
                            (_increasing, _in_phi_domain), needs_alpha=True),
    "exp_derivative": _Kind(lambda alpha: Exp(), np.log, False, _exp_integrand),
    "xlogx_shifted": _Kind(lambda alpha: XLogX(), lambda phi: phi, False,
                           _xlogx_integrand, (_increasing, _shift_positive)),
}


def gap_integrand(p: VariationalProblem, y, d, mu, rise, at):
    """The integrand on gaps with left-end values y, delta derivatives d and
    graininess mu, elementwise on broadcast arrays: ((G o y)^Delta)^alpha,
    G' = phi, by chain_delta (rise() gives G(y(sigma)) - G(y)) for the
    power-weighted class; phi e^d or (phi + d) ln(phi + d) for the others,
    with phi at the kappa-points ``at`` (an index into phi_on_kappa)."""
    return KINDS[p.kind].integrand(p, y, d, mu, rise, at)


def _admissibility(p: VariationalProblem, y):
    """The conditions of :func:`admissible`, walked over the rows of y (as
    evaluate_functional takes it) in the order listed there, which is the
    order evaluate_functional reports them in.  Each condition sees only
    the rows that passed the ones before, so phi is never evaluated outside
    its domain.  Returns (shape, rows, error, values): y's shape without its
    last axis; the indices of the admissible rows; the error of the first
    condition some row fails, located over the rows that reached it, or
    None; and the admissible rows' values, from their one integrand.  Rows
    that overflow are rejected silently.  No block-sized temporary outlives
    its check, and none is copied unless a row is dropped: the perturbation
    oracle's time follows the heap's peak."""
    ts = p.ts
    yvals = _grid_values(ts, y)
    kap = slice(len(ts.kappa_points()))
    Y = yvals.reshape(-1, yvals.shape[-1])
    rows, error = np.arange(len(Y)), None

    def drop(bad, fault):
        # bad flags the rows to drop; fault() is their error
        nonlocal rows, error, Y, d
        if bad.any():
            error = error or fault()
            rows, Y, d = (a[~bad] for a in (rows, Y, d))

    with np.errstate(all="ignore"):
        d = ts.delta_derivative_grid(yvals).reshape(Y.shape)
        drop(np.abs(Y[:, 0]) > POSITIVITY_TOL,
             lambda: AdmissibilityError("y(a) must be 0", point=ts.a,
                                        condition="y(a) = 0"))
        off = _misses_b(p, Y[:, -1])
        drop(off, lambda: AdmissibilityError(
            f"y(b) = {float(Y[off, -1][0])} differs from B = {p.B}",
            point=ts.b, condition="y(b) = B"))
        for rule in KINDS[p.kind].rules:
            drop(*rule(p, Y, d))
        def rise():  # G's rise over each gap, from one antiderivative per node
            G = p.phi.antideriv(Y)
            G[:, :-1] = np.diff(G, axis=1)
            return G[:, kap]     # b's entry, if b is in kappa, is unread
        # the integrand takes the derivatives' place (no integral reads b's)
        d[:, kap] = gap_integrand(p, Y[:, kap], d[:, kap], ts._mu[kap], rise,
                                  kap)
        drop(~np.isfinite(d[:, kap]).all(axis=1),
             lambda: DomainError("the functional's integrand is not finite"))
        drop(~np.isfinite(Y).all(axis=1),
             lambda: DomainError("grid values must be finite"))
        return yvals.shape[:-1], rows, error, ts.delta_integral(d)


def admissible(p: VariationalProblem, y):
    """Which candidate trajectories evaluate_functional accepts, without
    raising: one bool for a GridFunction or an (n,) array, or a boolean
    row mask for an array of shape (k, n).  A row is admissible when
    y(a) = 0, |y(b) - B| <= BOUNDARY_TOL, y strictly increases
    (power-weighted and x*ln(x) classes), phi + y^Delta > 0 (x*ln(x)
    class), phi is defined at both ends of each jump (power-weighted
    class), the integrand is finite and so are the values."""
    shape, rows = _admissibility(p, y)[:2]
    ok = np.zeros(math.prod(shape), dtype=bool)
    ok[rows] = True
    return bool(ok[0]) if shape == () else ok.reshape(shape)


def evaluate_functional(p: VariationalProblem, y):
    """Value of the problem's functional at candidate trajectories.

    ``y`` is a GridFunction, giving a float, or an array of shape (k, n)
    holding k trajectories on the n grid points, giving k values from one
    vectorised pass.  Every row must be admissible (see
    :func:`admissible`): the first condition that some row fails raises,
    AdmissibilityError for the boundary values, strict increase and
    positive shifted derivative, with the offending point, and DomainError
    for phi's domain and a non-finite integrand or value.  No numpy warning
    is emitted.
    """
    shape, _, error, values = _admissibility(p, y)
    if error is not None:
        raise error
    return float(values[0]) if shape == () else values.reshape(shape)
