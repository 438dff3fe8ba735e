"""Closed-form global solvers for the three variational problem classes.

Each solver turns a boundary-value variational problem on a time scale into
its closed-form optimal trajectory plus the optimal value, both derived from
the equality case of the matching Jensen-type inequality.  A generic
functional evaluator handles arbitrary admissible candidate trajectories.
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
from .functions import CONVEXITY_SAMPLES, ScalarFunction
from .roots import invert_increasing
from .timescale import (JUMP_TOL, GridFunction, TimeScale, _grid_values,
                        chain_delta)

#: |y(b) - B| tolerance for boundary admissibility
BOUNDARY_TOL = 1e-9

#: strict-positivity threshold on delta derivatives
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


def _solution(p, traj, extremum, span, C, value):
    """The Solution with optimal value value(span, C), which must be finite."""
    try:
        v = value(span, C)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(f"the optimal value at C = {C} is not finite")
    return Solution(traj, v, extremum, C)


def solve(p: VariationalProblem) -> Solution:
    return KINDS[p.kind].solve(p)


def solve_power_weighted(p: VariationalProblem) -> Solution:
    """Optimal trajectory y(t) = G^{-1}(C (t - a)) of the power-weighted problem.

    C = G(B) / (b - a).  The exponent regime decides whether the closed form
    is the global minimum (alpha < 0 or alpha > 1) or maximum (0 < alpha < 1);
    the optimal value is (b - a) * C**alpha.
    """
    ts, B, phi, alpha = p.ts, float(p.B), p.phi, p.alpha
    span = ts.b - ts.a
    G = weight_antiderivative(phi)
    if alpha in (0.0, 1.0):
        const = span if alpha == 0.0 else float(G(B)) if B > 0 else None
        if const is None:
            raise PreconditionError("power_weighted problem requires B > 0")
        raise DegenerateProblemError(
            f"exponent {alpha} makes the functional constant at {const}",
            constant_value=const,
        )
    if B <= 0.0:
        raise PreconditionError("power_weighted problem requires B > 0")
    # an overflow here shows as a non-finite C, rejected below
    with np.errstate(all="ignore"):
        xs = np.linspace(0.0, B, CONVEXITY_SAMPLES)
        probe = np.asarray(phi(xs), dtype=float)
        C = float(G(B)) / span
        if np.any(probe <= 0.0):
            raise DomainError("phi must be positive on [0, B]")
        phi.check_domain(xs)
    if not math.isfinite(C):
        raise DomainError(f"C = {C} is not finite")
    # y(a) = 0, y(b) = B, and the interior roots lie in [0, B], where G rises
    yvals = np.zeros(len(ts.points))
    yvals[1:-1] = invert_increasing(G, C * (ts.points[1:-1] - ts.a), 0.0, B,
                                    gprime=phi)
    yvals[-1] = B
    traj = _trajectory(p, yvals, increasing=True)
    extremum = "min" if (alpha < 0.0 or alpha > 1.0) else "max"
    return _solution(p, traj, extremum, span, C, lambda span, C: span * C ** alpha)


def _jensen_equality(p, g, value, increasing=False):
    """Minimizer on which y^Delta + g(phi) is one constant C on [a, b]^kappa.

    That is the equality case of Jensen's inequality, so C = (B + integral
    of g(phi)) / (b - a), y(t) = C (t - a) - integral_a^t g(phi), and the
    minimum is value(b - a, C).  With ``increasing`` the trajectory must be
    strictly increasing, which for g = id demands C > phi on [a, b]^kappa.
    """
    ts = p.ts
    span = ts.b - ts.a
    phi = p.phi_on_kappa
    bad = np.flatnonzero(~(np.isfinite(phi) & (phi > 0.0)))
    if len(bad):
        t_bad = float(ts.points[bad[0]])
        raise DomainError(f"phi must be finite and positive on the scale; "
                          f"phi({t_bad}) = {float(phi[bad[0]])}")
    # an overflow here shows as a non-finite C or trajectory, rejected below
    with np.errstate(all="ignore"):
        P = ts.cumulative_delta_integral(GridFunction(ts, g(phi)))
        C = (float(p.B) + float(P[-1])) / span
        yvals = C * (ts.points - ts.a) - P
    if not math.isfinite(C):
        raise DomainError(f"C = {C} is not finite")
    if increasing:
        bad = np.flatnonzero(C - phi <= 0.0)
        if len(bad):
            t_bad = float(ts.points[bad[0]])
            raise FeasibilityError(
                f"infeasible: C = {C} is not greater than phi({t_bad}) = "
                f"{float(phi[bad[0]])}",
                point=t_bad,
            )
    yvals[0] = 0.0
    traj = _trajectory(p, yvals, increasing)
    return _solution(p, traj, "min", span, C, value)


def solve_exp_derivative(p: VariationalProblem) -> Solution:
    """Optimal trajectory of the exponential-of-derivative problem: the
    Jensen equality case with g = ln; the minimum is (b - a) e^C."""
    return _jensen_equality(p, np.log, lambda span, C: span * math.exp(C))


def solve_xlogx_shifted(p: VariationalProblem) -> Solution:
    """Optimal trajectory of the shifted x*ln(x) problem: the Jensen equality
    case with g = id, feasible when C > phi(t) everywhere on the kappa-grid,
    which makes y strictly increasing.  The minimum is (b - a) C ln(C)."""
    return _jensen_equality(p, lambda phi: phi,
                            lambda span, C: span * C * math.log(C),
                            increasing=True)


def _increasing(p, Y, d):
    """Rows not strictly increasing on [a, b]^kappa; errs at the first such t."""
    ts, kap = p.ts, slice(len(p.ts.kappa_points()))
    def fault():
        t_bad = float(ts.points[np.flatnonzero(
            (d[:, kap] <= POSITIVITY_TOL).any(axis=0))[0]])
        return AdmissibilityError(
            f"delta derivative not strictly positive at t = {t_bad}",
            point=t_bad, condition="y_delta > 0")
    return (d[:, kap] <= POSITIVITY_TOL).any(axis=1), fault


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
    """What makes a problem kind a kind, read wherever kinds differ."""

    solve: Callable           # p -> Solution
    integrand: Callable       # as gap_integrand takes it
    # the walk's rules after the boundary values, in order: (p, Y, d) ->
    # (mask of the rows dropped, a function building their error)
    rules: tuple = ()
    needs_alpha: bool = False


KINDS = {
    "power_weighted": _Kind(solve_power_weighted, _power_integrand,
                            (_increasing, _in_phi_domain), needs_alpha=True),
    "exp_derivative": _Kind(solve_exp_derivative, _exp_integrand),
    "xlogx_shifted": _Kind(solve_xlogx_shifted, _xlogx_integrand,
                           (_increasing, _shift_positive)),
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
