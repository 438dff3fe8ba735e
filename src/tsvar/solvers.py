"""Closed-form global solvers for the three variational problem classes.

Each solver turns a boundary-value variational problem on a time scale into
its closed-form optimal trajectory plus the optimal value, both derived from
the equality case of the matching Jensen-type inequality.  A generic
functional evaluator handles arbitrary admissible candidate trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AdmissibilityError,
    DegenerateProblemError,
    DomainError,
    FeasibilityError,
    ParameterError,
    PreconditionError,
)
from .functions import ScalarFunction
from .roots import invert_increasing
from .timescale import GridFunction, TimeScale, averaged_chain_factor

#: |y(b) - B| tolerance for boundary admissibility
BOUNDARY_TOL = 1e-9

#: strict-positivity threshold on delta derivatives
POSITIVITY_TOL = 1e-12

KINDS = ("power_weighted", "exp_derivative", "xlogx_shifted")


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
        if self.kind == "power_weighted" and self.alpha is None:
            raise ParameterError("power_weighted problem needs an exponent")
        if len(self.ts) < 2:
            raise PreconditionError("the time scale has one point, so a = b")


@dataclass(frozen=True)
class Solution:
    """Optimal trajectory with its functional value and problem constant."""

    trajectory: GridFunction
    optimal_value: float
    extremum: str             # "min" | "max"
    C: float


def weight_antiderivative(phi):
    """G(x) = integral of phi from 0 to x, via the exact antiderivative."""
    base = float(phi.antideriv(0.0))

    def G(x):
        return phi.antideriv(x) - base

    return G


def _phi_on_kappa(p):
    """phi on [a, b]^kappa, the only points where it enters the functional."""
    with np.errstate(all="ignore"):
        return np.asarray(p.phi(p.ts.kappa_points()), dtype=float)


def _solution(traj, extremum, span, C, value):
    """The Solution with optimal value value(span, C), which must be finite."""
    try:
        v = value(span, C)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(f"the optimal value at C = {C} is not finite")
    return Solution(traj, v, extremum, C)


def solve(p: VariationalProblem) -> Solution:
    if p.kind == "power_weighted":
        return solve_power_weighted(p)
    if p.kind == "exp_derivative":
        return solve_exp_derivative(p)
    return solve_xlogx_shifted(p)


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
        probe = np.asarray(phi(np.linspace(0.0, B, 257)), dtype=float)
        C = float(G(B)) / span
    if np.any(probe <= 0.0):
        raise DomainError("phi must be positive on [0, B]")
    if not math.isfinite(C):
        raise DomainError(f"C = {C} is not finite")
    target = C * (ts.points - ts.a)
    pos = target > 0.0
    yvals = np.zeros(len(ts.points))
    # G may overflow to +inf while the root finder brackets the root by
    # doubling, which still orders correctly against every finite target
    with np.errstate(over="ignore"):
        yvals[pos] = invert_increasing(G, target[pos], 0.0, gprime=phi)
    traj = GridFunction(ts, yvals)
    _require_increasing(ts, ts.delta_derivative_grid(traj))
    extremum = "min" if (alpha < 0.0 or alpha > 1.0) else "max"
    return _solution(traj, extremum, span, C, lambda span, C: span * C ** alpha)


def _jensen_equality(p, g, value, increasing=False):
    """Minimizer on which y^Delta + g(phi) is one constant C on [a, b]^kappa.

    That is the equality case of Jensen's inequality, so C = (B + integral
    of g(phi)) / (b - a), y(t) = C (t - a) - integral_a^t g(phi), and the
    minimum is value(b - a, C).  With ``increasing`` the trajectory must be
    strictly increasing, which for g = id demands C > phi on [a, b]^kappa.
    """
    ts = p.ts
    span = ts.b - ts.a
    phi = _phi_on_kappa(p)
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
    traj = GridFunction(ts, yvals)
    if increasing:
        _require_increasing(ts, ts.delta_derivative_grid(traj))
    return _solution(traj, "min", span, C, value)


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


def _require_increasing(ts, d):
    """AdmissibilityError at the first kappa-point where a row of the delta
    derivatives d, of shape (..., n), is not strictly positive."""
    dk = d[..., :len(ts.kappa_indices())]
    viol = np.flatnonzero(
        np.any(dk.reshape(-1, dk.shape[-1]) <= POSITIVITY_TOL, axis=0))
    if len(viol):
        t_bad = float(ts.points[viol[0]])
        raise AdmissibilityError(
            f"delta derivative not strictly positive at t = {t_bad}",
            point=t_bad, condition="y_delta > 0")


def _require_shift_positive(ts, s):
    """AdmissibilityError at the worst kappa-point when some row of the
    shifted derivatives s = phi + y^Delta, of shape (..., n), is not
    positive."""
    if np.any(s <= 0.0):
        worst = np.argmin(s.reshape(-1, s.shape[-1]).min(axis=0))
        t_bad = float(ts.points[worst])
        raise AdmissibilityError(
            f"phi + y_delta must be positive; fails at t = {t_bad}",
            point=t_bad, condition="phi + y_delta > 0")


def gap_integrand(p: VariationalProblem, y, d, mu, phi):
    """The problem's integrand at points where the trajectory has value y,
    delta derivative d and graininess mu, and the weight has value phi
    (unused by the power-weighted class, which averages phi over the
    trajectory's jump instead).  Elementwise on broadcast arrays."""
    if p.kind == "power_weighted":
        return (averaged_chain_factor(p.phi, y, mu, d) * d) ** p.alpha
    if p.kind == "exp_derivative":
        return phi * np.exp(d)
    s = phi + d
    out = np.maximum(s, 1e-300)
    np.log(out, out=out)
    out *= s
    return out


def evaluate_functional(p: VariationalProblem, y, check_admissible: bool = True):
    """Value of the problem's functional at candidate trajectories.

    ``y`` is a GridFunction, giving a float, or an array of shape (k, n)
    holding k trajectories on the n grid points, giving k values from one
    vectorised pass.  Unless ``check_admissible`` is false, admissibility
    (boundary values, strictly increasing trajectory where the problem class
    demands it, positive shifted derivative for the x*ln(x) class, a finite
    integrand) is checked first for every row, and violations are reported
    with the offending point.
    """
    ts = p.ts
    yvals = y.values if isinstance(y, GridFunction) else np.asarray(y, dtype=float)
    d = ts.delta_derivative_grid(y)
    kap = slice(len(ts.kappa_indices()))
    dk = d[..., kap]
    if check_admissible:
        if np.any(np.abs(yvals[..., 0]) > POSITIVITY_TOL):
            raise AdmissibilityError("y(a) must be 0", point=ts.a,
                                     condition="y(a) = 0")
        off = np.abs(yvals[..., -1] - p.B) > BOUNDARY_TOL
        if np.any(off):
            raise AdmissibilityError(
                f"y(b) = {float(np.extract(off, yvals[..., -1])[0])} "
                f"differs from B = {p.B}",
                point=ts.b, condition="y(b) = B")
        if p.kind in ("power_weighted", "xlogx_shifted"):
            _require_increasing(ts, d)

    phi = None if p.kind == "power_weighted" else _phi_on_kappa(p)
    if check_admissible and p.kind == "xlogx_shifted":
        _require_shift_positive(ts, phi + dk)
    integrand = np.zeros_like(yvals)
    integrand[..., kap] = gap_integrand(p, yvals[..., kap], dk, ts._mu[kap], phi)
    if check_admissible and not np.all(np.isfinite(integrand)):
        raise DomainError("the functional's integrand is not finite")
    return ts.delta_integral(integrand)
