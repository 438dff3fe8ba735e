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


def _check_phi_positive_on_scale(p):
    pts = p.ts.kappa_points()
    vals = np.asarray(p.phi(pts), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        t_bad = float(pts[int(np.argmin(vals))])
        raise DomainError(f"phi must be positive on the scale; phi({t_bad}) <= 0")
    return vals


def _phi_on_points(p):
    """phi at every evaluation point; a value at an excluded max point is
    patched to 1 since it never enters a delta integral."""
    ts = p.ts
    with np.errstate(all="ignore"):
        vals = np.asarray(p.phi(ts.points), dtype=float).copy()
    if ts.b_left_scattered and not np.isfinite(vals[-1]):
        vals[-1] = 1.0
    return vals


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
    probe = np.linspace(0.0, B, 257)
    if np.any(np.asarray(phi(probe), dtype=float) <= 0.0):
        raise DomainError("phi must be positive on [0, B]")

    C = float(G(B)) / span
    a = ts.a
    yvals = np.empty(len(ts.points))
    for i, t in enumerate(ts.points):
        target = C * (t - a)
        if target <= 0.0:
            yvals[i] = 0.0
        else:
            yvals[i] = invert_increasing(G, target, 0.0, gprime=phi)
    yvals[0] = 0.0
    traj = GridFunction(ts, yvals)
    _require_increasing(ts, traj)
    extremum = "min" if (alpha < 0.0 or alpha > 1.0) else "max"
    return Solution(traj, span * C ** alpha, extremum, C)


def solve_exp_derivative(p: VariationalProblem) -> Solution:
    """Optimal trajectory of the exponential-of-derivative problem.

    C = (integral of ln(phi) + B) / (b - a); the trajectory is
    y(t) = -integral_a^t ln(phi) + C (t - a) and the minimum is (b - a) e^C.
    """
    ts, B = p.ts, float(p.B)
    span = ts.b - ts.a
    _check_phi_positive_on_scale(p)
    phi_vals = _phi_on_points(p)
    logphi = GridFunction(ts, np.log(np.maximum(phi_vals, 1e-300)))
    L = ts.cumulative_delta_integral(logphi)
    C = (L[-1] + B) / span
    yvals = -L + C * (ts.points - ts.a)
    yvals[0] = 0.0
    traj = GridFunction(ts, yvals)
    return Solution(traj, span * math.exp(C), "min", float(C))


def solve_xlogx_shifted(p: VariationalProblem) -> Solution:
    """Optimal trajectory of the shifted x*ln(x) problem.

    C = (B + integral of phi) / (b - a); feasibility demands C > phi(t)
    everywhere on the kappa-grid, which makes y(t) = C (t - a) - integral
    of phi strictly increasing.  The minimum is (b - a) C ln(C).
    """
    ts, B = p.ts, float(p.B)
    span = ts.b - ts.a
    _check_phi_positive_on_scale(p)
    phi_vals = _phi_on_points(p)
    P = ts.cumulative_delta_integral(GridFunction(ts, phi_vals))
    C = (B + P[-1]) / span
    kidx = ts.kappa_indices()
    bad = np.nonzero(C - phi_vals[kidx] <= 0.0)[0]
    if len(bad):
        t_bad = float(ts.points[kidx[bad[0]]])
        raise FeasibilityError(
            f"infeasible: C = {C} is not greater than phi({t_bad}) = "
            f"{float(phi_vals[kidx[bad[0]]])}",
            point=t_bad,
        )
    yvals = C * (ts.points - ts.a) - P
    yvals[0] = 0.0
    traj = GridFunction(ts, yvals)
    _require_increasing(ts, traj)
    return Solution(traj, span * C * math.log(C), "min", float(C))


def _require_increasing(ts, traj):
    d = ts.delta_derivative_grid(traj)
    kidx = ts.kappa_indices()
    if np.any(d[kidx] <= POSITIVITY_TOL):
        i = kidx[int(np.argmin(d[kidx]))]
        raise AdmissibilityError(
            f"trajectory delta derivative is not strictly positive at "
            f"t = {float(ts.points[i])}",
            point=float(ts.points[i]),
            condition="y_delta > 0",
        )


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
            viol = np.flatnonzero(
                np.any(dk.reshape(-1, dk.shape[-1]) <= POSITIVITY_TOL, axis=0))
            if len(viol):
                t_bad = float(ts.points[viol[0]])
                raise AdmissibilityError(
                    f"delta derivative not strictly positive at t = {t_bad}",
                    point=t_bad, condition="y_delta > 0")

    integrand = np.zeros_like(yvals)
    if p.kind == "power_weighted":
        factor = averaged_chain_factor(p.phi, yvals[..., kap], ts._mu[kap], dk)
        integrand[..., kap] = (factor * dk) ** p.alpha
    elif p.kind == "exp_derivative":
        integrand[..., kap] = _phi_on_points(p)[kap] * np.exp(dk)
    else:
        s = _phi_on_points(p)[kap] + dk
        if check_admissible and np.any(s <= 0.0):
            worst = np.argmin(s.reshape(-1, s.shape[-1]).min(axis=0))
            t_bad = float(ts.points[worst])
            raise AdmissibilityError(
                f"phi + y_delta must be positive; fails at t = {t_bad}",
                point=t_bad, condition="phi + y_delta > 0")
        integrand[..., kap] = s * np.log(np.maximum(s, 1e-300))
    if check_admissible and not np.all(np.isfinite(integrand)):
        raise DomainError("the functional's integrand is not finite")
    return ts.delta_integral(integrand)
