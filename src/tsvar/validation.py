"""Brute-force and perturbation oracles for global-optimality certification.

These operate on purely discrete time scales, where the admissible set is a
finite-dimensional simplex of positive increments summing to the boundary
value.  Exhaustive enumeration over a resolution lattice, seeded random
sampling, and local perturbation checks all compare candidate functional
values against the closed-form optimum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (AdmissibilityError, BudgetError, DomainError,
                     PreconditionError)
from .solvers import VariationalProblem, evaluate_functional, solve
from .timescale import GridFunction, real_interval

#: slack absorbing accumulated floating-point error across candidate terms
CERTIFY_SLACK = 1e-9

#: perturbation mode: a candidate is refuted if some neighbour improves by more
PERTURB_SLACK = 1e-12

#: candidate rows per evaluate_functional call in the exhaustive and random
#: modes, which bounds their working memory
BATCH_ROWS = 4096


@dataclass(frozen=True)
class OracleReport:
    candidates_evaluated: int
    best_value_found: float
    best_candidate: Optional[GridFunction]
    closed_form_value: float
    verdict: str                       # "certified" | "refuted"
    mode: str
    optima_count: int = 1              # candidates within CERTIFY_SLACK of best
    refuting_candidate: Optional[GridFunction] = field(default=None, repr=False)

    @property
    def certified(self):
        return self.verdict == "certified"

    def to_dict(self):
        d = {
            "candidates_evaluated": self.candidates_evaluated,
            "best_value_found": self.best_value_found,
            "closed_form_value": self.closed_form_value,
            "verdict": self.verdict,
            "mode": self.mode,
            "optima_count": self.optima_count,
        }
        if self.best_candidate is not None:
            d["best_candidate"] = [float(v) for v in self.best_candidate.values]
        return d


def _require_discrete(p, max_atoms=None):
    ts = p.ts
    if not ts.is_discrete:
        raise PreconditionError("oracle requires a purely discrete time scale")
    if max_atoms is not None and len(ts.points) > max_atoms:
        raise PreconditionError(f"oracle limited to {max_atoms} atoms")


def _evaluate_rows(p, D, sign):
    """Sign-adjusted functional values of the trajectories whose increments
    are the rows of D, with those trajectories."""
    # column-major, so the kernels' row-wise operations run over long
    # contiguous columns instead of many short rows
    Y = np.zeros((len(D), D.shape[1] + 1), order="F")
    np.cumsum(D, axis=1, out=Y[:, 1:])
    return sign * evaluate_functional(p, Y, check_admissible=False), Y


def _closed_form(p):
    sol = solve(p)
    return sol, float(sol.optimal_value), sol.extremum


def _verdict(best, closed, extremum):
    if extremum == "min":
        ok = best >= closed - CERTIFY_SLACK
    else:
        ok = best <= closed + CERTIFY_SLACK
    return "certified" if ok else "refuted"


def _compositions_leq(parts, bound):
    """All tuples of `parts` integers >= 1 with sum <= bound, lexicographic."""
    if parts == 0:
        yield ()
        return
    for k in range(1, bound - parts + 2):
        for rest in _compositions_leq(parts - 1, bound - k):
            yield (k,) + rest


def exhaustive_verify(p: VariationalProblem, resolution: float,
                      budget: int = 10 ** 7) -> OracleReport:
    """Enumerate every lattice-admissible trajectory and compare with the
    closed form.

    Increments are positive multiples of `resolution`; when B is not a
    lattice multiple the final increment absorbs the remainder.
    """
    _require_discrete(p, max_atoms=8)
    if resolution <= 0:
        raise PreconditionError("resolution must be positive")
    sol, closed, extremum = _closed_form(p)
    n = len(p.ts.points) - 1
    B = float(p.B)

    ratio = B / resolution
    m = int(math.floor(ratio + 1e-9))
    exact = abs(ratio - round(ratio)) <= 1e-9
    bound = m - 1 if exact else m       # max lattice sum leaving a positive tail
    if n == 1:
        count = 1
    else:
        count = math.comb(bound, n - 1) if bound >= n - 1 else 0
    if count > budget:
        raise BudgetError(
            f"{count} candidates exceed the budget of {budget}; "
            f"use a coarser resolution"
        )

    sign = 1.0 if extremum == "min" else -1.0
    best_val = math.inf        # in sign-adjusted (minimization) terms
    best_y = None
    evaluated = 0
    chunks = []
    if n == 1:
        candidates = iter([()])
    else:
        candidates = _compositions_leq(n - 1, bound)
    batch = []

    def flush():
        nonlocal best_val, best_y, evaluated
        if not batch:
            return
        vals, Y = _evaluate_rows(p, np.array(batch), sign)
        chunks.append(vals)
        evaluated += len(batch)
        i = int(np.argmin(vals))
        # enumeration is lexicographic, so strict < keeps the lexicographically
        # smallest minimizer as the deterministic tie-break
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_y = Y[i].copy()
        batch.clear()

    for ks in candidates:
        head = [k * resolution for k in ks]
        tail = B - sum(head)
        if tail <= 0:
            continue
        batch.append(head + [tail])
        if len(batch) >= BATCH_ROWS:
            flush()
    flush()

    optima = sum(int(np.count_nonzero(v <= best_val + CERTIFY_SLACK))
                 for v in chunks)
    best_val *= sign
    best = GridFunction(p.ts, best_y) if best_y is not None else None
    return OracleReport(
        candidates_evaluated=evaluated,
        best_value_found=float(best_val),
        best_candidate=best,
        closed_form_value=closed,
        verdict=_verdict(best_val, closed, extremum),
        mode=f"exhaustive(resolution={resolution})",
        optima_count=optima,
    )


def random_verify(p: VariationalProblem, samples: int, seed: int) -> OracleReport:
    """Sample admissible trajectories (positive increments normalized to sum B)
    and compare the best sampled value with the closed form.  Deterministic
    for a fixed seed."""
    _require_discrete(p)
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    sol, closed, extremum = _closed_form(p)
    n = len(p.ts.points) - 1
    rng = np.random.default_rng(seed)
    sign = 1.0 if extremum == "min" else -1.0
    best_val, best_y = math.inf, None     # in sign-adjusted (minimization) terms
    for start in range(0, samples, BATCH_ROWS):
        W = 1.0 - rng.random((min(BATCH_ROWS, samples - start), n))  # in (0, 1]
        vals, Y = _evaluate_rows(p, W / W.sum(axis=1, keepdims=True) * float(p.B),
                                 sign)
        i = int(np.argmin(vals))
        if best_y is None or vals[i] < best_val:
            best_val = float(vals[i])
            best_y = Y[i].copy()
    best_val *= sign
    return OracleReport(
        candidates_evaluated=samples,
        best_value_found=best_val,
        best_candidate=GridFunction(p.ts, best_y),
        closed_form_value=closed,
        verdict=_verdict(best_val, closed, extremum),
        mode=f"random(samples={samples}, seed={seed})",
    )


def perturbation_verify(p: VariationalProblem, eps: float,
                        trajectory: Optional[GridFunction] = None,
                        pair_samples: int = 16,
                        seed: int = 12345) -> OracleReport:
    """Check that no small perturbation of a candidate improves the functional.

    Interior values are shifted by +/-eps one at a time and in seeded random
    pairs; eps is halved (up to 40 times) when a shift would break
    admissibility.  Unlike the global modes, the verdict here is local:
    refuted means some neighbour beats the candidate by more than the slack.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    sol, closed, extremum = _closed_form(p)
    base = trajectory if trajectory is not None else sol.trajectory
    base_val = evaluate_functional(p, base)
    sign = 1.0 if extremum == "min" else -1.0
    n = len(p.ts.points)
    interior = range(1, n - 1)

    moves = []
    for i in interior:
        for s in (+1.0, -1.0):
            moves.append(((i, s),))
    rng = random.Random(seed)
    for _ in range(pair_samples):
        if n < 4:
            break
        i, j = rng.sample(list(interior), 2)
        moves.append(((i, rng.choice((+1.0, -1.0))),
                      (j, rng.choice((+1.0, -1.0)))))

    best_val = base_val
    best_y = base
    evaluated = 0
    refuting = None
    for move in moves:
        e = eps
        val = None
        y_pert = None
        for _ in range(41):
            y = base.values.copy()
            for (i, s) in move:
                y[i] += s * e
            try:
                cand = GridFunction(p.ts, y)
                val = evaluate_functional(p, cand)
                y_pert = cand
                break
            except (AdmissibilityError, DomainError):
                e *= 0.5
        if val is None:
            raise PreconditionError(
                "eps destroys admissibility even after 40 halvings"
            )
        evaluated += 1
        if sign * val < sign * best_val:
            best_val = val
            best_y = y_pert
        if sign * val < sign * base_val - PERTURB_SLACK and refuting is None:
            refuting = y_pert

    return OracleReport(
        candidates_evaluated=evaluated,
        best_value_found=float(best_val),
        best_candidate=best_y,
        closed_form_value=closed,
        verdict="refuted" if refuting is not None else "certified",
        mode=f"perturbation(eps={eps})",
        refuting_candidate=refuting,
    )


@dataclass(frozen=True)
class WscReport:
    """Numerical reproduction of the counterexample to the claimed constant
    upper bound on the logarithmic functional from the earlier literature."""

    I_tilde: float
    C: float
    I_max_claimed: float
    contradiction: bool

    @property
    def margin(self):
        return self.I_tilde - self.I_max_claimed

    def to_dict(self):
        return {
            "I_tilde": self.I_tilde,
            "C": self.C,
            "I_max_claimed": self.I_max_claimed,
            "contradiction": self.contradiction,
            "margin": self.margin,
        }


def wsc_counterexample(nodes: int = 129) -> WscReport:
    """Evaluate the fixed counterexample data on [0, 1] with phi(x) = x + 1
    and the straight-line candidate, exposing a value above the claimed
    maximum -ln(ln 2)."""
    ts = real_interval(0.0, 1.0, nodes)
    x = ts.points
    I_tilde = ts.delta_integral(GridFunction(ts, np.log(x + 1.0)))
    C = ts.delta_integral(GridFunction(ts, 1.0 / (x + 1.0)))
    I_max = -math.log(C)
    return WscReport(
        I_tilde=float(I_tilde),
        C=float(C),
        I_max_claimed=float(I_max),
        contradiction=bool(I_tilde > I_max),
    )
