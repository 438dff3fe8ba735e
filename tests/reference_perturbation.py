"""Reference perturbation oracle: one checked evaluation per move.

This is the per-move loop that `tsvar.validation.perturbation_verify`
replaced with one batched pass.  It builds each move's trajectory, calls
`evaluate_functional` on it, and halves eps (up to 40 times) while that
raises an admissibility or domain error.  The equivalence tests assert
that the batched oracle gives byte-identical reports.
"""

from __future__ import annotations

import random
from typing import Optional

from tsvar.errors import AdmissibilityError, DomainError, PreconditionError
from tsvar.solvers import VariationalProblem, evaluate_functional
from tsvar.timescale import GridFunction
from tsvar.validation import PERTURB_SLACK, OracleReport, _closed_form


def perturbation_verify_per_move(p: VariationalProblem, eps: float,
                                 trajectory: Optional[GridFunction] = None,
                                 pair_samples: int = 16,
                                 seed: int = 12345) -> OracleReport:
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    sol, closed, sign = _closed_form(p)
    base = trajectory if trajectory is not None else sol.trajectory
    base_val = evaluate_functional(p, base)
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
