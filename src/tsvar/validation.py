"""Brute-force and perturbation oracles for global-optimality certification.

These operate on purely discrete time scales, where the admissible set is a
finite-dimensional simplex of positive increments summing to the boundary
value.  Exhaustive certification over a resolution lattice, seeded random
sampling, and local perturbation checks all compare candidate functional
values against the closed-form optimum.  The exhaustive mode covers every
lattice candidate without evaluating each one: a min-plus dynamic
programme over the lattice levels bounds all candidates' values, and only
those that can lie within CERTIFY_SLACK of the best are evaluated.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetError, PreconditionError
from .solvers import (VariationalProblem, _admissibility, evaluate_functional,
                      gap_integrand, solve)
from .timescale import GridFunction, real_interval

#: slack absorbing accumulated floating-point error across candidate terms
CERTIFY_SLACK = 1e-9

#: perturbation mode: a candidate is refuted if some neighbour improves by more
PERTURB_SLACK = 1e-12

#: values per block of candidates (and level pairs per tile of the
#: exhaustive mode's dynamic programme), which bounds every oracle's
#: working memory: 2**14 float64 is 128 KB, glibc's default mmap threshold,
#: so a block's arrays reuse heap memory instead of taking fresh pages on
#: each block (blocks 2x this were 1.2-2x slower at 300-3000 atoms on a
#: 2-vCPU x86-64 machine)
BLOCK_VALUES = 2 ** 14

#: most lattice candidates the exhaustive mode covers
EXHAUSTIVE_BUDGET = 10 ** 7


def _rows(width):
    """Rows of `width` values per block: BLOCK_VALUES values, or one row."""
    return max(1, BLOCK_VALUES // width)


@dataclass(frozen=True)
class OracleReport:
    candidates_evaluated: int
    best_value_found: float
    best_candidate: GridFunction
    closed_form_value: float
    verdict: str                       # "certified" | "refuted"
    mode: str
    optima_count: int = 1              # candidates within CERTIFY_SLACK of best
    refuting_candidate: Optional[GridFunction] = field(default=None, repr=False)

    @property
    def certified(self):
        return self.verdict == "certified"

    def to_dict(self):
        return {
            "candidates_evaluated": self.candidates_evaluated,
            "best_value_found": self.best_value_found,
            "closed_form_value": self.closed_form_value,
            "verdict": self.verdict,
            "mode": self.mode,
            "optima_count": self.optima_count,
            "best_candidate": [float(v) for v in self.best_candidate.values],
        }


def _require_discrete(p):
    if not p.ts.is_discrete:
        raise PreconditionError("oracle requires a purely discrete time scale")


def _best_of(p, blocks, sign):
    """(trajectory, near) of the best trajectory, least in sign-adjusted
    terms and first in order, among those whose interior values y_1 ..
    y_{n-1} are the rows of the blocks, with y_0 = 0 and y_n = B exactly, as
    the admissibility walk values them, `_rows(n + 1)` rows a walk; near
    counts the values within CERTIFY_SLACK of the best.  The walk skips
    inadmissible rows, and if no row is admissible its first error is raised
    (no row: trajectory None)."""
    best_val, best_y, error = math.inf, None, None
    near = np.empty(0)         # values within CERTIFY_SLACK of the running best
    step = _rows(len(p.ts.points))
    for head in (b[s:s + step] for b in blocks for s in range(0, len(b), step)):
        # column-major, so the kernels' row-wise operations run over long
        # contiguous columns instead of many short rows, and each row sums
        # its terms in order; a lone row is walked twice, as numpy would
        # sum it pairwise, so no row's value depends on its block's size
        k = len(head)
        Y = np.zeros((k + (k == 1), head.shape[1] + 2), order="F")
        Y[:k, 1:-1] = head
        Y[k:, 1:-1] = Y[:1, 1:-1]
        Y[:, -1] = p.B
        _, rows, err, vals = _admissibility(p, Y)
        rows, vals = rows[rows < k], vals[rows < k]
        error = error or err
        if not len(rows):
            continue
        vals *= sign
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_y = float(vals[i]), Y[rows[i]].copy()
        # the best only falls, so values dropped here never count again
        near = np.concatenate([near, vals])
        near = near[near <= best_val + CERTIFY_SLACK]
    if best_y is None and error is not None:
        raise error
    return best_y, len(near)


def _closed_form(p):
    """The solution, its value, and the sign that makes the optimum least."""
    sol = solve(p)
    return sol, float(sol.optimal_value), 1.0 if sol.extremum == "min" else -1.0


def _global_report(p, count, best_y, closed, sign, mode, **more):
    """A global mode's report on its best trajectory values, valued by
    evaluate_functional (the walk's sum may differ in the last bits):
    certified unless that beats the closed form by more than CERTIFY_SLACK."""
    best_y = GridFunction(p.ts, best_y)
    best = evaluate_functional(p, best_y)
    ok = sign * best >= sign * closed - CERTIFY_SLACK
    return OracleReport(count, best, best_y, closed,
                        "certified" if ok else "refuted", mode, **more)


def exhaustive_verify(p: VariationalProblem, resolution: float) -> OracleReport:
    """Cover every lattice-admissible trajectory and compare the best with
    the closed form.

    A candidate's interior values are cut levels y_i = c_i * resolution,
    integers 0 < c_1 < ... < c_{n-1}, and y_0 = 0, y_n = B; its last
    increment, B - y_{n-1}, must be positive (it absorbs the fraction when B
    is not a lattice multiple).  That gives C(bound, n-1) candidates, bound
    the largest cut leaving a positive last increment; they are all covered,
    and `candidates_evaluated` counts them.  A min-plus dynamic programme
    over the cut levels {0, ..., bound} bounds every candidate's value, and
    only the candidates whose lower bound lies within CERTIFY_SLACK of the
    least upper bound are valued, at those same levels, by the admissibility
    walk (see `_best_of`); every other candidate provably lies further from
    the best.  The best is the first admissible candidate, in lexicographic
    order, with the smallest computed value (largest for a maximum);
    `optima_count` counts the candidates within CERTIFY_SLACK of it.  An
    empty lattice (no n-1 positive increments leave a positive tail) raises
    PreconditionError, and a lattice of more than EXHAUSTIVE_BUDGET
    candidates, or too fine to count, BudgetError.  Candidates go in blocks
    of `_rows(n + 1)` rows, and the programme's level pairs in tiles of
    BLOCK_VALUES, so working memory stays within BLOCK_VALUES values a block
    apart from vectors with one entry per level.
    """
    _require_discrete(p)
    if not 0 < resolution < math.inf:
        raise PreconditionError("resolution must be positive and finite")
    sol, closed, sign = _closed_form(p)
    n = len(p.ts.points) - 1
    B = float(p.B)

    ratio = B / resolution
    if not math.isfinite(ratio):
        raise BudgetError(
            f"B / resolution = {ratio} levels exceed any budget; "
            f"use a coarser resolution")
    m = int(math.floor(ratio + 1e-9))
    exact = abs(ratio - round(ratio)) <= 1e-9
    bound = m - 1 if exact else m       # max lattice sum leaving a positive tail
    count = math.comb(max(bound, 0), n - 1)
    if count > EXHAUSTIVE_BUDGET:
        raise BudgetError(
            f"{count} candidates exceed the budget of {EXHAUSTIVE_BUDGET}; "
            f"use a coarser resolution"
        )

    if n == 1:
        blocks = [np.zeros((1, 0), dtype=np.int64)]
    elif count:
        blocks = _Lattice(p, sign, bound, resolution).near_optimal_cuts()
    else:
        blocks = []
    ys = (c * resolution for c in blocks)   # y_{n-1} < B; on one step, 0 < B
    best_y, near = _best_of(p, (y[y.max(1, initial=0.0) < B] for y in ys), sign)
    if best_y is None:
        raise PreconditionError(
            f"no lattice candidate: B = {B} at resolution {resolution} leaves "
            f"no positive last increment after {n - 1} positive ones")
    return _global_report(p, count, best_y, closed, sign,
                          f"exhaustive(resolution={resolution})",
                          optima_count=near)


class _Lattice:
    """Bounds on the sign-adjusted discrete functional of the lattice
    candidates, by a min-plus dynamic programme over their cut levels.

    A candidate is a row of cuts 0 < c_1 < ... < c_{n-1} <= bound: its
    trajectory is y_i = levels[c_i], with y_0 = 0 and y_n = B, the same
    floats the admissibility walk values it at.  Level index bound + 1
    stands for B, so cut c_n is always that index.  Each gap's term
    sign * mu_i * I(y_i, y_{i+1}) depends on its two ends only, so the
    least sum over the cuts after c_i is a table over c_i alone (Bellman's
    cost-to-go), built backwards one gap at a time.
    """

    def __init__(self, p, sign, bound, resolution):
        self.p, self.sign, self.bound = p, sign, bound
        self.n = n = len(p.ts.points) - 1
        self.mu = p.ts._gaps
        self.levels = np.append(np.arange(bound + 1) * resolution, float(p.B))
        # The rounding margin.  The walk values a candidate at these same
        # floats by the same operations, so its terms are the t here, up to
        # the few ulps by which numpy's exp, log and power kernels may differ
        # between array layouts; only the sums' orders differ.  A sum of at
        # most n + 1 terms errs by gamma_{n+1} sum |t| ~ (n + 1) u sum |t|
        # (Higham 2002, sec. 4.2; u = 2**-53), so a term's bounds are
        # t -/+ rho |t|, rho = 4 (n + 8) u: 2 (n + 1) u for the two sums, and
        # as much again plus 28 u for the terms' ulps and their own rounding.
        u = np.finfo(float).eps / 2
        self.rho = 4 * (n + 8) * u
        self.tables = {}              # gap -> (low, high) of all its level pairs

    def _span(self, c):
        """Range of level indices that cut c can take."""
        if c == 0:
            return 0, 0
        if c == self.n:
            return self.bound + 1, self.bound + 1
        return c, self.bound - self.n + 1 + c

    def _terms(self, i, js, ks):
        """(low, high): bounds on gap i's term from levels js (column) to
        levels ks (row), +inf where the gap is not positive."""
        mu, phi = self.mu[i], self.p.phi
        y0, y1 = self.levels[js][:, None], self.levels[ks]
        with np.errstate(all="ignore"):
            d = (y1 - y0) / mu
            t = self.sign * mu * gap_integrand(
                self.p, y0, d, mu,
                lambda: phi.antideriv(y1) - phi.antideriv(y0), i)
            pad = self.rho * np.abs(t)
            low = np.where(t == np.inf, t, t - pad)
            high = np.where(t == -np.inf, t, t + pad)
        low[np.isnan(low)] = -np.inf        # not bounded: always kept
        high[np.isnan(high)] = np.inf
        off = ks <= js[:, None]
        low[off] = high[off] = np.inf
        return low, high

    def _tiles(self, i, js):
        """Gap i's term bounds from levels js to the levels of cut i + 1
        above the least of them, in tiles (r, ks, low, high): `_terms` of
        the rows js[r] and the consecutive levels ks.  A tile has at most
        `_rows(levels of cut i + 1)` rows and BLOCK_VALUES level pairs, or
        one row.  A tile of all of a gap's level pairs, which the cost-to-go
        pass makes when they fit in one, is kept in `tables`, and the gap's
        later tiles are read from it."""
        (j0, j1), (k0, k1) = self._span(i), self._span(i + 1)
        step = _rows(k1 - k0 + 1)
        for start in range(0, len(js), step):
            r = slice(start, start + step)
            ks = np.arange(max(k0, int(js[r].min()) + 1), k1 + 1)
            cols = _rows(len(js[r]))
            for kc in (ks[c:c + cols] for c in range(0, len(ks), cols)):
                if i in self.tables:
                    at = np.ix_(js[r] - j0, kc - k0)
                    yield (r, kc, *(t[at] for t in self.tables[i]))
                    continue
                low, high = self._terms(i, js[r], kc)
                if low.size == (j1 - j0 + 1) * (k1 - k0 + 1):
                    self.tables[i] = low, high
                yield r, kc, low, high

    def _cost_to_go(self):
        """Lower-bound cost-to-go of every cut level, per cut index, and
        the least upper-bound total over all candidates.  ctg[c][j - j0]
        belongs to level j of cut c, with j0 the first level of cut c."""
        low = high = np.zeros(1)              # cut n is B, with nothing after
        self.ctg = [None] * self.n + [low]
        for i in range(self.n - 1, -1, -1):
            (j0, j1), (k0, _) = self._span(i), self._span(i + 1)
            nxt_low, nxt_high = low, high
            low, high = np.full(j1 - j0 + 1, np.inf), np.full(j1 - j0 + 1, np.inf)
            for r, ks, l, h in self._tiles(i, np.arange(j0, j1 + 1)):
                low[r] = np.minimum(low[r], (l + nxt_low[ks - k0]).min(axis=1))
                high[r] = np.minimum(high[r], (h + nxt_high[ks - k0]).min(axis=1))
            self.ctg[i] = low
        return float(high[0])

    def near_optimal_cuts(self):
        """Every cut row whose lower bound lies within CERTIFY_SLACK of the
        least upper bound, in lexicographic order, in blocks: the children
        of one tile's rows, at most BLOCK_VALUES of them.

        A prefix is kept while the lower bounds of its terms, the next
        term's and the cost-to-go add to at most the least upper bound plus
        CERTIFY_SLACK.  Any candidate within CERTIFY_SLACK of the best
        computed value is kept: its lower bound is at most its computed
        value, the best is at most the computed value of the candidate with
        the least upper bound, and that is at most its upper bound.
        Prefixes are expanded depth first, one tile's rows at a time, so
        only the open prefixes of one path are held.
        """
        n = self.n
        thr = self._cost_to_go() + CERTIFY_SLACK
        stack = [(np.zeros((1, 0), dtype=np.int64), np.zeros(1))]
        while stack:
            cuts, cost = stack.pop()
            g = cuts.shape[1]                 # the gap from cut g to cut g + 1
            k0, k1 = self._span(g + 1)
            take = _rows(k1 - k0 + 1)         # the rows of one tile
            if len(cuts) > take:
                stack.append((cuts[take:], cost[take:]))
                cuts, cost = cuts[:take], cost[:take]
            js = cuts[:, -1] if g else np.zeros(1, dtype=np.int64)
            parts = []                        # (rows, cut levels, costs)
            for _, ks, low, _ in self._tiles(g, js):
                total = cost[:, None] + low
                r, c = np.nonzero((total + self.ctg[g + 1][ks - k0] <= thr)
                                  & (ks > js[:, None]))
                parts.append((r, ks[c], total[r, c]))
            r, k, total = (np.concatenate(a) for a in zip(*parts))
            if not len(r):
                continue
            child = np.column_stack([cuts[r], k])
            if g + 2 < n:
                stack.append((child, total))
            else:
                yield child


def random_verify(p: VariationalProblem, samples: int, seed: int) -> OracleReport:
    """Sample trajectories (running sums of positive increments normalized
    to sum B, ending at B exactly) and compare the best admissible one's
    value with the closed form (see `_best_of`).  Samples go in blocks of
    `_rows(n + 1)` rows, drawn in row-major order from one generator, so
    they and the report depend on the seed only."""
    _require_discrete(p)
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    if seed < 0:
        raise PreconditionError("seed must be >= 0")
    sol, closed, sign = _closed_form(p)
    n = len(p.ts.points) - 1
    rng = np.random.default_rng(seed)
    rows = _rows(n + 1)
    Ws = (1.0 - rng.random((min(rows, samples - start), n))  # in (0, 1]
          for start in range(0, samples, rows))
    best_y, _ = _best_of(p, (np.cumsum(W[:, :-1] / W.sum(axis=1, keepdims=True)
                                       * float(p.B), axis=1)
                             for W in Ws), sign)
    return _global_report(p, samples, best_y, closed, sign,
                          f"random(samples={samples}, seed={seed})")


def perturbation_verify(p: VariationalProblem, eps: float,
                        trajectory: Optional[GridFunction] = None,
                        pair_samples: int = 16,
                        seed: int = 12345) -> OracleReport:
    """Check that no small perturbation of a candidate improves the functional.

    Interior values are shifted by +/-eps one at a time and in seeded random
    pairs.  The moves are rows of one array, checked and valued by one
    admissibility walk (see `admissible`) per halving round: eps is halved
    (up to 40 times) for the rows the walk rejects only, and each row keeps
    the value of the round that accepted it.  Rows go in blocks of
    `_rows(n)` rows, n the points, so a long trajectory never holds all its
    moves at once.  The best candidate is the first move, in move order,
    with the least value (the greatest for a maximum problem) when it beats
    the candidate.  Unlike the global modes, the verdict here
    is local: refuted means some neighbour beats the candidate by more than
    the slack, and `refuting_candidate` is the first such move.
    """
    if not 0 < eps < math.inf:
        raise PreconditionError("eps must be positive and finite")
    sol, closed, sign = _closed_form(p)
    base = trajectory if trajectory is not None else sol.trajectory
    base_val = evaluate_functional(p, base)
    n = len(p.ts.points)

    # move r shifts columns cols[r] by signs[r] * eps: each interior column
    # up, then down (alone: a second shift of sign 0), then seeded pairs
    cols = np.repeat(np.arange(1, n - 1), 2)[:, None].repeat(2, axis=1)
    signs = np.column_stack([np.tile([+1.0, -1.0], n - 2), np.zeros(len(cols))])
    rng = random.Random(seed)
    pairs = []
    for _ in range(pair_samples if n >= 4 else 0):
        i, j = rng.sample(range(1, n - 1), 2)
        pairs.append((i, j, rng.choice((+1.0, -1.0)), rng.choice((+1.0, -1.0))))
    pairs = np.reshape(pairs, (-1, 4))
    cols = np.concatenate([cols, pairs[:, :2].astype(np.intp)])
    signs = np.concatenate([signs, pairs[:, 2:]])

    best_val = base_val
    best_y = base
    refuting = None
    step = _rows(n)
    # rows whose shift overflows are rejected by the walk, not warned about
    with np.errstate(all="ignore"):
        for start in range(0, len(cols), step):
            block = slice(start, start + step)
            Y, vals = _admissible_moves(p, base.values, cols[block],
                                        signs[block], eps)
            signed = sign * vals
            # the first least value, as a running strict minimum finds it;
            # admissible rows have no NaN value, so argmin sees every row
            i = int(np.argmin(signed))
            if signed[i] < sign * best_val:
                best_val = float(vals[i])
                best_y = GridFunction(p.ts, Y[i].copy())
            hit = np.flatnonzero(signed < sign * base_val - PERTURB_SLACK)
            if len(hit) and refuting is None:
                refuting = GridFunction(p.ts, Y[hit[0]].copy())

    return OracleReport(
        candidates_evaluated=len(cols),
        best_value_found=float(best_val),
        best_candidate=best_y,
        closed_form_value=closed,
        verdict="refuted" if refuting is not None else "certified",
        mode=f"perturbation(eps={eps})",
        refuting_candidate=refuting,
    )


def _admissible_moves(p, base, cols, signs, eps):
    """The moved trajectories, one row per move, and their values: base
    with columns cols[r] shifted by signs[r] * e (a sign 0 shifts nothing),
    e the first of eps, eps / 2, ..., eps / 2**40 that makes row r
    admissible, valued in the admissibility walk that accepts it.
    PreconditionError when no e does for some row."""
    e = np.full(len(cols), float(eps))
    Y = np.empty((len(cols), len(base)))
    vals = np.empty(len(cols))
    pending = np.ones(len(cols), dtype=bool)
    for _ in range(41):
        todo = np.flatnonzero(pending)
        Y[todo] = base
        # a single move's second shift (sign 0) is skipped; a pair's differ
        Y[todo, cols[todo, 0]] += signs[todo, 0] * e[todo]
        two = todo[signs[todo, 1] != 0.0]
        Y[two, cols[two, 1]] += signs[two, 1] * e[two]
        _, ok, _, v = _admissibility(p, Y[todo])
        vals[todo[ok]] = v
        pending[todo[ok]] = False
        if not pending.any():
            return Y, vals
        e[pending] *= 0.5
    raise PreconditionError("eps destroys admissibility even after 40 halvings")


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
        return {**asdict(self), "margin": self.margin}


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
