import itertools
import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import (
    Affine,
    BudgetError,
    Constant,
    DomainError,
    Exp,
    FeasibilityError,
    GridFunction,
    Polynomial,
    PreconditionError,
    VariationalProblem,
    custom,
    evaluate_functional,
    exhaustive_verify,
    perturbation_verify,
    random_verify,
    real_interval,
    solve,
    uniform,
    wsc_counterexample,
)
from generators import random_discrete_timescale
from reference_perturbation import perturbation_verify_per_move
from tsvar.solvers import KINDS
import tsvar.solvers as solvers
import tsvar.validation as validation


def worked_problem():
    return VariationalProblem("xlogx_shifted", uniform(0, 5, 5), 25.0,
                              Affine(2.0, 1.0))


class TestExhaustive:
    def test_worked_example_unit_lattice(self):
        rep = exhaustive_verify(worked_problem(), resolution=1.0)
        # increments are 5 positive integers summing to 25: C(24, 4) = 10626
        assert rep.candidates_evaluated == 10626
        assert rep.certified
        assert rep.optima_count == 1
        assert rep.best_value_found == pytest.approx(50 * math.log(10),
                                                     abs=1e-9)
        assert np.array_equal(rep.best_candidate.values, [0, 9, 16, 21, 24, 25])
        assert np.array_equal(np.diff(rep.best_candidate.values),
                              [9, 7, 5, 3, 1])

    def test_exp_fine_lattice(self):
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 2.0,
                               Constant(1.0))
        rep = exhaustive_verify(p, resolution=0.01)
        # first increment in {0.01, ..., 1.99}
        assert rep.candidates_evaluated == 199
        assert rep.certified
        assert rep.best_value_found == pytest.approx(2 * math.e, abs=1e-4)

    def test_single_step_scale(self):
        p = VariationalProblem("exp_derivative", uniform(0, 1, 1), 3.0,
                               Constant(1.0))
        rep = exhaustive_verify(p, resolution=0.5)
        assert rep.candidates_evaluated == 1
        assert rep.certified
        assert rep.best_value_found == pytest.approx(math.exp(3.0), abs=1e-12)

    def test_max_problem_direction(self):
        # alpha in (0, 1) makes the closed form a maximum; lattice values
        # must all sit at or below it
        p = VariationalProblem("power_weighted", uniform(0, 2, 2), 2.0,
                               Constant(1.0), alpha=0.5)
        rep = exhaustive_verify(p, resolution=0.05)
        assert rep.certified
        assert rep.best_value_found <= rep.closed_form_value + 1e-9
        assert rep.best_value_found == pytest.approx(2.0, abs=1e-3)

    def test_budget_error(self):
        # C(2499, 4) ~ 1.6e12 candidates, past EXHAUSTIVE_BUDGET
        with pytest.raises(BudgetError, match="candidates exceed the budget"):
            exhaustive_verify(worked_problem(), resolution=0.01)

    def test_continuous_scale_rejected(self):
        p = VariationalProblem("exp_derivative", real_interval(0, 1, 9), 1.0,
                               Constant(1.0))
        with pytest.raises(PreconditionError):
            exhaustive_verify(p, resolution=0.1)

    def test_bad_resolution(self):
        with pytest.raises(PreconditionError):
            exhaustive_verify(worked_problem(), resolution=0.0)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf])
    def test_nonfinite_resolution(self, resolution):
        with pytest.raises(PreconditionError,
                           match="resolution must be positive and finite"):
            exhaustive_verify(worked_problem(), resolution)

    def test_no_admissible_candidate_raises(self):
        # the closed form is finite, but both lattice candidates' exp(y^Delta)
        # overflow: the walk's first error, not a vacuous certificate
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 1400.0,
                               Constant(1.0))
        with pytest.raises(DomainError, match="integrand is not finite"):
            exhaustive_verify(p, 1400 / 3)

    def test_float_near_ties(self):
        # the three unit-lattice candidates, increments (1, 1, 2), (1, 2, 1)
        # and (2, 1, 1), share one exact value, but (1, 1, 2) sums 1 ulp
        # higher in float: the first strict minimum is the second candidate,
        # and all three lie within CERTIFY_SLACK of it
        p = VariationalProblem("exp_derivative", uniform(0, 3, 3), 4.0,
                               Constant(1.0))
        rep = exhaustive_verify(p, resolution=1.0)
        assert rep.candidates_evaluated == 3
        assert rep.optima_count == 3
        assert rep.best_candidate.values.tolist() == [0, 1, 3, 4]

    def test_exact_ties_across_blocks(self, monkeypatch):
        # with phi = 1 and alpha = 2 every value is a sum of squared integer
        # increments, exact in float: the 7 orderings of (3, 3, 3, 3, 3, 3, 4)
        # tie exactly, spread over blocks of 3 candidates of 8 values, and
        # the first in lexicographic order is kept
        monkeypatch.setattr(validation, "BLOCK_VALUES", 3 * 8)
        admitted = []
        real = validation._admissibility

        def spy(problem, Y):
            out = real(problem, Y)
            admitted.append(len(out[1]))
            return out

        monkeypatch.setattr(validation, "_admissibility", spy)
        p = VariationalProblem("power_weighted", uniform(0, 7, 7), 22.0,
                               Constant(1.0), alpha=2.0)
        rep = exhaustive_verify(p, resolution=1.0)
        assert rep.candidates_evaluated == math.comb(21, 6)
        assert len(admitted) >= 3 and max(admitted) <= 3
        assert rep.best_value_found == 70.0
        assert rep.optima_count == 7
        assert np.diff(rep.best_candidate.values).tolist() == [3] * 6 + [4]

    @pytest.mark.parametrize("ts,B", [
        (uniform(0, 5, 5), 2.0),       # 2 units cannot fill 4 positive steps
        (uniform(0, 1, 1), -1.0),      # the one step has a negative tail
    ])
    def test_empty_lattice_rejected(self, ts, B):
        p = VariationalProblem("exp_derivative", ts, B, Constant(1.0))
        with pytest.raises(PreconditionError, match="no lattice candidate"):
            exhaustive_verify(p, resolution=1.0)

    def test_nine_atoms(self):
        # 8 gaps, B = 9 at resolution 1: cuts 0 < c_1 < ... < c_7 <= 8, so
        # 8 candidates, and the best is the least of their values
        p = VariationalProblem("exp_derivative", uniform(0, 8, 8), 9.0,
                               Constant(1.0))
        rep = exhaustive_verify(p, resolution=1.0)
        assert rep.candidates_evaluated == 8
        assert rep.certified
        values = [evaluate_functional(p, np.array([0, *cuts, 9], dtype=float))
                  for cuts in itertools.combinations(range(1, 9), 7)]
        assert len(values) == 8
        assert rep.best_value_found == min(values)

    @pytest.mark.parametrize("kind,phi,alpha", [
        ("power_weighted", Affine(0.5, 1.0), 2.0),
        ("exp_derivative", Affine(0.3, 0.7), None),
        ("xlogx_shifted", Affine(0.3, 0.7), None),
    ])
    def test_thirty_atoms(self, kind, phi, alpha):
        # the budget, not the atom count, bounds the lattice: 29 gaps with
        # B / resolution = 36 give C(35, 28) candidates
        p = VariationalProblem(kind, uniform(0, 10, 29), 36.0, phi, alpha=alpha)
        rep = exhaustive_verify(p, resolution=1.0)
        assert rep.candidates_evaluated == math.comb(35, 28) == 6724520
        assert rep.certified

    def test_resolution_too_fine(self):
        # B / resolution overflows to inf: no lattice can be counted
        with pytest.raises(BudgetError, match="not finite|exceed"):
            exhaustive_verify(worked_problem(), resolution=1e-320)

    def test_flat_functional_all_tie(self):
        # alpha = 1 + 1e-12 with phi = 1 makes every value 30 within far
        # less than CERTIFY_SLACK: every candidate is an optimum
        p = VariationalProblem("power_weighted", uniform(0, 5, 5), 30.0,
                               Constant(1.0), alpha=1.0 + 1e-12)
        rep = exhaustive_verify(p, resolution=1.0)
        assert rep.candidates_evaluated == math.comb(29, 4) == 23751
        assert rep.optima_count == 23751

    @pytest.mark.parametrize("ts,B,resolution,count", [
        (uniform(0, 2, 2), 2.0, 1e-5, 199999),
        (uniform(0, 3, 3), 3.0, 1.5e-3, math.comb(1999, 2)),
        (uniform(0, 1, 1), 2.0, 2e-12, 1),      # bound ~ 10**12
    ])
    @pytest.mark.parametrize("kind,phi,alpha", [
        ("power_weighted", Affine(0.5, 1.0), 2.0),
        ("xlogx_shifted", Constant(1.0), None),
    ])
    def test_memory_bounded(self, ts, B, resolution, count, kind, phi, alpha):
        # the level tables are built in blocks: no (levels x levels) table
        # and no level array for one step
        p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
        tracemalloc.start()
        try:
            rep = exhaustive_verify(p, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.candidates_evaluated == count
        assert rep.certified
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("kind,phi,alpha,B,resolution,count", [
        ("exp_derivative", Affine(0.5, 1.0), None, 3.2, 0.1, 4495),
        ("xlogx_shifted", Constant(1.0), None, 3.25, 0.1, 4960),
        ("power_weighted", Exp(), 2.0, 1.3, 0.1, 220),
        ("power_weighted", Constant(1.0), 0.5, 2.05, 0.1, 1140),
    ])
    def test_matches_product_enumeration(self, kind, phi, alpha, B,
                                         resolution, count):
        ts = custom(atoms=[0.0, 0.5, 1.25, 2.0, 3.0])
        p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
        Y, vals, sign = product_reference(p, resolution)
        near = vals <= vals.min() + validation.CERTIFY_SLACK

        rep = exhaustive_verify(p, resolution)
        assert len(Y) == count == rep.candidates_evaluated
        assert rep.optima_count == np.count_nonzero(near)
        assert sign * rep.best_value_found == pytest.approx(vals.min(),
                                                            abs=1e-12)
        assert np.any(np.all(np.isclose(Y[near], rep.best_candidate.values,
                                        rtol=0, atol=1e-12), axis=1))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["power_weighted", "exp_derivative",
                                 "xlogx_shifted"]),
           alpha=st.sampled_from([-1.0, 0.5, 2.0, 3.0]),
           n=st.integers(1, 5), extra=st.integers(0, 6),
           uniform_scale=st.booleans(), affine=st.booleans(),
           resolution=st.sampled_from([1.0, 0.5, 0.1, 0.3]),
           fraction=st.sampled_from([0.0, 0.25, 0.6]))
    def test_best_is_first_strict_minimum(self, kind, alpha, n, extra,
                                          uniform_scale, affine, resolution,
                                          fraction):
        # phi = 1 on a uniform scale gives exact ties; alpha = 0.5 is a
        # maximum problem; a fraction makes B a non-lattice value
        ts = (uniform(0, n, n) if uniform_scale
              else custom(atoms=np.cumsum([0.0] + [0.5, 1.0, 1.5, 0.75, 1.25][:n])))
        phi = Affine(0.5, 1.0) if affine else Constant(1.0)
        B = (n + extra + fraction) * resolution
        p = VariationalProblem(kind, ts, B, phi,
                               alpha=alpha if kind == "power_weighted" else None)
        try:
            Y, vals, sign = product_reference(p, resolution)
        except FeasibilityError:
            return                      # no closed form to compare with
        rep = exhaustive_verify(p, resolution)
        first = int(np.argmin(vals))
        assert rep.candidates_evaluated == len(vals)
        assert rep.best_candidate.values.tolist() == Y[first].tolist()
        assert sign * rep.best_value_found == vals[first]
        assert rep.optima_count == np.count_nonzero(
            vals <= vals[first] + validation.CERTIFY_SLACK)

    @pytest.mark.parametrize("kind,alpha,B,M", [
        ("power_weighted", 2.0, 6.85e10, 13),
        ("power_weighted", 2.0, 1e12, 11),
        ("power_weighted", 3.0, 1e12, 14),
        ("xlogx_shifted", None, 6.85e10, 12),
    ])
    def test_large_magnitude_ties_match_reference(self, kind, alpha, B, M):
        # the exact ties among the optimal increments' orderings fall apart
        # by many ulps, each far above CERTIFY_SLACK: the bounds need their
        # rounding margin to keep the row the evaluator ranks first
        p = VariationalProblem(kind, uniform(0, 5, 5), B, Constant(1.0),
                               alpha=alpha)
        Y, vals, sign = product_reference(p, B / M)
        rep = exhaustive_verify(p, B / M)
        first = int(np.argmin(vals))
        assert rep.best_candidate.values.tolist() == Y[first].tolist()
        assert rep.optima_count == np.count_nonzero(
            vals <= vals[first] + validation.CERTIFY_SLACK)

    def test_nonlattice_boundary(self):
        # B = 1.05 with resolution 0.5: the tail absorbs the remainder
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 1.05,
                               Constant(1.0))
        rep = exhaustive_verify(p, resolution=0.5)
        assert rep.candidates_evaluated == 2  # first increment 0.5 or 1.0
        assert rep.certified
        for inc in np.diff(rep.best_candidate.values):
            assert inc > 0

    def test_walked_rows_are_cut_levels(self, monkeypatch):
        # every walked candidate sits at its cut levels k * resolution, the
        # floats the programme bounds, not at running sums of increments;
        # a flat functional walks all of them
        walked = []
        real = validation._admissibility

        def spy(problem, Y):
            walked.append(np.array(Y))
            return real(problem, Y)

        monkeypatch.setattr(validation, "_admissibility", spy)
        p = VariationalProblem("power_weighted", uniform(0, 5, 5), 3.05,
                               Constant(1.0), alpha=1.0 + 1e-12)
        resolution = 0.1
        rep = exhaustive_verify(p, resolution)
        Y = np.concatenate(walked)
        assert rep.optima_count == rep.candidates_evaluated == math.comb(30, 4)
        k = np.rint(Y[:, 1:-1] / resolution)
        assert np.array_equal(Y[:, 1:-1], k * resolution)
        assert np.all(Y[:, 0] == 0.0) and np.all(Y[:, -1] == 3.05)


class TestLatticeBounds:
    """The dynamic programme's term bounds hold every lattice candidate's
    walk value: the sum of its gaps' lows is at most that value, and the
    sum of its highs at least."""

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0, 3.0])
    @pytest.mark.parametrize("phi,B", [
        (Exp(), 1.3), (Exp(), 30.0),
        (Affine(0.5, 1.0), 1.3), (Affine(0.5, 1.0), 1e4),
        (Affine(0.5, 1.0), 1e8),
        (Polynomial([1.0, 0.3, 0.2]), 2.0), (Polynomial([1.0, 0.3, 0.2]), 1e8),
    ])
    def test_power_weighted_bounds_hold_every_candidate(self, phi, B, alpha):
        self.check("power_weighted", phi, B, alpha)

    @pytest.mark.parametrize("phi", [Exp(), Affine(0.5, 1.0),
                                     Polynomial([1.0, 0.3, 0.2]), Constant(1.0)])
    @pytest.mark.parametrize("kind,B", [
        ("exp_derivative", 1.3), ("exp_derivative", 30.0),
        ("xlogx_shifted", 30.0), ("xlogx_shifted", 1e4),
        ("xlogx_shifted", 1e8), ("xlogx_shifted", 6.85e8),
    ])
    def test_phi_weighted_bounds_hold_every_candidate(self, kind, B, phi):
        self.check(kind, phi, B)

    @staticmethod
    def check(kind, phi, B, alpha=None):
        p = VariationalProblem(kind, custom(atoms=[0.0, 0.5, 1.25, 2.0, 3.0]),
                               B, phi, alpha=alpha)
        sign = 1.0 if solve(p).extremum == "min" else -1.0
        bound, resolution = 11, B / 12           # levels 0..11, and B
        lat = validation._Lattice(p, sign, bound, resolution)
        levels = np.arange(bound + 2)
        cuts = np.array(list(itertools.combinations(range(1, bound + 1), 3)))
        path = np.column_stack([np.zeros(len(cuts), dtype=int), cuts,
                                np.full(len(cuts), bound + 1)])
        # summed as the programme sums them, last gap first: summed first
        # gap first, as the walk sums its terms, they would need no margin
        low = high = 0.0
        for i in range(lat.n - 1, -1, -1):
            lo, hi = lat._terms(i, levels, levels)
            low = lo[path[:, i], path[:, i + 1]] + low
            high = hi[path[:, i], path[:, i + 1]] + high
        # the candidates as exhaustive_verify builds and walks them
        Y = np.zeros((len(cuts), 5), order="F")
        Y[:, 1:-1] = cuts * resolution
        Y[:, -1] = B
        _, rows, _, vals = solvers._admissibility(p, Y)
        assert len(rows) == len(cuts) == 165
        assert np.all(low <= sign * vals) and np.all(sign * vals <= high)

    @pytest.mark.parametrize("kind,alpha", [
        ("power_weighted", 2.0), ("exp_derivative", None),
        ("xlogx_shifted", None),
    ])
    def test_one_integrand_value_per_level_pair(self, kind, alpha,
                                                monkeypatch):
        # the bounds come from the terms at the levels themselves, with no
        # axis of shifted ends around them
        shapes = []
        real = validation.gap_integrand

        def spy(p, y, d, *rest):
            out = real(p, y, d, *rest)
            shapes.append((np.shape(y), np.shape(d), out.shape))
            return out

        monkeypatch.setattr(validation, "gap_integrand", spy)
        p = VariationalProblem(kind, custom(atoms=[0.0, 0.5, 1.25, 2.0, 3.0]),
                               30.0, Affine(0.5, 1.0), alpha=alpha)
        lat = validation._Lattice(p, 1.0, 11, 2.5)
        for i, (js, ks) in enumerate([(np.arange(1), np.arange(1, 9)),
                                      (np.arange(1, 9), np.arange(2, 10)),
                                      (np.arange(3, 7), np.arange(3, 12))]):
            low, high = lat._terms(i, js, ks)
            assert shapes[i] == ((len(js), 1), (len(js), len(ks)),
                                 (len(js), len(ks)))
            assert low.shape == high.shape == (len(js), len(ks))
        assert len(shapes) == 3


def product_reference(p, resolution):
    """Brute force independent of the oracle: every integer tuple of first
    n - 1 increments whose lattice sum leaves a positive remainder, in
    lexicographic order, as the trajectory y_i = (k_1 + ... + k_i) *
    resolution, y_n = B, through evaluate_functional with admissibility
    checked.  Returns the trajectories, their sign-adjusted values and the
    sign."""
    sign = 1.0 if solve(p).extremum == "min" else -1.0
    n, B = len(p.ts.points) - 1, float(p.B)
    top = math.ceil(B / resolution)
    heads = [ks for ks in itertools.product(range(1, top + 1), repeat=n - 1)
             if sum(ks) * resolution < B * (1 - 1e-9)]
    cuts = np.cumsum(np.array(heads, dtype=np.int64).reshape(len(heads), n - 1),
                     axis=1)
    Y = np.column_stack([np.zeros(len(cuts)), cuts * resolution,
                         np.full(len(cuts), B)])
    return Y, sign * evaluate_functional(p, Y), sign


class TestRandom:
    def test_deterministic(self):
        p = worked_problem()
        r1 = random_verify(p, samples=500, seed=42)
        r2 = random_verify(p, samples=500, seed=42)
        assert r1.best_value_found == r2.best_value_found
        assert np.array_equal(r1.best_candidate.values, r2.best_candidate.values)
        r3 = random_verify(p, samples=500, seed=43)
        assert r3.best_value_found != r1.best_value_found

    def test_certifies_worked_example(self):
        rep = random_verify(worked_problem(), samples=5000, seed=7)
        assert rep.certified
        assert rep.candidates_evaluated == 5000
        assert rep.best_value_found >= 50 * math.log(10) - 1e-9

    def test_max_direction(self):
        p = VariationalProblem("power_weighted", uniform(0, 2, 4), 2.0,
                               Exp(), alpha=0.5)
        rep = random_verify(p, samples=2000, seed=3)
        assert rep.certified
        assert rep.best_value_found <= rep.closed_form_value + 1e-9

    def test_no_admissible_sample_raises(self):
        # the closed form is finite, but every sample's exp(y^Delta)
        # overflows: the walk's first error, not a vacuous certificate
        p = VariationalProblem("exp_derivative", uniform(0, 50, 50), 30000.0,
                               Constant(1.0))
        with pytest.raises(DomainError, match="integrand is not finite"):
            random_verify(p, 200, 1)

    def test_blocks_without_admissible_rows_are_skipped(self, monkeypatch):
        # one sample of 3 values a block, about half of which overflow
        monkeypatch.setattr(validation, "BLOCK_VALUES", 3)
        admitted = []
        real = validation._admissibility

        def spy(problem, Y):
            out = real(problem, Y)
            admitted.append(len(out[1]))
            return out

        monkeypatch.setattr(validation, "_admissibility", spy)
        p = VariationalProblem("exp_derivative", uniform(0, 2, 2), 1000.0,
                               Constant(1.0))
        rep = random_verify(p, 20, 0)
        assert rep.certified and math.isfinite(rep.best_value_found)
        assert 0 in admitted and max(admitted) > 0

    def test_candidates_end_at_B(self, monkeypatch):
        # at B = 1e8 a running sum of 199 increments misses B by more than
        # BOUNDARY_TOL on most rows: each sample ends at B by construction,
        # so the walks, of BLOCK_VALUES // 200 rows, admit all of them
        p = VariationalProblem("xlogx_shifted", uniform(0, 10, 199), 1e8,
                               Constant(1.0))
        walks = []
        real = validation._admissibility

        def spy(problem, Y):
            out = real(problem, Y)
            walks.append((len(out[1]), len(Y)))
            return out

        monkeypatch.setattr(validation, "_admissibility", spy)
        rep = random_verify(p, 200, 0)
        assert rep.certified
        assert rep.best_candidate.values[-1] == 1e8
        rows = validation.BLOCK_VALUES // 200
        assert walks == [(rows, rows)] * (200 // rows) + [(200 % rows,) * 2]

    @pytest.mark.parametrize("kind,B,alpha", [
        ("exp_derivative", 50.0, None), ("xlogx_shifted", 400.0, None),
        ("power_weighted", 50.0, 2.0)])
    def test_memory_bounded(self, kind, B, alpha):
        # blocks of BLOCK_VALUES values: 5000 samples of 201 values at once
        # would be 8 MB an array
        p = VariationalProblem(kind, uniform(0, 10, 200), B, Affine(0.1, 1.0),
                               alpha=alpha)
        tracemalloc.start()
        try:
            rep = random_verify(p, samples=5000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.candidates_evaluated == 5000 and rep.certified
        assert peak < 8 * 2 ** 20

    def test_best_value_is_the_evaluators(self):
        # the walk sums a block's rows in order, evaluate_functional a lone
        # row pairwise: the report gives the evaluator's value
        p = VariationalProblem("xlogx_shifted", uniform(0, 10, 200), 400.0,
                               Affine(0.1, 1.0))
        rep = random_verify(p, samples=2000, seed=1)
        assert rep.best_value_found == evaluate_functional(p, rep.best_candidate)

    def test_bad_samples(self):
        with pytest.raises(PreconditionError):
            random_verify(worked_problem(), samples=0, seed=1)
        with pytest.raises(PreconditionError):
            random_verify(worked_problem(), samples=5, seed=-1)

    def test_many_random_problems_certified(self):
        rng = random.Random(2024)
        kinds = ["power_weighted", "exp_derivative", "xlogx_shifted"]
        phis = [Constant(1.0), Affine(0.5, 1.0), Exp()]
        done = 0
        while done < 50:
            ts = random_discrete_timescale(rng, min_atoms=3, max_atoms=7)
            kind = rng.choice(kinds)
            phi = rng.choice(phis)
            B = rng.uniform(0.5, 4.0)
            alpha = rng.choice([-1.0, 0.5, 2.0, 3.0]) \
                if kind == "power_weighted" else None
            p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
            try:
                rep = random_verify(p, samples=200, seed=done)
            except FeasibilityError:
                continue  # xlogx draw with no admissible closed form
            assert rep.certified, (kind, B, alpha)
            done += 1


def discrete_sum(p, y):
    """The functional on a discrete scale as the plain sum over its gaps."""
    mu = np.diff(p.ts.points)
    d = np.diff(y) / mu
    phi_t = p.phi(p.ts.points[:-1])
    if p.kind == "exp_derivative":
        terms = phi_t * np.exp(d)
    elif p.kind == "xlogx_shifted":
        terms = (phi_t + d) * np.log(phi_t + d)
    else:
        terms = (np.diff(p.phi.antideriv(y)) / mu) ** p.alpha
    return float(np.sum(mu * terms))


class TestDiscreteObjective:
    """The oracles' batched evaluation equals the per-row evaluation and
    the plain sum over the gaps."""

    @pytest.mark.parametrize("kind,phi,B,alpha", [
        ("power_weighted", Exp(), 2.0, 2.0),
        ("power_weighted", Affine(1.0, 0.5), 1.5, -1.0),
        ("exp_derivative", Affine(0.5, 1.0), 2.0, None),
        ("xlogx_shifted", Constant(1.0), 3.0, None),
    ])
    def test_matches_evaluate_functional(self, kind, phi, B, alpha):
        ts = custom(atoms=[0.0, 0.5, 1.25, 2.0, 3.0])
        p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
        rng = np.random.default_rng(5)
        W = 1.0 - rng.random((20, len(ts.points) - 1))
        D = W / W.sum(axis=1, keepdims=True) * B
        Y = np.concatenate([np.zeros((len(D), 1)), np.cumsum(D, axis=1)], axis=1)
        batched = evaluate_functional(p, Y)
        assert batched.shape == (20,)
        for row, v in zip(Y, batched):
            assert evaluate_functional(p, GridFunction(ts, row)) == \
                pytest.approx(float(v), abs=1e-10)
            # the same terms, summed in the same order
            assert discrete_sum(p, row) == float(v)


class TestPhiOnKappa:
    @pytest.mark.parametrize("kind", ["exp_derivative", "xlogx_shifted"])
    def test_evaluated_once_per_problem(self, kind):
        # the solver and every walk of the oracles read one cached array
        ts = uniform(0, 5, 5)
        kappa = ts.kappa_points()
        calls = []

        class Counted(Affine):
            def __call__(self, x):
                if np.shape(x) == kappa.shape and np.array_equal(x, kappa):
                    calls.append(x)
                return super().__call__(x)

        p = VariationalProblem(kind, ts, 25.0, Counted(2.0, 1.0))
        solve(p)
        random_verify(p, 100, seed=1)
        perturbation_verify(p, 0.1)
        exhaustive_verify(p, 1.0)
        assert len(calls) == 1
        # kept off the fields: a twin problem is equal, with the same hash
        twin = VariationalProblem(kind, ts, 25.0, p.phi)
        assert twin == p and hash(twin) == hash(p)
        with pytest.raises(ValueError):
            p.phi_on_kappa[0] = 0.0


class TestPerturbation:
    @pytest.mark.parametrize("kind,phi,B,alpha", [
        ("power_weighted", Constant(1.0), 2.0, 2.0),
        ("power_weighted", Exp(), 1.5, 0.5),
        ("exp_derivative", Constant(1.0), 2.0, None),
        ("xlogx_shifted", Affine(2.0, 1.0), 25.0, None),
    ])
    def test_solver_output_certified(self, kind, phi, B, alpha):
        ts = uniform(0, 5, 5) if kind == "xlogx_shifted" else uniform(0, 2, 4)
        p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
        rep = perturbation_verify(p, eps=1e-4)
        assert rep.certified
        assert rep.refuting_candidate is None

    def test_corrupted_trajectory_refuted(self):
        p = worked_problem()
        y = GridFunction(p.ts, [0, 9, 17, 21, 24, 25])  # bumped interior point
        rep = perturbation_verify(p, eps=0.5, trajectory=y)
        assert rep.verdict == "refuted"
        assert rep.refuting_candidate is not None
        better = evaluate_functional(p, rep.refuting_candidate)
        assert better < evaluate_functional(p, y)

    def test_eps_halving(self):
        # eps so large that every first shift breaks monotonicity
        p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), 1.0,
                               Constant(1.0))
        rep = perturbation_verify(p, eps=100.0)
        assert rep.certified

    def test_bad_eps(self):
        with pytest.raises(PreconditionError):
            perturbation_verify(worked_problem(), eps=-1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_nonfinite_eps(self, eps, monkeypatch):
        # rejected before any walk, not blamed after 40 halvings
        monkeypatch.setattr(validation, "_admissibility", None)
        with pytest.raises(PreconditionError,
                           match="eps must be positive and finite"):
            perturbation_verify(worked_problem(), eps)

    def test_unexpected_error_propagates(self, monkeypatch):
        # only admissibility and domain failures shrink eps; anything else
        # is a fault and must surface unchanged
        p = worked_problem()
        base = solve(p).trajectory

        def broken(problem, y):
            raise RuntimeError("evaluator fault")

        # the moves are walked and valued here; the base goes through
        # evaluate_functional, which this does not touch
        monkeypatch.setattr(validation, "_admissibility", broken)
        with pytest.raises(RuntimeError, match="evaluator fault"):
            perturbation_verify(p, eps=1e-3, trajectory=base)



def _perturbation_cases():
    """(label, problem, eps, trajectory, pair_samples, seed): a seeded set
    over the three kinds, scales of 2 and 3 points (no pair moves), eps
    large enough that only some moves need halvings, and corrupted
    trajectories."""
    rng = random.Random(2024)
    kinds = [("exp_derivative", None), ("xlogx_shifted", None),
             ("power_weighted", 2.0), ("power_weighted", 0.5),
             ("power_weighted", -1.0)]
    cases = []
    for c in range(30):
        kind, alpha = kinds[c % len(kinds)]
        ts = (uniform(0, 2, 1 + c % 2) if c < 5
              else random_discrete_timescale(rng, min_atoms=4, max_atoms=25))
        phi = rng.choice([Constant(rng.uniform(0.5, 2)), Affine(0.3, 1.0),
                          Affine(0.05, 0.5)])
        B = rng.uniform(1, 20) + (8 * (ts.b - ts.a) * 3 if kind == "xlogx_shifted" else 0)
        p = VariationalProblem(kind, ts, B, phi, alpha=alpha)
        y = solve(p).trajectory.values.copy()
        gaps = np.diff(y)
        traj, eps = None, 1.5 * float(np.median(gaps))
        if c % 3 == 2 and len(y) > 2:
            i = int(np.argmax(np.minimum(gaps[:-1], gaps[1:]))) + 1
            delta = 0.3 * min(gaps[i - 1], gaps[i]) * rng.choice([1, -1])
            y[i] += delta
            traj, eps = GridFunction(ts, y), abs(delta)
        elif c % 3 == 1:
            eps = rng.choice([1e-4, 4 * float(gaps.max())])
        cases.append((f"{c}-{kind}-{len(ts)}", p, eps, traj,
                      rng.choice([0, 5, 16]), rng.randrange(1000)))
    return cases


def _outcome(oracle, p, eps, traj, pairs, seed):
    """The report as bytes, or the error's class and message."""
    try:
        r = oracle(p, eps, trajectory=traj, pair_samples=pairs, seed=seed)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    ref = r.refuting_candidate
    return (json.dumps(r.to_dict(), sort_keys=True), r.mode,
            None if ref is None else ref.values.tobytes())


class TestBatchedPerturbation:
    """The batched oracle against the per-move reference loop."""

    CASES = _perturbation_cases()

    @pytest.mark.parametrize("label,p,eps,traj,pairs,seed", CASES,
                             ids=[c[0] for c in CASES])
    def test_matches_per_move_loop(self, label, p, eps, traj, pairs, seed):
        args = (p, eps, traj, pairs, seed)
        assert (_outcome(perturbation_verify, *args)
                == _outcome(perturbation_verify_per_move, *args))

    def test_case_set_covers_its_claims(self):
        reports = [perturbation_verify(p, eps, trajectory=traj,
                                       pair_samples=pairs, seed=seed)
                   for _, p, eps, traj, pairs, seed in self.CASES]
        assert {r.verdict for r in reports} == {"certified", "refuted"}
        assert {len(c[1].ts) for c in self.CASES} >= {2, 3}
        assert {c[1].kind for c in self.CASES} == set(KINDS)

    def test_halves_only_rejected_rows(self, monkeypatch):
        # eps of 1.5 median gaps breaks monotonicity for some moves only
        rng = random.Random(7)
        p = VariationalProblem("xlogx_shifted",
                               random_discrete_timescale(rng, 12, 12), 200.0,
                               Constant(1.0))
        eps = 1.5 * float(np.median(np.diff(solve(p).trajectory.values)))
        sizes = []
        real = validation._admissibility

        def spy(problem, Y):
            sizes.append(len(Y))
            return real(problem, Y)

        monkeypatch.setattr(validation, "_admissibility", spy)
        rep = perturbation_verify(p, eps)
        assert rep.certified
        assert sizes[0] == rep.candidates_evaluated == 2 * 10 + 16
        assert 0 < sizes[1] < sizes[0]
        assert sizes == sorted(sizes, reverse=True)
        monkeypatch.undo()
        assert (_outcome(perturbation_verify, p, eps, None, 16, 12345)
                == _outcome(perturbation_verify_per_move, p, eps, None, 16, 12345))

    def test_one_integrand_per_row_and_round(self, monkeypatch):
        # evaluate_functional sees the base only; each halving round walks
        # its rows once and builds their integrand in one call, which sees
        # no more rows than the round holds
        rng = random.Random(7)
        p = VariationalProblem("xlogx_shifted",
                               random_discrete_timescale(rng, 12, 12), 200.0,
                               Constant(1.0))
        base = solve(p).trajectory
        eps = 1.5 * float(np.median(np.diff(base.values)))
        events = []
        real_evaluate = validation.evaluate_functional
        real_walk = validation._admissibility
        real_build = solvers.gap_integrand

        def evaluate(problem, y):
            events.append(("evaluate", y))
            return real_evaluate(problem, y)

        def walk(problem, y):
            events.append(("walk", len(y)))
            return real_walk(problem, y)

        def build(problem, y, d, mu, rise, at):
            events.append(("integrand", len(d)))
            return real_build(problem, y, d, mu, rise, at)

        monkeypatch.setattr(validation, "evaluate_functional", evaluate)
        monkeypatch.setattr(validation, "_admissibility", walk)
        monkeypatch.setattr(solvers, "gap_integrand", build)
        rep = perturbation_verify(p, eps, trajectory=base)
        assert events[0][0] == "evaluate" and events[0][1] is base
        assert events[1] == ("integrand", 1)
        walks, builds = events[2::2], events[3::2]
        assert [name for name, _ in walks] == ["walk"] * len(walks)
        assert [name for name, _ in builds] == ["integrand"] * len(walks)
        assert all(b <= w for (_, w), (_, b) in zip(walks, builds))
        # eps needs halving for some rows, so they are walked more than once
        assert sum(w for _, w in walks) > rep.candidates_evaluated

    def test_blocks_bound_the_rows(self, monkeypatch):
        # with room for 3 rows of 21 values a block, the report still
        # matches the reference, and no evaluation sees more than 3 rows
        monkeypatch.setattr(validation, "BLOCK_VALUES", 3 * 21)
        seen = []
        real = validation._admissibility

        def spy(problem, y):
            seen.append(np.shape(y))
            return real(problem, y)

        monkeypatch.setattr(validation, "_admissibility", spy)
        for _, p, eps, traj, pairs, seed in self.CASES[5:]:
            if len(p.ts) != 21:
                continue
            assert (_outcome(perturbation_verify, p, eps, traj, pairs, seed)
                    == _outcome(perturbation_verify_per_move, p, eps, traj,
                                pairs, seed))
        assert seen and max(rows for rows, _ in seen) == 3

    @pytest.mark.parametrize("rows", [100, 2])
    def test_ties_keep_the_first_move(self, monkeypatch, rows):
        # moves 3 and 5 tie for the least value, in one block or in two:
        # the best and the refuting candidate are move 3
        monkeypatch.setattr(validation, "BLOCK_VALUES", 6 * rows)
        p = worked_problem()
        base = solve(p).trajectory
        real = validation._admissibility
        blocks = []

        def fake(problem, y):
            shape, ok, error, _ = real(problem, y)
            assert len(ok) == len(y)        # eps = 0.5 needs no halving
            start = sum(len(b) for b in blocks)
            blocks.append(y.copy())
            rows = np.arange(start, start + len(y))
            return shape, ok, error, np.where(np.isin(rows, [3, 5]), 0.0, 1e9)

        monkeypatch.setattr(validation, "_admissibility", fake)
        rep = perturbation_verify(p, eps=0.5, trajectory=base)
        moved = np.concatenate(blocks)
        assert rep.best_value_found == 0.0 and rep.verdict == "refuted"
        np.testing.assert_array_equal(rep.best_candidate.values, moved[3])
        np.testing.assert_array_equal(rep.refuting_candidate.values, moved[3])
        assert not np.array_equal(moved[3], moved[5])

    def test_memory_bounded(self):
        # 2001 atoms make 4014 moves: all at once would be 64 MB
        p = VariationalProblem("exp_derivative", uniform(0, 10, 2000), 50.0,
                               Affine(0.1, 1.0))
        tracemalloc.start()
        try:
            rep = perturbation_verify(p, eps=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.candidates_evaluated == 4014 and rep.certified
        assert peak < 8 * 2 ** 20

    def test_overflowing_eps_certifies_without_warnings(self):
        # exp(y_delta) overflows for the first shifts of eps = 1e3; those
        # rows are halved, silently
        p = VariationalProblem("exp_derivative", uniform(0, 2, 4), 2.0,
                               Constant(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = perturbation_verify(p, eps=1e3)
        assert rep.certified

    def test_fortieth_halving_is_the_last(self):
        # y = (0, 0.5, 1): a shift of the middle value is admissible below
        # 0.5, so eps = 0.375 * 2**40 passes at the 40th halving and
        # 0.75 * 2**40 never does
        p = VariationalProblem("xlogx_shifted", uniform(0, 2, 2), 1.0,
                               Constant(1.0))
        args = (p, 0.375 * 2.0 ** 40, None, 16, 12345)
        assert perturbation_verify(*args[:2]).certified
        assert (_outcome(perturbation_verify, *args)
                == _outcome(perturbation_verify_per_move, *args))
        with pytest.raises(PreconditionError, match="after 40 halvings"):
            perturbation_verify(p, 0.75 * 2.0 ** 40)

    def test_eps_too_large_after_40_halvings(self):
        # 1e300 / 2**40 still breaks every move
        p = VariationalProblem("exp_derivative", uniform(0, 2, 4), 2.0,
                               Constant(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError,
                               match="eps destroys admissibility even after 40 halvings"):
                perturbation_verify(p, eps=1e300)


class TestBlockSize:
    """Blocks bound memory, not results: with blocks of one row or of
    three, every oracle reports the same bytes as with the default."""

    CASES = {
        "exhaustive": (VariationalProblem(
            "power_weighted", custom(atoms=[0, 0.5, 1.7, 2.0, 3.1, 4.0]), 5.0,
            Exp(), alpha=2.0), lambda p: exhaustive_verify(p, 5.0 / 40)),
        # 30 gaps: a row's terms are summed in order whatever its block
        "random": (VariationalProblem(
            "xlogx_shifted", uniform(0, 10, 30), 400.0, Affine(0.1, 1.0)),
            lambda p: random_verify(p, 400, 3)),
        "perturbation": (worked_problem(), lambda p: perturbation_verify(
            p, 0.5, trajectory=GridFunction(p.ts, [0, 9, 17, 21, 24, 25]))),
    }

    @pytest.mark.parametrize("oracle", sorted(CASES))
    def test_reports_do_not_depend_on_block_size(self, monkeypatch, oracle):
        p, run = self.CASES[oracle]

        def report():
            r = run(p)
            ref = r.refuting_candidate
            return (json.dumps(r.to_dict(), sort_keys=True),
                    None if ref is None else ref.values.tobytes())

        default = report()
        for rows in (1, 3):
            monkeypatch.setattr(validation, "BLOCK_VALUES", rows * len(p.ts))
            assert report() == default, rows


class TestWsc:
    def test_closed_forms(self):
        rep = wsc_counterexample()
        assert rep.I_tilde == pytest.approx(2 * math.log(2) - 1, abs=1e-8)
        assert rep.C == pytest.approx(math.log(2), abs=1e-8)
        assert rep.I_max_claimed == pytest.approx(-math.log(math.log(2)),
                                                  abs=1e-8)
        assert rep.contradiction
        assert rep.margin == pytest.approx(0.0197814, abs=1e-6)

    def test_node_refinement_stable(self):
        coarse = wsc_counterexample(nodes=33)
        fine = wsc_counterexample(nodes=513)
        assert coarse.margin == pytest.approx(fine.margin, abs=1e-7)
        assert coarse.contradiction and fine.contradiction

    def test_to_dict(self):
        d = wsc_counterexample().to_dict()
        assert set(d) == {"I_tilde", "C", "I_max_claimed", "contradiction",
                          "margin"}
