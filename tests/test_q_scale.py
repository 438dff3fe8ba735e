"""q_scale's atoms against the exact references in `reference_q_scale.py`.

Inside [2**-960, 2**960] every atom is the double nearest q**k, ties to
even, built by the double-double ladder; libm's pow, which q_scale used
before, is off by one ulp now and then (1.7**26 on glibc 2.36).  A scale
with an end outside that range keeps pow's atoms, bit for bit.  pytest's
``filterwarnings`` turns any RuntimeWarning into an error, so the range
tests also show that none escapes near the ladder's limits.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from reference_q_scale import comprehension_atoms, exact_atoms
from tsvar import ConstructionError, TimeScale, q_scale
from tsvar import timescale
from tsvar.timescale import _nearest_power, _power_ladder

#: (q, k, q**k): atoms that glibc 2.36's pow misrounds; 1.5**34 = 3**34 /
#: 2**34 is an exact tie, as 3**34 takes 54 bits
PINNED = [
    (1.7, 26, 981006.6600992278),
    (1.3, 45, 134106.81671325013),
    (1.1, 284, 569537841453.8108),
    (1.5065, 100, 6.264892177615688e+17),
    (1.5, 34, 970739.7373664756),
]

LADDER_MIN, LADDER_MAX = 2.0 ** -960, 2.0 ** 960


def in_ladder_range(q, n, m):
    return LADDER_MIN <= q ** n and q ** m <= LADDER_MAX


def check_atoms(q, n, m):
    """q_scale(q, n, m) against the references; its atoms, or None where
    atoms closer than POINT_TOL make both it and pow's scale refuse them."""
    exact = in_ladder_range(q, n, m)
    comp = comprehension_atoms(q, n, m)
    want = exact_atoms(q, n, m) if exact else comp
    if exact:
        assert_array_equal(_power_ladder(q, n, m - n + 1), want, strict=True)
    try:
        got = q_scale(q, n, m).points
    except ConstructionError as exc:
        with pytest.raises(ConstructionError, match=re.escape(str(exc))):
            TimeScale(atoms=comp)
        return None
    assert_array_equal(got, want, strict=True)
    # one ulp from pow at most, and only where pow misrounds
    assert np.all(np.abs(got - comp) <= np.spacing(np.minimum(got, comp)))
    moved = got != comp
    assert not np.any(comp[moved] == want[moved])
    return got


class TestExactAtoms:
    @given(q=st.one_of(st.floats(1.0, 2.0, exclude_min=True),
                       st.sampled_from([1.5, 1.25, 1.75, 1.125, 1.1, 1.7, 2.0])),
           n=st.integers(-400, 400), count=st.integers(2, 600))
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_atoms_are_the_nearest_doubles(self, q, n, count):
        check_atoms(q, n, n + count - 1)

    @pytest.mark.parametrize("q, k, atom", PINNED)
    def test_pinned_atoms(self, q, k, atom):
        assert exact_atoms(q, k, k)[0] == atom
        assert q_scale(q, 0, k + 1).points[k] == atom
        assert q_scale(q, k - 1, k).points[1] == atom

    @pytest.mark.parametrize("q, k, atom", PINNED)
    def test_exact_path_on_pinned_atoms(self, q, k, atom):
        assert _nearest_power(q, k) == atom
        assert _nearest_power(q, -k) == exact_atoms(q, -k, -k)[0]

    @pytest.mark.parametrize("q, k", [
        (2.0, 0), (2.0, -5), (3.0, 33), (1.5, -34), (1.1, -300),
        (1 + 2.0 ** -52, 10 ** 4), (1.0000001, 4000), (1.0000001, -4000)])
    def test_exact_path(self, q, k):
        assert _nearest_power(q, k) == exact_atoms(q, k, k)[0]

    def test_atoms_near_a_tie_take_the_exact_path(self, monkeypatch):
        # a bound 2**40 times looser puts every pair within it of a
        # rounding midpoint, so every atom is rounded by _nearest_power
        calls = []

        def spy(q, k):
            calls.append(k)
            return _nearest_power(q, k)

        monkeypatch.setattr(timescale, "_DD_ERROR", 2.0 ** -60)
        monkeypatch.setattr(timescale, "_nearest_power", spy)
        assert check_atoms(1.1, -100, 499) is not None
        # once from _power_ladder itself, once through q_scale
        assert sorted(calls) == sorted(2 * list(range(-100, 500)))

    @pytest.mark.parametrize("q", [1.001, 1.01, 1.1, 1.5065])
    def test_sub_range_gives_the_same_atoms(self, q):
        assert np.array_equal(q_scale(q, 0, 1000).points[500:],
                              q_scale(q, 500, 1000).points)


class TestRangeLimits:
    @pytest.mark.parametrize("q, n, m", [
        (2.0, -960, 960),              # both ends on the limits
        (2.0 ** 60, -16, 16),          # q**32 would overflow the step
        (2.0 ** 100, -9, 9),           # the Python chain alone
        (1.5, 1641 - 1000, 1641),      # 1.5**1641 just below 2**960
        (1.5, -1641, -1641 + 1000),    # 1.5**-1641 just above 2**-960
        (1.9, -1036, 1036),            # a step capped below 2**960
    ])
    def test_ladder_at_its_limits(self, q, n, m, monkeypatch):
        # no pair lands near a tie here: a step past 2**960 would be NaN,
        # and only the exact path would mend its atoms
        calls = []
        monkeypatch.setattr(timescale, "_nearest_power",
                            lambda q, k: calls.append(k) or _nearest_power(q, k))
        assert in_ladder_range(q, n, m)
        check_atoms(q, n, m)
        assert calls == []

    @pytest.mark.parametrize("q, n, m", [
        (1.5, 1642 - 1000, 1642),      # 1.5**1642 just above 2**960
        (1.5, -1642, -1642 + 1000),    # 1.5**-1642 just below 2**-960
        (2.0, 0, 1023),
        (2.0, -1074, -1000),           # subnormal atoms
    ])
    def test_pow_beyond_its_limits(self, q, n, m):
        assert not in_ladder_range(q, n, m)
        check_atoms(q, n, m)

    def test_ends_at_the_largest_power_of_two(self):
        ts = q_scale(2, 0, 1023)
        assert ts.b == 2.0 ** 1023
        assert np.array_equal(ts.points, 2.0 ** np.arange(1024))

    @pytest.mark.parametrize("q, n, m", [
        (math.nan, 0, 3), (math.inf, 0, 3), (math.inf, -3, 3),
        (2, 0, 5000), (2, -5000, 0), (10 ** 400, 0, 1)])
    def test_non_finite_atoms_rejected(self, q, n, m):
        with pytest.raises(ConstructionError):
            q_scale(q, n, m)
