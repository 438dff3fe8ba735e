"""The time scale's constructor and interval kernels against the reference
copies in `reference_kernels.py`: the same bits, and the same errors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from reference_kernels import ReferenceTimeScale
from tsvar import ConstructionError, TimeScale


def build_both(atoms=(), intervals=(), nodes=None):
    """(new, reference) scales, or the two ConstructionError messages."""
    out = []
    for cls in (TimeScale, ReferenceTimeScale):
        try:
            out.append(cls(atoms=atoms, intervals=intervals,
                           quad_nodes_per_interval=nodes))
        except ConstructionError as exc:
            out.append(str(exc))
    return out


def assert_same_scale(new, ref):
    assert_array_equal(new.points, ref.points, strict=True)
    assert new.atoms == ref.atoms and new.intervals == ref.intervals
    assert_array_equal(new._spans.reshape(-1, 2), ref._spans.reshape(-1, 2))
    assert_array_equal(new._gaps, ref._gaps, strict=True)
    assert_array_equal(new._mu, ref._mu, strict=True)
    assert not new.points.flags.writeable and not new._gaps.flags.writeable


def assert_same_kernels(new, ref, vals):
    # assert_array_equal compares NaN (the derivative at a left-scattered
    # b) as equal; strict=True also compares shape and dtype
    assert_array_equal(new.delta_derivative_grid(vals),
                       ref.delta_derivative_grid(vals), strict=True)
    assert_array_equal(new._amounts(vals), ref._amounts(vals), strict=True)
    assert_array_equal(new.delta_integral(vals), ref.delta_integral(vals))
    assert_array_equal(new.cumulative_delta_integral(vals),
                       ref.cumulative_delta_integral(vals), strict=True)


def check(atoms=(), intervals=(), nodes=None, seed=0, rows=()):
    new, ref = build_both(atoms, intervals, nodes)
    if isinstance(ref, str):
        assert new == ref
        return None
    assert not isinstance(new, str), new
    assert_same_scale(new, ref)
    rng = np.random.default_rng(seed)
    t = ref.points
    for vals in (np.sin(3.0 * t) + t ** 3, rng.normal(size=len(t)),
                 rng.normal(size=tuple(rows) + (len(t),))):
        assert_same_kernels(new, ref, vals)
    return new


class TestSameBits:
    @pytest.mark.parametrize("nodes", [5, 6, 7, 9, 129])
    def test_one_interval(self, nodes):
        check(intervals=[(0.3, 2.9)], nodes=nodes)

    @pytest.mark.parametrize("nodes", [5, 7, 129])
    def test_touching_intervals(self, nodes):
        ts = check(intervals=[(0.0, 1.0), (1.0, 1.5), (1.5, 3.0), (4.0, 5.0)],
                   nodes=nodes)
        assert len(ts.points) == 4 * nodes - 2

    @pytest.mark.parametrize("nodes", [5, 7, 129])
    def test_interval_ending_at_b(self, nodes):
        check(atoms=[-1.0, -0.5], intervals=[(0.0, 1.0)], nodes=nodes)

    @pytest.mark.parametrize("nodes", [5, 7, 129])
    def test_interval_followed_by_an_atom(self, nodes):
        check(atoms=[3.0], intervals=[(0.0, 2.0)], nodes=nodes)
        check(atoms=[0.5, 2.5, 3.5], intervals=[(1.0, 2.0), (3.0, 3.25)],
              nodes=nodes)

    def test_atoms_only(self):
        check(atoms=np.linspace(0.0, 1.0, 1001))
        check(atoms=[2.0 ** k for k in range(40)])

    def test_atoms_at_ends_are_absorbed(self):
        ts = check(atoms=[0.0, 1.0 + 5e-13, 2.0 - 5e-13, 3.0, 4.0],
                   intervals=[(1.0, 2.0), (3.0, 3.5)], nodes=7)
        assert ts.atoms == (0.0, 4.0)
        # within POINT_TOL of two ends at once
        ts = check(atoms=[1.0 - 1e-13], intervals=[(0.0, 1.0 - 2e-13), (1.0, 2.0)],
                   nodes=7)
        assert ts.atoms == ()

    def test_two_hundred_five_node_intervals(self):
        lo = np.arange(200) * 1.5
        check(intervals=np.column_stack([lo, lo + 1.0]), nodes=5)
        # touching in pairs, with an atom between the pairs
        lo = np.arange(200) * 1.25
        check(atoms=lo[::2] - 0.125,
              intervals=np.column_stack([lo, lo + np.where(np.arange(200) % 2, 0.75, 1.25)]),
              nodes=5)

    @pytest.mark.parametrize("rows", [(1,), (4,), (2, 3)])
    def test_stacks(self, rows):
        check(atoms=[5.0, 5.5], intervals=[(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)],
              nodes=9, rows=rows)
        check(atoms=np.arange(10.0), rows=rows)

    def test_large_interval(self):
        check(intervals=[(0.0, 3.0)], nodes=100001)


class TestSameErrors:
    @pytest.mark.parametrize("atoms, intervals", [
        ([0.5], [(0.0, 1.0)]),
        ([-1.0, 0.5, 2.5, 3.5], [(3.0, 4.0), (0.0, 1.0), (2.0, 2.75)]),
        ([1.0 + 2e-12], [(0.0, 2.0)]),
        ([0.0, 1e-13, 0.5], [(0.0, 1.0)]),
        ([0.0, 0.5, 0.5], [(2.0, 3.0)]),
        ([], [(0.0, 2.0), (1.0, 3.0)]),
        ([], [(1.0, 1.0)]),
        ([], [(0.0, 1.0), (2.0, 1.5)]),
        ([], [(1.0, 1.0 + 2.0 ** -52)]),
        ([np.nan], []),
        ([], []),
    ])
    def test_message(self, atoms, intervals):
        new, ref = build_both(atoms, intervals, nodes=129)
        assert isinstance(ref, str) and new == ref


def test_interleaved_nodes_are_rejected():
    # the middle interval lies within POINT_TOL below the first one's end,
    # so both touch it; the reference sorted the nodes together and gave
    # the first interval a span over the second's nodes
    intervals = [(0.0, 1.0), (1.0 - 1e-13, 1.0 - 5e-14), (1.0 - 4e-14, 2.0)]
    ref = ReferenceTimeScale(intervals=intervals, quad_nodes_per_interval=129)
    assert ref._spans[0, 0] != 0
    with pytest.raises(ConstructionError, match="not strictly increasing"):
        TimeScale(intervals=intervals, quad_nodes_per_interval=129)


@st.composite
def layouts(draw):
    """Atoms and intervals with random (not dyadic) lengths and gaps,
    some touching, some atoms at an interval's end or just off it, and
    now and then an atom inside an interval."""
    kinds = ["atom"] * 2 + ["interval"] * 3 + ["end", "inside"]
    pieces = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12))
    t, atoms, intervals = 0.0, [], []
    for piece in pieces:
        t += draw(st.sampled_from([0.0, 1e-13, 3e-12, 0.01, 0.7, 2.0]))
        if piece == "interval":
            length = draw(st.floats(1e-3, 3.0))
            intervals.append((t, t + length))
            t += length
        elif piece == "end" and intervals:
            atoms.append(intervals[-1][1] + draw(st.sampled_from([-1e-13, 0.0, 1e-13])))
        elif piece == "inside" and intervals:
            atoms.append(0.5 * sum(intervals[-1]))
        else:
            t += 0.1
            atoms.append(t)
    nodes = draw(st.sampled_from([5, 7, 8, 17, 33]))
    return sorted(atoms), draw(st.permutations(intervals)), nodes


@settings(max_examples=150, derandomize=True, deadline=None)
@given(layout=layouts(), seed=st.integers(0, 2 ** 32 - 1))
def test_random_layouts(layout, seed):
    atoms, intervals, nodes = layout
    check(atoms=atoms, intervals=intervals, nodes=nodes, seed=seed, rows=(3,))
