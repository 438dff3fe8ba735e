"""trajectory.csv: the block writer's bytes against the per-row reference,
the values read back, and the writer's memory."""

import tracemalloc

import numpy as np
import pytest

from reference_trajectory_csv import write_trajectory_csv_per_row
from tsvar import GridFunction, cli, custom, real_interval, uniform

BLOCK = cli._CSV_BLOCK_ROWS

#: values whose text is easy to get wrong: a signed zero, the least
#: subnormal, the largest double and a decimal with no exact binary form
SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]


def write_both(tmp_path, ts, values):
    """The bytes of the reference and of the block writer, and the
    trajectory they wrote."""
    traj = GridFunction(ts, values)
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    write_trajectory_csv_per_row(ref, ts, traj)
    cli.write_trajectory_csv(new, ts, traj)
    return ref.read_bytes(), new.read_bytes(), traj


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def spread_values(n, seed=0):
    # signs and magnitudes from 1e-300 to 1e300, so every digit counts
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


SCALES = {
    # b left-scattered: y_delta is empty in the last row
    "discrete": lambda: custom(atoms=[0.0, 0.1, 0.5, 1.75, 3.0]),
    # b right-dense from the left: y_delta defined in every row
    "real_interval": lambda: real_interval(0.0, 2.0, 33),
    "mixed": lambda: custom(atoms=[0.0, 0.5, 3.0], intervals=[(1.0, 2.0)],
                            quad_nodes_per_interval=9),
}


class TestSameBytes:
    @pytest.mark.parametrize("kind", SCALES)
    def test_scales(self, kind, tmp_path):
        ts = SCALES[kind]()
        ref, new, _ = write_both(tmp_path, ts, np.cumsum(spread_values(len(ts))))
        assert new == ref
        last = new.split(b"\r\n")[-2]
        assert last.endswith(b",") == ts.b_left_scattered

    def test_worked_example(self, tmp_path):
        ref, new, _ = write_both(tmp_path, uniform(0, 5, 5), [0, 9, 16, 21, 24, 25])
        assert new == ref == (b"t,y,y_delta\r\n0,0,9\r\n1,9,7\r\n2,16,5\r\n"
                              b"3,21,3\r\n4,24,1\r\n5,25,\r\n")

    @pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_block_edges(self, rows, tmp_path):
        ts = uniform(0.0, 1.0, rows - 1)
        ref, new, _ = write_both(tmp_path, ts, spread_values(rows, seed=rows))
        assert new == ref
        assert new.count(b"\r\n") == rows + 1

    def test_special_values(self, tmp_path):
        # gaps of 2 keep every difference quotient finite
        ts = uniform(0.0, 14.0, 7)
        ref, new, _ = write_both(tmp_path, ts, SPECIAL + [-x for x in SPECIAL])
        assert new == ref
        for text in (b"-0,", b",4.9406564584124654e-324,",
                     b",1.7976931348623157e+308,", b",0.10000000000000001,"):
            assert text in new

    @pytest.mark.parametrize("undefined", [np.inf, -np.inf, np.nan])
    def test_interior_derivative(self, undefined, tmp_path, monkeypatch):
        # an overflowing step is +-inf, and inf - inf in a stencil NaN
        ts = uniform(0.0, 1.0, BLOCK + 2)
        d = np.array(SPECIAL * (len(ts) // len(SPECIAL) + 1))[:len(ts)]
        d[[1, BLOCK - 1, BLOCK, -2]] = undefined
        d[-1] = np.nan
        monkeypatch.setattr(ts, "delta_derivative_grid", lambda y: d)
        ref, new, _ = write_both(tmp_path, ts, spread_values(len(ts)))
        assert new == ref
        rows = new.split(b"\r\n")
        cell = b"" if np.isnan(undefined) else repr(undefined).encode()
        assert rows[1 + 1].split(b",")[2] == cell
        assert rows[1 + BLOCK].split(b",")[2] == cell

    def test_nan_value_written_as_nan(self, tmp_path):
        # GridFunction admits only finite values; one changed after the
        # check still writes nan, and only an undefined y_delta is empty
        ts = uniform(0.0, 3.0, 3)
        traj = GridFunction(ts, [0.0, 1.0, 2.0, 3.0])
        traj.values[1] = np.nan
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        write_trajectory_csv_per_row(ref, ts, traj)
        cli.write_trajectory_csv(new, ts, traj)
        assert new.read_bytes() == ref.read_bytes()
        assert new.read_bytes().split(b"\r\n")[2] == b"1,nan,"


class TestReadBack:
    @pytest.mark.parametrize("kind", SCALES)
    def test_y_bit_for_bit(self, kind, tmp_path):
        ts = SCALES[kind]()
        _, _, traj = write_both(tmp_path, ts, spread_values(len(ts), seed=1))
        assert same_bits(cli.read_trajectory_csv(tmp_path / "new.csv", ts).values,
                         traj.values)

    def test_special_values(self, tmp_path):
        ts = uniform(0.0, 4.0 * BLOCK, 2 * BLOCK)
        values = np.resize(SPECIAL + [-x for x in SPECIAL], len(ts))
        write_both(tmp_path, ts, values)
        assert same_bits(cli.read_trajectory_csv(tmp_path / "new.csv", ts).values,
                         values)


def test_memory_is_a_few_blocks(tmp_path):
    # 10^5 rows are ~6 MB of text: formatted at once (one string, one tuple
    # of floats) they peak at ~22 MB.  The writer needs the derivative grid,
    # 8 bytes a row, and beyond it a few blocks' text and floats.
    ts = uniform(0.0, 1.0, 10**5 - 1)
    traj = GridFunction(ts, 3.7 * ts.points)
    tracemalloc.start()
    try:
        cli.write_trajectory_csv(tmp_path / "t.csv", ts, traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - ts.points.nbytes < 0.5e6
