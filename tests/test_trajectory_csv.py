"""trajectory.csv: the writer's bytes against the per-row and the ``%``-block
references, its digits against '%.17g' itself, the values read back, and the
writer's memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_trajectory_csv import (write_trajectory_csv_blocks,
                                      write_trajectory_csv_per_row)
from tsvar import (Affine, GridFunction, VariationalProblem, _csvtext, cli, custom,
                   real_interval, solve, uniform)

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


# -- the digits against '%.17g' itself ---------------------------------------


def percent_text(rows):
    """What the formatter must give for rows of t, y and y_delta: each row
    after '\r\n', each value as '%' prints it, an empty y_delta for NaN."""
    return "".join("\r\n%.17g,%.17g," % (t, y) + ("" if d != d else "%.17g" % d)
                   for t, y, d in rows.tolist()).encode()


def as_rows(values):
    values = np.asarray(values, dtype=float).ravel()
    return np.resize(values, -(-len(values) // 3) * 3).reshape(-1, 3)


def formatted(rows):
    """The formatter's text of rows, a block of _CSV_BLOCK_ROWS at a time."""
    text = _csvtext.CsvText(min(len(rows), BLOCK))
    return b"".join(text(np.ascontiguousarray(rows[i:i + BLOCK])).tobytes()
                    for i in range(0, len(rows), BLOCK))


def written(tmp_path, values, monkeypatch):
    """The writer's bytes and both references' with values as y and y_delta."""
    values = np.asarray(values, dtype=float).ravel()
    y, d = np.resize(values, -(-len(values) // 2) * 2).reshape(-1, 2).T
    ts = uniform(0.0, 1.0, max(len(y) - 1, 1))
    y, d = np.resize(y, len(ts)), np.resize(d, len(ts))
    traj = GridFunction(ts, np.zeros(len(ts)))
    traj.values[:] = y  # NaN and inf too, past GridFunction's check
    monkeypatch.setattr(ts, "delta_derivative_grid", lambda _: d)
    out = []
    for name, write in (("new", cli.write_trajectory_csv),
                        ("rows", write_trajectory_csv_per_row),
                        ("blocks", write_trajectory_csv_blocks)):
        write(tmp_path / f"{name}.csv", ts, traj)
        out.append((tmp_path / f"{name}.csv").read_bytes())
    return out


def assert_exact(values, tmp_path, monkeypatch):
    rows = as_rows(values)
    assert formatted(rows) == percent_text(rows)
    new, per_row, blocks = written(tmp_path, values, monkeypatch)
    assert new == per_row == blocks


def around(x, ulps):
    """x and its neighbours within ulps units in the last place."""
    bits = np.array([x]).view(np.int64)[0]
    return np.arange(bits - ulps, bits + ulps + 1).view(np.float64)


class TestExact:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=60))
    def test_any_double(self, values):
        # st.floats() draws NaN, ±inf, ±0 and subnormals too
        rows = as_rows(values)
        assert formatted(rows) == percent_text(rows)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=60))
    def test_any_double_written(self, values, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("csv")
        with pytest.MonkeyPatch.context() as monkeypatch:
            new, per_row, blocks = written(tmp_path, values, monkeypatch)
        assert new == per_row == blocks

    def test_random_bit_patterns(self, tmp_path, monkeypatch):
        bits = np.random.default_rng(15).integers(0, 2 ** 64, 3 * 10 ** 5, dtype=np.uint64)
        assert_exact(bits.view(np.float64), tmp_path, monkeypatch)

    def test_around_powers_of_ten(self, tmp_path, monkeypatch):
        # the decade of 10**p - 1 ulp and of 10**p differ: log10 may miss it
        values = np.concatenate([around(float(f"1e{p}"), 64) for p in range(-323, 309)])
        values = values[np.isfinite(values)]
        assert_exact(np.concatenate([values, -values]), tmp_path, monkeypatch)

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e5, 1e20])
    def test_near_ties(self, scale, tmp_path, monkeypatch):
        # an 18th significant digit 5: |x| 10**(16 - E) lies near a half
        digits = np.random.default_rng(int(np.log10(scale)) + 20).integers(
            10 ** 16, 10 ** 17, 2 * 10 ** 4)
        values = [float(f"{n}5e-17") * scale for n in digits.tolist()]
        assert_exact(values, tmp_path, monkeypatch)

    def test_exact_ties(self, tmp_path, monkeypatch):
        # m 2**-j with m odd is m 5**j 10**-j exactly, whose last digit is 5:
        # with 18 digits '%.17g' rounds it half to even
        rng = np.random.default_rng(18)
        values = []
        for j in range(2, 26):
            lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
            m = rng.integers(lo, hi, 500) | 1
            values += [float(k) * 2.0 ** -j for k in m.tolist() if k * 5 ** j < 10 ** 18]
        assert len(values) > 10 ** 4
        assert_exact(values, tmp_path, monkeypatch)

    def test_integers_past_two_to_the_53(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(53)
        values = np.concatenate([rng.integers(2 ** 53, 2 ** 57, 2 * 10 ** 4).astype(float)]
                                + [around(2.0 ** e, 500) for e in range(53, 58)])
        assert_exact(values, tmp_path, monkeypatch)

    @pytest.mark.parametrize("x", [1e-5, 1e-4, 1e16, 1e17])
    def test_notation_boundaries(self, x, tmp_path, monkeypatch):
        # '%.17g' turns from 0.000ddd to d.ddde-05 and from ddd to d.ddde+16
        assert_exact(np.concatenate([around(x, 64), -around(x, 64)]), tmp_path, monkeypatch)

    def test_decade_from_a_low_log10(self, monkeypatch):
        # a log10 that rounds down at a power of ten gives the decade below,
        # where N rounds up to 10**17: '%' prints those values
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x, out: np.subtract(
            log10(x, out=out), 1e-12, out=out))
        values = [s * 10.0 ** k for k in range(-22, 23) for s in (1, -1)]
        rows = as_rows(values)
        assert formatted(rows) == percent_text(rows)

    def test_decade_check(self):
        # 1e-280 is 9.99...6e-281, whose log10 rounds to -280 exactly
        rows = np.array([[1e-280, 1.0, 2.0]])
        assert formatted(rows) == b"\r\n9.9999999999999996e-281,1,2"


def test_one_block_of_every_layout():
    fixed = [m * 10.0 ** e for e in range(-4, 17) for m in (1.2345678901234567, 2.5)]
    values = ([-0.0, 0.0, -1.5, 30.0, 10000000000000000.0, 100.0, 1e-5, -1e-5,
               1.5e20, -2.5e-30, 1e100, -1.7976931348623157e308, 5e-324,
               4.9406564584124654e-310, 0.1, -0.30000000000000004]
              + fixed + [-x for x in fixed])
    # undefined, and overflowing, derivatives between defined ones
    special = [[0.5, -0.5, np.nan], [1.5, -1.5, np.inf], [2.5, -2.5, -np.inf]] * 3
    rows = np.insert(as_rows(values), [1, 2, 3, 5, 8, 13, 21, 22, 23], special, axis=0)
    text = formatted(rows)
    assert text == percent_text(rows)
    assert len(rows) <= BLOCK
    for piece in (b"\r\n-0,0,-1.5", b"\r\n30,10000000000000000,", b"e-05,", b"e+100",
                  b"e+308", b"e-324", b"0.00012345678901234567", b"12345678901234568",
                  b"1234567890123456.8", b"0.10000000000000001", b",inf", b",-inf"):
        assert piece in text
    assert b",nan" not in text and b",\r\n" in text


def test_fast_path_formats_nearly_every_value(tmp_path, monkeypatch):
    # '%' itself formats what the arithmetic cannot decide; a writer that sent
    # every value there would be right, and as slow as one '%' per value
    ts = real_interval(0.0, 1.5, 10 ** 4)  # 10**4 + 1 rows
    traj = solve(VariationalProblem("power_weighted", ts, 3.0, Affine(1.0, 1.0),
                                    alpha=2.0)).trajectory
    sent = []

    def fallback(values):
        sent.extend(values.tolist())
        return fallback.original(values)

    fallback.original = _csvtext.g17_fallback
    monkeypatch.setattr(_csvtext, "g17_fallback", fallback)
    cli.write_trajectory_csv(tmp_path / "t.csv", ts, traj)
    write_trajectory_csv_per_row(tmp_path / "ref.csv", ts, traj)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len(sent) <= 0.01 * 3 * len(ts)
