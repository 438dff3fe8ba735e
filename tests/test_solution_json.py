"""solution.json: the streaming writer's bytes against ``json.dump(obj, fh,
indent=2, sort_keys=True)``, on generated documents and on a solve."""

import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from tsvar import cli

#: numbers whose text is easy to get wrong: ints past 2**53, a signed zero,
#: the least subnormal, the largest double, and json's NaN and Infinity
SPECIAL = [2 ** 53 + 1, -(2 ** 64), 10 ** 30, -0.0, 5e-324,
           1.7976931348623157e308, math.nan, math.inf, -math.inf]

numbers = st.one_of(st.integers(), st.floats(), st.sampled_from(SPECIAL))
scalars = st.one_of(st.none(), st.booleans(), st.text(), numbers)
#: arrays of numbers with now and then a true, false or null among them
number_arrays = st.lists(st.one_of(numbers, numbers, numbers, numbers,
                                   st.sampled_from([True, False, None])))
documents = st.recursive(
    scalars | number_arrays,
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


def both(obj):
    """The text of json.dump and of the writer for obj."""
    ref, new = io.StringIO(), io.StringIO()
    json.dump(obj, ref, indent=2, sort_keys=True)
    cli._dump_json(obj, new)
    return ref.getvalue(), new.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(documents, st.sampled_from([1, 3, cli._JSON_CHUNK]))
def test_writer_matches_json_dump(doc, chunk):
    # small chunks put chunk boundaries inside short arrays
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_JSON_CHUNK", chunk)
        ref, new = both(doc)
    assert new == ref


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}, "b": [], "c": [[], {}]}, [[[]]],
    {"é漢\U0001f600": "line\nbreak \"quoted\" back\\slash \t\x00"},
    [1, True, 2.5, False, None],
    SPECIAL, [[x] for x in SPECIAL], {str(i): x for i, x in enumerate(SPECIAL)},
    [math.nan], [1.0, math.inf], [1e308, 1e308], [10 ** 400, 1.0], [10 ** 400],
    list(range(2 * 1024 + 5)), [0.1 * i for i in range(3 * 1024)],
    {"z": [1, 2], "a": {"y": [3.5], "b": [[0, 1], [2, 3]]}},
], ids=repr)
def test_writer_matches_json_dump_on_edges(doc):
    ref, new = both(doc)
    assert new == ref


def test_solve_writes_what_json_dump_writes(tmp_path):
    atoms = [0.5 * i for i in range(3000)] + [1500.25, 1500.5]
    raw = {
        "schema_version": "1",
        "timescale": {"kind": "custom", "atoms": atoms,
                      "intervals": [[2000, 2001.5]], "quad_nodes": 33},
        "problem": {"kind": "exp_derivative", "B": 40,
                    "phi": {"family": "affine", "slope": 0.001, "intercept": 1}},
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", str(f), "-o", str(tmp_path / "out")])
    assert exc.value.code == 0
    sol = cli.solvers.solve(cli.parse_problem_file(raw)[0])
    summary = {"schema_version": "1", "problem": raw["problem"],
               "timescale": raw["timescale"], "C": sol.C,
               "optimal_value": sol.optimal_value, "extremum": sol.extremum,
               "trajectory_file": "trajectory.csv"}
    expected = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "out" / "solution.json").read_text() == expected
