import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tsvar import cli, errors
from tsvar.cli import main

WORKED_PROBLEM = {
    "schema_version": "1",
    "timescale": {"kind": "uniform", "a": 0, "b": 5, "n": 5},
    "problem": {
        "kind": "xlogx_shifted",
        "B": 25,
        "phi": {"family": "affine", "slope": 2, "intercept": 1},
    },
}


#: oracle files whose every candidate overflows, exp(y^Delta) with steps
#: above ln(max float) ~ 709.8, though the closed form is finite
_EXP = {"kind": "exp_derivative", "phi": {"family": "constant", "value": 1}}
OVERFLOWING_ORACLES = [
    dict(WORKED_PROBLEM, timescale={"kind": "uniform", "a": 0, "b": 50, "n": 50},
         problem=dict(_EXP, B=30000),
         oracle={"mode": "random", "samples": 200, "seed": 1}),
    dict(WORKED_PROBLEM, timescale={"kind": "uniform", "a": 0, "b": 2, "n": 2},
         problem=dict(_EXP, B=1400),
         oracle={"mode": "exhaustive", "resolution": 1400 / 3}),
]


WEIGHTED_CHECK = {
    "schema_version": "1",
    "timescale": {"kind": "custom", "atoms": [0, 1, 2]},
    "check": {"kind": "weighted_jensen", "f": [1, 2], "h": [1, 3],
              "F": {"family": "power", "alpha": 2}},
}

#: top-level blocks under which a file reads a key the base files lack
_READS = {
    "q": {"timescale": {"kind": "q_scale", "q": 2, "n": 0, "m": 5}},
    "nodes": {"timescale": {"kind": "real_interval", "a": 0, "b": 5,
                            "nodes": 9}},
    "atoms": {"timescale": {"kind": "custom", "atoms": [0, 1, 2, 3, 4, 5]}},
    "intervals": {"timescale": {"kind": "custom", "intervals": [[0, 5]]}},
    "resolution": {"oracle": {"mode": "exhaustive", "resolution": 1}},
    "eps": {"oracle": {"mode": "perturbation", "eps": 0.1}},
    "coefficients": {"problem": {"kind": "xlogx_shifted", "B": 25, "phi": {
        "family": "polynomial", "coefficients": [1, 2]}}},
    "in_scale": {"problem": {"kind": "xlogx_shifted", "B": 25, "phi": {
        "family": "affine", "slope": 2, "intercept": 1,
        "transform": {"in_scale": 1}}}},
    "h": {"check": WEIGHTED_CHECK["check"]},
}


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text):
    """Parse CLI stdout, failing on NaN and Infinity, which json.dumps
    writes by default but no strict JSON reader accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestSolve:
    def test_worked_example(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 0
        line = strict_json(out)
        assert line["C"] == pytest.approx(10.0)
        assert line["optimal_value"] == pytest.approx(50 * math.log(10))
        assert line["extremum"] == "min"

        summary = strict_json((tmp_path / "out" / "solution.json").read_text())
        assert summary["schema_version"] == "1"
        assert summary["trajectory_file"] == "trajectory.csv"

        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,y,y_delta"
        assert rows[1] == "0,0,9"
        assert rows[2] == "1,9,7"
        assert rows[5] == "4,24,1"
        assert rows[6] == "5,25,"  # derivative undefined at the excluded max

    def test_deterministic_output(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
        run_cli(["solve", f, "-o", str(tmp_path / "a")], capsys)
        run_cli(["solve", f, "-o", str(tmp_path / "b")], capsys)
        for name in ("solution.json", "trajectory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_infeasible_exit_3(self, tmp_path, capsys):
        bad = json.loads(json.dumps(WORKED_PROBLEM))
        bad["problem"]["B"] = -30
        f = write_json(tmp_path / "p.json", bad)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 3
        assert err.startswith("error[")

    def test_degenerate_alpha_reports_constant(self, tmp_path, capsys):
        p = {
            "schema_version": "1",
            "timescale": {"kind": "uniform", "a": 0, "b": 2, "n": 2},
            "problem": {"kind": "power_weighted", "B": 3, "alpha": 1,
                        "phi": {"family": "exp"}},
        }
        f = write_json(tmp_path / "p.json", p)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 3
        assert "degenerate" in err
        assert format(math.e ** 3 - 1) [:10] in err  # constant value G(B)

    def test_degenerate_alpha_with_nonpositive_B_is_a_precondition(
            self, tmp_path, capsys):
        # no trajectory rises from 0 to B <= 0, so no constant value is reported
        p = {
            "schema_version": "1",
            "timescale": {"kind": "uniform", "a": 0, "b": 2, "n": 4},
            "problem": {"kind": "power_weighted", "B": -1, "alpha": 0,
                        "phi": {"family": "constant", "value": 1}},
        }
        f = write_json(tmp_path / "p.json", p)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert (code, out) == (3, "")
        assert err == "error[precondition]: power_weighted problem requires B > 0\n"

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(WORKED_PROBLEM))
        bad["problem"]["extra"] = 1
        f = write_json(tmp_path / "p.json", bad)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "extra" in err

    def test_wrong_schema_version_exit_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(WORKED_PROBLEM))
        bad["schema_version"] = "99"
        f = write_json(tmp_path / "p.json", bad)
        code, _, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 2

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text("{not json")
        code, _, err = run_cli(["solve", str(f), "-o", str(tmp_path / "out")],
                               capsys)
        assert code == 2

    @pytest.mark.parametrize("payload", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_json_exit_2(self, tmp_path, capsys, payload):
        f = tmp_path / "p.json"
        f.write_bytes(payload)
        code, out, err = run_cli(["solve", str(f), "-o", str(tmp_path / "out")],
                                 capsys)
        assert code == 2
        assert out == "" and err.startswith(f"error[parse]: cannot read {f}")


    @pytest.mark.parametrize("scale,missing", [
        ({"kind": "uniform", "a": 0, "b": 5}, "n"),
        ({"kind": "uniform", "b": 5, "n": 5}, "a"),
        ({"kind": "q_scale", "q": 2, "n": 0}, "m"),
        ({"kind": "q_scale", "n": 0, "m": 3}, "q"),
        ({"kind": "real_interval", "a": 0}, "b"),
    ])
    def test_missing_scale_key_exit_2(self, tmp_path, capsys, scale, missing):
        bad = dict(WORKED_PROBLEM, timescale=scale)
        f = write_json(tmp_path / "p.json", bad)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("error[parse]") and repr(missing) in err

    @pytest.mark.parametrize("path,token", [
        (("problem", "B"), "NaN"),
        (("problem", "B"), "-Infinity"),
        (("problem", "B"), "1e999"),          # overflows to inf
        (("problem", "B"), "1" + "0" * 400),  # an int beyond the float range
        (("problem", "B"), '"25"'),
        (("problem", "B"), "null"),
        (("timescale", "n"), "true"),
        (("problem", "phi", "slope"), "false"),
        (("problem", "kind"), "7"),
        (("check", "f"), '["1", 2]'),
        # counts, exponents and seeds must be JSON integers, never truncated
        (("timescale", "n"), "2.5"),
        (("timescale", "n"), "5.0"),
        (("timescale", "m"), "3.5"),
        (("timescale", "nodes"), "9.0"),
        (("timescale", "quad_nodes"), "9.5"),
        (("oracle", "samples"), "2.5"),
        (("oracle", "seed"), "1.9"),
        # atoms, f, h and coefficients hold flat arrays of numbers, and
        # every other numeric key one number
        (("problem", "B"), "[25]"),
        (("problem", "alpha"), "[2]"),
        (("problem", "phi", "slope"), "[2]"),
        (("timescale", "a"), "[0]"),
        (("timescale", "q"), "[2]"),
        (("timescale", "nodes"), "[1]"),
        (("oracle", "resolution"), "[1]"),
        (("oracle", "eps"), "[0.1]"),
        (("oracle", "samples"), "[3]"),
        (("problem", "phi", "transform", "in_scale"), "[1]"),
        (("check", "f"), "5"),
        (("check", "h"), "3"),
        (("problem", "phi", "coefficients"), "5"),
        (("problem", "phi", "coefficients"), "[[1], [2]]"),
        (("timescale", "atoms"), "[[0, 1], [2, 3]]"),
        (("timescale", "intervals"), "[[0, 1, 2]]"),
    ])
    def test_non_number_exit_2(self, tmp_path, capsys, path, token):
        # only schema_version, kind, family and mode hold strings; every
        # other value must be a finite JSON number, never coerced
        f = tmp_path / "p.json"
        if path[0] == "check":
            payload = {"schema_version": "1",
                       "timescale": {"kind": "custom", "atoms": [0, 1, 2]},
                       "check": {"kind": "log", "f": [1, 4]}}
            argv = ["check", str(f)]
        elif path[0] == "oracle":
            payload = dict(WORKED_PROBLEM,
                           oracle={"mode": "random", "samples": 5, "seed": 0})
            argv = ["verify", str(f)]
        else:
            payload = json.loads(json.dumps(WORKED_PROBLEM))
            argv = ["solve", str(f), "-o", str(tmp_path / "out")]
        payload.update(json.loads(json.dumps(_READS.get(path[-1], {}))))
        block = payload
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = "@@"
        f.write_text(json.dumps(payload).replace('"@@"', token))
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and err.startswith("error[parse]")
        assert f"'{path[-1]}" in err

    @pytest.mark.parametrize("token, shown", [
        ("true", "True"), ("1e999", "inf"), ("1" + "0" * 400, "1" + "0" * 400),
        ('"0.5"', "'0.5'"), ("1.7976931348623157e308", None)])
    def test_bad_element_of_a_long_array_exit_2(self, tmp_path, capsys,
                                                token, shown):
        # the array passes in one vectorised check, or the per-element one
        # names its first bad element; the largest float is in range
        atoms = [i / 1000 for i in range(20000)]
        payload = dict(WORKED_PROBLEM, timescale={"kind": "custom", "atoms": atoms})
        f = tmp_path / "p.json"
        f.write_text(json.dumps(payload).replace(f" {atoms[10000]},", f" {token},", 1))
        code, out, err = run_cli(["solve", str(f), "-o", str(tmp_path / "out")],
                                 capsys)
        if shown is None:
            assert code == 3 and "strictly increasing" in err
        else:
            assert code == 2 and out == ""
            assert err == ("error[parse]: 'atoms[10000]' must be a "
                           f"finite number, got {shown}\n")

    def test_q_scale_overflow_exit_3(self, tmp_path, capsys):
        bad = dict(WORKED_PROBLEM,
                   timescale={"kind": "q_scale", "q": 2, "n": 0, "m": 5000})
        f = write_json(tmp_path / "p.json", bad)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 3
        assert err.startswith("error[precondition]") and "overflow" in err

    @pytest.mark.parametrize("timescale,problem", [
        ({"kind": "custom", "atoms": [3]},
         {"kind": "exp_derivative", "B": 25,
          "phi": {"family": "constant", "value": 1}}),
        ({"kind": "uniform", "a": 0, "b": 5, "n": 5},
         {"kind": "exp_derivative", "B": 5000,
          "phi": {"family": "constant", "value": 1}}),
        ({"kind": "uniform", "a": 0, "b": 1, "n": 2},
         {"kind": "power_weighted", "B": 2, "alpha": 1e308,
          "phi": {"family": "constant", "value": 1}}),
        ({"kind": "uniform", "a": 0, "b": 1, "n": 2},
         {"kind": "xlogx_shifted", "B": 1e308,
          "phi": {"family": "constant", "value": 1}}),
    ], ids=["one_point", "exp_overflow", "power_overflow", "xlogx_overflow"])
    def test_degenerate_or_overflowing_exit_3(self, tmp_path, capsys,
                                               timescale, problem):
        bad = dict(WORKED_PROBLEM, timescale=timescale, problem=problem)
        f = write_json(tmp_path / "p.json", bad)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 3
        assert out == "" and err.startswith("error[precondition]")

    @pytest.mark.parametrize("family", ["log", "xlogx"])
    def test_weight_undefined_at_zero_exit_3(self, tmp_path, capsys, family):
        bad = dict(WORKED_PROBLEM,
                   timescale={"kind": "uniform", "a": 0, "b": 1, "n": 2},
                   problem={"kind": "power_weighted", "B": 2, "alpha": 2,
                            "phi": {"family": family}})
        f = write_json(tmp_path / "p.json", bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")],
                                     capsys)
        assert code == 3
        assert out == ""
        assert err == "error[precondition]: phi must be positive on [0, B]\n"

    def test_weight_infinite_at_zero_exit_3(self, tmp_path, capsys):
        # phi(0) = inf is positive but outside the weight's domain
        bad = dict(WORKED_PROBLEM,
                   timescale={"kind": "uniform", "a": 0, "b": 2, "n": 4},
                   problem={"kind": "power_weighted", "B": 2, "alpha": 2,
                            "phi": {"family": "power", "alpha": -0.5}})
        f = write_json(tmp_path / "p.json", bad)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")],
                                 capsys)
        assert code == 3
        assert out == "" and "outside open domain (0.0, inf)" in err

    def test_extra_scale_key_still_accepted(self, tmp_path, capsys):
        ok = dict(WORKED_PROBLEM,
                  timescale={"kind": "uniform", "a": 0, "b": 5, "n": 5,
                             "nodes": 9})
        f = write_json(tmp_path / "p.json", ok)
        code, _, _ = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 0

    def test_schema_fault_before_construction(self, tmp_path, capsys):
        # n = 0 fails to build the scale (exit 3), but the whole file is
        # checked first, so the missing B is what is reported
        bad = json.loads(json.dumps(WORKED_PROBLEM))
        bad["timescale"]["n"] = 0
        del bad["problem"]["B"]
        f = write_json(tmp_path / "p.json", bad)
        code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 2
        assert out == "" and err.startswith("error[parse]") and "'B'" in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("problem,key", [
        ({"kind": "bogus", "B": 2, "phi": {"family": "constant", "value": 1}},
         "kind"),
        ({"kind": "power_weighted", "B": 2,
          "phi": {"family": "constant", "value": 1}}, "alpha"),
    ], ids=["unknown_kind", "missing_alpha"])
    def test_problem_kind_exit_2(self, tmp_path, capsys, command, problem, key):
        # the schema reads the kinds and the keys they need from the
        # solvers' table, so neither fault waits for the problem to be built
        bad = dict(WORKED_PROBLEM, problem=problem,
                   timescale={"kind": "uniform", "a": 0, "b": 1, "n": 4},
                   oracle={"mode": "random", "samples": 5})
        f = write_json(tmp_path / "p.json", bad)
        argv = [command, f] + (["-o", str(tmp_path / "out")]
                               if command == "solve" else [])
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and err.startswith("error[parse]")
        assert repr(key) in err

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_unwritable_out_dir_exit_2(self, tmp_path, capsys, sub):
        # -o names a regular file, or a directory below one
        taken = tmp_path / "taken"
        taken.write_text("")
        f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
        code, out, err = run_cli(["solve", f, "-o", str(taken / sub)], capsys)
        assert code == 2
        assert out == "" and err.startswith("error[parse]: cannot write")


#: a problem file holding every block of the schema, and the path to each
#: block in it or in WEIGHTED_CHECK
_FULL_PROBLEM = dict(
    WORKED_PROBLEM,
    problem=dict(WORKED_PROBLEM["problem"],
                 phi=dict(WORKED_PROBLEM["problem"]["phi"],
                          transform={"in_scale": 1})),
    oracle={"mode": "random", "samples": 5, "seed": 0})
_BLOCKS = {
    "problem file": ("verify", _FULL_PROBLEM, ()),
    "timescale": ("verify", _FULL_PROBLEM, ("timescale",)),
    "problem": ("verify", _FULL_PROBLEM, ("problem",)),
    "function": ("verify", _FULL_PROBLEM, ("problem", "phi")),
    "transform": ("verify", _FULL_PROBLEM, ("problem", "phi", "transform")),
    "oracle": ("verify", _FULL_PROBLEM, ("oracle",)),
    "check file": ("check", WEIGHTED_CHECK, ()),
    "check": ("check", WEIGHTED_CHECK, ("check",)),
}

#: a value of the wrong type for each leaf kind; a key whose value names a
#: variant table entry gets the number 7
_WRONG = {cli._number: "25", cli._integer: 2.5, cli._string: 7,
          cli._numbers: 5, cli._pairs: [0, 5]}

#: (block, key, leaf kind) for every key of the schema that holds no block
_LEAVES = [(block, key, kind)
           for block, (required, optional) in cli._SCHEMA.items()
           for key, kind in {**required, **optional}.items()
           if not isinstance(kind, str)]


@pytest.mark.parametrize("block,key,kind", _LEAVES,
                         ids=[f"{b}.{k}" for b, k, _ in _LEAVES])
def test_every_leaf_key_rejects_a_wrong_type(tmp_path, capsys, block, key, kind):
    command, base, path = _BLOCKS[block]
    doc = json.loads(json.dumps(base))
    _at(doc, path)[key] = 7 if isinstance(kind, dict) else _WRONG[kind]
    f = write_json(tmp_path / "p.json", doc)
    code, out, err = run_cli([command, f], capsys)
    assert code == 2
    assert out == "" and err.startswith("error[parse]")
    assert repr(key) in err


@pytest.mark.parametrize("block,table", [
    ("timescale", cli._SCALES), ("function", cli._FAMILIES),
    ("check", cli._CHECKS), ("oracle", cli._ORACLES),
    ("problem", cli._PROBLEMS)])
def test_variant_keys_are_in_the_schema(block, table):
    # a key a variant reads is one its block accepts, with a leaf kind
    required, optional = cli._SCHEMA[block]
    for _, needs, reads in table.values():
        assert {*needs, *reads} <= required.keys() | optional.keys()


class TestCheck:
    def test_weighted_jensen(self, tmp_path, capsys):
        payload = {
            "schema_version": "1",
            "timescale": {"kind": "custom", "atoms": [0, 1, 2]},
            "check": {"kind": "weighted_jensen", "f": [1, 2], "h": [1, 3],
                      "F": {"family": "power", "alpha": 2}},
        }
        f = write_json(tmp_path / "c.json", payload)
        code, out, _ = run_cli(["check", f], capsys)
        assert code == 0
        rep = strict_json(out)
        assert rep["gap"] == pytest.approx(3 / 16)
        assert rep["holds"] is True

    def test_special_case(self, tmp_path, capsys):
        payload = {
            "schema_version": "1",
            "timescale": {"kind": "custom", "atoms": [0, 1, 2]},
            "check": {"kind": "log", "f": [1, 4]},
        }
        f = write_json(tmp_path / "c.json", payload)
        code, out, _ = run_cli(["check", f], capsys)
        assert code == 0
        rep = strict_json(out)
        assert rep["direction"] == "concave_le"
        assert rep["holds"] is True

    @pytest.mark.parametrize("check", [
        {"kind": "exp", "f": [709.7, 709.7]},
        {"kind": "weighted_jensen", "f": [1e300, 2], "h": [1, 3],
         "F": {"family": "power", "alpha": 2}},
    ])
    def test_overflow_exit_3(self, tmp_path, capsys, check):
        # the side that overflows is named; stdout never holds Infinity
        payload = {"schema_version": "1",
                   "timescale": {"kind": "custom", "atoms": [0, 1, 2]},
                   "check": check}
        f = write_json(tmp_path / "c.json", payload)
        code, out, err = run_cli(["check", f], capsys)
        assert code == 3
        assert out == "" and "lhs is not finite" in err

    @pytest.mark.parametrize("F,lo,hi,corollary", [
        ({"family": "log"}, 1e7, 2e7, {"kind": "log"}),
        ({"family": "power", "alpha": 0.5}, 1e8, 2e8, {"kind": "power", "alpha": 0.5}),
    ], ids=["log-1e7", "sqrt-1e8"])
    def test_jensen_at_magnitude_agrees_with_its_corollary(self, tmp_path, capsys,
                                                           F, lo, hi, corollary):
        # F'' is about -5e-15 here: concave, not affine
        f = [float(v) for v in np.random.default_rng(1).uniform(lo, hi, 11)]
        reports = []
        for check in ({"kind": "jensen", "F": F}, corollary):
            payload = {"schema_version": "1",
                       "timescale": {"kind": "uniform", "a": 0, "b": 1, "n": 10},
                       "check": dict(check, f=f)}
            code, out, _ = run_cli(["check", write_json(tmp_path / "c.json", payload)],
                                   capsys)
            assert code == 0
            reports.append(strict_json(out))
        jensen, special = reports
        assert jensen["direction"] == special["direction"] == "concave_le"
        assert jensen["holds"] is special["holds"] is True

    def test_missing_F_exit_2(self, tmp_path, capsys):
        payload = {
            "schema_version": "1",
            "timescale": {"kind": "custom", "atoms": [0, 1, 2]},
            "check": {"kind": "jensen", "f": [1, 2]},
        }
        f = write_json(tmp_path / "c.json", payload)
        code, _, _ = run_cli(["check", f], capsys)
        assert code == 2


class TestVerify:
    def test_exhaustive(self, tmp_path, capsys):
        payload = json.loads(json.dumps(WORKED_PROBLEM))
        payload["oracle"] = {"mode": "exhaustive", "resolution": 1}
        f = write_json(tmp_path / "p.json", payload)
        code, out, _ = run_cli(["verify", f], capsys)
        assert code == 0
        rep = strict_json(out)
        assert rep["candidates_evaluated"] == 10626
        assert rep["verdict"] == "certified"
        assert rep["optima_count"] == 1

    def test_random(self, tmp_path, capsys):
        payload = json.loads(json.dumps(WORKED_PROBLEM))
        payload["oracle"] = {"mode": "random", "samples": 500, "seed": 42}
        f = write_json(tmp_path / "p.json", payload)
        code, out, _ = run_cli(["verify", f], capsys)
        assert code == 0
        assert strict_json(out)["verdict"] == "certified"

    def test_wsc(self, tmp_path, capsys):
        code, out, _ = run_cli(["verify", "--wsc"], capsys)
        assert code == 0
        rep = strict_json(out)
        assert rep["contradiction"] is True
        assert rep["I_tilde"] == pytest.approx(2 * math.log(2) - 1, abs=1e-8)

    def test_candidate_roundtrip(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
        run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        code, out, _ = run_cli(
            ["verify", f, "--candidate", str(tmp_path / "out" / "trajectory.csv")],
            capsys)
        assert code == 0
        rep = strict_json(out)
        assert abs(rep["difference"]) <= 1e-8

    def test_perturbation_certified(self, tmp_path, capsys):
        payload = json.loads(json.dumps(WORKED_PROBLEM))
        payload["oracle"] = {"mode": "perturbation", "eps": 1e-4}
        f = write_json(tmp_path / "p.json", payload)
        code, out, _ = run_cli(["verify", f], capsys)
        assert code == 0
        assert strict_json(out)["verdict"] == "certified"

    def test_corrupt_refuted_exit_5(self, tmp_path, capsys):
        payload = json.loads(json.dumps(WORKED_PROBLEM))
        payload["oracle"] = {"mode": "perturbation", "eps": 0.5}
        f = write_json(tmp_path / "p.json", payload)
        code, out, err = run_cli(["verify", f, "--corrupt", "2:1"], capsys)
        assert code == 5
        assert strict_json(out)["verdict"] == "refuted"
        assert "refuted" in err

    def test_empty_lattice_exit_3(self, tmp_path, capsys):
        payload = json.loads(json.dumps(WORKED_PROBLEM))
        payload["problem"] = {"kind": "exp_derivative", "B": 2,
                              "phi": {"family": "constant", "value": 1}}
        payload["oracle"] = {"mode": "exhaustive", "resolution": 1}
        f = write_json(tmp_path / "p.json", payload)
        code, out, err = run_cli(["verify", f], capsys)
        assert code == 3
        assert out == "" and err.startswith("error[precondition]")

    def test_resolution_too_fine_exit_3(self, tmp_path, capsys):
        # B / resolution overflows to inf
        payload = dict(WORKED_PROBLEM,
                       oracle={"mode": "exhaustive", "resolution": 1e-320})
        f = write_json(tmp_path / "p.json", payload)
        code, out, err = run_cli(["verify", f], capsys)
        assert code == 3
        assert out == "" and err.startswith("error[precondition]")

    # an index counts from 0 up to the last point, with no wrap-around from
    # the end, and the corrupted value must stay finite; "--corrupt=" lets
    # argparse read "-1:0.5" as a value
    @pytest.mark.parametrize("corrupt", ["abc", "1:x", "99:0.1", "1:2:3",
                                         "-1:0.5", "-5:0.5", "2:nan", "2:inf",
                                         "2:-inf", "2:1e400"])
    def test_bad_corrupt_exit_2(self, tmp_path, capsys, corrupt):
        payload = json.loads(json.dumps(WORKED_PROBLEM))
        payload["oracle"] = {"mode": "perturbation", "eps": 0.5}
        f = write_json(tmp_path / "p.json", payload)
        code, out, err = run_cli(["verify", f, f"--corrupt={corrupt}"], capsys)
        assert code == 2
        assert out == "" and err.startswith("error[parse]")
        assert repr(corrupt) in err

    def test_negative_seed_exit_3(self, tmp_path, capsys):
        payload = dict(WORKED_PROBLEM,
                       oracle={"mode": "random", "samples": 5, "seed": -1})
        f = write_json(tmp_path / "p.json", payload)
        code, out, err = run_cli(["verify", f], capsys)
        assert code == 3
        assert out == "" and err.startswith("error[precondition]")

    @pytest.mark.parametrize("payload", OVERFLOWING_ORACLES,
                             ids=["random", "exhaustive"])
    def test_no_admissible_candidate_exit_3(self, tmp_path, capsys, payload):
        # no vacuous certificate with an infinite best value
        f = write_json(tmp_path / "p.json", payload)
        code, out, err = run_cli(["verify", f], capsys)
        assert code == 3
        assert out == "" and "integrand is not finite" in err

    def test_missing_oracle_exit_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
        code, _, _ = run_cli(["verify", f], capsys)
        assert code == 2

    @pytest.mark.parametrize("header,cell,names", [
        ("t,z", "9", "'y' column"),
        ("t,y", "abc", "row 2"),
        ("t,y", "nan", "row 2"),
        ("t,y", "-inf", "row 2"),
        ("t,y", None, "row 2"),  # a short row
    ])
    def test_bad_candidate_exit_2(self, tmp_path, capsys, header, cell, names):
        rows = [[0, 0], [1, cell], [2, 16], [3, 21], [4, 24], [5, 25]]
        csv_path = tmp_path / "c.csv"
        csv_path.write_text("\n".join([header] + [
            ",".join(str(v) for v in row if v is not None) for row in rows]) + "\n")
        f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
        code, out, err = run_cli(["verify", f, "--candidate", str(csv_path)], capsys)
        assert code == 2
        assert out == "" and err.startswith("error[parse]")
        assert str(csv_path) in err and names in err

    def test_missing_candidate_exit_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
        missing = str(tmp_path / "missing.csv")
        code, out, err = run_cli(["verify", f, "--candidate", missing], capsys)
        assert code == 2
        assert out == "" and err.startswith(f"error[parse]: cannot read {missing}")

    @pytest.mark.parametrize("oracle,extra", [
        ({"mode": "exhaustive", "resolution": 1}, []),
        ({"mode": "random", "samples": 5}, []),
        ({"mode": "perturbation", "eps": 0.5}, ["--candidate", "t.csv"]),
        (None, []),
    ])
    def test_corrupt_needs_a_perturbation_oracle(self, tmp_path, capsys,
                                                 oracle, extra):
        payload = dict(WORKED_PROBLEM, **({"oracle": oracle} if oracle else {}))
        f = write_json(tmp_path / "p.json", payload)
        code, out, err = run_cli(["verify", f, "--corrupt", "2:1"] + extra, capsys)
        assert code == 2
        assert out == "" and err.startswith("error[parse]: --corrupt needs")


#: every library error other than the two with their own handler
_OTHER_ERRORS = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.TsvarError)
                 and c not in (errors.SchemaError, errors.DegenerateProblemError)]


@pytest.mark.parametrize("error", _OTHER_ERRORS, ids=lambda c: c.__name__)
def test_other_library_errors_exit_3(tmp_path, capsys, monkeypatch, error):
    def fail(problem):
        raise error("raised inside the solver")

    monkeypatch.setattr(cli.solvers, "solve", fail)
    f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
    code, out, err = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
    assert code == 3
    assert out == ""
    assert err == "error[precondition]: raised inside the solver\n"


#: the subcommand and file each fuzzed input starts from
_FUZZ_BASES = [
    ("solve", WORKED_PROBLEM),
    ("verify", dict(WORKED_PROBLEM,
                    oracle={"mode": "random", "samples": 5, "seed": 0})),
    ("verify", dict(WORKED_PROBLEM,
                    oracle={"mode": "exhaustive", "resolution": 1})),
    # a lattice too fine to count: B / resolution overflows
    ("verify", dict(WORKED_PROBLEM,
                    oracle={"mode": "exhaustive", "resolution": 1e-320})),
    ("verify", dict(WORKED_PROBLEM,
                    oracle={"mode": "perturbation", "eps": 0.1})),
    ("check", WEIGHTED_CHECK),
    # values near the overflow edge: G(B) = e^B - 1 and each special
    # inequality
    ("solve", dict(WORKED_PROBLEM,
                   timescale={"kind": "uniform", "a": 0, "b": 1, "n": 2},
                   problem={"kind": "power_weighted", "B": 700, "alpha": 2,
                            "phi": {"family": "exp"}})),
    ("check", dict(WEIGHTED_CHECK, check={"kind": "exp", "f": [709.7, 709.7]})),
    ("check", dict(WEIGHTED_CHECK, check={"kind": "power", "alpha": 2,
                                          "f": [1e154, 1e154]})),
    ("check", dict(WEIGHTED_CHECK, check={"kind": "xlogx",
                                          "f": [1e305, 1e305]})),
    # oracles whose candidates overflow
    *[("verify", payload) for payload in OVERFLOWING_ORACLES],
]

#: strings the parser knows, so a fuzzed file also reaches other branches
_NAMES = ["1", "uniform", "q_scale", "real_interval", "custom",
          "power_weighted", "exp_derivative", "xlogx_shifted", "constant",
          "affine", "identity", "power", "exp", "log", "xlogx", "polynomial",
          "exhaustive", "random", "perturbation", "weighted_jensen", "jensen",
          "reciprocal_power", "quasi_arithmetic"]

# small integers, so no input asks for a huge grid
_SCALARS = (st.integers(-3, 40) | st.floats() | st.booleans() | st.none()
            | st.text(max_size=3) | st.sampled_from(_NAMES))
_JSON_VALUES = (_SCALARS | st.lists(_SCALARS, max_size=4)
                | st.lists(st.lists(_SCALARS, max_size=3), max_size=3))


#: keys inserted by the fuzz: unknown everywhere, or known in other blocks
_INSERTED_KEYS = ["extra", "", "Kind", "nodes", "phi", "mode", "h"]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _paths(node, path=()):
    """Path of every value below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_files_exit_inside_contract(tmp_path, capsys, data):
    # every input ends in a documented exit code, with strict JSON on stdout;
    # each step replaces or deletes a value, or inserts a key in an object
    command, base = data.draw(st.sampled_from(_FUZZ_BASES))
    doc = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3))):
        step = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if step == "insert":
            objects = [()] + [p for p in _paths(doc)
                              if isinstance(_at(doc, p), dict)]
            block = _at(doc, data.draw(st.sampled_from(objects)))
            block[data.draw(st.sampled_from(_INSERTED_KEYS))] = data.draw(
                _JSON_VALUES)
            continue
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = data.draw(st.sampled_from(paths))
        if step == "replace":
            _at(doc, head)[last] = data.draw(_JSON_VALUES)
        else:
            del _at(doc, head)[last]
    f = write_json(tmp_path / "fuzz.json", doc)
    argv = [command, f] + (["-o", str(tmp_path / "out")]
                           if command == "solve" else [])
    code, out, _ = run_cli(argv, capsys)
    assert code in (0, 2, 3, 4, 5)
    if out:
        strict_json(out)


class TestRepeatedMain:
    """In-process calls of main share one parser, built on the first call;
    each call in a sequence gives what it gives in a process of its own."""

    @staticmethod
    def sequences(tmp_path):
        problem = dict(WORKED_PROBLEM,
                       oracle={"mode": "random", "samples": 50, "seed": 3})
        p = write_json(tmp_path / "p.json", problem)
        c = write_json(tmp_path / "c.json", WEIGHTED_CHECK)
        a, b = str(tmp_path / "A"), str(tmp_path / "B")
        return [
            [["verify", "--wsc"], ["verify", p]],
            [["check"], ["check", c]],
            [["solve", p, "-o", a], ["solve", p, "-o", b]],
        ]

    @staticmethod
    def call(argv, capsys):
        """Exit code, stdout, stderr and the files of the output directory."""
        code, out, err = run_cli(argv, capsys)
        files = {}
        if "-o" in argv:
            out_dir = Path(argv[argv.index("-o") + 1])
            files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
            shutil.rmtree(out_dir)
        return code, out, err, files

    @pytest.mark.parametrize("which", range(3))
    def test_each_call_gives_what_it_gives_alone(self, tmp_path, capsys, which):
        sequence = self.sequences(tmp_path)[which]
        alone = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            alone.append(self.call(argv, capsys))
        cli.build_parser.cache_clear()
        assert [self.call(argv, capsys) for argv in sequence] == alone
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(sequence) - 1)

    def test_usage_error_then_check(self, tmp_path, capsys):
        (usage, _, err, _), (code, out, _, _) = [
            self.call(argv, capsys) for argv in self.sequences(tmp_path)[1]]
        assert (usage, code) == (2, 0)
        assert err.startswith("usage: tsvar check")
        assert strict_json(out)["holds"] is True


def run_module(argv, **env):
    """`python -m tsvar.cli argv` in a child process that imports the tsvar
    this suite imports, whatever PYTHONPATH the suite was started with."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tsvar.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


class TestEntryPoint:
    def test_console_script_subprocess(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(WORKED_PROBLEM))
        res = run_module(["solve", str(f), "-o", str(tmp_path / "out")])
        assert res.returncode == 0
        assert strict_json(res.stdout)["C"] == pytest.approx(10.0)

    @staticmethod
    def solve_interval(tmp_path, timescale, **env):
        """Rows of trajectory.csv and stdout of a subprocess solve on [0, 1]."""
        payload = {
            "schema_version": "1",
            "timescale": {"kind": "real_interval", "a": 0, "b": 1, **timescale},
            "problem": {"kind": "power_weighted", "B": math.log(2),
                        "alpha": 2, "phi": {"family": "exp"}},
        }
        f = tmp_path / "p.json"
        f.write_text(json.dumps(payload))
        res = run_module(["solve", str(f), "-o", str(tmp_path / "out")], **env)
        assert res.returncode == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        return rows, strict_json(res.stdout)

    def test_quad_nodes_from_file(self, tmp_path):
        rows, out = self.solve_interval(tmp_path, {"nodes": 33})
        assert len(rows) == 1 + 33
        assert out["optimal_value"] == pytest.approx(1.0, abs=1e-8)

    def test_quad_nodes_ignore_environment(self, tmp_path):
        rows, _ = self.solve_interval(tmp_path, {}, TSVAR_QUAD_NODES="33")
        assert len(rows) == 1 + 129
