import json
import math
import os
import subprocess
import sys

import pytest

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
        line = json.loads(out)
        assert line["C"] == pytest.approx(10.0)
        assert line["optimal_value"] == pytest.approx(50 * math.log(10))
        assert line["extremum"] == "min"

        summary = json.loads((tmp_path / "out" / "solution.json").read_text())
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

    def test_extra_scale_key_still_accepted(self, tmp_path, capsys):
        ok = dict(WORKED_PROBLEM,
                  timescale={"kind": "uniform", "a": 0, "b": 5, "n": 5,
                             "nodes": 9})
        f = write_json(tmp_path / "p.json", ok)
        code, _, _ = run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        assert code == 0


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
        rep = json.loads(out)
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
        rep = json.loads(out)
        assert rep["direction"] == "concave_le"
        assert rep["holds"] is True

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
        rep = json.loads(out)
        assert rep["candidates_evaluated"] == 10626
        assert rep["verdict"] == "certified"
        assert rep["optima_count"] == 1

    def test_random(self, tmp_path, capsys):
        payload = json.loads(json.dumps(WORKED_PROBLEM))
        payload["oracle"] = {"mode": "random", "samples": 500, "seed": 42}
        f = write_json(tmp_path / "p.json", payload)
        code, out, _ = run_cli(["verify", f], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_wsc(self, tmp_path, capsys):
        code, out, _ = run_cli(["verify", "--wsc"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["contradiction"] is True
        assert rep["I_tilde"] == pytest.approx(2 * math.log(2) - 1, abs=1e-8)

    def test_candidate_roundtrip(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
        run_cli(["solve", f, "-o", str(tmp_path / "out")], capsys)
        code, out, _ = run_cli(
            ["verify", f, "--candidate", str(tmp_path / "out" / "trajectory.csv")],
            capsys)
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["difference"]) <= 1e-8

    def test_perturbation_certified(self, tmp_path, capsys):
        payload = json.loads(json.dumps(WORKED_PROBLEM))
        payload["oracle"] = {"mode": "perturbation", "eps": 1e-4}
        f = write_json(tmp_path / "p.json", payload)
        code, out, _ = run_cli(["verify", f], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_corrupt_refuted_exit_5(self, tmp_path, capsys):
        payload = json.loads(json.dumps(WORKED_PROBLEM))
        payload["oracle"] = {"mode": "perturbation", "eps": 0.5}
        f = write_json(tmp_path / "p.json", payload)
        code, out, err = run_cli(["verify", f, "--corrupt", "2:1"], capsys)
        assert code == 5
        assert json.loads(out)["verdict"] == "refuted"
        assert "refuted" in err

    def test_missing_oracle_exit_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", WORKED_PROBLEM)
        code, _, _ = run_cli(["verify", f], capsys)
        assert code == 2


class TestEntryPoint:
    def test_console_script_subprocess(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(WORKED_PROBLEM))
        res = subprocess.run(
            [sys.executable, "-m", "tsvar.cli", "solve", str(f),
             "-o", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert res.returncode == 0
        assert json.loads(res.stdout)["C"] == pytest.approx(10.0)

    def test_quad_nodes_env_var(self, tmp_path):
        payload = {
            "schema_version": "1",
            "timescale": {"kind": "real_interval", "a": 0, "b": 1},
            "problem": {"kind": "power_weighted", "B": math.log(2),
                        "alpha": 2, "phi": {"family": "exp"}},
        }
        f = tmp_path / "p.json"
        f.write_text(json.dumps(payload))
        env = dict(os.environ, TSVAR_QUAD_NODES="33")
        res = subprocess.run(
            [sys.executable, "-m", "tsvar.cli", "solve", str(f),
             "-o", str(tmp_path / "out")],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 33
        assert json.loads(res.stdout)["optimal_value"] == pytest.approx(
            1.0, abs=1e-8)
