"""The benchmark's reference checks against the library, at tiny size.

Each workload of ``bench/run.py`` runs one tiny round, so a library change
that breaks what the benchmark checks fails here.  It reads ``bench/`` and
edits nothing there; scratch files go to the ignored ``.bench_work/``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("solve_sweep", "certify_lattice", "cli_files")


@pytest.fixture
def run(monkeypatch):
    """bench/run.py as a module; the tsvar modules it imports afresh are
    swapped back for the ones the other tests hold."""
    monkeypatch.syspath_prepend(str(BENCH))
    held = {k: m for k, m in sys.modules.items()
            if k == "tsvar" or k.startswith("tsvar.")}
    import run
    yield run
    for k in [k for k in sys.modules if k == "tsvar" or k.startswith("tsvar.")]:
        del sys.modules[k]
    sys.modules.update(held)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_round_is_correct(run, workload):
    res, _ = run.measure(workload, 7, 0, 0, tiny=True, min_ops=1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
