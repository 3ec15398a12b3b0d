"""Replay of the benchmark's golden pass: every report byte-identical.

The benchmark's first pass at its default seed compares each CSV with the
record under ``bench/golden`` (apart from ``wall_ms``) and runs the call's
checks.  The same comparison runs here, so a change to any pinned value,
the Monte Carlo streams included, fails in the test suite too.
"""

import importlib
import json
from pathlib import Path

import pytest

from dictatest import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_pass_reproduces_its_reports(workload, monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    checks = importlib.import_module("checks")
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    expected = run.load_expected(workload)
    for call in workloads.pass_calls(workload, workloads.DEFAULT_SEED, 0):
        out = tmp_path / f"{call.id}.csv"
        code = cli.main([*call.argv, "--out", str(out)])
        capsys.readouterr()
        text = out.read_text() if out.exists() else None
        assert checks.check_output(call, code, text, expected[call.id]) == [], call.id
