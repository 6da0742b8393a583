"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_and_passes_its_checks(workload, trace):
    out = run.measure(workload, seed=1, seconds=0.0, trace=trace, tiny=True)
    res = out["result"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert res["attempted"] >= 1 and res["failed"] == 0  # fail_ratio 0
    assert [c for c in out["checks"] if not c[1]] == []  # check_fail_ratio 0
    assert any(name == "job0:deterministic" for name, _, _ in out["checks"])
    if trace:
        identities = [c for c in out["checks"] if "==" in c[0]]
        assert len(identities) == 2 and all(ok for _, ok, _ in identities)
    assert res["correct"]
    json.dumps(res)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
