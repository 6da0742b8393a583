"""Tests for scripts/workload_outputs.py on the workloads' tiny job lists."""

import importlib.util
import pathlib
import warnings

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def script():
    return _load("workload_outputs")


def test_every_job_writes_its_own_folder(script, tmp_path, capsys):
    workloads = script._workloads()
    # no job warns: the tiny df jobs reach tau = 0 and tau = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert script.write_outputs(tmp_path / "a", [1, 2], tiny=True) == []
    for name in workloads.NAMES:
        for seed in (1, 2):
            jobs = workloads.jobs(name, seed, tiny=True)
            folders = sorted(p.name for p in (tmp_path / "a" / name / str(seed)).iterdir())
            assert folders == sorted(str(i) for i in range(len(jobs)))
            for i in range(len(jobs)):
                assert (tmp_path / "a" / name / str(seed) / str(i) / "manifest.json").exists()
    # a second run is byte-identical, file for file
    assert script.write_outputs(tmp_path / "b", [1, 2], tiny=True) == []
    capsys.readouterr()
    assert _load("compare_outputs").main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith(": same") for line in lines)
    assert summary.startswith(f"summary: {len(lines)} files compared: {len(lines)} same, 0 differ, ")


def test_failed_jobs_are_reported(script, tmp_path, monkeypatch):
    workloads = script._workloads()
    monkeypatch.setattr(script, "twrelay_main", lambda argv: 1)
    failed = script.write_outputs(tmp_path, [1], tiny=True)
    assert len(failed) == sum(len(workloads.jobs(name, 1, tiny=True)) for name in workloads.NAMES)
    assert failed[0].startswith("region/1/0: exit 1: region ")


def test_bad_seeds_exit_2(script, tmp_path):
    assert script.main([str(tmp_path), "--seeds", "one"]) == 2
