"""Tests for scripts/workload_outputs.py on the workloads' tiny job lists."""

import importlib.util
import pathlib
import shutil
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


REFERENCE = pathlib.Path(__file__).resolve().parent / "reference"


def test_outputs_match_the_committed_reference(script, tmp_path, capsys):
    """The tiny seed-1 job lists and the default commands write
    tests/reference byte for byte.

    The reference holds every non-manifest file that those jobs write,
    one or more per file-writing command. A change that moves numbers on
    purpose regenerates it from the repository root with

        python3 scripts/workload_outputs.py --reference

    and records the largest differences that compare_outputs.py reports.
    """
    assert script.write_reference(tmp_path) == []
    capsys.readouterr()
    code = _load("compare_outputs").main([str(REFERENCE), str(tmp_path)])
    *lines, summary = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.endswith(": same")] == []
    assert code == 0, summary
    assert len(lines) == 27


def test_reference_flag_rewrites_the_reference(script, tmp_path, monkeypatch, capsys):
    # the printed report names a stale file and a rate cell moved by
    # 1e-12; then the stale file goes, no manifest is written, every file
    # matches the committed reference, and the exit status is the jobs'
    shutil.copytree(REFERENCE, tmp_path / "ref")
    (tmp_path / "ref" / "stale").mkdir()
    (tmp_path / "ref" / "stale" / "old.csv").write_text("x\n")
    moved = tmp_path / "ref" / "default" / "region" / "boundary_optimal.csv"
    rows = [line.split(",") for line in moved.read_text().splitlines()]
    r21 = rows[0].index("r21")
    rows[17][r21] = repr(float(rows[17][r21]) + 1e-12)
    moved.write_text("".join(",".join(row) + "\n" for row in rows))
    monkeypatch.setattr(script, "REFERENCE", tmp_path / "ref")
    capsys.readouterr()
    assert script.main(["--reference"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    moved_line, stale_line = [line for line in lines if not line.endswith(": same")]
    assert moved_line.startswith("default/region/boundary_optimal.csv: differs: r21 1e-12 r12 0 p_relay_rel 0 B_phase_rel 0 ")
    assert stale_line == "stale/old.csv: missing"
    assert summary.startswith("summary: 28 files compared: 26 same, 1 differ, 1 missing, ")
    assert summary.endswith(" r21 1e-12")
    assert not (tmp_path / "ref" / "stale").exists()
    assert list((tmp_path / "ref").rglob("manifest.json")) == []
    capsys.readouterr()
    assert _load("compare_outputs").main([str(REFERENCE), str(tmp_path / "ref")]) == 0


@pytest.mark.parametrize("argv", [[], ["--reference", "out"], ["--reference", "--seeds", "1"]])
def test_reference_or_an_out_dir(script, argv):
    assert script.main(argv) == 2


def test_failed_jobs_are_reported(script, tmp_path, monkeypatch):
    workloads = script._workloads()
    monkeypatch.setattr(script, "twrelay_main", lambda argv: 1)
    failed = script.write_outputs(tmp_path, [1], tiny=True)
    assert len(failed) == sum(len(workloads.jobs(name, 1, tiny=True)) for name in workloads.NAMES)
    assert failed[0].startswith("region/1/0: exit 1: region ")
    # --reference leaves the reference as it was
    kept = tmp_path / "ref" / "default" / "region" / "boundary_optimal.csv"
    kept.parent.mkdir(parents=True)
    shutil.copyfile(REFERENCE / "default" / "region" / "boundary_optimal.csv", kept)
    monkeypatch.setattr(script, "REFERENCE", tmp_path / "ref")
    assert script.main(["--reference"]) == 1
    assert [p for p in (tmp_path / "ref").rglob("*") if p.is_file()] == [kept]
    assert kept.read_bytes() == (REFERENCE / "default" / "region" / "boundary_optimal.csv").read_bytes()


def test_bad_seeds_exit_2(script, tmp_path):
    assert script.main([str(tmp_path), "--seeds", "one"]) == 2
