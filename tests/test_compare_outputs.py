"""Tests for scripts/compare_outputs.py on two hand-made output folders."""

import importlib.util
import math
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"

HEADER = "alpha21,r21,r12,p1,p2,B_re[0],B_re[1],B_re[2],B_re[3],B_im[0],B_im[1],B_im[2],B_im[3],p_relay\n"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: pathlib.Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _folders(tmp_path):
    first, second = tmp_path / "parent", tmp_path / "change"
    for root in (first, second):
        _write(root / "df" / "half_mac.csv", "r21,r12\n0.0,1.5\n1.5,0.0\n")
    # the second B is the first turned by the unit phase i, with one cell
    # moved by 1e-13 of the row's largest |B| = 2; r12 moves by 2e-15 bits
    # and p_relay by 1e-14 relative
    _write(first / "region" / "boundary_optimal.csv",
           HEADER + "0.5,1.0,1.0,10.0,10.0,2.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,10.0\n")
    _write(second / "region" / "boundary_optimal.csv",
           HEADER + "0.5,1.0,1.000000000000002,10.0,10.0,0.0,0.0,0.0,0.0,2.0,0.0,0.0,1.0000000000002,10.0000000000001\n")
    # bounds.json: c_ub moves by 2 ulp at 2.0 and r_lb_zf turns null;
    # manifests differ in their timings and are not compared
    _write(first / "sumrate" / "bounds.json", '{"c_ub": 2.0, "r_lb_zf": 1.25, "kappa21_star": 0.5}\n')
    _write(second / "sumrate" / "bounds.json", '{"c_ub": 2.0000000000000009, "r_lb_zf": null, "kappa21_star": 0.5}\n')
    _write(first / "df" / "bounds.json", '{"c_ub": 2.0}\n')
    _write(second / "df" / "bounds.json", '{"c_ub": 2.0}\n')
    _write(first / "df" / "manifest.json", '{"timings_s": {"total": 0.5}}\n')
    _write(second / "df" / "manifest.json", '{"timings_s": {"total": 0.7}}\n')
    _write(first / "gone.csv", "r21,r12\n1.0,1.0\n")
    _write(second / "extra.csv", "r21,r12\n1.0,1.0\n")
    return first, second


def test_reports_each_pair(compare, tmp_path, capsys):
    first, second = _folders(tmp_path)
    assert compare.main([str(first), str(second)]) == 1
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["df/half_mac.csv"] == "same"
    assert lines["gone.csv"] == "missing"
    assert lines["extra.csv"] == "new"
    assert lines["df/bounds.json"] == "same"
    assert "df/manifest.json" not in lines
    assert lines["sumrate/bounds.json"] == "differs: c_ub 8.88e-16 kappa21_star 0 r_lb_zf inf"
    cells = lines["region/boundary_optimal.csv"].split()
    assert cells[0] == "differs:"
    diffs = dict(zip(cells[1::2], map(float, cells[2::2])))
    assert diffs["r21"] == 0.0
    assert diffs["r12"] == pytest.approx(2.2e-15, rel=0.1)
    assert diffs["p_relay_rel"] == pytest.approx(1e-14, rel=0.1)
    assert diffs["B_phase_rel"] == pytest.approx(1e-13, rel=0.1)
    counts, largest = lines["summary"].split("; largest differences: ")
    assert counts == "5 files compared: 2 same, 2 differ, 1 missing, 0 of another shape, 1 new"
    largest = largest.split()
    assert largest[0::2] == sorted(largest[0::2])
    largest = dict(zip(largest[0::2], map(float, largest[1::2])))
    assert largest == {**diffs, "c_ub": pytest.approx(8.88e-16, rel=0.01), "kappa21_star": 0.0, "r_lb_zf": math.inf}


def test_identical_folders_exit_zero(compare, tmp_path, capsys):
    first, _ = _folders(tmp_path)
    assert compare.main([str(first), str(first)]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert all(line.endswith(": same") for line in lines)
    assert summary == (
        "summary: 5 files compared: 5 same, 0 differ, 0 missing, 0 of another shape, 0 new; "
        "largest differences: none"
    )


def test_summary_takes_the_largest_difference_of_each_kind(compare, tmp_path, capsys):
    first, second = tmp_path / "parent", tmp_path / "change"
    for name, a, b in (
        ("a.csv", "r21,r12\n1.0,1.0\n", "r21,r12\n1.5,1.0\n"),
        ("b.csv", "r21,r12\n1.0,1.0\n", "r21,r12\n1.25,1.0\n"),
        ("c.csv", "r21,r12\n1.0,1.0\n", "r21,r12\n1.0,1.0\n1.0,1.0\n"),
        ("d.csv", "r21,r12\n1.0,1.0\n", "r12,r21\n1.0,1.0\n"),
    ):
        _write(first / name, a)
        _write(second / name, b)
    assert compare.main([str(first), str(second)]) == 1
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == (
        "summary: 4 files compared: 0 same, 2 differ, 0 missing, 2 of another shape, 0 new; "
        "largest differences: r12 0 r21 0.5"
    )


def test_bad_arguments(compare, tmp_path):
    assert compare.main([str(tmp_path)]) == 2
    assert compare.main([str(tmp_path), str(tmp_path / "absent")]) == 2



def _diffs(tmp_path, name, first, second, compare):
    """The figures of the report line for one pair of CSV texts."""
    for root, text in ((tmp_path / "parent", first), (tmp_path / "change", second)):
        _write(root / name, text)
    cells = compare.compare_files(tmp_path / "parent" / name, tmp_path / "change" / name).split()
    assert cells[0] == "differs:"
    return dict(zip(cells[1::2], map(float, cells[2::2])))


def test_every_differing_column_is_figured(compare, tmp_path):
    # a capacity row whose only change is its p2 cell, from 0.1 to 10
    row = "0.5,0.0,0.0,0.1,{},0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
    diffs = _diffs(tmp_path, "capacity.csv", HEADER + row.format("0.1"), HEADER + row.format("10.0"), compare)
    assert diffs.pop("p2_rel") == pytest.approx(99.0)
    assert set(diffs.values()) == {0.0}
    assert set(diffs) == {"r21", "r12", "p_relay_rel", "B_phase_rel", "alpha21", "p1_rel"}
    # a sumrate row whose only change is r_mr
    header = "snr_db,c_ub_sym,r_lb_mr,r_mr,r_lb_zf,r_zf,r_dr,r_ow\n"
    first, second = header + "0.0,1.0,0.5,0.75,0.5,0.7,0.4,0.3\n", header + "0.0,1.0,0.5,0.875,0.5,0.7,0.4,0.3\n"
    diffs = _diffs(tmp_path, "sumrate.csv", first, second, compare)
    assert diffs == {name: 0.125 if name == "r_mr" else 0.0 for name in header.strip().split(",")}
    # a tau slice whose only change is its tau cell
    diffs = _diffs(tmp_path, "df_tau_slices.csv", "tau,r21,r12\n0.25,1.0,2.0\n", "tau,r21,r12\n0.5,1.0,2.0\n", compare)
    assert diffs == {"r21": 0.0, "r12": 0.0, "tau": 0.25}


def test_text_columns_compare_by_equality(compare, tmp_path):
    header = "r21,r12,scheme\n"
    diffs = _diffs(tmp_path, "a.csv", header + "1.0,1.0,mr\n", header + "1.0,1.5,mr\n", compare)
    assert diffs == {"r21": 0.0, "r12": 0.5, "scheme": 0.0}
    diffs = _diffs(tmp_path, "b.csv", header + "1.0,1.0,mr\n", header + "1.0,1.0,zf\n", compare)
    assert diffs == {"r21": 0.0, "r12": 0.0, "scheme": math.inf}
