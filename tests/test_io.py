import dataclasses
import json
import math
import os
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import format_rows, orthogonal_pair

import twrelay.beamformer as bf
from twrelay import io as tio
from twrelay.beamformer import (
    DEFAULT_DELTA_R,
    RegionBoundary,
    capacity_region,
    rate_region_boundary,
)
from twrelay.errors import InvalidInputError, NumericalFailureError
from twrelay.model import Beamformer, PowerConfig, effective, gen_channels, relay_power_reduced
from twrelay.schemes import _HALF_PI, _Sweep, sweep_region


# one boundary row: the RegionBoundary columns in order, then its 2x2 B
Row = namedtuple("Row", "alpha21 r21 r12 p1 p2 p_relay B")


def make_row(r21=0.5, r12=0.25):
    return Row(0.5, r21, r12, 10.0, 10.0, 10.0, np.array([[0.1 + 0.2j, -0.3], [0.4j, 1.5 - 0.6j]]))


def make_boundary(rows):
    """The boundary of the rows, in their order, with an identity frame."""
    columns = np.array([row[:6] for row in rows], dtype=np.float64).reshape(-1, 6).T
    B = np.array([row.B for row in rows], dtype=complex).reshape(-1, 2, 2)
    return RegionBoundary(*columns, B=B, U=np.eye(2, dtype=complex))


class TestFormatCsv:
    """The CSV text of format_columns, the one formatter of every table."""

    def test_header_and_lf_endings(self):
        text = tio.format_columns(["a", "b"], [np.array([1.0, 0.1]), np.array([2.5, -3.0])])
        assert text == "a,b\n1.0,2.5\n0.1,-3.0\n"
        assert "\r" not in text

    def test_full_float_round_trip(self):
        value = 1.0 / 3.0 + 1e-16
        text = tio.format_columns(["x"], [np.array([value])])
        assert float(text.splitlines()[1]) == value


class TestFormatColumns:
    def test_columns_become_rows(self):
        text = tio.format_columns(["x", "s"], [np.array([0.1, -0.0]), ["a", "b"]])
        assert text == "x,s\n0.1,a\n-0.0,b\n"

    @pytest.mark.parametrize(
        "header, columns",
        [
            (["x", "y"], [np.array([1.0, 2.0, 3.0]), np.array([4.0])]),
            (["x", "y"], [np.array([1.0]), np.array([2.0, 3.0])]),
            (["x", "s"], [np.array([1.0, 2.0]), ["a"]]),
            (["x", "y"], [np.array([1.0, 2.0])]),
        ],
        ids=["short-last", "short-first", "short-strings", "missing-column"],
    )
    def test_ragged_columns_raise_and_write_nothing(self, tmp_path, header, columns):
        with pytest.raises(InvalidInputError):
            tio.atomic_write_text(str(tmp_path / "t.csv"), tio.format_columns(header, columns))
        assert os.listdir(tmp_path) == []


TOP = 1.7976931348623157e308


def _corpus_table(rng, rows):
    """A table of six float columns and a string column: a pool of edge
    values (signed zeros, the least subnormal, the top of the range) and
    values from 1e-300 to 1e300, the first column cycling through it and
    three drawn from it, so that values repeat within and across columns;
    one column of a single value and one a strided view."""
    pool = np.concatenate(
        [[0.0, -0.0, 5e-324, -5e-324, TOP, -TOP, 1.0, 0.1], 10.0 ** rng.uniform(-300.0, 300.0, size=8) * rng.choice([-1.0, 1.0], size=8)]
    )
    drawn = rng.choice(pool, size=(rows, 4))
    drawn[:, 0] = np.resize(pool, rows)
    block = np.stack([rng.choice(pool, size=rows), rng.normal(size=rows)], axis=1)
    columns = [*drawn.T, block[:, 1], np.full(rows, pool[rng.integers(len(pool))])]
    return ["a", "b", "c", "d", "e", "f", "s"], columns + [[f"s{i % 3}" for i in range(rows)]]


def _per_cell(header, columns):
    """The text of the table with every cell formatted on its own."""
    return format_rows(header, zip(*columns))


class TestDistinctFloats:
    """format_columns formats each distinct float of a table of 768 cells
    or more once, a smaller table cell by cell, and either way gives the
    text of formatting every cell on its own."""

    @pytest.mark.parametrize("seed", range(6))
    def test_corpus_matches_the_per_cell_text(self, seed):
        rng = np.random.default_rng(seed)
        for rows in (1, 2, 17, 65, 300):
            header, columns = _corpus_table(rng, rows)
            assert tio.format_columns(header, columns) == _per_cell(header, columns)

    @pytest.mark.parametrize("rows", [1, 400])
    def test_edge_values_and_signed_zeros_in_one_table(self, rows):
        values = np.resize([0.0, -0.0, 5e-324, TOP, -TOP, 1e-300, 1e300, -0.0, 0.0, 5e-324], 10 * rows)
        text = tio.format_columns(["x", "y"], [values, values[::-1].copy()])
        assert text.splitlines()[1:3] == ["0.0,5e-324", "-0.0,0.0"]
        assert text == _per_cell(["x", "y"], [values, values[::-1]])

    @pytest.mark.parametrize("width", [2, 800])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_empty_and_one_row_tables(self, rows, width):
        header = [f"c{i}" for i in range(width)] + ["s"]
        columns = [np.full(rows, (-0.0, 2.5, 0.1 * i)[min(i, 2)]) for i in range(width)] + [["s"] * rows]
        assert tio.format_columns(header, columns) == _per_cell(header, columns)
        assert tio.format_columns(["s"], [["x"] * rows]) == _per_cell(["s"], [["x"] * rows])

    @pytest.mark.parametrize("rows", [5, 300])
    def test_one_distinct_value(self, rows):
        columns = [np.full(rows, 1.0 / 3.0)] * 3
        assert tio.format_columns(["a", "b", "c"], columns) == "a,b,c\n" + "0.3333333333333333,0.3333333333333333,0.3333333333333333\n" * rows

    @pytest.mark.parametrize("n", [6, 100])
    def test_strided_views(self, n):
        B = (np.arange(4.0 * n) - 11.5).reshape(n, 2, 2) * (1.0 + 1e-300j) / 7.0
        flat = B.reshape(-1, 4)
        columns = [*flat.real.T, *flat.imag.T, np.arange(2.0 * n)[::2], np.arange(2.0 * n)[::-2]]
        header = [f"c{i}" for i in range(len(columns))]
        assert not any(c.flags.c_contiguous for c in columns)
        assert tio.format_columns(header, columns) == _per_cell(header, columns)

    def test_repr_once_per_distinct_bit_pattern(self, monkeypatch):
        seen = []

        def counting(value):
            seen.append(value)
            return float.__repr__(value)

        monkeypatch.setattr(tio, "float", SimpleNamespace(__repr__=counting), raising=False)
        columns = [np.resize([1.0, 0.0, -0.0, 1.0], 400), np.resize([0.0, 2.0, 1.0, 5e-324], 400), ["a", "b", "c", "d"] * 100]
        text = tio.format_columns(["x", "y", "s"], columns)
        assert text == "x,y,s\n" + "1.0,0.0,a\n0.0,2.0,b\n-0.0,1.0,c\n1.0,5e-324,d\n" * 100
        assert sorted(map(float.__repr__, seen)) == sorted(["-0.0", "0.0", "1.0", "2.0", "5e-324"])

    @pytest.mark.parametrize("rows", [3, 400])
    @pytest.mark.parametrize("value", [math.nan, -math.inf, math.inf], ids=["nan", "-inf", "inf"])
    def test_a_non_finite_cell_names_its_row_and_column(self, value, rows):
        y = np.ones(rows)
        y[2] = value
        columns = [np.resize([1.0, 2.0], rows), y, ["a"] * rows]
        with pytest.raises(NumericalFailureError, match=f"^row 3, column y is {value!r}, not a finite number$"):
            tio.format_columns(["x", "y", "s"], columns)

    @pytest.mark.parametrize(
        "column",
        [np.array([1, 2]), np.array([True, False]), np.array([1.0, 2.0], dtype=np.float32), np.array([1.0 + 0j, 2.0]), np.ones((2, 1))],
        ids=["int", "bool", "float32", "complex", "2-d"],
    )
    def test_a_column_that_is_not_float64_is_refused(self, column):
        with pytest.raises(InvalidInputError, match="not 1-d float64"):
            tio.format_columns(["x", "y"], [np.array([1.0, 2.0]), column])


NON_FINITE = [math.nan, -math.inf, np.float64(math.inf)]


class TestNonFiniteCells:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "-inf", "inf"])
    def test_write_csv_refuses_and_writes_nothing(self, tmp_path, value):
        with pytest.raises(NumericalFailureError, match=f"row 2, column b is {float(value)!r}"):
            tio.write_csv(str(tmp_path / "t.csv"), ["a", "b"], [np.array([1.0, 3.0]), np.array([2.0, value])])
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "-inf", "inf"])
    def test_write_region_csv_refuses_and_writes_nothing(self, tmp_path, value):
        boundary = make_boundary([make_row(), make_row(r12=value)])
        with pytest.raises(NumericalFailureError, match=f"row 2, column r12 is {float(value)!r}"):
            tio.write_region_csv(str(tmp_path / "boundary.csv"), boundary, scheme="mr")
        assert os.listdir(tmp_path) == []

    def test_preformatted_cell_is_checked_too(self):
        with pytest.raises(NumericalFailureError):
            tio.format_columns(["tau", "r21"], [["nan"], np.array([1.0])])

    def test_text_that_only_contains_inf_or_nan_passes(self):
        text = tio.format_columns(["info", "nano"], [["nano", "info"], np.array([1e300, -1e-300])])
        assert text == "info,nano\nnano,1e+300\ninfo,-1e-300\n"


class TestAtomicWrite:
    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.csv"
        tio.atomic_write_text(str(target), "x\n")
        assert target.read_text() == "x\n"

    def test_no_temp_files_left(self, tmp_path):
        target = tmp_path / "out.csv"
        tio.atomic_write_text(str(target), "x\n")
        tio.atomic_write_text(str(target), "y\n")
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]
        assert target.read_text() == "y\n"

    def test_failed_rename_removes_the_temp_file_and_keeps_the_target(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\n")

        def refuse(src, dst):
            assert os.path.basename(src).startswith(".tmp-") and os.path.getsize(src) == 4
            raise OSError("no rename")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no rename"):
            tio.atomic_write_text(str(target), "new\n")
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]
        assert target.read_bytes() == b"old\n"

    def test_failed_write_removes_the_temp_file(self, tmp_path, monkeypatch):
        def refuse(fd, data):
            raise OSError("disk full")

        monkeypatch.setattr(os, "write", refuse)
        with pytest.raises(OSError, match="disk full"):
            tio.atomic_write_text(str(tmp_path / "out.csv"), "x\n")
        assert os.listdir(tmp_path) == []

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        write = os.write
        sizes = []

        def short(fd, data):
            sizes.append(len(data))
            return write(fd, bytes(data[:3]))

        monkeypatch.setattr(os, "write", short)
        text = "r21,r12\n0.5,\u00e9\n"
        tio.atomic_write_text(str(tmp_path / "out.csv"), text)
        assert (tmp_path / "out.csv").read_bytes() == text.encode("utf-8")
        assert sizes == list(range(len(text.encode("utf-8")), 0, -3))

    def test_directory_is_made_only_when_missing(self, tmp_path, monkeypatch):
        made = []
        makedirs = os.makedirs

        def counting(name, **kwargs):
            made.append(name)
            return makedirs(name, **kwargs)

        monkeypatch.setattr(os, "makedirs", counting)
        tio.atomic_write_text(str(tmp_path / "a.csv"), "x\n")
        assert made == []
        tio.atomic_write_text(str(tmp_path / "new" / "a.csv"), "x\n")
        tio.atomic_write_text(str(tmp_path / "new" / "b.csv"), "y\n")
        assert made == [str(tmp_path / "new")]
        assert sorted(os.listdir(tmp_path / "new")) == ["a.csv", "b.csv"]


def _region_csv(tmp_path, boundary, scheme=None):
    path = tmp_path / "boundary.csv"
    tio.write_region_csv(str(path), boundary, scheme=scheme)
    return path.read_text()


def _rows_per_point(points, scheme=None):
    """The boundary rows as the writer built them before it went by
    column: one list per point, each cell formatted on its own."""
    header = list(tio.REGION_HEADER) + (["scheme"] if scheme is not None else [])
    rows = []
    for point in points:
        flat = np.asarray(point.B, dtype=complex).reshape(-1)
        row = [
            point.alpha21,
            point.r21,
            point.r12,
            point.p1,
            point.p2,
            *[float(v) for v in flat.real],
            *[float(v) for v in flat.imag],
            point.p_relay,
        ]
        if scheme is not None:
            row.append(scheme)
        rows.append(row)
    return header, rows


# cells with easily mangled text: signed zeros, the least subnormal, the
# top of the range and a tiny negative
EDGE_CELLS = [-0.0, 0.0, 5e-324, 1e308, -1e-300]


def _edge_points(n):
    """n points with constant p1 and p2, varying rates and edge cells in B
    and p_relay, and a p2 column that is 0.0 and -0.0 by turns."""
    points = []
    for i in range(n):
        cells = [EDGE_CELLS[(i + k) % len(EDGE_CELLS)] for k in range(8)]
        B = np.array(cells[:4]).reshape(2, 2) + 1j * np.array(cells[4:]).reshape(2, 2)
        points.append(
            Row(
                alpha21=i / 3.0,
                r21=0.1 * i,
                r12=EDGE_CELLS[i % len(EDGE_CELLS)],
                p1=10.0,
                p2=(0.0, -0.0)[i % 2],
                p_relay=EDGE_CELLS[-1 - i % len(EDGE_CELLS)],
                B=B,
            )
        )
    return points


class TestRegionRows:
    def test_b_cells_reconstruct_the_matrix(self, tmp_path):
        point = make_row()
        lines = _region_csv(tmp_path, make_boundary([point])).splitlines()
        assert lines[0].split(",") == tio.REGION_HEADER
        row = [float(cell) for cell in lines[1].split(",")]
        re_part = np.array(row[5:9]).reshape(2, 2)
        im_part = np.array(row[9:13]).reshape(2, 2)
        assert np.array_equal(re_part + 1j * im_part, point.B)

    def test_scheme_column_appended_last(self, tmp_path):
        text = _region_csv(tmp_path, make_boundary([make_row()]), scheme="mr")
        header, row = text.splitlines()
        assert header.split(",")[-1] == "scheme"
        assert row.split(",")[-1] == "mr"

    def test_missing_beamformer_raises(self, tmp_path):
        boundary = dataclasses.replace(make_boundary([make_row(), make_row()]), B=None)
        with pytest.raises(InvalidInputError):
            tio.write_region_csv(str(tmp_path / "boundary.csv"), boundary)
        assert os.listdir(tmp_path) == []

    def test_non_2x2_beamformer_raises(self, tmp_path):
        boundary = dataclasses.replace(make_boundary([make_row(), make_row()]), B=np.zeros((2, 3, 3), dtype=complex))
        with pytest.raises(InvalidInputError, match="stack"):
            tio.write_region_csv(str(tmp_path / "boundary.csv"), boundary)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("shape", [(3, 2, 2), (1, 2, 2), (2, 4), (2, 2)], ids=["long", "short", "flat", "one-matrix"])
    def test_b_not_one_matrix_per_row_raises(self, tmp_path, shape):
        # a 2-row boundary whose relay matrices do not stack to (2, 2, 2)
        boundary = dataclasses.replace(make_boundary([make_row(), make_row()]), B=np.zeros(shape, dtype=complex))
        with pytest.raises(InvalidInputError, match="stack"):
            tio.write_region_csv(str(tmp_path / "boundary.csv"), boundary)
        assert os.listdir(tmp_path) == []

    def test_ragged_columns_raise(self, tmp_path):
        boundary = make_boundary([make_row(), make_row()])
        boundary = dataclasses.replace(boundary, r12=boundary.r12[:1])
        with pytest.raises(InvalidInputError):
            tio.write_region_csv(str(tmp_path / "boundary.csv"), boundary)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    @pytest.mark.parametrize("scheme", [None, "zf"])
    def test_columns_match_the_rows_per_point(self, tmp_path, n, scheme):
        points = _edge_points(n)
        want = format_rows(*_rows_per_point(points, scheme))
        assert _region_csv(tmp_path, make_boundary(points), scheme) == want

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        lines = _region_csv(tmp_path, make_boundary(_edge_points(3))).splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == ["0.0", "-0.0", "0.0"]
        assert [line.split(",")[3] for line in lines] == ["10.0"] * 3


# The boundaries as they were built point by point, and the writer that
# took the points apart again, kept here as the reference for the columns.


def _per_point_sweep(scheme, pair, pc, n_ratios):
    sweep = _Sweep.build(scheme, pair, pc)
    angles = np.append(_HALF_PI, _HALF_PI * np.arange(n_ratios - 2, -1, -1) / (n_ratios - 1))
    r21, r12 = sweep.rates(angles)
    mats = sweep.matrices(angles)
    powers = relay_power_reduced(mats, sweep.eff, pc)
    points = []
    for B, x21, x12, spent in zip(mats, r21.tolist(), r12.tolist(), powers.tolist()):
        total = x21 + x12
        points.append(Row(x21 / total if total > 0 else 0.5, x21, x12, pc.p1, pc.p2, spent, B))
    return points


def _per_point_trace(cells, n_profiles):
    points = []
    for profile in bf._profiles(n_profiles):
        cell, found = max(((cell, cell.exit(profile)) for cell in cells), key=lambda item: item[1][0])
        r_sum, B, _ = bf._traced(cell, profile, found, DEFAULT_DELTA_R)
        eff, pc, beam = cell.eff, cell.pc, Beamformer(B=B, U=cell.eff.U)
        r21, r12 = profile.alpha21 * r_sum, profile.alpha12 * r_sum
        points.append(Row(profile.alpha21, r21, r12, pc.p1, pc.p2, relay_power_reduced(beam, eff, pc), B))
    return points


def _per_point_capacity(pair, P1, P2, P_R, grid, n_profiles):
    eff = effective(pair)
    p1_grid, p2_grid = bf._power_grid(P1, grid), bf._power_grid(P2, grid)
    edges = [(p1, p2_grid[-1]) for p1 in p1_grid[:-1]] + [(p1_grid[-1], p2) for p2 in p2_grid]
    cells = [bf._PowerCell(eff, PowerConfig(float(p1), float(p2), P_R)) for p1, p2 in edges]
    points = _per_point_trace(cells, n_profiles)
    r = np.array([[p.r21, p.r12] for p in points])
    return [
        p
        for i, (p, x) in enumerate(zip(points, r))
        if not np.any(np.all(r >= x - 1e-12, axis=1) & (np.any(r > x + 1e-12, axis=1) | (np.arange(len(r)) < i)))
    ]


def _per_point_csv(points, scheme=None):
    if any(np.shape(point.B) != (2, 2) for point in points):
        raise InvalidInputError("boundary relay matrix is not 2x2")
    B = np.array([point.B for point in points], dtype=complex)
    B = B.reshape(len(points), 4)
    columns = [
        [point.alpha21 for point in points],
        [point.r21 for point in points],
        [point.r12 for point in points],
        [point.p1 for point in points],
        [point.p2 for point in points],
        *B.real.T,
        *B.imag.T,
        [point.p_relay for point in points],
    ]
    cells = [list(map(float.__repr__, np.asarray(values, dtype=np.float64).tolist())) for values in columns]
    header = tio.REGION_HEADER
    if scheme is not None:
        header = header + ["scheme"]
        cells.append([scheme] * len(points))
    return tio._csv_text([",".join(header), *map(",".join, zip(*cells))])


# equal powers, a silent source on each side, both sources silent (every
# alpha21 is 0.5) and powers far apart
SWEEP_POWERS = [(10.0, 10.0, 10.0), (0.0, 5.0, 10.0), (5.0, 0.0, 10.0), (0.0, 0.0, 10.0), (1e-3, 1e3, 1.0)]


# zero-forcing is undefined on the parallel channels of rho = 1
SWEEPS = [(scheme, rho) for scheme in ("mr", "zf") for rho in (0.0, 0.5, 0.999, 1.0) if (scheme, rho) != ("zf", 1.0)]


class TestColumnsMatchThePerPointPath:
    @pytest.mark.parametrize("n_ratios", [2, 9, 65])
    @pytest.mark.parametrize("scheme, rho", SWEEPS)
    def test_sweeps(self, tmp_path, scheme, rho, n_ratios):
        pair = gen_channels(4, rho, seed=21)
        for powers in SWEEP_POWERS:
            pc = PowerConfig(*powers)
            got = _region_csv(tmp_path, sweep_region(scheme, effective(pair), pc, n_ratios), scheme)
            assert got == _per_point_csv(_per_point_sweep(scheme, pair, pc, n_ratios), scheme)
        silent = sweep_region(scheme, effective(pair), PowerConfig(0.0, 0.0, 10.0), n_ratios)
        assert silent.alpha21.tolist() == [0.5] * n_ratios

    @pytest.mark.parametrize(
        "pair, powers",
        [
            (orthogonal_pair(), (10.0, 10.0, 10.0)),
            (gen_channels(4, 0.5, seed=21), (10.0, 10.0, 10.0)),
            (gen_channels(3, 0.999, seed=22), (100.0, 1.0, 30.0)),
            (gen_channels(2, 1.0, seed=23), (10.0, 10.0, 10.0)),
            (gen_channels(4, 0.5, seed=21), (0.0, 10.0, 10.0)),
            (gen_channels(4, 0.5, seed=21), (0.0, 0.0, 10.0)),
        ],
    )
    def test_optimal_boundaries(self, tmp_path, pair, powers):
        pc = PowerConfig(*powers)
        eff = effective(pair)
        got = _region_csv(tmp_path, rate_region_boundary(eff, pc, n_profiles=9))
        assert got == _per_point_csv(_per_point_trace([bf._PowerCell(eff, pc)], 9))

    @pytest.mark.parametrize(
        "rho, powers, grid",
        [(0.4, (10.0, 10.0, 10.0), 2), (0.041, (1000.0, 10.0, 10.0), 3), (0.9, (1e-4, 1e4, 10.0), 8), (0.4, (10.0, 10.0, 0.0), 3)],
    )
    def test_capacity_envelopes(self, tmp_path, rho, powers, grid):
        pair = gen_channels(3, rho, seed=17)
        got = _region_csv(tmp_path, capacity_region(pair, *powers, power_grid=grid, n_profiles=9))
        assert got == _per_point_csv(_per_point_capacity(pair, *powers, grid, 9))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_hand_made_edge_cells(self, tmp_path, n):
        # -0.0, the least subnormal and the top of the range
        points = _edge_points(n)
        assert _region_csv(tmp_path, make_boundary(points), "mr") == _per_point_csv(points, "mr")


class TestManifest:
    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        payload = {"seed": 42, "settings": {"rho": 0.5}, "files": ["a.csv"]}
        tio.write_manifest(str(path), payload)
        assert json.loads(path.read_text()) == payload


class TestReadConfig:
    def test_parses_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nrho = 0.25\n\nseed=7 # inline\n")
        assert tio.read_config(str(path)) == {"rho": "0.25", "seed": "7"}

    def test_rejects_line_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rho 0.25\n")
        with pytest.raises(InvalidInputError):
            tio.read_config(str(path))
