#!/usr/bin/env python3
"""Compare the CSV and JSON outputs of two runs of the same commands.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

Every CSV and JSON file under PARENT_DIR, except the manifests
(`manifest.json`, whose timings vary from run to run), is paired with
the file at the same relative path under CHANGE_DIR. Each pair gets one
line: `same` when the bytes are identical, `missing` when the second
file does not exist, and otherwise, for a JSON object, the absolute
difference of each field (0 or inf for a field that is not a number on
both sides, by whether the two values are equal), and for a CSV the
largest differences by kind of column:

- rate: absolute difference of the r21 and r12 cells, in bits;
- p_relay: difference relative to the first file's value;
- B: difference of the eight B_* cells of a row after turning the
  second row's B by the one unit phase that best matches the first,
  relative to the first row's largest |B|, since a relay matrix is
  only defined up to such a phase;
- every other column, in header order: the absolute difference of its
  cells, relative to the first file's value for the source powers p1
  and p2 (reported as p1_rel and p2_rel); 0 or inf for a column that is
  not numeric in both files, by whether its cells are equal.

CSVs whose headers or row counts differ are reported as such. Files
found only under CHANGE_DIR are listed as `new`. The last line sums the
report up: the number of files compared; how many are the same, differ,
are missing or have another header or row count; the number of new
files; and the largest difference of each kind (each name above) over
all files. The exit status is 0 when every pair is byte-identical, and 1
otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

RATE_COLUMNS = ("r21", "r12")
RELATIVE_COLUMNS = ("p1", "p2")


def _read(path: Path) -> List[List[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _column(rows: List[List[str]], index: int) -> np.ndarray:
    return np.array([float(row[index]) for row in rows[1:]])


def _b_matrix(rows: List[List[str]], header: List[str]) -> np.ndarray:
    re = [header.index(f"B_re[{k}]") for k in range(4)]
    im = [header.index(f"B_im[{k}]") for k in range(4)]
    return np.column_stack([_column(rows, i) for i in re]) + 1j * np.column_stack(
        [_column(rows, i) for i in im]
    )


def _largest_gap(x: np.ndarray, y: np.ndarray, relative: bool = False) -> float:
    """Largest |x - y|, divided by |x| where x is not 0 when relative."""
    gap = np.abs(x - y)
    if relative:
        gap = gap / np.where(x != 0.0, np.abs(x), 1.0)
    return float(np.max(gap, initial=0.0))


def compare_rows(a: List[List[str]], b: List[List[str]]) -> Dict[str, float]:
    """Largest differences between two parsed CSVs of one header and
    length, by kind of column (see the module docstring)."""
    header = a[0]
    out: Dict[str, float] = {}
    for name in RATE_COLUMNS:
        if name in header:
            i = header.index(name)
            out[name] = _largest_gap(_column(a, i), _column(b, i))
    if "p_relay" in header:
        i = header.index("p_relay")
        out["p_relay_rel"] = _largest_gap(_column(a, i), _column(b, i), relative=True)
    if "B_re[0]" in header:
        Ba, Bb = _b_matrix(a, header), _b_matrix(b, header)
        phase = np.exp(1j * np.angle(np.sum(Bb.conj() * Ba, axis=1)))  # 1 where the rows are orthogonal
        scale = np.max(np.abs(Ba), axis=1)
        gap = np.max(np.abs(Ba - phase[:, None] * Bb), axis=1)
        out["B_phase_rel"] = float(np.max(gap / np.where(scale > 0.0, scale, 1.0), initial=0.0))
    for i, name in enumerate(header):
        if name in RATE_COLUMNS or name == "p_relay" or name.startswith(("B_re[", "B_im[")):
            continue
        relative = name in RELATIVE_COLUMNS
        try:
            gap = _largest_gap(_column(a, i), _column(b, i), relative)
        except ValueError:  # a text column
            gap = 0.0 if [row[i] for row in a[1:]] == [row[i] for row in b[1:]] else math.inf
        out[f"{name}_rel" if relative else name] = gap
    return out


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_fields(a: dict, b: dict) -> Dict[str, float]:
    """Absolute difference of each field of two JSON objects; a field
    that is not a number on both sides gives 0 when the two values are
    equal and inf when they are not (a missing field reads as null)."""
    out: Dict[str, float] = {}
    for name in sorted(set(a) | set(b)):
        x, y = a.get(name), b.get(name)
        if _number(x) and _number(y):
            out[name] = abs(float(x) - float(y))
        else:
            out[name] = 0.0 if x == y else math.inf
    return out


def _diff_line(diffs: Dict[str, float]) -> str:
    return "differs: " + " ".join(f"{name} {value:.3g}" for name, value in diffs.items())


def _compare(first: Path, second: Path) -> Tuple[str, Dict[str, float]]:
    """compare_files' line for a pair of files, with the differences it
    reports (none for a pair that is the same, missing or of another
    shape)."""
    if not second.is_file():
        return "missing", {}
    if first.read_bytes() == second.read_bytes():
        return "same", {}
    if first.suffix == ".json":
        diffs = compare_fields(json.loads(first.read_text()), json.loads(second.read_text()))
        return _diff_line(diffs), diffs
    a, b = _read(first), _read(second)
    if a[:1] != b[:1]:
        return "differs: headers differ", {}
    if len(a) != len(b):
        return f"differs: {len(a) - 1} rows against {len(b) - 1}", {}
    diffs = compare_rows(a, b)
    return _diff_line(diffs), diffs


def compare_files(first: Path, second: Path) -> str:
    """One line of report for a pair of files."""
    return _compare(first, second)[0]


def summary_line(counts: Counter, largest: Dict[str, float]) -> str:
    """The report's last line: the counts of compared files and of each
    outcome, and the largest difference of each kind over all files."""
    outcomes = ", ".join(f"{counts[key]} {key}" for key in ("same", "differ", "missing", "of another shape", "new"))
    kinds = " ".join(f"{name} {value:.3g}" for name, value in sorted(largest.items())) or "none"
    return f"summary: {counts['compared']} files compared: {outcomes}; largest differences: {kinds}"


def _outputs(root: Path) -> Iterator[Path]:
    """Relative paths of the compared files under root."""
    for path in root.rglob("*"):
        if path.suffix in (".csv", ".json") and path.name != "manifest.json":
            yield path.relative_to(root)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    first, second = Path(argv[0]), Path(argv[1])
    for root in (first, second):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    counts: Counter = Counter()
    largest: Dict[str, float] = {}
    for name in sorted(_outputs(first)):
        line, diffs = _compare(first / name, second / name)
        print(f"{name}: {line}")
        counts["compared"] += 1
        counts[line if line in ("same", "missing") else "differ" if diffs else "of another shape"] += 1
        for kind, value in diffs.items():
            largest[kind] = max(largest.get(kind, 0.0), value)
    for name in sorted(_outputs(second)):
        if not (first / name).is_file():
            counts["new"] += 1
            print(f"{name}: new")
    print(summary_line(counts, largest))
    return 0 if counts["same"] == counts["compared"] and not counts["new"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
