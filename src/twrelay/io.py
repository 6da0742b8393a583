"""CSV and JSON formatting and atomic writes for the command line tools.

Every CSV table is formatted from its columns by format_columns: repr()
floats (full round-trip precision), LF line endings, a header row first,
and NumericalFailureError, before any file is written, on a non-finite
cell. Every file is written through a same-directory temporary file and
a rename, so an interrupted run never leaves a truncated file behind.
write_csv and write_region_csv have no caller in the package and stay
only because the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import List, Optional, Sequence

import numpy as np

from .beamformer import RegionBoundary
from .errors import InvalidInputError, NumericalFailureError

REGION_HEADER = [
    "alpha21",
    "r21",
    "r12",
    "p1",
    "p2",
    "B_re[0]",
    "B_re[1]",
    "B_re[2]",
    "B_re[3]",
    "B_im[0]",
    "B_im[1]",
    "B_im[2]",
    "B_im[3]",
    "p_relay",
]

RATE_PAIR_HEADER = ["r21", "r12"]
TAU_HEADER = ["tau", "r21", "r12"]


_NON_FINITE = frozenset(("inf", "-inf", "nan"))


def _csv_text(lines: List[str]) -> str:
    """The CSV text of a header line and its row lines.

    Raises:
        NumericalFailureError: if a cell reads inf, -inf or nan, as the
            repr of a non-finite float does.
    """
    text = "\n".join(lines) + "\n"
    # one substring scan of the whole table; cells are split only when it hits
    if "inf" in text or "nan" in text:
        header = lines[0].split(",")
        for row, line in enumerate(lines[1:], start=1):
            for name, cell in zip(header, line.split(",")):
                if cell in _NON_FINITE:
                    raise NumericalFailureError(f"row {row}, column {name} is {cell}, not a finite number")
    return text


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path through a same-directory temp file + rename."""
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_columns(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """The CSV text of a table given by its columns, one per header name
    and all of one length: a float64 array column as repr() floats, any
    other as its string cells. Raises InvalidInputError if the columns
    are not one per header name or differ in length, and
    NumericalFailureError on a non-finite cell (see _csv_text)."""
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise InvalidInputError(f"{len(header)} header names, columns of lengths {[len(c) for c in columns]}")
    cells = [list(map(float.__repr__, c.tolist())) if isinstance(c, np.ndarray) else c for c in columns]
    return _csv_text([",".join(header), *map(",".join, zip(*cells))])


def format_region_csv(boundary: RegionBoundary, scheme: Optional[str] = None) -> str:
    """The boundary CSV text, one row per boundary row, formatted straight
    from the boundary's columns; the scheme name is appended as a last
    column when given.

    The eight B_* cells hold each row's reduced 2x2 beamformer row-major
    (B[0,0], B[0,1], B[1,0], B[1,1]), real parts then imaginary parts.
    Every other cell is written as a float. Raises InvalidInputError if
    B is None (no relay matrix applies) or not an (n, 2, 2) stack, or if
    the columns differ in length, and NumericalFailureError on a
    non-finite cell.
    """
    if boundary.B is None or boundary.B.shape != (len(boundary.r21), 2, 2):
        raise InvalidInputError("the boundary's relay matrices are not an (n, 2, 2) stack, n its row count")
    B = boundary.B.reshape(-1, 4)
    columns = [boundary.alpha21, boundary.r21, boundary.r12, boundary.p1, boundary.p2, *B.real.T, *B.imag.T, boundary.p_relay]
    if scheme is None:
        return format_columns(REGION_HEADER, columns)
    return format_columns(REGION_HEADER + ["scheme"], columns + [[scheme] * len(B)])


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write format_columns' text to path; nothing is written when it raises."""
    atomic_write_text(path, format_columns(header, columns))


def write_region_csv(path: str, boundary: RegionBoundary, scheme: Optional[str] = None) -> None:
    """Write format_region_csv's text to path; nothing is written when it raises."""
    atomic_write_text(path, format_region_csv(boundary, scheme))


def write_manifest(path: str, manifest: dict) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_config(path: str) -> dict:
    """Flat key=value config file; '#' starts a comment, blank lines skipped."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values
