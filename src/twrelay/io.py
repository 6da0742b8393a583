"""CSV and JSON formatting and atomic writes for the command line tools.

Every CSV table is formatted from its columns by format_columns: repr()
floats (full round-trip precision; a table's distinct float64 bit
patterns formatted once each), LF line endings, a header row first, and
NumericalFailureError, before any file is written, on a non-finite cell.
Every file is encoded once and written raw into a same-directory
temporary file and renamed into place, so an interrupted run never
leaves a truncated file behind; see atomic_write_text.
write_csv and write_region_csv have no caller in the package and stay
only because the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import json
import os
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
    """Write text to path through a same-directory temp file + rename: the
    text encoded once as UTF-8 and written raw, a short write continued;
    the file made with mode 0o666 less the umask, as open(path, "w") does,
    and the directory only when the temp file finds it missing. On any
    failure the temp file is removed and path keeps what it held."""
    data = memoryview(text.encode("utf-8"))
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
            break
        except FileExistsError:  # the name is taken: draw another
            continue
        except FileNotFoundError:
            os.makedirs(directory, exist_ok=True)
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _repr_cells(columns: List[np.ndarray]) -> List[List[str]]:
    """The repr() cells of equal-length float64 columns, one repr() per distinct bit pattern
    (equal bits give equal text; -0.0 and 0.0 differ): each pattern's first cell gets a new
    string, in table order, and its later cells share it. Under 768 cells, cell by cell."""
    bits = np.array(columns).view(np.uint64)
    if bits.size < 768:  # np.unique's fixed cost, about 0.1 ms with cold caches, exceeds what fewer cells' repeats save
        return [list(map(float.__repr__, c.tolist())) for c in columns]
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    firsts = np.zeros(bits.size, bool)
    firsts[first] = True
    cells = np.empty(bits.size, object)
    cells[firsts] = np.fromiter(map(float.__repr__, bits.ravel()[firsts].view(np.float64).tolist()), dtype=object, count=len(first))
    cells[~firsts] = cells[first[inverse.ravel()[~firsts]]]
    return cells.reshape(bits.shape).tolist()


def format_columns(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """The CSV text of a table given by its columns, one per header name and all of one
    length: a float64 array column as repr() floats (see _repr_cells), any other as its
    string cells. Raises InvalidInputError if the columns are not one per header name,
    differ in length or hold an array that is not 1-d float64, and NumericalFailureError
    on a non-finite cell (see _csv_text)."""
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise InvalidInputError(f"{len(header)} header names, columns of lengths {[len(c) for c in columns]}")
    floats = [c for c in columns if isinstance(c, np.ndarray)]
    if any(c.dtype != np.float64 or c.ndim != 1 for c in floats):
        raise InvalidInputError(f"array columns of {[f'{c.ndim}-d {c.dtype}' for c in floats]}, not 1-d float64")
    texts = iter(_repr_cells(floats))
    cells = [next(texts) if isinstance(c, np.ndarray) else c for c in columns]
    return _csv_text([",".join(header), *map(",".join, zip(*cells))])


def format_region_csv(boundary: RegionBoundary, scheme: Optional[str] = None) -> str:
    """The boundary CSV text, one row per boundary row, formatted straight
    from the boundary's columns; the scheme name is appended as a last
    column when given.

    The eight B_* cells hold each row's reduced 2x2 beamformer row-major
    (B[0,0], B[0,1], B[1,0], B[1,1]), real parts then imaginary parts.
    Every other cell is written as a float. Raises InvalidInputError if
    B is not an (n, 2, 2) stack or the columns differ in length, and
    NumericalFailureError on a non-finite cell.
    """
    if np.shape(boundary.B) != (len(boundary.r21), 2, 2):
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
