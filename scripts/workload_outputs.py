#!/usr/bin/env python3
"""Write the outputs of every benchmark workload's jobs.

    python3 scripts/workload_outputs.py OUT_DIR [--seeds 1,2,3,9001]
    python3 scripts/workload_outputs.py --reference

Every job of every workload in perfbench/workloads.py, at each seed,
runs through twrelay.cli.main and writes its files to
OUT_DIR/<workload>/<seed>/<job>, where <job> is the job's index in the
workload's list. The program is imported from src/ of the checkout that
holds this script. Run it from two checkouts and pass both folders to
scripts/compare_outputs.py to compare their outputs; for a checkout
that predates this script, copy the script into that checkout's
scripts/ first. --reference rewrites tests/reference from scratch with
the tiny seed-1 job lists' outputs and, under default/<command>, those
of DEFAULTS, manifests left out: the files that
tests/test_workload_outputs.py compares each run with. The tiny jobs
trace only the two axis rays, so DEFAULTS adds four commands at their
default settings: a 33-profile optimal boundary and a 15-cell capacity
envelope, whose interior rays run the power cell's exit search,
df-compare, whose tables hold the decode-and-forward tau slices and
ray splits, and the 21-point sum-rate table, whose scheme searches and
baselines cover low SNRs as well as high ones. The new files are
written into a temporary folder first, and compare_outputs.py's report
of the committed reference against them (a line per file and the
largest differences) is printed before they replace it, so that each
regeneration shows its size. When a job fails, the reference is left as
it is. The exit status is 0 when every job exits 0, 1 otherwise, and 2
on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference"
sys.path.insert(0, str(ROOT / "src"))

from twrelay.cli import main as twrelay_main  # noqa: E402

DEFAULTS = {
    "region": ["region", "--scheme", "optimal"],
    "capacity": ["capacity"],
    "df-compare": ["df-compare"],
    "sumrate": ["sumrate"],
}


def _module(path: Path):
    """The module of a Python file, loaded from its path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    return _module(ROOT / "perfbench" / "workloads.py")


def _run(argv: List[str], out: Path, label: str) -> List[str]:
    """Run one job into out; returns [a line naming it] if it did not exit 0."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = twrelay_main(argv + ["--out", str(out)])
    except SystemExit as exc:  # usage errors exit through argparse
        code = exc.code
    return [] if code == 0 else [f"{label}: exit {code}: {' '.join(argv)}"]


def write_outputs(out_dir: Path, seeds: Sequence[int], tiny: bool = False) -> List[str]:
    """Run every job of every workload at every seed into out_dir; returns
    one line for each job that did not exit 0."""
    workloads = _workloads()
    failed = []
    for name in workloads.NAMES:
        for seed in seeds:
            for index, argv in enumerate(workloads.jobs(name, seed, tiny=tiny)):
                failed += _run(argv, Path(out_dir) / name / str(seed) / str(index), f"{name}/{seed}/{index}")
    return failed


def write_reference(out_dir: Path) -> List[str]:
    """Replace out_dir with the tiny seed-1 outputs and those of DEFAULTS,
    no manifests, once compare_outputs.py has printed its report of
    out_dir against them; returns the failed jobs, and leaves out_dir
    as it is if there are any."""
    out_dir = Path(out_dir)
    with tempfile.TemporaryDirectory(dir=out_dir.parent, prefix=".reference-") as folder:
        new = Path(folder) / "reference"
        new.mkdir()
        failed = write_outputs(new, [1], tiny=True)
        for name, argv in DEFAULTS.items():
            failed += _run(argv, new / "default" / name, f"default/{name}")
        for manifest in new.rglob("manifest.json"):
            manifest.unlink()
        if out_dir.is_dir():
            _module(ROOT / "scripts" / "compare_outputs.py").main([str(out_dir), str(new)])
        if not failed:
            shutil.rmtree(out_dir, ignore_errors=True)
            new.rename(out_dir)
    return failed


def _seeds(text: str) -> List[int]:
    return [int(seed) for seed in text.split(",")]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, nargs="?")
    parser.add_argument("--seeds", type=_seeds, help="comma-separated workload seeds (default 1,2,3,9001)")
    parser.add_argument("--reference", action="store_true", help="rewrite tests/reference instead")
    try:
        args = parser.parse_args(argv)
        if args.reference == (args.out_dir is not None) or (args.reference and args.seeds):
            parser.error("give OUT_DIR with optional --seeds, or --reference alone")
    except SystemExit as exc:
        return int(exc.code)
    if args.reference:
        failed = write_reference(REFERENCE)
    else:
        failed = write_outputs(args.out_dir, args.seeds or [1, 2, 3, 9001])
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
