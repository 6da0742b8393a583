#!/usr/bin/env python3
"""Regenerate the data sets behind the shipped results.

Each run writes its CSVs plus a manifest into its own folder under the
given base directory (default results/). All runs are seeded, so
reruns produce byte-identical CSVs; only manifest timings move. The
capacity envelope is the slowest run, about 0.03 s in the command and
0.3 s of process wall time, mostly starting Python and numpy, at the
default grid on a shared 2-vCPU Linux VM.
"""

import os
import sys

from twrelay.cli import main

THIRD = "0.3333333333333333"

RUNS = [
    ("region_rho033", ["region", "--m", "4", "--rho", THIRD, "--p1", "10", "--p2", "10", "--pr", "10", "--profiles", "33", "--seed", "42"]),
    ("region_rho050", ["region", "--m", "4", "--rho", "0.5", "--p1", "10", "--p2", "10", "--pr", "10", "--profiles", "33", "--seed", "42"]),
    ("region_rho080", ["region", "--m", "4", "--rho", "0.8", "--p1", "10", "--p2", "10", "--pr", "10", "--profiles", "33", "--seed", "42"]),
    ("capacity_envelope", ["capacity", "--p1", "10", "--p2", "10", "--pr", "10", "--grid", "8", "--profiles", "33", "--seed", "42"]),
    ("sumrate_0_40db", ["sumrate", "--rho", THIRD, "--seed", "42"]),
    ("df_compare_rho095", ["df-compare", "--rho", "0.95", "--p", "100", "--seed", "7"]),
    ("df_compare_rho080", ["df-compare", "--rho", "0.8", "--p", "100", "--seed", "7"]),
    ("bounds_symmetric", ["bounds", "--rho", THIRD, "--p1", "10", "--p2", "10", "--pr", "10"]),
]


def run_all(base: str) -> int:
    for name, argv in RUNS:
        out = os.path.join(base, name)
        print(f"== {name} -> {out}")
        code = main(argv + ["--out", out])
        if code != 0:
            print(f"run {name} failed with exit code {code}", file=sys.stderr)
            return code
    print(f"all {len(RUNS)} runs done under {base}/")
    return 0


if __name__ == "__main__":
    sys.exit(run_all(sys.argv[1] if len(sys.argv) > 1 else "results"))
