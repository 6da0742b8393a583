"""Seeded job lists for the benchmark workloads.

A workload is a fixed list of `twrelay` command lines (one job each),
generated from the workload seed alone. The program receives only these
argv lists; the output directory is appended by the runner.

With unit-norm channels, rates and solver work depend on the draw mostly
through the powers and the correlation rho. Powers therefore sit on a
fixed grid, and rho takes one value per stratum of its range. The seed
moves rho only inside the middle fifth of its stratum, so the mix of
cheap and expensive jobs, and the mean rate, stay nearly the same from
seed to seed. The seed also draws the channel realisation, which
changes every matrix the solvers see. The relay antenna count cycles
through {2, 4, 8}.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

ANTENNAS = (2, 4, 8)

# One-line reason each workload exists; mirrored in BENCHMARK.json.
WHY = {
    "region": "solver-bound boundary tracing: SDP solves, rank-one extraction and QCQP builds dominate",
    "capacity": "power-cell envelope: many infeasible probes and a dominance merge, same layers as region",
    "df": "decode-and-forward comparison at high correlation: broadcast-phase ascent leads, SDP second",
    "sumrate": "scheme sweeps and closed-form bounds with no SDP solve: SVD and evaluator calls dominate",
}

# How each argv list is generated, recorded next to the baseline.
RECIPE = {
    "region": (
        "12 jobs: region --profiles 5 (optimal, MR and ZF boundaries, default 65 ratios and "
        "delta-r 1e-4); equal powers on a 12-point grid over 0-30 dB, rho stratified over "
        "[0.1, 0.95], M cycling 2/4/8, channel seed drawn"
    ),
    "capacity": (
        "6 jobs: capacity --grid 2 --profiles 3; equal powers on a 6-point grid over 10-30 dB, "
        "rho stratified over [0.1, 0.95], M cycling 2/4/8, channel seed drawn"
    ),
    "df": (
        "6 jobs: df-compare --profiles 3 --weights 17 (default 65 taus) at 20 dB; rho "
        "stratified over [0.8, 0.95], M cycling 2/4/8, channel seed drawn"
    ),
    "sumrate": (
        "5 sumrate jobs (0-40 dB grid, --snr-step 8; rho stratified over [0.1, 0.9], M cycling "
        "2/4/8, channel seed drawn), the first 3 each followed by a bounds job (equal powers "
        "on a 3-point grid over 0-40 dB, the same rho)"
    ),
}


JITTER = 0.2  # share of its stratum that a seeded value may move in


def _grid(count: int, lo: float, hi: float) -> List[float]:
    """Centres of `count` equal strata of [lo, hi]."""
    return [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]


def _stratified(rng: np.random.Generator, count: int, lo: float, hi: float, stride: int) -> List[float]:
    """One seeded value near the centre of each stratum of [lo, hi]; job i
    gets stratum (stride * i) mod count, pairing it with the grid."""
    u = (np.arange(count) + 0.5 + JITTER * (rng.random(count) - 0.5)) / count
    return [float(lo + (hi - lo) * u[(stride * i) % count]) for i in range(count)]


def _seeds(rng: np.random.Generator, count: int) -> List[str]:
    return [str(int(s)) for s in rng.integers(0, 2**31 - 1, size=count)]


def _db(value: float) -> str:
    return f"{value!r}db"


def _region(rng: np.random.Generator, tiny: bool) -> List[List[str]]:
    count = 2 if tiny else 12
    powers = _grid(count, 0.0, 30.0)
    rhos = _stratified(rng, count, 0.1, 0.95, 5)
    seeds = _seeds(rng, count)
    size = ["--profiles", "2", "--ratios", "3"] if tiny else ["--profiles", "5"]
    return [
        ["region", "--m", str(ANTENNAS[i % 3]), "--rho", repr(rhos[i]),
         "--p1", _db(powers[i]), "--p2", _db(powers[i]), "--pr", _db(powers[i]),
         *size, "--seed", seeds[i]]
        for i in range(count)
    ]


def _capacity(rng: np.random.Generator, tiny: bool) -> List[List[str]]:
    count = 2 if tiny else 6
    powers = _grid(count, 10.0, 30.0)
    rhos = _stratified(rng, count, 0.1, 0.95, 5 if count == 6 else 1)
    seeds = _seeds(rng, count)
    size = ["--profiles", "2"] if tiny else ["--profiles", "3"]
    return [
        ["capacity", "--m", str(ANTENNAS[i % 3]), "--rho", repr(rhos[i]),
         "--p1", _db(powers[i]), "--p2", _db(powers[i]), "--pr", _db(powers[i]),
         "--grid", "2", *size, "--seed", seeds[i]]
        for i in range(count)
    ]


def _df(rng: np.random.Generator, tiny: bool) -> List[List[str]]:
    count = 2 if tiny else 6
    rhos = _stratified(rng, count, 0.8, 0.95, 1)
    seeds = _seeds(rng, count)
    size = ["--profiles", "2", "--weights", "3", "--taus", "2"] if tiny else ["--profiles", "3", "--weights", "17"]
    return [
        ["df-compare", "--m", str(ANTENNAS[i % 3]), "--rho", repr(rhos[i]), "--p", "20db",
         *size, "--seed", seeds[i]]
        for i in range(count)
    ]


def _sumrate(rng: np.random.Generator, tiny: bool) -> List[List[str]]:
    # More sumrate than bounds jobs, so that the median job is a sumrate
    # job and not a point between the two modes of the job times.
    count, n_bounds = (1, 1) if tiny else (5, 3)
    rhos = _stratified(rng, count, 0.1, 0.9, 1)
    powers = _grid(n_bounds, 0.0, 40.0)
    seeds = _seeds(rng, count)
    grid = ["--snr-max", "8", "--snr-step", "8"] if tiny else ["--snr-step", "8"]
    jobs = []
    for i in range(count):
        jobs.append(["sumrate", "--m", str(ANTENNAS[i % 3]), "--rho", repr(rhos[i]), *grid,
                     "--seed", seeds[i]])
        if i < n_bounds:
            jobs.append(["bounds", "--rho", repr(rhos[i]), "--p1", _db(powers[i]),
                         "--p2", _db(powers[i]), "--pr", _db(powers[i])])
    return jobs


_GENERATORS = {"region": _region, "capacity": _capacity, "df": _df, "sumrate": _sumrate}

NAMES = tuple(_GENERATORS)

# Smallest sizes each command accepts (and a coarse bisection), for the
# untimed warm-up job: it only has to reach every code path once (three
# profiles, so one ray carries both SNR constraints; df-compare keeps to
# two, as its interior broadcast ray alone costs half a second).
_WARMUP_SIZE: Dict[str, List[str]] = {
    "region": ["--profiles", "3", "--ratios", "2", "--delta-r", "0.1"],
    "capacity": ["--grid", "2", "--profiles", "3", "--delta-r", "0.1"],
    "df-compare": ["--profiles", "2", "--weights", "2", "--taus", "1", "--delta-r", "0.1"],
    "sumrate": ["--snr-max", "0"],
    "bounds": [],
}


def jobs(workload: str, seed: int, tiny: bool = False) -> List[List[str]]:
    """The workload's job argv lists (without --out) for one seed."""
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    return _GENERATORS[workload](rng, tiny)


def warmup(argv: List[str]) -> List[str]:
    """A job of the same command at its smallest size, to load lazy code paths."""
    return argv + _WARMUP_SIZE[argv[0]]
