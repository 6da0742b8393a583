"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from twrelay.bounds import _crossing
from twrelay.model import ChannelPair, PowerConfig, RatePair, gen_channels
from twrelay.schemes import _GRID, _GRID_A, _GRID_B, _Sweep, _quad


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_unit_pair(rng, m: int = 4, rho: float = 0.5) -> ChannelPair:
    """A generated unit-norm channel pair with a seed drawn from rng."""
    seed = int(rng.integers(0, 2**31))
    return gen_channels(m, rho, seed)


def orthogonal_pair(m: int = 2) -> ChannelPair:
    """The canonical orthonormal pair h1 = e1, h2 = e2."""
    h1 = np.zeros(m, dtype=complex)
    h2 = np.zeros(m, dtype=complex)
    h1[0] = 1.0
    h2[1] = 1.0
    return ChannelPair(m=m, h1=h1, h2=h2, rho=0.0, seed=None)


def symmetric_power(p: float) -> PowerConfig:
    return PowerConfig(p1=p, p2=p, p_relay=p)


def format_rows(header, rows) -> str:
    """The CSV text of rows under header, each cell formatted on its own:
    a string as it is, any other cell as the repr() of its float. This
    is the row-wise formatter the program used before every table went
    by column, kept as the reference for io.format_columns."""

    def cell(value):
        return value if isinstance(value, str) else float.__repr__(float(value))

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def golden_max(f, lo, hi, tol=1e-8):
    """Golden-section search for the maximum of a unimodal f on [lo, hi],
    to interval width tol; returns (x, f(x)). The search that refined the
    scheme sum-rate maxima before they became slope roots, kept as an
    independent reference."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def bisect_crossing(positive, lo, hi):
    """The float-exact bisection that the crossing search replaced:
    ((lo, hi), evaluations), the bracket around the switch of a predicate
    that holds up to some point of [lo, hi] and fails after it, halved
    until no float lies between its ends."""
    calls = 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return (lo, hi), calls
        calls += 1
        if positive(mid):
            lo = mid
        else:
            hi = mid


def grid_products_reference(forms, pc):
    """(1 + snr21)(1 + snr12) on the sum-rate search's grid, with each of
    the channel's forms evaluated on the grid and scaled array by array:
    the per-setting formula that one product of the forms' coefficients
    with the grid's basis replaced, kept as the reference for
    schemes._grid_products."""
    F1, F2, F0, N21, N12, q21, q12 = (
        _quad(c, _GRID_A, _GRID_B) for c in (forms.F1, forms.F2, forms.F0, forms.N21, forms.N12, forms.q21, forms.q12)
    )
    p, p1, p2 = pc.p_relay, pc.p1, pc.p2
    with np.errstate(over="ignore", invalid="ignore"):
        pw = p1 * F1 + p2 * F2 + F0
        d21, d12 = p * q21 + pw, p * q12 + pw
        return (d21 + p * p2 * N21) / d21 * ((d12 + p * p1 * N12) / d12)


def best_rates_reference(forms, pc):
    """The sum-rate search on one power setting as it ran on
    grid_products_reference: the largest grid point and, where the
    slope changes sign across its two neighbours, the better of it and
    the slope's root."""
    sweep = _Sweep(forms, pc)
    k = int(np.argmax(grid_products_reference(forms, pc)))
    lo, hi = float(_GRID[max(0, k - 1)]), float(_GRID[min(len(_GRID) - 1, k + 1)])
    best = sweep._point(float(_GRID[k]))
    s_lo, s_hi = sweep.slope(lo), sweep.slope(hi)
    if s_lo > 0.0 >= s_hi:
        best = max(best, *map(sweep._point, _crossing(sweep.slope, lo, hi, s_lo, s_hi)), key=sum)
    return RatePair(*best)
