"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from twrelay.model import ChannelPair, PowerConfig, gen_channels


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
