"""Shared fixtures and helpers for the test suite."""

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
