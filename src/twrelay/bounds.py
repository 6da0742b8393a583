"""Closed-form capacity bounds and their high-SNR behavior.

Upper bounds come from cut-set arguments on the two one-way relay
channels sharing the relay power; lower bounds are the guaranteed
sum-rates of the matched and zero-forcing relay schemes with equal
forward/backward gains. Everything here is a closed-form evaluation
except c_ub, whose inner power split and outer noise-correlation split
are one-dimensional numerical searches. Its golden-section routine,
_golden_max, also refines the scheme sum-rate maxima in schemes.py.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidInputError
from .model import PowerConfig

DEFAULT_GRID = 33
GOLDEN_TOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def c21(kappa21: float, P21: float, theta1: float, theta2: float, p2: float) -> float:
    """Capacity of the S2 -> relay -> S1 one-way link when the relay may
    spend P21 and a fraction kappa21 of the unit relay noise is charged
    to this direction."""
    if P21 <= 0.0:
        return 0.0
    den = 1.0 + (theta2 / theta1) * p2 / P21 + kappa21 / (theta1 * P21)
    return 0.5 * math.log2(1.0 + theta2 * p2 / den)


def c12(kappa12: float, P12: float, theta1: float, theta2: float, p1: float) -> float:
    """Mirror of c21 for the S1 -> relay -> S2 direction."""
    if P12 <= 0.0:
        return 0.0
    den = 1.0 + (theta1 / theta2) * p1 / P12 + kappa12 / (theta2 * P12)
    return 0.5 * math.log2(1.0 + theta1 * p1 / den)


def c_ub0(pc: PowerConfig, theta1: float, theta2: float) -> float:
    """Simple sum-capacity upper bound: both directions get the whole
    relay budget and half the relay noise each."""
    return c21(0.5, pc.p_relay, theta1, theta2, pc.p2) + c12(
        0.5, pc.p_relay, theta1, theta2, pc.p1
    )


def c_ub_sym(theta: float, p_relay: float) -> float:
    """Tightened upper bound for the symmetric setup theta1 = theta2 =
    theta, p1 = p2 = P_R."""
    if p_relay <= 0.0:
        return 0.0
    x = theta * p_relay
    return math.log2(1.0 + x / (3.0 + 1.0 / x))


def _unimodal(vals: np.ndarray, tol: float) -> bool:
    """True when the sampled values rise then fall, within tol."""
    falling = False
    for d in np.diff(vals):
        if abs(d) <= tol:
            continue
        if d > 0 and falling:
            return False
        if d < 0:
            falling = True
    return True


def _golden_max(f: Callable[[float], float], lo: float, hi: float) -> Tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f on [lo, hi],
    to interval width GOLDEN_TOL; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _line_search(
    f: Callable[[float], float], lo: float, hi: float, grid: int
) -> Tuple[float, float]:
    """Maximize f by a grid pre-scan plus golden section, downgrading to a
    dense grid when the samples are visibly not unimodal."""
    xs = np.linspace(lo, hi, grid)
    vals = np.array([f(x) for x in xs])
    scale = max(1.0, float(np.max(np.abs(vals))))
    if not _unimodal(vals, 1e-9 * scale):
        xs = np.linspace(lo, hi, 4097)
        vals = np.array([f(x) for x in xs])
    k = int(np.argmax(vals))
    return _golden_max(f, xs[max(0, k - 1)], xs[min(len(xs) - 1, k + 1)])


def c_ub(
    pc: PowerConfig, theta1: float, theta2: float, grid: int = DEFAULT_GRID
) -> Tuple[float, float, float]:
    """Tightest sum-capacity upper bound.

    Minimizes over the relay-noise split kappa21 in [0, 1] the maximal
    sum of the two one-way capacities under the shared power constraint
    P21 + P12 <= P_R (met with equality since both terms grow with their
    own power). Returns (value, kappa21_star, p21_star).
    """
    if grid < 3:
        raise InvalidInputError("grid must be at least 3")
    P = pc.p_relay

    def inner(kappa: float) -> Tuple[float, float]:
        def f(P21: float) -> float:
            return c21(kappa, P21, theta1, theta2, pc.p2) + c12(
                1.0 - kappa, P - P21, theta1, theta2, pc.p1
            )

        return _line_search(f, 0.0, P, grid)

    kappa_star, _ = _line_search(lambda kappa: -inner(kappa)[1], 0.0, 1.0, grid)
    p21_star, value = inner(kappa_star)
    return value, kappa_star, p21_star


def r_lb_mr(pc: PowerConfig, theta1: float, theta2: float, rho: float) -> float:
    """Guaranteed sum-rate of the matched relay scheme with equal gains."""
    P = pc.p_relay
    if P <= 0.0:
        return 0.0
    pen = (1.0 + 3.0 * rho) / (1.0 + rho) ** 2
    d1 = (1.0 + (pc.p1 + (theta2 / theta1) * pc.p2) / P) * pen + 2.0 / (theta1 * (1.0 + rho) * P)
    d2 = (1.0 + ((theta1 / theta2) * pc.p1 + pc.p2) / P) * pen + 2.0 / (theta2 * (1.0 + rho) * P)
    return 0.5 * math.log2(1.0 + theta2 * pc.p2 / d1) + 0.5 * math.log2(
        1.0 + theta1 * pc.p1 / d2
    )


def r_lb_zf(pc: PowerConfig, theta1: float, theta2: float, rho: float) -> float:
    """Guaranteed sum-rate of the zero-forcing relay scheme with equal gains."""
    if rho >= 1.0:
        raise InvalidInputError("zero-forcing bound requires rho < 1")
    P = pc.p_relay
    if P <= 0.0 or pc.p1 <= 0.0 or pc.p2 <= 0.0:
        return 0.0
    S = (theta1 + theta2) / (theta1 * theta2 * (1.0 - rho))
    den = (
        S
        * (1.0 + pc.p1 / P + pc.p2 / P)
        * (max(pc.p1, pc.p2) + S * (pc.p1 + pc.p2) / (P + pc.p1 + pc.p2))
    )
    return math.log2(1.0 + 2.0 * pc.p1 * pc.p2 / den)


def gap_mr_asymptotic(rho: float) -> float:
    """High-SNR sum-rate gap of the matched scheme to the upper bound."""
    if not (0.0 <= rho <= 1.0):
        raise InvalidInputError("rho must lie in [0, 1]")
    return math.log2((1.0 + 3.0 * rho) / (1.0 + rho) ** 2)


def gap_zf_asymptotic(rho: float) -> float:
    """High-SNR sum-rate gap of the zero-forcing scheme to the upper bound."""
    if not (0.0 <= rho < 1.0):
        raise InvalidInputError("rho must lie in [0, 1)")
    return math.log2(1.0 / (1.0 - rho))


def asymptotic_gaps(rho: float) -> Tuple[float, float]:
    """(gap_mr, gap_zf) at asymptotically high SNR with K1 = K2."""
    return gap_mr_asymptotic(rho), gap_zf_asymptotic(rho)


def asymptotic_sum_rates(
    p_relay: float,
    theta1: float,
    theta2: float,
    rho: float,
    k1: float = 1.0,
    k2: float = 1.0,
) -> Tuple[float, float, float]:
    """High-SNR expansions of (c_ub0, r_lb_mr, r_lb_zf) when p1, p2, P_R
    grow together with fixed K1 = P_R/p1 and K2 = P_R/p2.

    These are the exact limits of the finite-SNR formulas in this module
    (each equals log2(P_R) plus a constant); o(1) terms are dropped, so
    compare trends, not finite-SNR values.
    """
    lead = math.log2(p_relay)
    ub0 = lead + 0.5 * math.log2(
        theta1 * theta2 / ((k2 + theta2 / theta1) * (k1 + theta1 / theta2))
    )
    pen = (1.0 + 3.0 * rho) ** 2 / (1.0 + rho) ** 4
    mr = lead + 0.5 * math.log2(
        theta1
        * theta2
        / ((k2 + k2 / k1 + theta2 / theta1) * (k1 + k1 / k2 + theta1 / theta2) * pen)
    )
    if rho >= 1.0:
        raise InvalidInputError("zero-forcing asymptote requires rho < 1")
    zf = lead + math.log2(
        theta1
        * theta2
        / (
            (1.0 + max(k1, k2) + max(k1 / k2, k2 / k1))
            * (theta1 + theta2)
            / (2.0 * (1.0 - rho))
        )
    )
    return ub0, mr, zf


@dataclass
class BoundsReport:
    """All closed-form bounds for one instance, plus the c_ub argmins."""

    c21: float
    c12: float
    c_ub: float
    c_ub0: float
    r_lb_mr: float
    r_lb_zf: Optional[float]
    kappa21_star: float
    p21_star: float
    c_ub_sym: Optional[float] = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)

    @staticmethod
    def from_json(text: str) -> "BoundsReport":
        return BoundsReport(**json.loads(text))


def bounds_report(
    pc: PowerConfig, theta1: float, theta2: float, rho: float, grid: int = DEFAULT_GRID
) -> BoundsReport:
    """Evaluate every bound; c_ub_sym only when the setup is symmetric,
    r_lb_zf only when the channels are not parallel."""
    ub, kappa_star, p21_star = c_ub(pc, theta1, theta2, grid=grid)
    sym = None
    if abs(theta1 - theta2) <= 1e-12 * max(theta1, theta2) and pc.p1 == pc.p2 == pc.p_relay:
        sym = c_ub_sym(theta1, pc.p_relay)
    zf = r_lb_zf(pc, theta1, theta2, rho) if rho < 1.0 else None
    return BoundsReport(
        c21=c21(kappa_star, p21_star, theta1, theta2, pc.p2),
        c12=c12(1.0 - kappa_star, pc.p_relay - p21_star, theta1, theta2, pc.p1),
        c_ub=ub,
        c_ub0=c_ub0(pc, theta1, theta2),
        r_lb_mr=r_lb_mr(pc, theta1, theta2, rho),
        r_lb_zf=zf,
        kappa21_star=kappa_star,
        p21_star=p21_star,
        c_ub_sym=sym,
    )
