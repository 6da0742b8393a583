"""Closed-form capacity bounds and their high-SNR behavior.

Upper bounds come from cut-set arguments on the two one-way relay
channels sharing the relay power; lower bounds are the guaranteed
sum-rates of the matched and zero-forcing relay schemes with equal
forward/backward gains. Everything here is a closed-form evaluation
except the relay power split of c_ub. Its minimax over the relay-noise
split and the power split is a saddle point: the noise split has a
closed form, and the power split at it is a float-exact bisection on
the closed-form sign of the objective's derivative. That bisection,
_crossing, also finds the scheme and decode-and-forward ray exits; the
golden-section search here, _golden_max, refines the scheme sum-rate
maxima in schemes.py.

A sum of two terms that each fit a float may overflow; such sums are
formed from halved terms, an exact rescaling that leaves every
quotient's bits as they are. A setting at which a term itself leaves
the float range raises NumericalFailureError in place of a wrong bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import InvalidInputError, NumericalFailureError
from .model import PowerConfig

GOLDEN_TOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def c21(kappa21: float, P21: float, theta1: float, theta2: float, p2: float) -> float:
    """Capacity of the S2 -> relay -> S1 one-way link when the relay may
    spend P21 and a fraction kappa21 of the unit relay noise is charged
    to this direction."""
    A = theta2 * p2
    if P21 <= 0.0 or A == 0.0:
        return 0.0
    # the SNR as A times a ratio of at most 1, so that no product of two
    # powers forms and no quotient overflows; the ratio's terms are halved
    x = 0.5 * theta1 * P21
    return 0.5 * math.log2(1.0 + A * (x / (x + 0.5 * A + 0.5 * kappa21)))


def c12(kappa12: float, P12: float, theta1: float, theta2: float, p1: float) -> float:
    """Mirror of c21 for the S1 -> relay -> S2 direction."""
    B = theta1 * p1
    if P12 <= 0.0 or B == 0.0:
        return 0.0
    y = 0.5 * theta2 * P12
    return 0.5 * math.log2(1.0 + B * (y / (y + 0.5 * B + 0.5 * kappa12)))


def c_ub0(pc: PowerConfig, theta1: float, theta2: float) -> float:
    """Simple sum-capacity upper bound: both directions get the whole
    relay budget and half the relay noise each."""
    return c21(0.5, pc.p_relay, theta1, theta2, pc.p2) + c12(
        0.5, pc.p_relay, theta1, theta2, pc.p1
    )


def c_ub_sym(theta: float, p_relay: float) -> float:
    """Tightened upper bound for the symmetric setup theta1 = theta2 =
    theta, p1 = p2 = P_R."""
    x = theta * p_relay
    if x <= 0.0:  # p_relay = 0, or a product that underflows
        return 0.0
    return math.log2(1.0 + x / (3.0 + 1.0 / x))


def _out_of_range(bound: str) -> NumericalFailureError:
    return NumericalFailureError(f"{bound}: a term leaves the float range at these gains and powers")


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float = GOLDEN_TOL
) -> Tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f on [lo, hi],
    to interval width tol; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
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


def _crossing(positive: Callable[[float], bool], lo: float, hi: float) -> Tuple[float, float]:
    """Where a predicate that holds up to some point of [lo, hi] and
    fails after it switches: the bracket around the switch, bisected
    until no float lies between its ends."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if positive(mid):
            lo = mid
        else:
            hi = mid


def c_ub(pc: PowerConfig, theta1: float, theta2: float) -> Tuple[float, float, float]:
    """Tightest sum-capacity upper bound.

    Minimizes over the relay-noise split kappa21 in [0, 1] the maximal
    sum f of the two one-way capacities under the shared power constraint
    P21 + P12 <= P_R (met with equality since both terms grow with their
    own power). Returns (value, kappa21_star, p21_star).

    f is convex in kappa21 and concave in P21, so the value is a saddle
    point. Write A = theta2 p2, B = theta1 p1, S = 1 + A + B, x = P21,
    y = P_R - x, a = (A + kappa)/theta1 and b = (B + 1 - kappa)/theta2.
    Then 1 + snr21 = ((1 + A) x + a)/(x + a), and df/dx has the sign of
    A a/(((1 + A) x + a)(x + a)) - B b/(((1 + B) y + b)(y + b)), which
    falls through zero once. Both stationarity conditions together give
    (A + kappa)/x = (B + 1 - kappa)/y = S/P_R, so at the saddle
    a = alpha x and b = beta y with alpha = S/(theta1 P_R) and
    beta = S/(theta2 P_R); the sign condition then fixes y/x = R and
    kappa = (1 + B - R A)/(1 + R). Outside [0, 1] the convex minimum
    over kappa is at the nearer end. At that kappa a bisection on the
    sign of df/dx finds the maximizing P21 to the last float.
    """
    P = pc.p_relay
    A, B = theta2 * pc.p2, theta1 * pc.p1
    if A == 0.0:
        kappa = 0.0
    else:
        # R A with R = B beta (1 + A + alpha)(1 + alpha) / (A alpha (1 + B + beta)(1 + beta)),
        # alpha = u/P_R and beta = v/P_R, multiplied through by P_R^2 so
        # that it stays finite at P_R = 0, and the first ratio divided
        # through by max(P_R, 1) so that (1 + A) P_R cannot overflow.
        # Formed without A, and with B - R A taken first, it gives
        # kappa = 1/2 exactly on a symmetric setup at any power, where
        # 1 + B - R A would cancel. u, v and the terms added to them are
        # halved.
        u, v = (0.5 + 0.5 * A + 0.5 * B) / theta1, (0.5 + 0.5 * A + 0.5 * B) / theta2
        m = max(P, 1.0)
        lead = (0.5 * (1.0 + A) * (P / m) + u / m) / (0.5 * (1.0 + B) * (P / m) + v / m)
        ratio = (0.5 * P + u) / (0.5 * P + v)
        RA = B * (theta1 / theta2) * lead * ratio
        if not math.isfinite(RA):  # regrouped where a partial product overflows
            RA = (B * lead) * ((theta1 / theta2) * ratio)
        if not math.isfinite(RA):
            raise _out_of_range("c_ub")
        kappa = min(1.0, max(0.0, (1.0 + (B - RA)) / (1.0 + RA / A)))
    a, b = (A + kappa) / theta1, (B + 1.0 - kappa) / theta2
    if max(a, b) == math.inf:
        raise _out_of_range("c_ub")
    # A/((1 + A) x + a) with (1 + A) divided out, and its mirror
    A_, a_, B_, b_ = A / (1.0 + A), a / (1.0 + A), B / (1.0 + B), b / (1.0 + B)

    def rising(x: float) -> bool:
        # each side a product of two ratios of one scale, at most theta1
        # and theta2, so that no product of powers overflows
        y = P - x
        return A_ / (x + a_) * (a / (x + a)) > B_ / (y + b_) * (b / (y + b))

    def f(x: float) -> float:
        return c21(kappa, x, theta1, theta2, pc.p2) + c12(1.0 - kappa, P - x, theta1, theta2, pc.p1)

    value, p21 = max((f(x), x) for x in _crossing(rising, 0.0, P))
    return value, kappa, p21


def r_lb_mr(pc: PowerConfig, theta1: float, theta2: float, rho: float) -> float:
    """Guaranteed sum-rate of the matched relay scheme with equal gains."""
    P = pc.p_relay
    if P <= 0.0:
        return 0.0
    pen = (1.0 + 3.0 * rho) / (1.0 + rho) ** 2
    n1, n2 = theta1 * (1.0 + rho) * P, theta2 * (1.0 + rho) * P
    if min(n1, n2) == 0.0:
        raise _out_of_range("r_lb_mr")
    # each sum of two powers from halved terms
    d1 = (1.0 + (0.5 * pc.p1 + 0.5 * (theta2 / theta1) * pc.p2) / (0.5 * P)) * pen + 2.0 / n1
    d2 = (1.0 + (0.5 * (theta1 / theta2) * pc.p1 + 0.5 * pc.p2) / (0.5 * P)) * pen + 2.0 / n2
    if max(d1, d2) == math.inf:
        raise _out_of_range("r_lb_mr")
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
    q = theta1 * theta2 * (1.0 - rho)
    # where theta1 theta2 leaves the float range, S from 1/theta1 + 1/theta2
    S = (theta1 + theta2) / q if 0.0 < q < math.inf else (1.0 / theta1 + 1.0 / theta2) / (1.0 - rho)
    # each sum of two powers from halved terms
    den = (
        S
        * (1.0 + pc.p1 / P + pc.p2 / P)
        * (max(pc.p1, pc.p2) + S * (0.5 * pc.p1 + 0.5 * pc.p2) / (0.5 * P + 0.5 * pc.p1 + 0.5 * pc.p2))
    )
    if not 0.0 < den < math.inf:
        raise _out_of_range("r_lb_zf")
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
        """The report as JSON. Raises NumericalFailureError on a
        non-finite bound, as the CSV writers do on a non-finite cell."""
        for name, value in self.__dict__.items():
            if value is not None and not math.isfinite(value):
                raise NumericalFailureError(f"{name} is {value!r}, not a finite number")
        return json.dumps(self.__dict__, indent=2)

    @staticmethod
    def from_json(text: str) -> "BoundsReport":
        return BoundsReport(**json.loads(text))


def bounds_report(pc: PowerConfig, theta1: float, theta2: float, rho: float) -> BoundsReport:
    """Evaluate every bound; c_ub_sym only when the setup is symmetric,
    r_lb_zf only when the channels are not parallel."""
    ub, kappa_star, p21_star = c_ub(pc, theta1, theta2)
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
