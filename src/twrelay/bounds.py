"""Closed-form capacity bounds and their high-SNR behavior.

Upper bounds come from cut-set arguments on the two one-way relay
channels sharing the relay power; lower bounds are the guaranteed
sum-rates of the matched and zero-forcing relay schemes with equal
forward/backward gains. c12 is c21 with the sources' roles exchanged;
the gap functions and asymptotic_sum_rates give the high-SNR behavior.
Everything here is a closed-form evaluation except the relay power split
of c_ub. Its minimax over the relay-noise split and the power split is a
saddle point: the noise split has a closed form, and the power split at
it is the float-exact root of the objective's closed-form slope; with a
silent source the whole budget goes to the other's direction with no
search. The one search for such a root here, _crossing, an ITP search
(at most one step more than bisection), also finds the broadcast arc's
angles, the scheme and decode-and-forward ray exits, and the scheme
sum-rate maxima as roots of their closed-form slopes, each float-exact
at width 0, and the power cell's exit (beamformer._PowerCell.exit) at
width 2^-40.

A sum of two terms that each fit a float may overflow; such sums are
formed from halved terms, an exact rescaling that leaves every
quotient's bits as they are. Where the zero-forcing bound's denominator
leaves the float range, its quotient is formed from the mantissas and
exponents of its factors. A term out of the float range makes c_ub and
r_lb_mr 0.0 where c_ub0 is 0.0, else raises NumericalFailureError.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import InvalidInputError, NumericalFailureError
from .model import LN2, PowerConfig


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
    return c21(kappa12, P12, theta2, theta1, p1)


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


def _zero_or_out_of_range(bound: str, pc: PowerConfig, theta1: float, theta2: float) -> float:
    """A bound with a term out of the float range: 0.0 where c_ub0 is 0.0, else raises."""
    if c_ub0(pc, theta1, theta2) == 0.0:
        return 0.0
    raise _out_of_range(bound)


def _crossing(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float, width: float = 0.0
) -> Tuple[float, float]:
    """Where a signed f, positive up to some point of [lo, hi] and at most
    0 after it, switches: the bracket around the switch, narrowed until it
    is at most width wide or no float lies between its ends. f_lo and f_hi
    are f's values at lo and hi, or +inf and -inf at an end where f cannot
    be evaluated.

    An ITP search (Oliveira and Takahashi, ACM TOMS 47(1), 2020): step j
    takes the regula falsi point (f_lo hi - f_hi lo)/(f_lo - f_hi), moves
    it toward the bracket's midpoint by max(0.2 w^2, one ulp, width/2), w
    the bracket width, and projects it into the ball of radius
    2^-j w0 - w/2 about the midpoint, w0 the first width. The width/2
    floor serves the power cell's exit, which stops at width 2^-40: there
    a point that rounds onto an end would otherwise be probed again and
    again. An empty bracket returns before the first step. The step takes
    the midpoint where an end's value is not finite (so a first step from
    an infinite end is a halving), where the point is not strictly inside
    the bracket, and where the radius is not positive. So the bracket is
    never wider than bisection's one step earlier, and at width 0, where
    f's sign is monotone over the floats, the search ends at bisection's
    float-exact bracket.
    """
    lo, hi, f_lo, f_hi = float(lo), float(hi), float(f_lo), float(f_hi)  # Python floats: inf and nan, no warnings
    width0, j, floor = hi - lo, 0, 0.5 * width
    while True:
        mid, w = 0.5 * (lo + hi), hi - lo
        if not lo < mid < hi or w <= width:
            return lo, hi
        gap = f_lo - f_hi
        x = (f_lo * hi - f_hi * lo) / gap if 0.0 < gap < math.inf else math.nan  # regula falsi
        if math.isfinite(x):
            delta = max(0.2 * w * w, math.ulp(x), floor)
            x = x + math.copysign(delta, mid - x) if abs(mid - x) > delta else mid
            radius = math.ldexp(width0, -j) - 0.5 * w
            x = min(max(x, mid - radius), mid + radius) if radius > 0.0 else mid
        if not lo < x < hi:
            x = mid
        fx, j = float(f(x)), j + 1
        if fx > 0.0:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx


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
    over kappa is at the nearer end. At that kappa the crossing search
    on the difference of the two products finds the maximizing P21 to
    the last float. A silent source leaves the other direction the whole
    budget and relay noise, with no search: kappa21 = P21 = 0 for a
    silent S2 (A = 0), kappa21 = 1 and P21 = P_R for a silent S1 (B = 0).
    """
    P = pc.p_relay
    A, B = theta2 * pc.p2, theta1 * pc.p1
    if A == 0.0 or B == 0.0:  # a silent source
        if max(A, B) == math.inf:
            raise _out_of_range("c_ub")
        if A == 0.0:
            return c12(1.0, P, theta1, theta2, pc.p1), 0.0, 0.0
        return c21(1.0, P, theta1, theta2, pc.p2), 1.0, P
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
    kappa = min(1.0, max(0.0, (1.0 + (B - RA)) / (1.0 + RA / A)))
    a, b = (A + kappa) / theta1, (B + 1.0 - kappa) / theta2
    if not math.isfinite(RA) or max(a, b) == math.inf:  # kappa21 = 1/2 and an even split where the bound is 0.0
        return _zero_or_out_of_range("c_ub", pc, theta1, theta2), 0.5, 0.5 * P
    # A/((1 + A) x + a) with (1 + A) divided out, and its mirror
    A_, a_, B_, b_ = A / (1.0 + A), a / (1.0 + A), B / (1.0 + B), b / (1.0 + B)

    def slope(x: float) -> float:
        # each side a product of two ratios of one scale, at most theta1
        # and theta2, so that no product of powers overflows
        y = P - x
        return A_ / (x + a_) * (a / (x + a)) - B_ / (y + b_) * (b / (y + b))

    def end(x: float, missing: float) -> float:
        # 0/0 at an end where a silent source has no noise share
        return slope(x) if min(x + a_, P - x + b_) > 0.0 else missing

    def f(x: float) -> float:
        return c21(kappa, x, theta1, theta2, pc.p2) + c12(1.0 - kappa, P - x, theta1, theta2, pc.p1)

    value, p21 = max((f(x), x) for x in _crossing(slope, 0.0, P, end(0.0, math.inf), end(P, -math.inf)))
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
        return _zero_or_out_of_range("r_lb_mr", pc, theta1, theta2)
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
    # where theta1 theta2 leaves the normal float range, S from 1/theta1 + 1/theta2
    S = (theta1 + theta2) / q if sys.float_info.min <= q < math.inf else (1.0 / theta1 + 1.0 / theta2) / (1.0 - rho)
    # each sum of two powers from halved terms
    X, top = 1.0 + pc.p1 / P + pc.p2 / P, max(pc.p1, pc.p2)
    half, total = 0.5 * pc.p1 + 0.5 * pc.p2, 0.5 * P + 0.5 * pc.p1 + 0.5 * pc.p2
    den = S * X * (top + S * half / total)
    if 0.0 < den < math.inf:
        return math.log2(1.0 + 2.0 * pc.p1 * pc.p2 / den)
    # the product leaves the float range: the quotient from the mantissas
    # and exponents of its factors, the share half/total <= 1 taken first
    factors = (S, X, top + S * (half / total))
    if not all(0.0 < v < math.inf for v in factors):
        raise _out_of_range("r_lb_zf")
    (m1, e1), (m2, e2), *scaled = map(math.frexp, (pc.p1, pc.p2, *factors))
    mantissa = 2.0 * m1 * m2 / math.prod(m for m, _ in scaled)
    exponent = e1 + e2 - sum(e for _, e in scaled)
    try:
        return math.log1p(math.ldexp(mantissa, exponent)) / LN2
    except OverflowError:
        raise _out_of_range("r_lb_zf") from None


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
