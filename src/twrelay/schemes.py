"""Suboptimal relay beamformers: matched-filter and zero-forcing designs
plus two heuristic baselines.

Both main schemes pick a direction pair (a, b), a amplifying the S1->S2
link and b the S2->S1 link, and scale the matrix so the relay spends its
whole budget. Sweeping the a/b ratio traces each scheme's achievable
region. The baselines are a scaled identity relay and one-way rank-one
relaying over four slots.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from .beamformer import BoundaryPoint, RateProfile, RegionBoundary, _order_boundary
from .errors import InvalidInputError, RankDeficiencyError
from .model import (
    Beamformer,
    ChannelPair,
    EffectiveChannel,
    PowerConfig,
    RatePair,
    effective,
    rate_pair_reduced,
    relay_power_reduced,
)

RATIO_TIE = 1e-9


def _ratio_to_components(ratio: float) -> Tuple[float, float]:
    """Unit-scale (a, b) with a/b = ratio; ratio = inf means b = 0."""
    if ratio < 0.0:
        raise InvalidInputError("ratio must be nonnegative")
    if math.isinf(ratio):
        return 1.0, 0.0
    norm = math.hypot(ratio, 1.0)
    return ratio / norm, 1.0 / norm


def _normalized(B_unit: np.ndarray, eff: EffectiveChannel, pc: PowerConfig) -> Beamformer:
    """Scale B so the relay power equals the budget exactly; the power is
    a pure quadratic in the matrix, so a single square root suffices."""
    if pc.p_relay <= 0.0:
        raise InvalidInputError("relay power budget must be positive")
    base = relay_power_reduced(B_unit, eff, pc)
    scale = math.sqrt(pc.p_relay / base)
    return Beamformer(B=scale * B_unit, U=eff.U)


def mrr_mrt(pair: ChannelPair, ratio: float, pc: PowerConfig) -> Beamformer:
    """Matched-filter relay: receive and retransmit along the channels.

    A = a h2* h1^H + b h1* h2^H, a/b = ratio, scaled to spend P_R.
    """
    eff = effective(pair)
    a, b = _ratio_to_components(ratio)
    B_unit = a * np.outer(eff.g2.conj(), eff.g1.conj()) + b * np.outer(
        eff.g1.conj(), eff.g2.conj()
    )
    return _normalized(B_unit, eff, pc)


def zfr_zft(pair: ChannelPair, ratio: float, pc: PowerConfig) -> Beamformer:
    """Zero-forcing relay: pseudo-inverses on both sides kill the
    self-interference terms exactly, at the price of noise amplification
    when the channels are nearly parallel.

    Raises:
        RankDeficiencyError: parallel channels, the inverse direction
            does not exist.
    """
    eff = effective(pair)
    a, b = _ratio_to_components(ratio)
    # B = Sigma^-1 V^T [[0, b], [a, 0]] V Sigma^-1 in reduced coordinates,
    # with the SVD of [h1 h2] that the effective channel already holds
    sigma, V = eff.sigma, eff.V
    if sigma[1] <= 1e-10 * sigma[0]:
        raise RankDeficiencyError("zero-forcing undefined for parallel channels")
    inner = np.array([[0.0, b], [a, 0.0]], dtype=complex)
    Sinv = np.diag(1.0 / sigma)
    B_unit = Sinv @ V.T @ inner @ V @ Sinv
    return _normalized(B_unit, eff, pc)


def sweep_region(
    scheme: str,
    pair: ChannelPair,
    pc: PowerConfig,
    n_ratios: int = 65,
) -> RegionBoundary:
    """Achievable region of a scheme, traced by sweeping the a/b ratio.

    Ratios are tangents of angles uniform on [0, pi/2], so both
    single-link endpoints (ratio 0 and infinity) are included.
    """
    if n_ratios < 2:
        raise InvalidInputError("need at least two ratios")
    builder = _scheme_builder(scheme)
    eff = effective(pair)
    pts: List[BoundaryPoint] = []
    for k in range(n_ratios):
        angle = 0.5 * math.pi * k / (n_ratios - 1)
        ratio = math.inf if k == n_ratios - 1 else math.tan(angle)
        bf = builder(pair, ratio, pc)
        rates = rate_pair_reduced(bf, eff, pc)
        total = rates.r21 + rates.r12
        pts.append(
            BoundaryPoint(
                alpha21=rates.r21 / total if total > 0 else 0.5,
                rates=rates,
                beamformer=bf,
                p1=pc.p1,
                p2=pc.p2,
                p_relay=relay_power_reduced(bf, eff, pc),
            )
        )
    return RegionBoundary(points=_order_boundary(pts, tie=RATIO_TIE))


def _scheme_builder(scheme: str) -> Callable[[ChannelPair, float, PowerConfig], Beamformer]:
    key = scheme.strip().lower()
    if key in ("mr", "mrr-mrt", "mrr_mrt"):
        return mrr_mrt
    if key in ("zf", "zfr-zft", "zfr_zft"):
        return zfr_zft
    raise InvalidInputError(f"unknown scheme {scheme!r}")


def _rates_at_angle(
    builder, pair: ChannelPair, eff: EffectiveChannel, pc: PowerConfig, angle: float
):
    ratio = math.inf if angle >= 0.5 * math.pi else math.tan(angle)
    bf = builder(pair, ratio, pc)
    return rate_pair_reduced(bf, eff, pc)


def scheme_profile_sum_rate(
    scheme: str, pair: ChannelPair, pc: PowerConfig, profile: RateProfile
) -> float:
    """Largest sum rate of the scheme along a profile ray.

    The ray value at a swept point is min(r21/alpha21, r12/alpha12); as
    the ratio grows one rate rises while the other falls, so the ray
    value is unimodal in the sweep angle and golden-section search finds
    its maximum.
    """
    builder = _scheme_builder(scheme)
    eff = effective(pair)

    def ray_value(angle: float) -> float:
        rates = _rates_at_angle(builder, pair, eff, pc, angle)
        t = math.inf
        if profile.alpha21 > 0.0:
            t = min(t, rates.r21 / profile.alpha21)
        if profile.alpha12 > 0.0:
            t = min(t, rates.r12 / profile.alpha12)
        return t

    return ray_value(_golden_argmax(ray_value, 0.0, 0.5 * math.pi))


def scheme_max_sum_rate(scheme: str, pair: ChannelPair, pc: PowerConfig) -> float:
    """Largest unconstrained sum rate over the ratio sweep, the sum of
    the rate pair scheme_best_rates finds."""
    rates = scheme_best_rates(scheme, pair, pc)
    return rates.r21 + rates.r12


def scheme_best_rates(scheme: str, pair: ChannelPair, pc: PowerConfig) -> RatePair:
    """Rate pair achieved at the scheme's unconstrained sum-rate maximum.

    The sum of the two rates need not be unimodal in the sweep angle, so
    a dense grid (always containing the balanced ratio a = b) brackets
    the maximum before golden-section refinement.
    """
    builder = _scheme_builder(scheme)
    eff = effective(pair)

    def total(angle: float) -> float:
        rates = _rates_at_angle(builder, pair, eff, pc, angle)
        return rates.r21 + rates.r12

    n = 513  # odd: includes pi/4 exactly
    angles = np.linspace(0.0, 0.5 * math.pi, n)
    vals = [total(a) for a in angles]
    k = int(np.argmax(vals))
    lo = angles[max(0, k - 1)]
    hi = angles[min(n - 1, k + 1)]
    rates = _rates_at_angle(builder, pair, eff, pc, _golden_argmax(total, lo, hi, iters=60))
    if rates.r21 + rates.r12 > vals[k]:
        return rates
    return _rates_at_angle(builder, pair, eff, pc, float(angles[k]))


def _golden_argmax(
    f: Callable[[float], float], lo: float, hi: float, iters: int = 120
) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return c if fc >= fd else d


def direct_relay(pair: ChannelPair, pc: PowerConfig) -> np.ndarray:
    """Scaled-identity relay A = zeta I over all M antennas.

    Returned as the full matrix: the identity acts outside the
    two-dimensional signal subspace too, and that part costs power, so
    no reduced 2x2 representation exists.
    """
    if pc.p_relay <= 0.0:
        raise InvalidInputError("relay power budget must be positive")
    theta1 = float(np.linalg.norm(pair.h1) ** 2)
    theta2 = float(np.linalg.norm(pair.h2) ** 2)
    zeta = math.sqrt(pc.p_relay / (theta1 * pc.p1 + theta2 * pc.p2 + pair.m))
    return zeta * np.eye(pair.m, dtype=complex)


def oneway_alternating(pair: ChannelPair, pc: PowerConfig, equal_energy: bool = False) -> float:
    """Sum rate of one-way relaying over four slots.

    Each direction uses its own matched rank-one relay matrix at full
    budget and carries a quarter pre-log (its two slots out of four,
    each half-duplex). With equal_energy=True the relay splits the
    budget across the two forwarding slots (P_R/2 each), matching the
    energy the two-slot scheme spends per delivered direction.
    """
    if pc.p_relay <= 0.0:
        raise InvalidInputError("relay power budget must be positive")
    theta1 = float(np.linalg.norm(pair.h1) ** 2)
    theta2 = float(np.linalg.norm(pair.h2) ** 2)
    budget = 0.5 * pc.p_relay if equal_energy else pc.p_relay

    def gamma(theta_rx: float, theta_tx: float, p_tx: float) -> float:
        # A = psi h_rx* h_tx^H forwarding source tx toward receiver rx
        if p_tx == 0.0:
            return 0.0
        psi_sq = budget / (theta_rx * theta_tx * (theta_tx * p_tx + 1.0))
        num = psi_sq * theta_rx**2 * theta_tx**2 * p_tx
        den = psi_sq * theta_rx**2 * theta_tx + 1.0
        return num / den

    g21 = gamma(theta1, theta2, pc.p2)
    g12 = gamma(theta2, theta1, pc.p1)
    return 0.25 * math.log2(1.0 + g21) + 0.25 * math.log2(1.0 + g12)
