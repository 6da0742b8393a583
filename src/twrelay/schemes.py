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

from .beamformer import BoundaryPoint, RateProfile, RegionBoundary, _order_boundary, _ray_exit
from .bounds import _golden_max
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
    return _mrr_mrt(effective(pair), ratio, pc)


def _mrr_mrt(eff: EffectiveChannel, ratio: float, pc: PowerConfig) -> Beamformer:
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
    return _zfr_zft(effective(pair), ratio, pc)


def _zfr_zft(eff: EffectiveChannel, ratio: float, pc: PowerConfig) -> Beamformer:
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


_Builder = Callable[[EffectiveChannel, float, PowerConfig], Beamformer]


def _scheme_builder(scheme: str) -> _Builder:
    key = scheme.strip().lower()
    if key in ("mr", "mrr-mrt", "mrr_mrt"):
        return _mrr_mrt
    if key in ("zf", "zfr-zft", "zfr_zft"):
        return _zfr_zft
    raise InvalidInputError(f"unknown scheme {scheme!r}")


def _at_angle(
    build: _Builder, eff: EffectiveChannel, pc: PowerConfig, angle: float
) -> Beamformer:
    """The scheme's beamformer at sweep angle atan(a/b) in [0, pi/2]."""
    ratio = math.inf if angle >= 0.5 * math.pi else math.tan(angle)
    return build(eff, ratio, pc)


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
    build = _scheme_builder(scheme)
    eff = effective(pair)
    # the last angle is pi/2 itself: k * (pi/2) / k can round below it
    angles = [0.5 * math.pi * k / (n_ratios - 1) for k in range(n_ratios - 1)]
    pts: List[BoundaryPoint] = []
    for angle in angles + [0.5 * math.pi]:
        bf = _at_angle(build, eff, pc, angle)
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


def _sweep_rates(
    scheme: str, pair: ChannelPair, pc: PowerConfig
) -> Callable[[float], RatePair]:
    """Rate pair of the scheme as a function of the sweep angle, on one
    effective channel."""
    build = _scheme_builder(scheme)
    eff = effective(pair)
    return lambda angle: rate_pair_reduced(_at_angle(build, eff, pc, angle), eff, pc)


def scheme_profile_sum_rate(
    scheme: str, pair: ChannelPair, pc: PowerConfig, profile: RateProfile
) -> float:
    """Largest sum rate of the scheme along a profile ray.

    As the sweep angle grows r21 falls and r12 rises, so the swept
    rate pairs form a monotone frontier and the ray leaves it where a
    bisection on the angle finds the ray's side switch.
    """
    return _ray_exit(_sweep_rates(scheme, pair, pc), 0.0, 0.5 * math.pi, profile)


def scheme_max_sum_rate(scheme: str, pair: ChannelPair, pc: PowerConfig) -> float:
    """Largest unconstrained sum rate over the ratio sweep, the sum of
    the rate pair scheme_best_rates finds."""
    rates = scheme_best_rates(scheme, pair, pc)
    return rates.r21 + rates.r12


def scheme_best_rates(scheme: str, pair: ChannelPair, pc: PowerConfig) -> RatePair:
    """Rate pair achieved at the scheme's unconstrained sum-rate maximum.

    The sum of the two rates need not be unimodal in the sweep angle, so
    a dense grid (always containing the balanced ratio a = b) brackets
    the maximum before golden-section refinement; the refined angle is
    kept only if it beats the best grid point.
    """
    rates = _sweep_rates(scheme, pair, pc)

    def total(angle: float) -> float:
        r = rates(angle)
        return r.r21 + r.r12

    n = 513  # odd: includes pi/4 exactly
    angles = np.linspace(0.0, 0.5 * math.pi, n)
    vals = [total(a) for a in angles]
    k = int(np.argmax(vals))
    x, best = _golden_max(total, angles[max(0, k - 1)], angles[min(n - 1, k + 1)])
    return rates(x if best > vals[k] else float(angles[k]))


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
