"""Suboptimal relay beamformers: matched-filter and zero-forcing designs
plus two heuristic baselines.

Both main schemes weight two fixed unit relay matrices, B = a Ba + b Bb,
a amplifying the S1->S2 link and b the S2->S1 link, and scale the matrix
so the relay spends its whole budget. Sweeping the angle atan(a/b) over
[0, pi/2] traces each scheme's achievable region. Along the sweep the
relay power of the unit matrix, and at each receiver its forwarded noise
and signal power, are real 2x2 quadratic forms in (a, b); scaling to the
budget P_R makes each link's SNR P_R n / (P_R q + pw). So the sweeps,
the sum-rate search and the ray exits build the power-free forms once
per scheme and channel, scale them per power setting, evaluate them for
a whole array of angles in one numpy expression or for one angle in
scalar arithmetic, and form relay matrices only where they return them. The baselines are a scaled
identity relay and one-way rank-one relaying over four slots.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple, Union

import numpy as np

from .beamformer import RateProfile, RegionBoundary, _ray_exit
from .bounds import _golden_max
from .errors import InvalidInputError, RankDeficiencyError
from .model import (
    Beamformer,
    ChannelPair,
    EffectiveChannel,
    PowerConfig,
    RatePair,
    effective,
    relay_power_reduced,
)

DEFAULT_RATIOS = 65
_HALF_PI = 0.5 * math.pi

_Reals = Union[float, np.ndarray]


def _basis(scheme: str, eff: EffectiveChannel) -> Tuple[np.ndarray, np.ndarray]:
    """The scheme's unit relay matrices (Ba, Bb) in reduced coordinates:
    with weights (a, b) its relay matrix is a Ba + b Bb before scaling.

    Raises:
        InvalidInputError: unknown scheme.
        RankDeficiencyError: zero-forcing on parallel channels.
    """
    if scheme == "mr":
        # A = a h2* h1^H + b h1* h2^H
        c1, c2 = eff.g1.conj(), eff.g2.conj()
        Ba, Bb = np.outer(c2, c1), np.outer(c1, c2)
    elif scheme == "zf":
        # B = Sigma^-1 V^T [[0, b], [a, 0]] V Sigma^-1, with the SVD of
        # [h1 h2] that the effective channel already holds
        sigma, V = eff.sigma, eff.V
        if sigma[1] <= 1e-10 * sigma[0]:
            raise RankDeficiencyError("zero-forcing undefined for parallel channels")
        left, right = V.T / sigma[:, None], V / sigma
        Ba, Bb = np.outer(left[:, 1], right[0]), np.outer(left[:, 0], right[1])
    else:
        raise InvalidInputError(f"unknown scheme {scheme!r}")
    return Ba, Bb


def mrr_mrt(pair: ChannelPair, ratio: float, pc: PowerConfig) -> Beamformer:
    """Matched-filter relay: receive and retransmit along the channels.

    A = a h2* h1^H + b h1* h2^H, a/b = ratio, scaled to spend P_R.
    """
    return _Sweep.build("mr", pair, pc).beamformer(ratio)


def zfr_zft(pair: ChannelPair, ratio: float, pc: PowerConfig) -> Beamformer:
    """Zero-forcing relay: pseudo-inverses on both sides kill the
    self-interference terms exactly, at the price of noise amplification
    when the channels are nearly parallel.

    Raises:
        RankDeficiencyError: parallel channels, the inverse direction
            does not exist.
    """
    return _Sweep.build("zf", pair, pc).beamformer(ratio)


def _form(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Coefficients (c_aa, c_ab, c_bb) of the real quadratic form
    |a fa + b fb|^2 = c_aa a^2 + 2 c_ab a b + c_bb b^2."""
    return np.array([np.vdot(fa, fa).real, np.vdot(fa, fb).real, np.vdot(fb, fb).real])


def _quad(c: Tuple[float, float, float], a: _Reals, b: _Reals) -> _Reals:
    return c[0] * a * a + 2.0 * c[1] * a * b + c[2] * b * b


def _weights(angles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(a, b) = (sin t, cos t) at each angle t, and (1, 0) at t = pi/2 itself."""
    end = angles >= _HALF_PI
    return np.where(end, 1.0, np.sin(angles)), np.where(end, 0.0, np.cos(angles))


# the sum-rate search's grid and its weights; odd, so it includes pi/4 exactly
_GRID = np.linspace(0.0, _HALF_PI, 513)
_GRID_A, _GRID_B = _weights(_GRID)


class _ChannelForms:
    """A scheme on one channel: its unit relay matrices and the forms of
    B = a Ba + b Bb that no power changes, the relay power parts
    F1 = |B g1|^2, F2 = |B g2|^2 and F0 = |B|_F^2, the forwarded noise
    q21 = |g1^T B|^2 and q12 = |g2^T B|^2, and the unscaled signal powers
    N21 = |g1^T B g2|^2 and N12 = |g2^T B g1|^2."""

    def __init__(self, scheme: str, eff: EffectiveChannel) -> None:
        self.eff = eff
        self.Ba, self.Bb = Ba, Bb = _basis(scheme, eff)
        g1, g2 = eff.g1, eff.g2
        self.F1, self.F2, self.F0 = _form(Ba @ g1, Bb @ g1), _form(Ba @ g2, Bb @ g2), _form(Ba, Bb)
        self.N21, self.N12 = _form(g1 @ Ba @ g2, g1 @ Bb @ g2), _form(g2 @ Ba @ g1, g2 @ Bb @ g1)
        # Python floats keep the one-angle evaluation in scalar arithmetic
        self.q21, self.q12 = (tuple(_form(g @ Ba, g @ Bb).tolist()) for g in (g1, g2))

    @functools.cached_property
    def grid_noise(self) -> Tuple[np.ndarray, np.ndarray]:
        return _quad(self.q21, _GRID_A, _GRID_B), _quad(self.q12, _GRID_A, _GRID_B)


class _Sweep:
    """A scheme on one channel and power setting, as a function of the
    sweep angle t in [0, pi/2].

    The unit relay matrix at t is a Ba + b Bb with (a, b) = (sin t, cos t),
    and (1, 0) at t = pi/2 itself. Its relay power pw = p1 F1 + p2 F2 + F0,
    the forwarded noise q21 and q12 and the signal powers n21 = p2 N21 and
    n12 = p1 N12 are real quadratic forms in (a, b), scaled here from the
    channel's forms. Scaling the matrix by sqrt(P_R / pw) spends the
    budget and gives snr21 = P_R n21 / (P_R q21 + pw), and snr12 alike.
    """

    def __init__(self, forms: _ChannelForms, pc: PowerConfig) -> None:
        if pc.p_relay <= 0.0:
            raise InvalidInputError("relay power budget must be positive")
        self.forms, self.eff, self.Ba, self.Bb = forms, forms.eff, forms.Ba, forms.Bb
        self.p_relay, self.q21, self.q12 = pc.p_relay, forms.q21, forms.q12
        scaled = (pc.p1 * forms.F1 + pc.p2 * forms.F2 + forms.F0, pc.p2 * forms.N21, pc.p1 * forms.N12)
        self.pw, self.n21, self.n12 = (tuple(f.tolist()) for f in scaled)

    @classmethod
    def build(cls, scheme: str, pair: ChannelPair, pc: PowerConfig) -> _Sweep:
        return cls(_ChannelForms(scheme, effective(pair)), pc)

    def _rates(self, a: _Reals, b: _Reals, q21: _Reals, q12: _Reals, log2) -> Tuple[_Reals, _Reals]:
        """(r21, r12) at the weights (a, b), where the forwarded noise is q21, q12."""
        pw = _quad(self.pw, a, b)
        p = self.p_relay
        snr21 = p * _quad(self.n21, a, b) / (p * q21 + pw)
        snr12 = p * _quad(self.n12, a, b) / (p * q12 + pw)
        return 0.5 * log2(1.0 + snr21), 0.5 * log2(1.0 + snr12)

    def _point(self, angle: float) -> Tuple[float, float]:
        """(r21, r12) at one angle, in scalar arithmetic."""
        a, b = (1.0, 0.0) if angle >= _HALF_PI else (math.sin(angle), math.cos(angle))
        return self._rates(a, b, _quad(self.q21, a, b), _quad(self.q12, a, b), math.log2)

    def rates(self, angle: _Reals) -> Tuple[_Reals, _Reals]:
        """(r21, r12) at one angle with math, or arrays of them at an
        array of angles with numpy."""
        if not isinstance(angle, np.ndarray):
            return self._point(angle)
        a, b = _weights(angle)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite rate is refused where it is written
            return self._rates(a, b, _quad(self.q21, a, b), _quad(self.q12, a, b), np.log2)

    def rate_pair(self, angle: float) -> RatePair:
        r21, r12 = self.rates(angle)
        return RatePair(r21=r21, r12=r12)

    def best_rates(self) -> RatePair:
        """The rate pair at the largest sum rate, as scheme_best_rates finds it."""
        with np.errstate(over="ignore", invalid="ignore"):  # as in rates
            r21, r12 = self._rates(_GRID_A, _GRID_B, *self.forms.grid_noise, np.log2)
        vals = r21 + r12
        k = int(np.argmax(vals))
        lo, hi = float(_GRID[max(0, k - 1)]), float(_GRID[min(len(_GRID) - 1, k + 1)])
        x, best = _golden_max(lambda angle: sum(self._point(angle)), lo, hi)
        return self.rate_pair(x if best > vals[k] else float(_GRID[k]))

    def matrices(self, angles: np.ndarray) -> np.ndarray:
        """The (n, 2, 2) stack of relay matrices at the angles, each scaled
        to spend the budget."""
        a, b = _weights(angles)
        scale = np.sqrt(self.p_relay / _quad(self.pw, a, b))[:, None, None]
        return scale * (a[:, None, None] * self.Ba + b[:, None, None] * self.Bb)

    def beamformer(self, ratio: float) -> Beamformer:
        """The relay matrix at a/b = ratio, the angle atan(ratio) (pi/2
        at ratio infinity), scaled to spend the budget."""
        if ratio < 0.0:
            raise InvalidInputError("ratio must be nonnegative")
        return Beamformer(B=self.matrices(np.array([math.atan(ratio)]))[0], U=self.eff.U)


def sweep_region(
    scheme: str,
    eff: EffectiveChannel,
    pc: PowerConfig,
    n_ratios: int = DEFAULT_RATIOS,
) -> RegionBoundary:
    """Achievable region of a scheme on the effective channel, traced by
    sweeping the a/b ratio.

    Ratios are tangents of angles uniform on [0, pi/2], so both
    single-link endpoints (ratio 0 and infinity) are included. The angles
    run from pi/2 down to 0, along which r21 rises and r12 falls, so the
    rows come in boundary order. One evaluation of the sweep's quadratic
    forms fills the rate columns, one (n, 2, 2) stack holds the relay
    matrices, and one expression over the stack recomputes their relay
    powers. alpha21 is r21 / (r21 + r12), and 0.5 where both rates are 0.
    """
    if n_ratios < 2:
        raise InvalidInputError("need at least two ratios")
    sweep = _Sweep(_ChannelForms(scheme, eff), pc)
    # the first angle is pi/2 itself: k * (pi/2) / k can round below it
    angles = np.append(_HALF_PI, _HALF_PI * np.arange(n_ratios - 2, -1, -1) / (n_ratios - 1))
    r21, r12 = sweep.rates(angles)
    B = sweep.matrices(angles)
    total = r21 + r12
    alpha21 = np.divide(r21, total, out=np.full(n_ratios, 0.5), where=total > 0)
    p1, p2 = np.full(n_ratios, pc.p1, dtype=np.float64), np.full(n_ratios, pc.p2, dtype=np.float64)
    return RegionBoundary(alpha21, r21, r12, p1, p2, relay_power_reduced(B, eff, pc), B=B, U=eff.U)


def scheme_profile_sum_rate(
    scheme: str, pair: ChannelPair, pc: PowerConfig, profile: RateProfile
) -> float:
    """Largest sum rate of the scheme along a profile ray.

    As the sweep angle grows r21 falls and r12 rises, so the swept
    rate pairs form a monotone frontier and the ray leaves it where a
    bisection on the angle, over the scalar form of the sweep's rates,
    finds the ray's side switch.
    """
    return _ray_exit(_Sweep.build(scheme, pair, pc).rate_pair, 0.0, _HALF_PI, profile)


def scheme_max_sum_rate(scheme: str, pair: ChannelPair, pc: PowerConfig) -> float:
    """Largest unconstrained sum rate over the ratio sweep, the sum of
    the rate pair scheme_best_rates finds."""
    rates = scheme_best_rates(scheme, pair, pc)
    return rates.r21 + rates.r12


def scheme_best_rates(scheme: str, pair: ChannelPair, pc: PowerConfig) -> RatePair:
    """Rate pair achieved at the scheme's unconstrained sum-rate maximum.

    The sum of the two rates need not be unimodal in the sweep angle, so
    a dense grid (always containing the balanced ratio a = b), evaluated
    in one pass over the sweep's quadratic forms, brackets the maximum;
    golden-section search on their scalar form refines it, and the
    refined angle is kept only if it beats the best grid point.
    """
    return _Sweep.build(scheme, pair, pc).best_rates()


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
