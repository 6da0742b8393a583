"""Suboptimal relay beamformers: matched-filter and zero-forcing designs
plus two heuristic baselines.

Both main schemes weight two fixed rank-one unit relay matrices, each
the other's transpose in the real reduced frame: B = a u v^T + b v u^T,
a amplifying the S1->S2 link and b the S2->S1 link, scaled so the relay
spends its whole budget. Sweeping the angle atan(a/b) over [0, pi/2]
traces each scheme's achievable region. Along the sweep the relay power
of the unit matrix, and at each receiver its forwarded noise and signal
power, are real 2x2 quadratic forms in (a, b); scaling to the budget
P_R makes each link's SNR P_R n / (P_R q + pw). So the sweeps, the
sum-rate search and the ray exits build the power-free forms once per
scheme and channel, each coefficient a product of dot products of u, v
and the channels in Python floats, scale them per power setting,
evaluate them for a whole array of angles in one numpy expression or
for one angle in scalar arithmetic, and form relay matrices only where
they return them. The sum rate is so a sum of logs of quadratic forms,
built with each power setting's scaled forms, and its maximum the root
of its closed-form slope in the angle. The baselines are a scaled
identity relay and one-way rank-one relaying over four slots; the
sum-rate table takes both from the channel gains alone, and every rate
here from model._rate.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple, Union

import numpy as np

from .beamformer import RateProfile, RegionBoundary, _ray_exit
from .bounds import _crossing
from .errors import InvalidInputError, RankDeficiencyError
from .model import (
    Beamformer,
    ChannelPair,
    EffectiveChannel,
    PowerConfig,
    RatePair,
    _rate,
    effective,
    relay_power_reduced,
)

DEFAULT_RATIOS = 65
_HALF_PI = 0.5 * math.pi

_Reals = Union[float, np.ndarray]


def _basis(scheme: str, eff: EffectiveChannel) -> Tuple[np.ndarray, np.ndarray]:
    """The factors (u, v) of the scheme's unit relay matrices Ba = u v^T
    and Bb = v u^T = Ba^T in reduced coordinates: with weights (a, b) its
    relay matrix is a Ba + b Bb before scaling.

    Raises:
        InvalidInputError: unknown scheme.
        RankDeficiencyError: zero-forcing on parallel channels.
    """
    if scheme == "mr":
        # A = a h2* h1^H + b h1* h2^H, with real g1 and g2
        return eff.g2, eff.g1
    if scheme == "zf":
        # B = Sigma^-1 V^T [[0, b], [a, 0]] V Sigma^-1, with the SVD of the
        # turned [h1 h2] that the effective channel already holds
        sigma, V = eff.sigma, eff.V
        if sigma[1] <= 1e-10 * sigma[0]:
            raise RankDeficiencyError("zero-forcing undefined for parallel channels")
        right = V / sigma
        return right[1], right[0]
    raise InvalidInputError(f"unknown scheme {scheme!r}")


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


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    return x[0] * y[0] + x[1] * y[1]


def _pair_form(gram: Tuple[float, float, float], x: float, y: float) -> Tuple[float, float, float]:
    """Coefficients (c_aa, c_ab, c_bb) of the quadratic form
    |a x fa + b y fb|^2 = c_aa a^2 + 2 c_ab a b + c_bb b^2 of vectors fa
    and fb with the Gram entries gram = (fa.fa, fa.fb, fb.fb)."""
    return gram[0] * (x * x), gram[1] * (x * y), gram[2] * (y * y)


def _quad(c: Tuple[float, float, float], a: _Reals, b: _Reals) -> _Reals:
    return c[0] * a * a + 2.0 * c[1] * a * b + c[2] * b * b


def _weights(angles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(a, b) = (sin t, cos t) at each angle t, and (1, 0) at t = pi/2 itself."""
    end = angles >= _HALF_PI
    return np.where(end, 1.0, np.sin(angles)), np.where(end, 0.0, np.cos(angles))


# the sum-rate search's grid, odd so it holds pi/4, and a^2, a b and b^2 at its weights
_GRID = np.linspace(0.0, _HALF_PI, 513)
_GRID_A, _GRID_B = _weights(_GRID)
_GRID_BASIS = np.array([_GRID_A * _GRID_A, _GRID_A * _GRID_B, _GRID_B * _GRID_B])
_GRID_ANGLES = _GRID.tolist()


class _ChannelForms:
    """A scheme on one channel: the factors (u, v) of its unit relay
    matrices Ba = u v^T and Bb = v u^T, and the forms of B = a Ba + b Bb
    that no power changes, the relay power parts F1 = |B g1|^2,
    F2 = |B g2|^2 and F0 = |B|_F^2, the forwarded noise q21 = |g1^T B|^2
    and q12 = |g2^T B|^2, and the unscaled signal powers
    N21 = |g1^T B g2|^2 and N12 = |g2^T B g1|^2.

    B g = a (v.g) u + b (u.g) v and g1^T B g2 = a (g1.u)(v.g2)
    + b (g1.v)(u.g2), so every coefficient is a product of the 7 dot
    products u.u, u.v, v.v, u.g_i and v.g_i of two-vectors, taken in
    Python floats. B^T is B with a and b swapped, so q21, q12 and N12
    are F1, F2 and N21 reversed. A link that zero-forcing nulls so keeps
    the product of two rounding residues."""

    def __init__(self, scheme: str, eff: EffectiveChannel) -> None:
        self.eff = eff
        self.factors = _basis(scheme, eff)
        u, v = (f.tolist() for f in self.factors)
        g1, g2 = eff.g1.tolist(), eff.g2.tolist()
        gram = (_dot(u, u), _dot(u, v), _dot(v, v))
        u1, v1, u2, v2 = _dot(u, g1), _dot(v, g1), _dot(u, g2), _dot(v, g2)
        self.F1, self.F2 = _pair_form(gram, v1, u1), _pair_form(gram, v2, u2)
        self.F0 = (gram[0] * gram[2], gram[1] * gram[1], gram[2] * gram[0])
        x, y = u1 * v2, v1 * u2  # the link gains g1^T Ba g2 and g1^T Bb g2
        self.N21 = (x * x, x * y, y * y)
        self.N12, self.q21, self.q12 = self.N21[::-1], self.F1[::-1], self.F2[::-1]


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
        self.eff, self.factors = forms.eff, forms.factors
        self.p_relay, self.q21, self.q12 = p, q21, q12 = pc.p_relay, forms.q21, forms.q12
        p1, p2, F1, F2, F0 = pc.p1, pc.p2, forms.F1, forms.F2, forms.F0
        self.pw = pw = (
            p1 * F1[0] + p2 * F2[0] + F0[0], p1 * F1[1] + p2 * F2[1] + F0[1], p1 * F1[2] + p2 * F2[2] + F0[2]
        )
        self.n21 = n21 = (p2 * forms.N21[0], p2 * forms.N21[1], p2 * forms.N21[2])
        self.n12 = n12 = (p1 * forms.N12[0], p1 * forms.N12[1], p1 * forms.N12[2])
        # the quadratic forms whose logs make up the sum rate,
        # 2 ln 2 (r21 + r12) = ln T21 - ln D21 + ln T12 - ln D12, with
        # D21 = P_R q21 + pw, T21 = D21 + P_R n21, and D12 and T12 alike:
        # each as (c0, 2 c1, c2) for Q and, with its log's sign,
        # (c0 - c2, c1) for Q'/2
        logs = []
        for q, n in ((q21, n21), (q12, n12)):
            d0, d1, d2 = p * q[0] + pw[0], p * q[1] + pw[1], p * q[2] + pw[2]
            t0, t1, t2 = d0 + p * n[0], d1 + p * n[1], d2 + p * n[2]
            logs += [(t0, 2.0 * t1, t2, t0 - t2, t1), (d0, 2.0 * d1, d2, -(d0 - d2), -d1)]
        self._logs = tuple(logs)

    @classmethod
    def build(cls, scheme: str, pair: ChannelPair, pc: PowerConfig) -> _Sweep:
        return cls(_ChannelForms(scheme, effective(pair)), pc)

    def _rates(self, a: _Reals, b: _Reals) -> Tuple[_Reals, _Reals]:
        """(r21, r12) at the weights (a, b), from model._rate."""
        pw = _quad(self.pw, a, b)
        p = self.p_relay
        snr21 = p * _quad(self.n21, a, b) / (p * _quad(self.q21, a, b) + pw)
        snr12 = p * _quad(self.n12, a, b) / (p * _quad(self.q12, a, b) + pw)
        return _rate(snr21), _rate(snr12)

    def _point(self, angle: float) -> Tuple[float, float]:
        """(r21, r12) at one angle, in scalar arithmetic."""
        a, b = (1.0, 0.0) if angle >= _HALF_PI else (math.sin(angle), math.cos(angle))
        return self._rates(a, b)

    def rates(self, angle: _Reals) -> Tuple[_Reals, _Reals]:
        """(r21, r12) at one angle with math, or arrays of them at an
        array of angles with numpy."""
        if not isinstance(angle, np.ndarray):
            return self._point(angle)
        a, b = _weights(angle)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite rate is refused where it is written
            return self._rates(a, b)

    def rate_pair(self, angle: float) -> RatePair:
        r21, r12 = self.rates(angle)
        return RatePair(r21=r21, r12=r12)

    def slope(self, angle: float) -> float:
        """A positive multiple of the sum rate's derivative in the angle:
        the sum of +-Q'/Q over the forms of _logs, where the form
        Q = c0 a^2 + 2 c1 a b + c2 b^2 has Q' = 2((c0 - c2) a b + c1 (b^2 - a^2))."""
        a, b = (1.0, 0.0) if angle >= _HALF_PI else (math.sin(angle), math.cos(angle))
        aa, ab, bb = a * a, a * b, b * b
        turn, total = bb - aa, 0.0
        for c0, c1x2, c2, diff, c1 in self._logs:
            total += (diff * ab + c1 * turn) / (c0 * aa + c1x2 * ab + c2 * bb)
        return total

    def best_rates(self) -> RatePair:
        """The rate pair at the largest sum rate: _best_rates on this sweep alone."""
        return _best_rates([self])[0]

    def matrices(self, angles: np.ndarray) -> np.ndarray:
        """The (n, 2, 2) stack of relay matrices at the angles, each scaled
        to spend the budget."""
        a, b = _weights(angles)
        scale = np.sqrt(self.p_relay / _quad(self.pw, a, b))[:, None, None]
        Ba = np.outer(*self.factors)
        return scale * (a[:, None, None] * Ba + b[:, None, None] * Ba.T)

    def beamformer(self, ratio: float) -> Beamformer:
        """The relay matrix at a/b = ratio, the angle atan(ratio) (pi/2
        at ratio infinity), scaled to spend the budget."""
        if ratio < 0.0:
            raise InvalidInputError("ratio must be nonnegative")
        return Beamformer(B=self.matrices(np.array([math.atan(ratio)]))[0], U=self.eff.U)


def _grid_products(sweeps: Sequence[_Sweep]) -> np.ndarray:
    """(1 + snr21)(1 + snr12) = (T21/D21)(T12/D12) on the grid, a row per sweep,
    from one product of all their forms' (c0, 2 c1, c2) with the grid's basis."""
    coeffs = np.array([log[:3] for sweep in sweeps for log in sweep._logs])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite rate is refused where it is written
        t21, d21, t12, d12 = (coeffs @ _GRID_BASIS).reshape(len(sweeps), 4, len(_GRID)).transpose(1, 0, 2)
        return t21 / d21 * (t12 / d12)


def _best_rates(sweeps: Sequence[_Sweep]) -> List[RatePair]:
    """The rate pair at each sweep's largest sum rate, as scheme_best_rates finds
    it: the largest of _grid_products and its two neighbours bracket the maximum."""
    found = []
    last = len(_GRID_ANGLES) - 1
    for sweep, k in zip(sweeps, np.argmax(_grid_products(sweeps), axis=1).tolist()):
        lo, hi = _GRID_ANGLES[max(0, k - 1)], _GRID_ANGLES[min(last, k + 1)]
        best = sweep._point(_GRID_ANGLES[k])
        s_lo, s_hi = sweep.slope(lo), sweep.slope(hi)
        if s_lo > 0.0 >= s_hi:
            best = max(best, *map(sweep._point, _crossing(sweep.slope, lo, hi, s_lo, s_hi)), key=sum)
        found.append(RatePair(*best))
    return found


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
    rate pairs form a monotone frontier and the ray leaves it where the
    crossing search on the angle, over the scalar form of the sweep's
    rates, finds the ray's side switch.
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
    a dense grid (always containing the balanced ratio a = b), on which
    one product with the forms' coefficients puts them, brackets the
    maximum. The sum rate is a sum of logs of quadratic forms, so its
    slope in the angle has a closed form; where that slope changes sign
    across the bracket, the crossing search finds its root to the last
    float, and the better of the root's two floats is kept only if it
    beats the best grid point.
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
    zeta = math.sqrt(pc.p_relay / (pair.theta1 * pc.p1 + pair.theta2 * pc.p2 + pair.m))
    return zeta * np.eye(pair.m, dtype=complex)


def _direct_relay_sum(theta1: float, theta2: float, cross: float, m: int, pc: PowerConfig) -> float:
    """r21 + r12 of direct_relay's zeta I, from the channel gains theta1
    and theta2 and cross = |h1^T h2|^2: with z = zeta^2 =
    P_R / (theta1 p1 + theta2 p2 + M), snr21 = z cross p2 / (z theta1 + 1)
    and snr12 = z cross p1 / (z theta2 + 1), each rate taken by model._rate
    as rate_pair takes it."""
    z = pc.p_relay / (theta1 * pc.p1 + theta2 * pc.p2 + m)
    return _rate(z * cross * pc.p2 / (z * theta1 + 1.0)) + _rate(z * cross * pc.p1 / (z * theta2 + 1.0))


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
    budget = 0.5 * pc.p_relay if equal_energy else pc.p_relay

    def gamma(theta_rx: float, theta_tx: float, p_tx: float) -> float:
        # A = psi h_rx* h_tx^H forwarding source tx toward receiver rx
        if p_tx == 0.0:
            return 0.0
        psi_sq = budget / (theta_rx * theta_tx * (theta_tx * p_tx + 1.0))
        num = psi_sq * theta_rx**2 * theta_tx**2 * p_tx
        den = psi_sq * theta_rx**2 * theta_tx + 1.0
        return num / den

    g21 = gamma(pair.theta1, pair.theta2, pc.p2)
    g12 = gamma(pair.theta2, pair.theta1, pc.p1)
    return 0.5 * _rate(g21) + 0.5 * _rate(g12)  # a quarter pre-log: half of model._rate's half
