"""Decode-and-forward baseline for the two-way relay channel.

The epoch splits into a multiple-access phase (fraction tau, both
sources transmit, relay decodes both messages) and a broadcast phase
(fraction 1 - tau, relay re-encodes both messages into one codeword;
each destination cancels its own message before decoding). The
achievable region is the union over tau of tau * MAC intersected with
(1 - tau) * BC; df_tau_slices traces its slices on a grid of tau, and
df_boundary_value each ray's exit at its exact best split. Both phases
read the real channels g1 and g2 of one reduced frame.

The broadcast phase uses a single transmit covariance serving both
links at once, not a power split. Its SNR region is convex, and its
Pareto boundary is reached by rank-one covariances P_R v v^H whose
direction v turns in closed form from the first channel toward the
second, in the real coordinates of the effective frame (Oechtering,
Jorswieck, Wyrembelski and Boche, IEEE Trans. Commun. 2009). Weighted sum-rate maxima and ray exits are crossing
searches (bounds._crossing, ITP) on that one angle: the root of the
weighted sum's closed-form slope, and the ray's side switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .beamformer import RateProfile, _ray_exit
from .bounds import _crossing
from .errors import InvalidInputError, NumericalFailureError
from .model import ChannelPair, EffectiveChannel, RatePair, effective

DEFAULT_TAU_GRID = 65
DEFAULT_WEIGHTS = 65


@dataclass(frozen=True)
class MacPentagon:
    """Rate constraints of the multiple-access phase, full-epoch scale.

    c1 caps r21 (riding on the S2 uplink), c2 caps r12, c_sum caps the
    sum under joint decoding.
    """

    c1: float
    c2: float
    c_sum: float

    def ray_exit(self, profile: RateProfile) -> float:
        """Largest t with (alpha21 t, alpha12 t) inside the pentagon."""
        t = self.c_sum
        if profile.alpha21 > 0.0:
            t = min(t, self.c1 / profile.alpha21)
        if profile.alpha12 > 0.0:
            t = min(t, self.c2 / profile.alpha12)
        return t

    def frontier(self, r21: float) -> float:
        """Largest r12 available at a given r21, -inf past the cap."""
        if r21 > self.c1:
            return -math.inf
        return min(self.c2, self.c_sum - r21)

    def corners(self) -> List[Tuple[float, float]]:
        """Pareto vertices, left to right."""
        a, b, s = self.c1, self.c2, self.c_sum
        if s >= a + b:
            return [(0.0, b), (a, b), (a, 0.0)]
        return [(0.0, b), (s - b, b), (a, s - a), (a, 0.0)]


def mac_region(pair: ChannelPair, p1: float, p2: float) -> MacPentagon:
    """Decode-both-messages region at the relay's antenna array."""
    return _mac_pentagon(effective(pair), p1, p2)


def _mac_pentagon(eff: EffectiveChannel, p1: float, p2: float) -> MacPentagon:
    """mac_region from the reduced frame: det(I + p1 h1 h1^H + p2 h2 h2^H) is
    1 + a + b + p1 p2 (g1 x g2)^2 with a = p1 |g1|^2 and b = p2 |g2|^2, a sum
    of nonnegative floats.

    Raises NumericalFailureError if the sum rate is not finite, as where
    the last term overflows to inf (from equal powers near 1e155 on unit channels).
    """
    if p1 < 0.0 or p2 < 0.0:
        raise InvalidInputError("source powers must be nonnegative")
    (x0, x1), (y0, y1) = eff.g1.tolist(), eff.g2.tolist()
    a, b, cross = p1 * (x0 * x0 + x1 * x1), p2 * (y0 * y0 + y1 * y1), x0 * y1 - x1 * y0
    c_sum = math.log2(1.0 + a + b + (p1 * cross) * (p2 * cross))
    if not math.isfinite(c_sum):
        raise NumericalFailureError(f"the MAC sum rate is {c_sum}, not a finite number")
    return MacPentagon(c1=math.log2(1.0 + b), c2=math.log2(1.0 + a), c_sum=c_sum)


@dataclass(frozen=True)
class BcPoint:
    """A broadcast-phase rate pair with the covariance achieving it.

    S_reduced is the real 2x2 transmit covariance in the orthonormal frame
    `basis` of span{h1*, h2*}; the full covariance is
    basis @ S_reduced @ basis^H.
    """

    rates: RatePair
    S_reduced: np.ndarray
    basis: np.ndarray

    def full(self) -> np.ndarray:
        return self.basis @ self.S_reduced @ self.basis.conj().T


@dataclass(frozen=True, eq=False)
class BcBoundary:
    """Weight-sweep trace of the broadcast region frontier, as columns.

    r21 and r12 are float64 arrays of length n, the knots in weight order
    from the r12-maximizing corner to the r21-maximizing one (r21
    non-decreasing). The rates are all that the frontier and the
    decode-and-forward tables read; a knot's covariance is bc_wsrmax's
    S_reduced at the knot's weights.
    """

    r21: np.ndarray
    r12: np.ndarray

    def frontier(self, r21: float) -> float:
        """Largest r12 at a given r21 on the piecewise-linear frontier: at
        or left of the first knot that knot's r12, past the last knot
        -inf, and np.interp's value in between."""
        xs, ys = self.r21, self.r12
        if r21 > xs[-1]:
            return -math.inf
        if r21 <= xs[0]:
            return float(ys[0])
        return float(np.interp(r21, xs, ys))


@dataclass(frozen=True)
class _Arc:
    """The rank-one Pareto arc of the broadcast SNR region.

    In the basis of span{h1*, h2*} the channels are the real g1 and g2
    of the effective frame, whose lines meet at an angle phi in
    [0, pi/2]. u1 = g1/|g1|, and e2 is u1 turned 90 degrees toward g2,
    or toward -g2 where g1.g2 < 0: the SNRs see only |g2^T v|. The
    covariance P_R v v^T with v = cos(theta) u1 + sin(theta) e2 gives
    SNRs a cos^2(theta) and b cos^2(phi - theta), a = P_R |g1|^2 and
    b = P_R |g2|^2: as theta runs over [0, phi] the first falls and the
    second rises, tracing the whole Pareto boundary. A dead link leaves
    phi = 0, where the arc is the single-link optimum of the other.
    """

    basis: np.ndarray
    u1: Tuple[float, float]
    e2: Tuple[float, float]
    phi: float
    a: float
    b: float
    p_relay: float

    def rates(self, theta: float) -> RatePair:
        return RatePair(
            r21=math.log2(1.0 + self.a * math.cos(theta) ** 2),
            r12=math.log2(1.0 + self.b * math.cos(self.phi - theta) ** 2),
        )

    def covariance(self, theta: float) -> np.ndarray:
        c, s = math.cos(theta), math.sin(theta)
        v = np.array([c * self.u1[0] + s * self.e2[0], c * self.u1[1] + s * self.e2[1]])
        return self.p_relay * np.outer(v, v)

    def angle(self, w21: float, w12: float) -> float:
        """The angle of largest w21 r21 + w12 r12 for nonnegative weights,
        not both zero. Along the arc the weighted sum rate is unimodal, so
        the crossing search on its closed-form slope, the gain of the
        second rate less the loss of the first, finds the angle to the
        last float; the slope's sign is monotone in the weights, so the
        angle falls as w21 grows against w12. w12 = 0 gives theta = 0
        (all power toward S1), w21 = 0 gives theta = phi (all power
        toward S2)."""
        if w12 == 0.0:
            return 0.0
        if w21 == 0.0:
            return self.phi
        a, b, phi = self.a, self.b, self.phi

        def slope(theta: float) -> float:
            gain = w12 * b * math.sin(2.0 * (phi - theta)) / (1.0 + b * math.cos(phi - theta) ** 2)
            loss = w21 * a * math.sin(2.0 * theta) / (1.0 + a * math.cos(theta) ** 2)
            return gain - loss

        lo, hi = _crossing(slope, 0.0, phi, slope(0.0), slope(phi))
        return 0.5 * (lo + hi)

    def boundary(self, n_weights: int) -> BcBoundary:
        """bc_boundary's weight sweep of n_weights >= 2 knots on this arc."""
        rates = [self.rates(self.angle(w, 1.0 - w)) for w in (k / (n_weights - 1) for k in range(n_weights))]
        return BcBoundary(
            r21=np.array([r.r21 for r in rates], dtype=np.float64),
            r12=np.array([r.r12 for r in rates], dtype=np.float64),
        )


def _bc_arc(eff: EffectiveChannel, p_relay: float) -> _Arc:
    if p_relay <= 0.0:
        raise InvalidInputError("relay power budget must be positive")
    (x0, x1), (y0, y1) = eff.g1.tolist(), eff.g2.tolist()
    n1, n2 = math.hypot(x0, x1), math.hypot(y0, y1)
    cross, dot = x0 * y1 - x1 * y0, x0 * y0 + x1 * y1
    # u1 along g1, or along g2 where g1 is 0, or any unit vector where both are
    u0, u1 = (x0 / n1, x1 / n1) if n1 > 0.0 else (y0 / n2, y1 / n2) if n2 > 0.0 else (1.0, 0.0)
    # e2 is u1 turned 90 degrees toward g2, or toward -g2 where g1.g2 < 0
    side = -1.0 if (cross < 0.0) != (dot < 0.0) else 1.0
    phi, a, b = math.atan2(abs(cross), abs(dot)), p_relay * n1**2, p_relay * n2**2
    # span{h1*, h2*} has the conjugate of the effective frame as its basis
    return _Arc(eff.U.conj(), (u0, u1), (-side * u1, side * u0), phi, a, b, p_relay)


def bc_wsrmax(pair: ChannelPair, p_relay: float, w21: float, w12: float) -> BcPoint:
    """Maximize w21 r21 + w12 r12 over the broadcast covariance.

    The rate region is convex and the maximum sits on the rank-one arc
    of _Arc, at _Arc.angle(w21, w12).
    """
    if w21 < 0.0 or w12 < 0.0 or w21 + w12 == 0.0:
        raise InvalidInputError("weights must be nonnegative and not both zero")
    arc = _bc_arc(effective(pair), p_relay)
    theta = arc.angle(w21, w12)
    return BcPoint(rates=arc.rates(theta), S_reduced=arc.covariance(theta), basis=arc.basis)


def bc_boundary(
    pair: ChannelPair, p_relay: float, n_weights: int = DEFAULT_WEIGHTS
) -> BcBoundary:
    """Frontier of the broadcast region by a uniform weight sweep.

    Knot k is the bc_wsrmax point for weights (w, 1 - w), w = k / (n - 1),
    all on one arc; the weights, not the arc angles, are uniform. The
    angle falls as w grows, so the knots come in weight order with r21
    non-decreasing, as BcBoundary.frontier's np.interp needs. Only rates
    are kept: knot k's covariance is bc_wsrmax's S_reduced at (w, 1 - w).
    """
    if n_weights < 2:
        raise InvalidInputError("need at least two weights")
    return _bc_arc(effective(pair), p_relay).boundary(n_weights)


def bc_ray_exit(pair: ChannelPair, p_relay: float, profile: RateProfile) -> float:
    """Largest t with (alpha21 t, alpha12 t) in the broadcast region.

    The boundary is the rank-one arc of _Arc plus two flat arms where
    one rate is already at its single-link maximum; along the arc r21
    falls and r12 rises, so the crossing search on the ray's side of the
    angle's rate pair lands on the ray.
    """
    arc = _bc_arc(effective(pair), p_relay)
    return _ray_exit(arc.rates, 0.0, arc.phi, profile)


def df_tau_slices(pent: MacPentagon, bc: BcBoundary, taus: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pareto boundaries of tau * MAC intersected with (1 - tau) * BC for
    every tau, as columns (index into taus, r21, r12), slice by slice with
    r21 rising. Both regions are downward closed, so a slice's frontier is
    the lower of the two scaled frontiers; its knots are 0, its end x_max
    and either frontier's scaled knots in [0, x_max], each value once."""
    tau = np.array(taus, dtype=np.float64).reshape(-1, 1)
    if not np.all((tau >= 0.0) & (tau <= 1.0)):
        raise InvalidInputError("tau must lie in [0, 1]")
    sigma = 1.0 - tau
    xs, ys = bc.r21, bc.r12
    x_max = np.where(sigma * xs[-1] < tau * pent.c1, sigma * xs[-1], tau * pent.c1)
    # + 0.0 turns -0.0 into the 0.0 knot that every slice holds
    cand = np.hstack([np.zeros_like(tau), x_max, tau * [x for x, _ in pent.corners()], sigma * xs]) + 0.0
    valid = (cand >= 0.0) & (cand <= x_max)
    valid[:, :2] = True
    cand = np.sort(np.where(valid, cand, np.nan), axis=1)  # the left-out NaNs go last
    keep = np.arange(cand.shape[1]) < valid.sum(axis=1, keepdims=True)
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    row, col = np.nonzero(keep)
    x, t, s = cand[row, col], tau[row, 0], sigma[row, 0]
    # a zero share gives a zero frontier; the quotients are capped at c1 and
    # the last BC knot, which rounding can pass by an ulp
    q = np.divide(x, t, out=np.zeros_like(x), where=t > 0.0)
    v = pent.c_sum - np.where(pent.c1 < q, pent.c1, q)
    y_mac = np.multiply(t, np.where(v < pent.c2, v, pent.c2), out=np.zeros_like(x), where=t > 0.0)
    q = np.divide(x, s, out=np.zeros_like(x), where=s > 0.0)
    q = np.where(xs[-1] < q, xs[-1], q)
    front = np.where(q <= xs[0], ys[0], np.interp(q, xs, ys))
    y_bc = np.multiply(s, front, out=np.zeros_like(x), where=s > 0.0)
    # the where-selects keep Python's min and max, signed zeros included
    y = np.where(y_bc < y_mac, y_bc, y_mac)
    return row, x, np.where(y > 0.0, y, 0.0)


def df_tau_slice(pent: MacPentagon, bc: BcBoundary, tau: float) -> List[Tuple[float, float]]:
    """The one-tau case of df_tau_slices, as (r21, r12) knots."""
    _, x, y = df_tau_slices(pent, bc, [tau])
    return list(zip(x.tolist(), y.tolist()))


def _tau_grid(n_tau: int) -> List[float]:
    """1/2 alone for n_tau = 1, else n_tau splits uniform on [0, 1]."""
    return [0.5] if n_tau == 1 else np.linspace(0.0, 1.0, n_tau).tolist()


def df_boundary_value(
    pair: ChannelPair,
    p1: float,
    p2: float,
    p_relay: float,
    profile: RateProfile,
) -> Tuple[float, float]:
    """Exact ray exit of the decode-and-forward region and its time share.

    Along a ray the MAC side scales like tau * t_mac and the broadcast
    side like (1 - tau) * t_bc, so the best split equalizes them; this
    avoids the tau-grid discretization entirely.
    """
    eff = effective(pair)
    return _df_ray(_mac_pentagon(eff, p1, p2), _bc_arc(eff, p_relay), profile)


def _df_ray(pent: MacPentagon, arc: _Arc, profile: RateProfile) -> Tuple[float, float]:
    """df_boundary_value from the pentagon and broadcast arc of its setting."""
    t_mac, t_bc = pent.ray_exit(profile), _ray_exit(arc.rates, 0.0, arc.phi, profile)
    if t_mac <= 0.0 or t_bc <= 0.0:
        return 0.0, 0.5
    tau = t_bc / (t_mac + t_bc)
    return t_mac * t_bc / (t_mac + t_bc), tau
