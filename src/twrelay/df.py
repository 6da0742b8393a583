"""Decode-and-forward baseline for the two-way relay channel.

The epoch splits into a multiple-access phase (fraction tau, both
sources transmit, relay decodes both messages) and a broadcast phase
(fraction 1 - tau, relay re-encodes both messages into one codeword;
each destination cancels its own message before decoding). The
achievable region is the union over tau of tau * MAC intersected with
(1 - tau) * BC.

The broadcast phase uses a single transmit covariance serving both
links at once, not a power split. Its SNR region is convex, and its
Pareto boundary is reached by rank-one covariances P_R v v^H whose
direction v turns in closed form from the first channel toward the
second (Oechtering, Jorswieck, Wyrembelski and Boche, IEEE Trans.
Commun. 2009). Weighted sum-rate maxima and ray exits are bisections on
that one angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .beamformer import BoundaryPoint, RateProfile, RegionBoundary, _ray_exit
from .bounds import _crossing
from .errors import InvalidInputError
from .model import ChannelPair, RatePair, effective

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
    """Decode-both-messages region at the relay's antenna array.

    The M x M determinants collapse to 2 x 2 ones through the channel
    Gram matrix.
    """
    if p1 < 0.0 or p2 < 0.0:
        raise InvalidInputError("source powers must be nonnegative")
    gram = np.array(
        [
            [p1 * pair.theta1, math.sqrt(p1 * p2) * (pair.h1.conj() @ pair.h2)],
            [math.sqrt(p1 * p2) * (pair.h2.conj() @ pair.h1), p2 * pair.theta2],
        ],
        dtype=complex,
    )
    c_sum = math.log2(float(np.real(np.linalg.det(np.eye(2) + gram))))
    return MacPentagon(
        c1=math.log2(1.0 + p2 * pair.theta2),
        c2=math.log2(1.0 + p1 * pair.theta1),
        c_sum=c_sum,
    )


@dataclass(frozen=True)
class BcPoint:
    """A broadcast-phase rate pair with the covariance achieving it.

    S_reduced is the 2x2 transmit covariance in the orthonormal frame
    `basis` of span{h1*, h2*}; the full covariance is
    basis @ S_reduced @ basis^H.
    """

    rates: RatePair
    S_reduced: np.ndarray
    basis: np.ndarray

    def full(self) -> np.ndarray:
        return self.basis @ self.S_reduced @ self.basis.conj().T


@dataclass(frozen=True)
class BcBoundary:
    """Weight-sweep trace of the broadcast region frontier.

    Points run from the r12-maximizing corner to the r21-maximizing one
    (r21 non-decreasing); covariances are the reduced rank-one 2x2
    matrices of the corresponding points.
    """

    points: List[RatePair]
    covariances: List[np.ndarray]
    basis: np.ndarray

    @cached_property
    def _knots(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.array([p.r21 for p in self.points]), np.array([p.r12 for p in self.points])

    def frontier(self, r21: float) -> float:
        """Largest r12 at a given r21 on the piecewise-linear frontier."""
        xs, ys = self._knots
        if r21 > xs[-1]:
            return -math.inf
        if r21 <= xs[0]:
            return float(ys[0])
        return float(np.interp(r21, xs, ys))


@dataclass(frozen=True)
class _Arc:
    """The rank-one Pareto arc of the broadcast SNR region.

    In the basis of span{h1*, h2*}, u1 = f1/|f1| and e2 is the unit part of
    f2/|f2| orthogonal to u1, with the phase of f2 turned so that the
    two unit channels meet at a real angle phi in [0, pi/2]. The
    covariance P_R v v^H with v = cos(theta) u1 + sin(theta) e2 gives
    SNRs a cos^2(theta) and b cos^2(phi - theta), a = P_R |f1|^2 and
    b = P_R |f2|^2: as theta runs over [0, phi] the first falls and the
    second rises, tracing the whole Pareto boundary.
    """

    basis: np.ndarray
    u1: np.ndarray
    e2: np.ndarray
    phi: float
    a: float
    b: float
    p_relay: float

    def rates(self, theta: float) -> RatePair:
        return RatePair(
            r21=math.log2(1.0 + self.a * math.cos(theta) ** 2),
            r12=math.log2(1.0 + self.b * math.cos(self.phi - theta) ** 2),
        )

    def point(self, theta: float) -> BcPoint:
        v = math.cos(theta) * self.u1 + math.sin(theta) * self.e2
        S = self.p_relay * np.outer(v, v.conj())
        return BcPoint(rates=self.rates(theta), S_reduced=S, basis=self.basis)

    def wsrmax(self, w21: float, w12: float) -> BcPoint:
        """The point of largest w21 r21 + w12 r12 for nonnegative weights,
        not both zero. Along the arc the weighted sum rate is unimodal, so
        bisection on the sign of its derivative finds the angle to
        rounding level; the sign test is monotone in the weights, so the
        angle falls as w21 grows against w12. w12 = 0 gives theta = 0
        (all power toward S1), w21 = 0 gives theta = phi (all power
        toward S2)."""
        if w12 == 0.0:
            return self.point(0.0)
        if w21 == 0.0:
            return self.point(self.phi)
        a, b, phi = self.a, self.b, self.phi

        def rising(theta: float) -> bool:
            gain = w12 * b * math.sin(2.0 * (phi - theta)) / (1.0 + b * math.cos(phi - theta) ** 2)
            loss = w21 * a * math.sin(2.0 * theta) / (1.0 + a * math.cos(theta) ** 2)
            return gain > loss

        lo, hi = _crossing(rising, 0.0, phi)
        return self.point(0.5 * (lo + hi))


def _bc_arc(pair: ChannelPair, p_relay: float) -> _Arc:
    if p_relay <= 0.0:
        raise InvalidInputError("relay power budget must be positive")
    # span{h1*, h2*} has the conjugate of the effective frame as its basis
    eff = effective(pair)
    basis, f1, f2 = eff.U.conj(), eff.g1.conj(), eff.g2.conj()
    n1 = float(np.linalg.norm(f1))
    n2 = float(np.linalg.norm(f2))
    a, b = p_relay * n1**2, p_relay * n2**2
    if n1 == 0.0 or n2 == 0.0:
        # a dead link: the arc shrinks to the single-link optimum of the other
        u1 = np.array([1.0, 0.0], dtype=complex)
        if n1 + n2 > 0.0:
            u1 = (f1 if n1 > 0.0 else f2) / max(n1, n2)
        return _Arc(basis, u1, np.zeros(2, dtype=complex), 0.0, a, b, p_relay)
    u1, u2 = f1 / n1, f2 / n2
    c = complex(np.vdot(u1, u2))
    if c != 0.0:
        u2 = u2 * (abs(c) / c)
    # two Gram-Schmidt passes keep e2 orthogonal to u1 when phi is small;
    # exactly parallel channels leave w = 0 and phi = 0
    w = u2 - abs(c) * u1
    w = w - np.vdot(u1, w) * u1
    s = float(np.linalg.norm(w))
    return _Arc(basis, u1, w / s if s > 0.0 else w, math.atan2(s, abs(c)), a, b, p_relay)


def bc_wsrmax(pair: ChannelPair, p_relay: float, w21: float, w12: float) -> BcPoint:
    """Maximize w21 r21 + w12 r12 over the broadcast covariance.

    The rate region is convex and the maximum sits on the rank-one arc
    of _Arc (see _Arc.wsrmax).
    """
    if w21 < 0.0 or w12 < 0.0 or w21 + w12 == 0.0:
        raise InvalidInputError("weights must be nonnegative and not both zero")
    return _bc_arc(pair, p_relay).wsrmax(w21, w12)


def bc_boundary(
    pair: ChannelPair, p_relay: float, n_weights: int = DEFAULT_WEIGHTS
) -> BcBoundary:
    """Frontier of the broadcast region by a uniform weight sweep.

    Knot k is the bc_wsrmax point for weights (w, 1 - w), w = k / (n - 1),
    all on one arc; the weights, not the arc angles, are uniform. The
    angle falls as w grows, so the knots come in weight order with r21
    non-decreasing, as np.interp needs.
    """
    if n_weights < 2:
        raise InvalidInputError("need at least two weights")
    arc = _bc_arc(pair, p_relay)
    traced = [arc.wsrmax(w, 1.0 - w) for w in (k / (n_weights - 1) for k in range(n_weights))]
    return BcBoundary(
        points=[p.rates for p in traced],
        covariances=[p.S_reduced for p in traced],
        basis=arc.basis,
    )


def bc_ray_exit(pair: ChannelPair, p_relay: float, profile: RateProfile) -> float:
    """Largest t with (alpha21 t, alpha12 t) in the broadcast region.

    The boundary is the rank-one arc of _Arc plus two flat arms where
    one rate is already at its single-link maximum; along the arc r21
    falls and r12 rises, so bisection on the angle lands on the ray.
    """
    arc = _bc_arc(pair, p_relay)
    return _ray_exit(arc.rates, 0.0, arc.phi, profile)


def df_tau_slice(
    pent: MacPentagon, bc: BcBoundary, tau: float
) -> List[Tuple[float, float]]:
    """Pareto boundary of tau * MAC intersected with (1 - tau) * BC.

    Both regions are downward closed, so the intersection's frontier is
    the pointwise minimum of the two scaled frontiers; its knots are
    the scaled knots of either one.
    """
    if not 0.0 <= tau <= 1.0:
        raise InvalidInputError("tau must lie in [0, 1]")
    sigma = 1.0 - tau
    bc_cap = bc.points[-1].r21
    x_max = min(tau * pent.c1, sigma * bc_cap)
    knots = {0.0, x_max}
    for x, _ in pent.corners():
        if 0.0 <= tau * x <= x_max:
            knots.add(tau * x)
    for p in bc.points:
        if 0.0 <= sigma * p.r21 <= x_max:
            knots.add(sigma * p.r21)
    out = []
    for x in sorted(knots):
        # x <= x_max keeps x / tau within c1 and x / sigma within the last
        # BC knot, but rounding can put the quotient one ulp past the cap,
        # where the frontier ends at -inf
        y_mac = tau * pent.frontier(min(x / tau, pent.c1)) if tau > 0.0 else 0.0
        y_bc = sigma * bc.frontier(min(x / sigma, bc_cap)) if sigma > 0.0 else 0.0
        out.append((x, max(0.0, min(y_mac, y_bc))))
    return out


def _pareto_envelope(points: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    best: List[Tuple[float, float]] = []
    for x, y in sorted(points, key=lambda p: (-p[0], -p[1])):
        if not best or y > best[-1][1] + 1e-15:
            best.append((x, y))
    return best[::-1]


def df_capacity_region(
    pair: ChannelPair,
    p1: float,
    p2: float,
    p_relay: float,
    n_tau: int = DEFAULT_TAU_GRID,
    n_weights: int = DEFAULT_WEIGHTS,
) -> RegionBoundary:
    """Decode-and-forward region: Pareto envelope of the tau-grid slices.

    n_tau = 1 evaluates the single equal split tau = 1/2; larger grids
    cover [0, 1] uniformly and only enlarge the region.
    """
    if n_tau < 1:
        raise InvalidInputError("need at least one tau")
    pent = mac_region(pair, p1, p2)
    bc = bc_boundary(pair, p_relay, n_weights)
    taus = [0.5] if n_tau == 1 else list(np.linspace(0.0, 1.0, n_tau))
    cloud: List[Tuple[float, float]] = []
    for tau in taus:
        cloud.extend(df_tau_slice(pent, bc, tau))
    pts = [
        BoundaryPoint(
            alpha21=x / (x + y) if x + y > 0.0 else 0.5,
            rates=RatePair(r21=x, r12=y),
            beamformer=None,
            p1=p1,
            p2=p2,
            p_relay=p_relay,
        )
        for x, y in _pareto_envelope(cloud)
    ]
    return RegionBoundary(points=pts)


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
    t_mac = mac_region(pair, p1, p2).ray_exit(profile)
    t_bc = bc_ray_exit(pair, p_relay, profile)
    if t_mac <= 0.0 or t_bc <= 0.0:
        return 0.0, 0.5
    tau = t_bc / (t_mac + t_bc)
    return t_mac * t_bc / (t_mac + t_bc), tau
