"""Optimal relay beamforming: power minimization, sum-rate maximization,
and rate-region tracing.

The SNR-constrained relay power minimization is a quadratically
constrained problem in b = vec(B), where vec stacks rows:
vec([[1, 2], [3, 4]]) = (1, 2, 3, 4). Expanding b into real and
imaginary halves turns it into an 8x8 real SDP with two constraints,
whose relaxation is tight: its one-dimensional dual gives the minimum
power and a rank-one minimizer exactly (see sdp.py). Boundary points
of the rate region come from bisection on the sum rate along rate-profile
rays; the capacity region is the Pareto envelope of boundaries over a
grid of source powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import c_ub0
from .errors import InvalidInputError
from .model import (
    Beamformer,
    ChannelPair,
    EffectiveChannel,
    PowerConfig,
    RatePair,
    effective,
    relay_power_reduced,
)
from .sdp import SdpProblem, extract_rank_one, solve_sdp

DEFAULT_DELTA_R = 1e-4
DEFAULT_N_PROFILES = 33
DEFAULT_POWER_GRID = 8


@dataclass(frozen=True)
class RateProfile:
    """Ray direction (alpha21, alpha12) on the rate simplex."""

    alpha21: float
    alpha12: float

    def __post_init__(self) -> None:
        if self.alpha21 < 0.0 or self.alpha12 < 0.0:
            raise InvalidInputError("profile weights must be nonnegative")
        if self.alpha21 + self.alpha12 != 1.0:
            raise InvalidInputError("profile weights must sum to 1 exactly")

    @staticmethod
    def of(alpha21: float) -> "RateProfile":
        return RateProfile(alpha21=alpha21, alpha12=1.0 - alpha21)


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


def _ray_exit(
    rates: Callable[[float], RatePair], lo: float, hi: float, profile: RateProfile
) -> float:
    """Largest t with (alpha21 t, alpha12 t) under a frontier traced by
    rates(x) for x in [lo, hi], along which r21 falls and r12 rises.

    Past either end the frontier runs on as a flat arm at that end's
    single-link maximum; between them bisection on the side of the ray
    lands on the crossing, and the better of the two adjacent floats
    around it gives the value.
    """
    right, left = rates(lo), rates(hi)
    if profile.alpha21 == 0.0:
        return left.r12
    if profile.alpha12 == 0.0:
        return right.r21

    def side(r: RatePair) -> float:
        return profile.alpha12 * r.r21 - profile.alpha21 * r.r12

    if side(left) >= 0.0:  # ray passes under the left corner: flat top
        return left.r12 / profile.alpha12
    if side(right) <= 0.0:  # ray passes over the right corner: flat side
        return right.r21 / profile.alpha21

    def value(x: float) -> float:
        r = rates(x)
        return min(r.r21 / profile.alpha21, r.r12 / profile.alpha12)

    below, above = _crossing(lambda x: side(rates(x)) > 0.0, lo, hi)
    return max(value(below), value(above))


@dataclass(frozen=True)
class QcqpBuild:
    """The quadratic forms of the vectorized power-min problem."""

    Theta: np.ndarray
    E0: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    prob: SdpProblem


@dataclass(frozen=True)
class BoundaryPoint:
    """One traced point of a rate-region boundary.

    `rates` is the point where the profile ray exits the region; the
    stored beamformer achieves at least these rates componentwise (its
    own rate pair can sit strictly above the ray on the unconstrained
    side).
    """

    alpha21: float
    rates: RatePair
    beamformer: Optional[Beamformer]  # None when no relay matrix applies
    p1: float
    p2: float
    p_relay: float  # relay power actually spent by the beamformer


@dataclass(frozen=True)
class RegionBoundary:
    """Boundary points ordered by increasing r21 and non-increasing r12,
    exact up to the bisection granularity of the producing trace."""

    points: List[BoundaryPoint]


def _theta_matrix(eff: EffectiveChannel, pc: PowerConfig) -> np.ndarray:
    return (
        pc.p1 * np.outer(eff.g1, eff.g1.conj())
        + pc.p2 * np.outer(eff.g2, eff.g2.conj())
        + np.eye(2)
    )


def _block_diag2(A: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = A
    out[2:, 2:] = A
    return out


def _snr_constraint_matrix(
    g_rx: np.ndarray, g_tx: np.ndarray, p_tx: float, gamma_bar: float
) -> np.ndarray:
    """E with b^H E b >= 1 encoding |g_rx^T B g_tx|^2 p_tx / (||B^T g_rx||^2 + 1) >= gamma_bar."""
    f = np.kron(g_rx, g_tx)
    G = np.kron(g_rx[None, :], np.eye(2))
    return (p_tx / gamma_bar) * np.outer(f.conj(), f) - G.conj().T @ G


def _realify(E: np.ndarray) -> np.ndarray:
    """Hermitian 4x4 form to the equivalent symmetric 8x8 real form."""
    Re, Im = np.real(E), np.imag(E)
    F = np.block([[Re, -Im], [Im, Re]])
    return 0.5 * (F + F.T)


def build_qcqp(
    eff: EffectiveChannel, pc: PowerConfig, gamma1_bar: float, gamma2_bar: float
) -> QcqpBuild:
    """Assemble the vectorized power-min problem for positive SNR targets.

    E0 carries the relay power as b^H E0 b; E1/E2 encode the two receiver
    SNR constraints as b^H E_i b >= 1. The 8x8 real expansion uses the
    block rule [[Re E, -Im E], [Im E, Re E]] on x = [Re b; Im b].
    """
    if gamma1_bar <= 0.0 or gamma2_bar <= 0.0:
        raise InvalidInputError("build_qcqp needs strictly positive SNR targets")
    Theta = _theta_matrix(eff, pc)
    E0 = _block_diag2(Theta.T)
    E1 = _snr_constraint_matrix(eff.g1, eff.g2, pc.p2, gamma1_bar)
    E2 = _snr_constraint_matrix(eff.g2, eff.g1, pc.p1, gamma2_bar)
    prob = SdpProblem(n=8, F0=_realify(E0), F1=_realify(E1), F2=_realify(E2))
    return QcqpBuild(Theta=Theta, E0=E0, E1=E1, E2=E2, prob=prob)


def _vec_to_matrix(x: np.ndarray) -> np.ndarray:
    """Inverse of the row-stacking vec plus real expansion: the first four
    entries are Re b, the last four Im b, rows of B in order."""
    b = x[:4] + 1j * x[4:]
    return b.reshape(2, 2)


def min_relay_power(
    eff: EffectiveChannel,
    pc: PowerConfig,
    gamma1_bar: float,
    gamma2_bar: float,
    tol: float = 1e-8,
) -> Tuple[float, Optional[np.ndarray]]:
    """Minimum relay power meeting the two receiver SNR targets.

    A zero target drops that link's constraint entirely. Returns
    (p_star, B); infeasible targets give (inf, None).

    Raises:
        InvalidInputError: if a target is negative.
        NumericalFailureError: propagated from solve_sdp when rounding
            leaves no rank-one point with a positive constraint form.
    """
    if gamma1_bar < 0.0 or gamma2_bar < 0.0:
        raise InvalidInputError("SNR targets must be nonnegative")
    if gamma1_bar == 0.0 and gamma2_bar == 0.0:
        return 0.0, np.zeros((2, 2), dtype=complex)
    # a silent source cannot support a positive SNR at its peer
    if (gamma1_bar > 0.0 and pc.p2 == 0.0) or (gamma2_bar > 0.0 and pc.p1 == 0.0):
        return math.inf, None

    if gamma1_bar > 0.0 and gamma2_bar > 0.0:
        prob = build_qcqp(eff, pc, gamma1_bar, gamma2_bar).prob
    else:
        Theta = _theta_matrix(eff, pc)
        if gamma1_bar > 0.0:
            E = _snr_constraint_matrix(eff.g1, eff.g2, pc.p2, gamma1_bar)
        else:
            E = _snr_constraint_matrix(eff.g2, eff.g1, pc.p1, gamma2_bar)
        prob = SdpProblem(n=8, F0=_realify(_block_diag2(Theta.T)), F1=_realify(E))

    sol = solve_sdp(prob, tol=tol)
    if sol.status == "infeasible":
        return math.inf, None
    x = extract_rank_one(sol, prob)
    B = _vec_to_matrix(x)
    return float(x @ prob.F0 @ x), B


def snr_targets(profile: RateProfile, r_sum: float) -> Tuple[float, float]:
    """Receiver SNRs that place the rate pair at r_sum along the profile ray."""
    return (
        2.0 ** (2.0 * profile.alpha21 * r_sum) - 1.0,
        2.0 ** (2.0 * profile.alpha12 * r_sum) - 1.0,
    )


def max_sum_rate(
    eff: EffectiveChannel,
    pc: PowerConfig,
    profile: RateProfile,
    delta_r: float = DEFAULT_DELTA_R,
) -> Tuple[float, np.ndarray]:
    """Largest sum rate whose profile-ray SNR targets fit the relay budget.

    Bisects r over [0, c_ub0] (a profile-independent upper bound on any
    achievable sum rate), shrinking the upper end whenever the power
    minimum exceeds P_R or is infeasible. Returns (r, B) with r within
    delta_r of the bracket top.

    Raises:
        InvalidInputError: if delta_r is not positive.
        NumericalFailureError: propagated from min_relay_power.
    """
    if delta_r <= 0.0:
        raise InvalidInputError("delta_r must be positive")
    B_lo = np.zeros((2, 2), dtype=complex)
    if pc.p_relay <= 0.0:
        return 0.0, B_lo
    r_lo = 0.0
    r_hi = c_ub0(pc, eff.theta1, eff.theta2)
    while r_hi - r_lo > delta_r:
        r = 0.5 * (r_lo + r_hi)
        g1b, g2b = snr_targets(profile, r)
        p_star, B = min_relay_power(eff, pc, g1b, g2b)
        if p_star <= pc.p_relay * (1.0 + 1e-9):
            r_lo, B_lo = r, B
        else:
            r_hi = r
    return r_lo, B_lo


def _order_boundary(points: Iterable[BoundaryPoint], tie: float) -> List[BoundaryPoint]:
    """Order by increasing r21, grouping near-ties (within tie) so that a
    vertical frontier arm, whose r21 values differ only by bisection
    noise, reads top-down in r12 instead of shuffling with the noise."""
    pts = sorted(points, key=lambda p: (p.rates.r21, -p.rates.r12))
    out: List[BoundaryPoint] = []
    group: List[BoundaryPoint] = []
    for p in pts:
        if group and p.rates.r21 - group[-1].rates.r21 > tie:
            out.extend(sorted(group, key=lambda q: -q.rates.r12))
            group = []
        group.append(p)
    out.extend(sorted(group, key=lambda q: -q.rates.r12))
    return out


def _prune_dominated(
    points: Sequence[BoundaryPoint], margin: float
) -> List[BoundaryPoint]:
    """Drop points weakly beaten in both coordinates and by margin in at
    least one by some other point. Points whose coordinates differ only
    within the margin (bisection noise on retraced frontier arms) keep
    each other, while boundaries of strictly smaller power cells go."""
    r21 = np.array([p.rates.r21 for p in points])
    r12 = np.array([p.rates.r12 for p in points])
    kept = []
    for i, p in enumerate(points):
        beaten = (
            (r21 >= r21[i] - 1e-12)
            & (r12 >= r12[i] - 1e-12)
            & ((r21 > r21[i] + margin) | (r12 > r12[i] + margin))
        )
        if np.any(beaten):
            continue
        kept.append(p)
    return kept


def rate_region_boundary(
    eff: EffectiveChannel,
    pc: PowerConfig,
    n_profiles: int = DEFAULT_N_PROFILES,
    delta_r: float = DEFAULT_DELTA_R,
) -> RegionBoundary:
    """Trace the achievable-region boundary with one ray per profile."""
    if n_profiles < 2:
        raise InvalidInputError("need at least two profiles")
    pts = []
    for i in range(n_profiles):
        profile = RateProfile.of(i / (n_profiles - 1))
        r_sum, B = max_sum_rate(eff, pc, profile, delta_r=delta_r)
        bf = Beamformer(B=B, U=eff.U)
        pts.append(
            BoundaryPoint(
                alpha21=profile.alpha21,
                rates=RatePair(r21=profile.alpha21 * r_sum, r12=profile.alpha12 * r_sum),
                beamformer=bf,
                p1=pc.p1,
                p2=pc.p2,
                p_relay=relay_power_reduced(bf, eff, pc),
            )
        )
    return RegionBoundary(points=_order_boundary(pts, tie=4.0 * delta_r))


def _power_grid(limit: float, count: int) -> np.ndarray:
    if count == 1:
        return np.array([limit])
    return np.geomspace(limit * 1e-2, limit, count)


def capacity_region(
    pair: ChannelPair,
    P1: float,
    P2: float,
    P_R: float,
    power_grid: int = DEFAULT_POWER_GRID,
    n_profiles: int = DEFAULT_N_PROFILES,
    delta_r: float = DEFAULT_DELTA_R,
) -> RegionBoundary:
    """Pareto envelope of boundaries over a source-power grid.

    The grid is log-spaced on (0, P] per axis, endpoint included, so the
    full-power region is always part of the union. Grid points are
    evaluated in a fixed order and merged deterministically.
    """
    if power_grid < 1:
        raise InvalidInputError("power_grid must be at least 1")
    eff = effective(pair)
    all_points: List[BoundaryPoint] = []
    for p1 in _power_grid(P1, power_grid):
        for p2 in _power_grid(P2, power_grid):
            pc = PowerConfig(p1=float(p1), p2=float(p2), p_relay=P_R)
            all_points.extend(rate_region_boundary(eff, pc, n_profiles, delta_r).points)
    return RegionBoundary(
        points=_order_boundary(_prune_dominated(all_points, 4.0 * delta_r), 4.0 * delta_r)
    )


def envelope_value(boundary: RegionBoundary, r21: float) -> float:
    """Largest r12 available on the boundary at first coordinate >= r21;
    -inf when the boundary does not reach that far."""
    best = -math.inf
    for p in boundary.points:
        if p.rates.r21 >= r21 - 1e-12:
            best = max(best, p.rates.r12)
    return best
