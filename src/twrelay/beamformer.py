"""Optimal relay beamforming: power minimization, sum-rate maximization,
and rate-region tracing.

The SNR-constrained relay power minimization is a quadratically
constrained problem in b = vec(B), where vec stacks rows:
vec([[1, 2], [3, 4]]) = (1, 2, 3, 4). Expanding b into real and
imaginary halves turns it into an 8x8 real SDP with two constraints,
whose relaxation is tight: its one-dimensional dual gives the minimum
power and a rank-one minimizer exactly (see sdp.py). One _PowerCell per
channel and power setting owns that problem: it builds the forms that do
not depend on the SNR targets once, and a set of targets only scales its
two signal terms. The same dual locates where a rate-profile ray leaves
the rate region without any solve: the cell whitens its forms once,
after which the dual's test for one sum rate and dual weight t is a 2x2
eigenvalue bound, the largest passing sum rate at t is a scalar root,
and the exit is its minimum over t. One power minimization at the exit
certifies it and gives the beamformer; where the solver's gap leaves
that just over budget, the beamformer scaled into the budget fixes the
rate instead. Boundaries come in profile order, which is their Pareto
order. On each ray the capacity region over a grid of source powers
reaches as far as the cell with the farthest exit, so that ray is traced
in that cell alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import _crossing, _golden_max
from .errors import InvalidInputError, NumericalFailureError
from .model import (
    LN2,
    Beamformer,
    ChannelPair,
    EffectiveChannel,
    PowerConfig,
    RatePair,
    effective,
    rate_pair_reduced,
    relay_power_reduced,
)
from .sdp import DEFAULT_TOL, SdpProblem, extract_rank_one, solve_sdp

DEFAULT_DELTA_R = 1e-4
DEFAULT_N_PROFILES = 33
DEFAULT_POWER_GRID = 8
# width of the final bracket on the dual weight t of a ray exit
EXIT_TOL = 1e-12


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
    """The vectorized power-min problem in its real 8x8 expansion."""

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
    """Boundary points ordered by non-decreasing r21 and non-increasing
    r12: traced boundaries in profile order, scheme sweeps sorted. A
    traced optimal point sits at most delta_r below where its ray leaves
    the region."""

    points: List[BoundaryPoint]


def _snr_forms(g_rx: np.ndarray, g_tx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(u, Q) with |g_rx^T B g_tx|^2 = |u^H b|^2 and ||B^T g_rx||^2 = b^H Q b."""
    G = np.kron(g_rx[None, :], np.eye(2))
    return np.kron(g_rx, g_tx).conj(), G.conj().T @ G


def _realify(E: np.ndarray) -> np.ndarray:
    """Hermitian 4x4 form to the equivalent symmetric 8x8 real form."""
    Re, Im = np.real(E), np.imag(E)
    F = np.block([[Re, -Im], [Im, Re]])
    return 0.5 * (F + F.T)


def build_qcqp(
    eff: EffectiveChannel, pc: PowerConfig, gamma1_bar: float, gamma2_bar: float
) -> QcqpBuild:
    """The vectorized power-min problem for positive SNR targets, as the
    power cell of (eff, pc) states it: x^T F0 x is the relay power and
    x^T F_i x >= 1 the two receiver SNR constraints, x = [Re b; Im b].
    """
    if gamma1_bar <= 0.0 or gamma2_bar <= 0.0:
        raise InvalidInputError("build_qcqp needs strictly positive SNR targets")
    return QcqpBuild(prob=_power_cell(eff, pc).problem(gamma1_bar, gamma2_bar))


def _vec_to_matrix(x: np.ndarray) -> np.ndarray:
    """Inverse of the row-stacking vec plus real expansion: the first four
    entries are Re b, the last four Im b, rows of B in order."""
    b = x[:4] + 1j * x[4:]
    return b.reshape(2, 2)


def min_relay_power(
    eff: EffectiveChannel, pc: PowerConfig, gamma1_bar: float, gamma2_bar: float
) -> Tuple[float, Optional[np.ndarray]]:
    """Minimum relay power meeting the two receiver SNR targets.

    A zero target drops that link's constraint entirely. Returns
    (p_star, B), with B scaled so that its own SNRs meet the tighter
    target exactly and p_star its power; infeasible targets give
    (inf, None).

    Raises:
        InvalidInputError: if a target is negative.
        NumericalFailureError: propagated from solve_sdp when rounding
            leaves no rank-one point with a positive constraint form, or
            when B's own SNRs cannot reach a target at any scale.
    """
    if gamma1_bar < 0.0 or gamma2_bar < 0.0:
        raise InvalidInputError("SNR targets must be nonnegative")
    if gamma1_bar == 0.0 and gamma2_bar == 0.0:
        return 0.0, np.zeros((2, 2), dtype=complex)
    # a silent source cannot support a positive SNR at its peer
    if (gamma1_bar > 0.0 and pc.p2 == 0.0) or (gamma2_bar > 0.0 and pc.p1 == 0.0):
        return math.inf, None

    prob = _power_cell(eff, pc).problem(gamma1_bar, gamma2_bar)
    sol = solve_sdp(prob)
    if sol.status == "infeasible":
        return math.inf, None
    x = extract_rank_one(sol, prob)
    B = _vec_to_matrix(x)
    scale = _target_scale(B, eff, pc, gamma1_bar, gamma2_bar)
    return scale * float(x @ prob.F0 @ x), math.sqrt(scale) * B


def _target_scale(
    B: np.ndarray, eff: EffectiveChannel, pc: PowerConfig, gamma1_bar: float, gamma2_bar: float
) -> float:
    """The power scale s at which sqrt(s) B meets its tighter SNR target
    exactly. At high powers the terms of the 8x8 real constraint forms
    reach 1e9 and more where the form itself is 1, so the value the
    solver scaled to 1 carries rounding of 1e-9 relative and more (a
    60 dB corpus shows it); the SNRs evaluated on B directly do not, and
    SNR(sqrt(s) B) = s num / (s noise + 1).

    Raises:
        NumericalFailureError: if B's own SNR forms leave a target
            unreachable at any scale.
    """
    scale = 0.0
    for g_rx, g_tx, p_tx, target in (
        (eff.g1, eff.g2, pc.p2, gamma1_bar),
        (eff.g2, eff.g1, pc.p1, gamma2_bar),
    ):
        if target > 0.0:
            excess = p_tx * abs(g_rx @ B @ g_tx) ** 2 - target * np.linalg.norm(B.T @ g_rx) ** 2
            if excess <= 0.0:
                raise NumericalFailureError("rank-one point misses an SNR target at every scale")
            scale = max(scale, target / float(excess))
    return scale


def snr_targets(profile: RateProfile, r_sum: float) -> Tuple[float, float]:
    """Receiver SNRs that place the rate pair at r_sum along the profile ray."""
    return (
        2.0 ** (2.0 * profile.alpha21 * r_sum) - 1.0,
        2.0 ** (2.0 * profile.alpha12 * r_sum) - 1.0,
    )


def _log_excess(c: float, r: float, X: float) -> Tuple[float, float]:
    """ln(gamma - X) for gamma = e^(c r) - 1, and its derivative in r.

    Written as c r + ln(1 - (1 + X) e^(-c r)), which stays finite for any
    c r; at or before the root of gamma = X it is -inf.
    """
    w = (1.0 + X) * math.exp(-c * r)
    if w >= 1.0:
        return -math.inf, math.inf
    return c * r + math.log1p(-w), c / (1.0 - w)


def _largest_passing(
    X: float, Y: float, s: float, c1: float, c2: float, start: Optional[float] = None
) -> float:
    """Largest r at which the 2x2 matrix [[x, k], [k, y]] with
    k^2 = s x y has an eigenvalue of at least 1, where x = X / gamma1(r),
    y = Y / gamma2(r), gamma_i(r) = e^(c_i r) - 1 and 0 <= s <= 1: that
    is, x >= 1, or y >= 1, or (1 - x)(1 - y) <= s x y.

    Up to lo one of x, y is at least 1. Past it the test reads
    phi(r) = ln(gamma1 - X) + ln(gamma2 - Y) - ln(s X Y) <= 0. phi is
    concave and e^phi - 1 convex, both increasing, so at any r past lo
    the Newton step of phi lands on a passing r and that of e^phi - 1 on
    a failing one; the two bounds close in quadratically. At hi,
    gamma1 >= 3X and gamma2 >= 3Y, so the test fails there. The Newton
    steps begin at start when it lies strictly inside (lo, hi), and at
    hi otherwise: a start near the root saves most of the steps, and
    the bounds and the stopping rule do not depend on it.
    """
    lo = max(math.log1p(X) / c1, math.log1p(Y) / c2)
    if s * X * Y == 0.0:
        return lo
    hi = max(math.log1p(3.0 * X) / c1, math.log1p(3.0 * Y) / c2)
    level = math.log(s * X * Y)
    a, b = lo, hi
    r = start if start is not None and lo < start < hi else hi
    for _ in range(100):
        f1, d1 = _log_excess(c1, r, X)
        f2, d2 = _log_excess(c2, r, Y)
        phi, slope = f1 + f2 - level, d1 + d2
        if phi == -math.inf:  # r rounds onto lo: it passes
            a = r
        else:
            a = max(a, r - phi / slope)
            if phi > -700.0:
                b = min(b, r + math.expm1(-phi) / slope)
        if b - a <= 4e-16 * b:
            break
        # a point that rounds onto lo gives no Newton step, so bisect
        r = a if lo < a != r else 0.5 * (a + b)
    return a


class _PowerCell:
    """The power-minimization problem of one channel and power setting,
    with the forms that do not depend on the SNR targets built once, in
    the real 8x8 expansion that the SDP sees: x = [Re b; Im b], and a
    Hermitian form E becomes [[Re E, -Im E], [Im E, Re E]].

    The power is b^H E0 b, E0 = diag(Theta^T, Theta^T) with
    Theta = p1 g1 g1^H + p2 g2 g2^H + I, and the constraints are
    b^H E_i b >= 1 with E_i = (p/gamma_i) u_i u_i^H - Q_i (p2, gamma1 for
    i = 1; p1, gamma2 for i = 2), from _snr_forms.

    By the exact dual of the power minimization, targets fit the budget
    P_R iff for every t in [0, 1] the matrix t E1 + (1 - t) E2 - E0/P_R
    has a nonnegative eigenvalue. With N(t) = t Q1 + (1 - t) Q2 + E0/P_R,
    positive definite, that holds iff the 2x2 matrix
    diag(a, c)^(1/2) K(t) diag(a, c)^(1/2), K(t) = W^H N(t)^-1 W with
    W = [u1 u2], a = t p2/gamma1 and c = (1 - t) p1/gamma2, has an
    eigenvalue of at least 1. Whitening N(0) = L L^H and diagonalizing
    L^-1 (Q1 - Q2) L^-H = V diag(mu) V^H gives K(t) exactly for every t
    as sum_j z_j^H z_j / (1 + t mu_j), z_j the rows of V^H L^-1 W;
    in the real expansion each mu_j appears twice.
    """

    def __init__(self, eff: EffectiveChannel, pc: PowerConfig) -> None:
        self.pc = pc
        theta = (
            pc.p1 * np.outer(eff.g1, eff.g1.conj())
            + pc.p2 * np.outer(eff.g2, eff.g2.conj())
            + np.eye(2)
        )
        self.F0 = _realify(np.kron(np.eye(2), theta.T))
        (u1, Q1), (u2, Q2) = _snr_forms(eff.g1, eff.g2), _snr_forms(eff.g2, eff.g1)
        self.u = (u1, u2)
        self.signal = (_realify(np.outer(u1, u1.conj())), _realify(np.outer(u2, u2.conj())))
        self.noise = (_realify(Q1), _realify(Q2))

    def problem(self, gamma1_bar: float, gamma2_bar: float) -> SdpProblem:
        """The SDP at these SNR targets; a zero target drops its constraint."""
        forms = [
            (p_tx / gamma) * S - N
            for p_tx, gamma, S, N in zip(
                (self.pc.p2, self.pc.p1), (gamma1_bar, gamma2_bar), self.signal, self.noise
            )
            if gamma > 0.0
        ]
        return SdpProblem(8, self.F0, *forms)

    @cached_property
    def terms(self) -> List[Tuple[float, float, float, float, float]]:
        """Per whitened direction j, mu_j and the products of z_j's
        entries whose sums over j weighted by 1/(1 + t mu_j) give k11,
        k22, Re k12 and Im k12. It needs a positive budget, so the first
        exit builds it, not the cell. With r(u) = [Re u; Im u],
        Re(u^H M v) = r(u)^T R(M) r(v) and Im(u^H M v) = -r(u)^T R(M) r(i v)."""
        Linv = np.linalg.inv(np.linalg.cholesky(self.noise[1] + self.F0 / self.pc.p_relay))
        mu, V = np.linalg.eigh(Linv @ (self.noise[0] - self.noise[1]) @ Linv.T)
        u1, u2 = self.u
        W = np.column_stack([np.concatenate([u.real, u.imag]) for u in (u1, u2, 1j * u2)])
        Z = V.T @ Linv @ W
        # Python floats keep each K(t) in scalar arithmetic
        return list(
            zip(
                mu.tolist(),
                (Z[:, 0] ** 2).tolist(),
                (Z[:, 1] ** 2).tolist(),
                (Z[:, 0] * Z[:, 1]).tolist(),
                (Z[:, 0] * Z[:, 2]).tolist(),
            )
        )

    def kernel(self, t: float) -> Tuple[float, float, float]:
        """(k11, k22, |k12|^2) of K(t)."""
        k11 = k22 = re12 = im12 = 0.0
        for mu, w11, w22, w12, v12 in self.terms:
            d = 1.0 + t * mu
            k11 += w11 / d
            k22 += w22 / d
            re12 += w12 / d
            im12 += v12 / d
        return k11, k22, re12 * re12 + im12 * im12

    def reach(self, t: float, c1: float, c2: float, start: Optional[float] = None) -> float:
        """r_hat(t): the largest sum rate that passes the test at weight t,
        for a ray with gamma_i(r) = e^(c_i r) - 1; start is a guess of it
        for the root search."""
        k11, k22, k12_sq = self.kernel(t)
        X = t * self.pc.p2 * k11
        Y = (1.0 - t) * self.pc.p1 * k22
        s = min(1.0, k12_sq / (k11 * k22)) if k11 * k22 > 0.0 else 0.0
        return _largest_passing(X, Y, s, c1, c2, start)

    def exit(self, profile: RateProfile) -> float:
        """r*: where the profile ray leaves the region, the minimum over t
        of r_hat(t), which is quasi-convex in t (the t failing at a given
        r form an interval). A ray along one axis keeps one constraint,
        whose dual weight is its end of [0, 1]. The golden section's
        weights close in on the minimum, so each r_hat root search
        starts from the r_hat found before it."""
        if profile.alpha21 == 0.0:
            return math.log1p(self.pc.p1 * self.kernel(0.0)[1]) / (2.0 * LN2)
        if profile.alpha12 == 0.0:
            return math.log1p(self.pc.p2 * self.kernel(1.0)[0]) / (2.0 * LN2)
        c1, c2 = 2.0 * profile.alpha21 * LN2, 2.0 * profile.alpha12 * LN2
        last = None

        def lower(t: float) -> float:
            nonlocal last
            last = self.reach(t, c1, c2, last)
            return -last

        _, low = _golden_max(lower, 0.0, 1.0, tol=EXIT_TOL)
        return min(-low, self.reach(0.0, c1, c2), self.reach(1.0, c1, c2))


def _power_cell(eff: EffectiveChannel, pc: PowerConfig) -> _PowerCell:
    """The cell of (eff, pc), built once and kept on eff, so that every
    ray of one boundary and every solve at one power setting share its
    forms and its whitening."""
    cell = eff.cells.get(pc)
    if cell is None:
        cell = eff.cells[pc] = _PowerCell(eff, pc)
    return cell


def max_sum_rate(
    eff: EffectiveChannel,
    pc: PowerConfig,
    profile: RateProfile,
    delta_r: float = DEFAULT_DELTA_R,
) -> Tuple[float, np.ndarray]:
    """Largest sum rate whose profile-ray SNR targets fit the relay budget.

    The ray's exit r* comes from the exact dual of the power minimization
    (see _PowerCell) with no solve. One min_relay_power solve at r*
    certifies it and gives the beamformer. When that solve reports
    p > P_R (1 + 1e-9), from rounding or from the solver's relative gap
    tol, its beamformer scaled to spend P_R / (1 + tol) fits the budget,
    and the rate returned is the smaller of r* and where the ray meets
    that beamformer's own rate pair. Returns (r, B): r at most delta_r
    below the exit, B meeting the targets at r within P_R (1 + 1e-9).

    Raises:
        InvalidInputError: if delta_r is not positive.
        NumericalFailureError: if the solve at r* finds its targets
            infeasible, or the scaled beamformer falls more than delta_r
            below r*; or propagated from min_relay_power.
    """
    if delta_r <= 0.0:
        raise InvalidInputError("delta_r must be positive")
    if pc.p_relay <= 0.0:
        return 0.0, np.zeros((2, 2), dtype=complex)
    r_exit = _power_cell(eff, pc).exit(profile)
    p_star, B = min_relay_power(eff, pc, *snr_targets(profile, r_exit))
    if p_star <= pc.p_relay * (1.0 + 1e-9):
        return r_exit, B
    if B is None:
        raise NumericalFailureError(f"the solve at the exit {r_exit!r} finds its targets infeasible")
    B = B * math.sqrt(pc.p_relay / ((1.0 + DEFAULT_TOL) * p_star))
    rates = rate_pair_reduced(B, eff, pc)
    r = r_exit
    for rate, alpha in ((rates.r21, profile.alpha21), (rates.r12, profile.alpha12)):
        if alpha > 0.0:
            r = min(r, float(rate) / alpha)
    if r < r_exit - delta_r:
        raise NumericalFailureError(
            f"the exit {r_exit!r} falls to {r!r} with its beamformer scaled into the budget"
        )
    return r, B


def _prune_dominated(points: Sequence[BoundaryPoint]) -> List[BoundaryPoint]:
    """Drop the points that another point weakly dominates: no worse in
    both rates and better in one, within 1e-12. Order is kept."""
    r = np.array([[p.rates.r21, p.rates.r12] for p in points])
    return [
        p
        for p, x in zip(points, r)
        if not np.any(np.all(r >= x - 1e-12, axis=1) & np.any(r > x + 1e-12, axis=1))
    ]


def _profiles(n_profiles: int) -> List[RateProfile]:
    if n_profiles < 2:
        raise InvalidInputError("need at least two profiles")
    return [RateProfile.of(i / (n_profiles - 1)) for i in range(n_profiles)]


def _boundary_point(
    eff: EffectiveChannel, pc: PowerConfig, profile: RateProfile, delta_r: float
) -> BoundaryPoint:
    """The traced point of one profile ray at one power setting."""
    r_sum, B = max_sum_rate(eff, pc, profile, delta_r=delta_r)
    bf = Beamformer(B=B, U=eff.U)
    return BoundaryPoint(
        alpha21=profile.alpha21,
        rates=RatePair(r21=profile.alpha21 * r_sum, r12=profile.alpha12 * r_sum),
        beamformer=bf,
        p1=pc.p1,
        p2=pc.p2,
        p_relay=relay_power_reduced(bf, eff, pc),
    )


def rate_region_boundary(
    eff: EffectiveChannel,
    pc: PowerConfig,
    n_profiles: int = DEFAULT_N_PROFILES,
    delta_r: float = DEFAULT_DELTA_R,
) -> RegionBoundary:
    """Trace the achievable-region boundary with one ray per profile, in
    profile order, which is the boundary's Pareto order.

    All rays see the same (eff, pc), so max_sum_rate whitens its forms
    at the first ray and keeps them on eff for the others.
    """
    return RegionBoundary(
        points=[_boundary_point(eff, pc, profile, delta_r) for profile in _profiles(n_profiles)]
    )


def _power_grid(limit: float, count: int) -> np.ndarray:
    if count == 1 or limit == 0.0:
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
    """Boundary of the union of rate regions over a source-power grid.

    The grid is log-spaced on (0, P] per axis, endpoint included, so the
    full-power region is always part of the union; a zero limit is the
    one setting 0. Each ray is traced only in the first cell, in p1-major
    order, whose exit is farthest. Points come in profile order, less
    those weakly dominated (the union's flat arms).
    """
    if power_grid < 1:
        raise InvalidInputError("power_grid must be at least 1")
    eff = effective(pair)
    cells = [
        PowerConfig(p1=float(p1), p2=float(p2), p_relay=P_R)
        for p1 in _power_grid(P1, power_grid)
        for p2 in _power_grid(P2, power_grid)
    ]
    points = []
    for profile in _profiles(n_profiles):
        # with no relay budget every ray stays at 0, and exits need one
        pc = max(cells, key=lambda c: _power_cell(eff, c).exit(profile)) if P_R > 0.0 else cells[0]
        points.append(_boundary_point(eff, pc, profile, delta_r))
    return RegionBoundary(points=_prune_dominated(points))


def envelope_value(boundary: RegionBoundary, r21: float) -> float:
    """Largest r12 available on the boundary at first coordinate >= r21;
    -inf when the boundary does not reach that far."""
    best = -math.inf
    for p in boundary.points:
        if p.rates.r21 >= r21 - 1e-12:
            best = max(best, p.rates.r12)
    return best
