"""Optimal relay beamforming: power minimization, sum-rate maximization,
and rate-region tracing.

The SNR-constrained relay power minimization is a quadratically
constrained problem in b = vec(B), vec stacking rows. With two
constraints its relaxation is tight, and its one-dimensional dual gives
the minimum power and a rank-one minimizer exactly (min_relay_power
solves it through sdp.py). The dual's matrix N(t) is a Kronecker sum
(Van Loan, "The ubiquitous Kronecker product", 2000), so a _PowerCell
per channel and power setting inverts it from two 2x2 eigenpairs, with
no cancellation at any budget. A ray leaves the rate region at the
minimum over the dual weight t of a scalar root r_hat(t), and the null
vector at t has a slack difference with the sign of r_hat'(t). The
package's one ITP search, bounds._crossing (Oliveira and Takahashi,
2020: at most one step more than bisection), brackets the sign's switch
to width 2^-40 to find the exit, and by complementary slackness the
null vectors at its bracket's ends give the beamformer, with no solve,
in Python floats down to its power and rates (the evaluator of
model.rate_pair_reduced): the reduced channels are real, so every
traced B is too. Boundaries come in profile order, their Pareto
order; on each ray the capacity region over a grid of source powers
reaches as far as the cell with the farthest exit. Only cells with one
source at full power can be that cell: scaling both source powers by
c > 1 and B back to the budget raises every positive SNR.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import _crossing
from .errors import InvalidInputError, NumericalFailureError
from .model import (
    LN2,
    ChannelPair,
    EffectiveChannel,
    PowerConfig,
    RatePair,
    _evaluate_2x2,
    _link_forms,
    _rate,
    effective,
)
from .sdp import SdpProblem, _zero_form_steps, extract_rank_one, solve_sdp

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


def _ray_exit(
    rates: Callable[[float], RatePair], lo: float, hi: float, profile: RateProfile
) -> float:
    """Largest t with (alpha21 t, alpha12 t) under a frontier traced by
    rates(x) for x in [lo, hi], along which r21 falls and r12 rises.

    Past either end the frontier runs on as a flat arm at that end's
    single-link maximum; between them the crossing search on the ray's
    side, alpha12 r21 - alpha21 r12, whose values at the two ends it
    already holds, lands on the crossing, and the better of the two
    adjacent floats around it gives the value.
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

    below, above = _crossing(lambda x: side(rates(x)), lo, hi, side(right), side(left))
    return max(value(below), value(above))


@dataclass(frozen=True)
class QcqpBuild:
    """The vectorized power-min problem in its real 8x8 expansion."""

    prob: SdpProblem


_COLUMNS = ("alpha21", "r21", "r12", "p1", "p2", "p_relay", "B")


@dataclass(frozen=True, eq=False)
class RegionBoundary:
    """A rate-region boundary as columns, one row per point, ordered by
    non-decreasing r21 and non-increasing r12 in the order the points are
    traced: traced boundaries in profile order, scheme sweeps in falling
    angle. A traced optimal point sits at most delta_r below where its
    ray leaves the region.

    alpha21, r21, r12, p1, p2 and p_relay are float64 arrays of length n,
    p_relay the relay power each row's beamformer actually spends. B is the
    (n, 2, 2) stack of the rows' reduced relay matrices, real in every traced
    or swept boundary, and U the isometry they lift through. Row k's
    beamformer Beamformer(B=B[k], U=U) reaches at least the row's rates
    componentwise; its own rate pair can sit above the ray on the
    unconstrained side.
    """

    alpha21: np.ndarray
    r21: np.ndarray
    r12: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p_relay: np.ndarray
    B: np.ndarray
    U: np.ndarray

    def _rows(self, index: np.ndarray) -> "RegionBoundary":
        """The boundary of the rows that index selects."""
        return RegionBoundary(*(getattr(self, name)[index] for name in _COLUMNS), U=self.U)


def _snr_forms(g_rx: np.ndarray, g_tx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(u, Q) with |g_rx^T B g_tx|^2 = |u^H b|^2 and ||B^T g_rx||^2 = b^H Q b:
    u = conj(vec(g_rx g_tx^T)), Q = conj(g_rx) g_rx^T on the even and the odd b_k."""
    Q = np.zeros((4, 4), dtype=complex)
    Q[0::2, 0::2] = Q[1::2, 1::2] = np.outer(g_rx.conj(), g_rx)
    return np.outer(g_rx, g_tx).ravel().conj(), Q


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
    return QcqpBuild(prob=_PowerCell(eff, pc).problem(gamma1_bar, gamma2_bar))


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

    prob = _PowerCell(eff, pc).problem(gamma1_bar, gamma2_bar)
    sol = solve_sdp(prob)
    if sol.status == "infeasible":
        return math.inf, None
    x = extract_rank_one(sol, prob)
    B = (x[:4] + 1j * x[4:]).reshape(2, 2)  # [Re b; Im b], rows of B in order
    scale = _target_scale(B, eff, pc, gamma1_bar, gamma2_bar)
    return scale * float(x @ prob.F0 @ x), math.sqrt(scale) * B


def _target_scale(
    B: np.ndarray, eff: EffectiveChannel, pc: PowerConfig, gamma1_bar: float, gamma2_bar: float
) -> float:
    """The power scale s at which sqrt(s) B meets its tighter SNR target
    exactly, from the SNRs of B itself: at high powers the 8x8 real forms
    that the solver scaled to 1 carry rounding of 1e-9 relative and more.
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
    With d = c r - ln(1 + X), gamma - X = (1 + X) expm1(d): the value is
    ln(1 + X) + ln(expm1(d)), the last written d + ln(1 - e^(-d)) past
    d = 1 so that nothing overflows, the derivative c / (1 - e^(-d)), and
    at or before the root of gamma = X the value is -inf."""
    lx = math.log1p(X)
    d = c * r - lx
    if d <= 0.0:
        return -math.inf, math.inf
    tail = math.log(math.expm1(d)) if d < 1.0 else d + math.log1p(-math.exp(-d))
    return lx + tail, c / -math.expm1(-d)


def _over_gamma(p: float, x: float) -> float:
    """p / (e^x - 1) for x > 0, written so that no large x overflows."""
    return p * math.exp(-x) / -math.expm1(-x)


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
    """The power-minimization problem of one channel and power setting.

    The power is b^H E0 b, E0 = I (x) Theta^T with
    Theta = p1 g1 g1^H + p2 g2 g2^H + I, and the constraints are
    b^H E_i b >= 1 with E_i = (p/gamma_i) u_i u_i^H - Q_i (p2, gamma1 for
    i = 1; p1, gamma2 for i = 2), from _snr_forms; the SDP sees them in
    the real 8x8 expansion x = [Re b; Im b]. By the exact dual, targets
    fit the budget P_R iff for every t in [0, 1] the matrix
    t E1 + (1 - t) E2 - E0/P_R = W D W^H - N(t), with W = [u1 u2],
    D = diag(t p2/gamma1, (1 - t) p1/gamma2) and
    N(t) = t Q1 + (1 - t) Q2 + E0/P_R, has a nonnegative eigenvalue: iff
    D K(t), K(t) = W^H N(t)^-1 W, has an eigenvalue of at least 1. Where
    it is 1 with eigenvector g, N(t)^-1 W g is a null vector of the dual
    matrix. N(t) = A(t) (x) I + I (x) Theta^T/P_R is a Kronecker sum with
    A(t) = G diag(t, 1 - t) G^H, G = [conj(g1) conj(g2)]: N(t)^-1 sums
    (A(t) + c_j I)^-1 (x) v_j v_j^H over the eigenpairs (theta_j, v_j) of
    Theta^T, c_j = theta_j/P_R. With S = G^H G = [[a1, x], [x*, a2]],
    Delta = det S, d_j = Delta/c_j, P1 = (1 - t) d_j + a1, P2 = t d_j + a2
    and den_j = t P1 + (1 - t) a2 + c_j, G^H (A(t) + c_j I)^-1 G is
    [[P1, x], [x*, P2]]/den_j: sums of nonnegative terms at any budget.
    The reduced channels are real, so the cell computes in Python floats.
    """

    def __init__(self, eff: EffectiveChannel, pc: PowerConfig) -> None:
        self.eff, self.pc = eff, pc
        self.g = (eff.g1.tolist(), eff.g2.tolist())

    def problem(self, gamma1_bar: float, gamma2_bar: float) -> SdpProblem:
        """The SDP at these SNR targets; a zero target drops its constraint."""
        eff, pc = self.eff, self.pc
        theta = pc.p1 * np.outer(eff.g1, eff.g1.conj()) + pc.p2 * np.outer(eff.g2, eff.g2.conj()) + np.eye(2)
        E0 = np.zeros((4, 4), dtype=complex)
        E0[:2, :2] = E0[2:, 2:] = theta.T
        links = ((pc.p2, gamma1_bar, _snr_forms(eff.g1, eff.g2)), (pc.p1, gamma2_bar, _snr_forms(eff.g2, eff.g1)))
        forms = [_realify((p_tx / gamma) * np.outer(u, u.conj()) - Q) for p_tx, gamma, (u, Q) in links if gamma > 0.0]
        return SdpProblem(8, _realify(E0), *forms)

    @cached_property
    def spectrum(self) -> Tuple[float, float, float, list]:
        """(a1, a2, x, terms): a_i = ||g_i||^2, x = g1^T g2, and per
        eigenpair (theta, v) of Theta^T the term (c, d, eta1, eta2, v0, v1),
        eta1 = v^T g2, eta2 = v^T g1. Theta^T - I has determinant
        p1 p2 Delta: its smaller eigenvalue is that over the larger."""
        (x0, x1), (y0, y1) = self.g
        p1, p2, budget = self.pc.p1, self.pc.p2, self.pc.p_relay
        delta = (x0 * y1 - x1 * y0) ** 2
        p, r = p1 * x0 * x0 + p2 * y0 * y0, p1 * x1 * x1 + p2 * y1 * y1
        q, half = p1 * x0 * x1 + p2 * y0 * y1, 0.5 * (p - r)
        root = math.hypot(half, q)
        top = 0.5 * (p + r) + root
        low = p1 * delta / top * p2 if top > 0.0 else 0.0
        v0, v1 = (half + root, q) if half >= 0.0 else (q, root - half)
        norm = math.hypot(v0, v1)
        v0, v1 = (v0 / norm, v1 / norm) if norm > 0.0 else (1.0, 0.0)  # 0 at Theta = I
        pairs = (((1.0 + top) / budget, v0, v1), ((1.0 + low) / budget, -v1, v0))
        terms = [(c, delta / c, w0 * y0 + w1 * y1, w0 * x0 + w1 * x1, w0, w1) for c, w0, w1 in pairs]
        return x0 * x0 + x1 * x1, y0 * y0 + y1 * y1, x0 * y0 + x1 * y1, terms

    def null_vector(self, t: float, g: tuple) -> List[float]:
        """b = N(t)^-1 W g, the dual matrix's null vector at weight t and
        top eigenvector g, as the entries (b0, b1, b2, b3) of
        B = [[b0, b1], [b2, b3]]: the sum over j of G h_j v_j^T with
        h_j = adj(T S + c_j I) (g_1 eta1_j, g_2 eta2_j) / (c_j den_j),
        T = diag(t, 1 - t) and c_j den_j = det(T S + c_j I)."""
        a1, a2, x, terms = self.spectrum
        (x0, x1), (y0, y1) = self.g
        u, (gx, gy), b0, b1, b2, b3 = 1.0 - t, g, 0.0, 0.0, 0.0, 0.0
        for c, d, eta1, eta2, v0, v1 in terms:
            q, f1, f2 = 1.0 / (t * (u * d + a1) + u * a2 + c), gx * eta1 / c, gy * eta2 / c
            h1, h2 = ((u * a2 + c) * f1 - t * x * f2) * q, ((t * a1 + c) * f2 - u * x * f1) * q
            w0, w1 = h1 * x0 + h2 * y0, h1 * x1 + h2 * y1
            b0, b1, b2, b3 = b0 + w0 * v0, b1 + w0 * v1, b2 + w1 * v0, b3 + w1 * v1
        return [b0, b1, b2, b3]

    def probe(self, t: float, c1: float, c2: float, start: Optional[float] = None) -> tuple:
        """(r_hat(t), g, gap) on a ray with gamma_i(r) = e^(c_i r) - 1,
        c_i > 0: the largest sum rate passing the test at weight t (start
        guesses it), the top eigenvector g of D K(t) there, and the slack
        difference gap = b^H (E1 - E2) b of b = N(t)^-1 W g, which has
        the sign of r_hat'(t); b^H (Q1 - Q2) b is g^H M g, M = -K'(t), whose
        blocks [[P1^2 - |x|^2, x (P1 - P2)], [x* (P1 - P2), |x|^2 - P2^2]]/den_j^2
        (by c_j d_j = Delta) take no difference of terms that grow with P_R."""
        a1, a2, x, terms = self.spectrum
        u, k11, k22, m11, m22, k12, m12 = 1.0 - t, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        for c, d, eta1, eta2, _, _ in terms:
            q, w11, w22, w12 = 1.0 / (t * (u * d + a1) + u * a2 + c), eta1 * eta1, eta2 * eta2, eta1 * eta2
            e1, e2, e = (u * d + a1) * q, (t * d + a2) * q, x * q
            k11, k22, k12 = k11 + w11 * e1, k22 + w22 * e2, k12 + w12 * q
            m11, m22 = m11 + w11 * (e1 * e1 - e * e), m22 + w22 * (e * e - e2 * e2)
            m12 += w12 * ((1.0 - 2.0 * t) * d + a1 - a2) * q * q
        k12, m12 = x * k12, x * m12
        p1, p2, k12_sq = self.pc.p1, self.pc.p2, k12 * k12
        s = min(1.0, k12_sq / (k11 * k22)) if k11 * k22 > 0.0 else 0.0
        r = _largest_passing(t * p2 * k11, (1.0 - t) * p1 * k22, s, c1, c2, start)
        if r == 0.0:  # a silent source
            return r, None, 0.0
        e1, e2 = _over_gamma(p2, c1 * r), _over_gamma(p1, c2 * r)
        a, c = t * e1 * k12, (1.0 - t) * e2 * k12  # D K's off-diagonal entries, a c finite at any budget
        # of the eigenvector's two forms, the one in which nothing cancels
        half = 0.5 * (t * e1 * k11 - (1.0 - t) * e2 * k22)
        root = math.sqrt(half * half + a * c)
        if half < 0.0:
            x, y = a, root - half
        else:  # at D K = 0 or a multiple of I every vector is a top one
            x, y = (half + root, c) if root > 0.0 else (1.0, 0.0)
        w1, w2 = k11 * x + k12 * y, k12 * x + k22 * y
        noise = m11 * x * x + m22 * y * y + 2.0 * x * m12 * y
        return r, (x, y), e1 * w1 * w1 - e2 * w2 * w2 - noise

    def exit(self, profile: RateProfile) -> Tuple[float, tuple]:
        """(r*, ends): where the profile ray leaves the region, the minimum
        over t of r_hat(t), which is quasi-convex in t (the t failing at a
        given r form an interval), and the (t, g) whose null vectors give
        its beamformer, none for an exit of 0, as with no relay budget. A
        ray along one axis keeps one constraint, whose dual weight is its
        end of [0, 1]. Otherwise an end whose gap points inward (the lower
        end, where rounding flips a gap's sign) is the minimum, or
        bounds._crossing on -gap (positive before the minimum) brackets it
        to width 2^-40 in at most 41 steps, each root search starting from
        the one before, and r* is the least r_hat seen."""
        if self.pc.p_relay == 0.0:
            return 0.0, ()
        if profile.alpha21 == 0.0 or profile.alpha12 == 0.0:
            t = profile.alpha21  # the kept constraint's end of [0, 1]
            a1, a2, _, terms = self.spectrum
            a, p_tx, k = (a1, self.pc.p2, 2) if t else (a2, self.pc.p1, 3)  # p2 K11(1) or p1 K22(0)
            gain = p_tx * sum(term[k] ** 2 * (a / (a + term[0])) for term in terms)
            r = _rate(gain)
            return r, ((t, (t, 1.0 - t)),) if r > 0.0 else ()
        c1, c2 = 2.0 * profile.alpha21 * LN2, 2.0 * profile.alpha12 * LN2
        (r_lo, g_lo, gap_lo), (r_hi, g_hi, gap_hi) = self.probe(0.0, c1, c2), self.probe(1.0, c1, c2)
        if min(r_lo, r_hi) == 0.0:
            return 0.0, ()
        if gap_lo >= 0.0 or gap_hi <= 0.0:  # an end is the minimum, with its unit top eigenvector
            t = 1.0 if r_hi < r_lo or (r_hi == r_lo and gap_lo < 0.0) else 0.0
            return (r_hi if t else r_lo), ((t, (t, 1.0 - t)),)
        r_star, r, top = min(r_lo, r_hi), None, {0.0: g_lo, 1.0: g_hi}  # top: each probe's g, by t

        def side(t: float) -> float:
            nonlocal r_star, r
            r, top[t], gap = self.probe(t, c1, c2, r)
            r_star = min(r_star, r)
            return -gap

        lo, hi = _crossing(side, 0.0, 1.0, -gap_lo, -gap_hi, 2.0**-40)
        return r_star, ((lo, top[lo]), (hi, top[hi]))


def max_sum_rate(
    eff: EffectiveChannel,
    pc: PowerConfig,
    profile: RateProfile,
    delta_r: float = DEFAULT_DELTA_R,
) -> Tuple[float, np.ndarray]:
    """Largest sum rate whose profile-ray SNR targets fit the relay budget.

    One search over the dual weight gives the ray's exit r* and its
    beamformer, with no solve (see _PowerCell.exit and _traced). Returns
    (r, B): B spends exactly P_R, and r = min(r*, B's own ray value).

    Raises:
        InvalidInputError: if delta_r is not positive.
        NumericalFailureError: if B falls more than delta_r below r*, or
            its relay power, matrix or rates are not finite.
    """
    cell = _PowerCell(eff, pc)
    return _traced(cell, profile, cell.exit(profile), delta_r)[:2]


def _unit(b: list) -> list:
    """b times the power of two that puts its largest entry in [1/2, 1)."""
    top = max(map(abs, b))
    if top == 0.0:  # a zero vector has no direction to scale
        raise NumericalFailureError("a null vector of the dual matrix is 0")
    k = -math.frexp(top)[1]
    return [math.ldexp(v, k) for v in b]


def _traced(
    cell: _PowerCell, profile: RateProfile, found: tuple, delta_r: float
) -> Tuple[float, np.ndarray, float]:
    """max_sum_rate's (r, B) from the cell's exit (r*, ends), and the
    relay power B spends, in Python floats. By complementary slackness
    the beamformer is a null vector at t* with equal slack on both
    constraints: bracket ends whose gaps at r* have opposite signs
    combine to gap zero (see _slack_forms), else each end is a candidate.
    Each candidate comes at unit scale (_unit), scaled to spend P_R, and
    the one reaching farthest on the ray wins (_farthest). Where it falls
    short of r* by more than rounding, N(1/2)^-1 (u_1 +- u_2) are tried
    too: where P_R does not bind, each N(1/2)^-1 u_i keeps link i at its
    one-way maximum, and their sum reaches the corner of the nearly
    rectangular region, at or past every ray's exit, while the bracket's
    ends give no such vector (r_hat is flat on the corner's ray, and t*
    can lie inside the bracket's 2^-40 width on the others).

    Raises:
        InvalidInputError: if delta_r is not positive.
        NumericalFailureError: if a candidate is 0, its relay power,
            matrix or rates are not finite, or the winner falls more than
            delta_r below r*.
    """
    if delta_r <= 0.0:
        raise InvalidInputError("delta_r must be positive")
    r_star, ends = found
    if not ends:
        return 0.0, np.zeros((2, 2)), 0.0
    pc, (g1, g2) = cell.pc, cell.g
    vectors = [_unit(cell.null_vector(t, g)) for t, g in ends]
    if len(vectors) == 2:
        e1, e2 = (_over_gamma(p, 2.0 * a * LN2 * r_star) for p, a in ((pc.p2, profile.alpha21), (pc.p1, profile.alpha12)))
        d_lo, cross, d_hi = _slack_forms(*vectors, g1, g2, e1, e2)
        if d_lo < 0.0 < d_hi:
            lo, hi = vectors
            vectors = [_unit([v + step * w for v, w in zip(lo, hi)]) for step in _zero_form_steps(d_lo, d_hi, cross)]
    best = _farthest(cell, profile, r_star, vectors)
    if not best[0] >= r_star * (1.0 - 1e-12):  # more than rounding short
        with contextlib.suppress(NumericalFailureError):  # a failed extra candidate leaves best as it is
            v, w = (_unit(cell.null_vector(0.5, g)) for g in ((1.0, 0.0), (0.0, 1.0)))
            sums = [_unit([x + k * y for x, y in zip(v, w)]) for k in (1.0, -1.0)]
            best = max(best, _farthest(cell, profile, r_star, sums), key=lambda item: item[0])
    r, B, power = best
    if not r >= r_star - delta_r:
        raise NumericalFailureError(f"the exit {float(r_star)!r} falls to {float(r)!r} with its beamformer")
    return r, np.array(B).reshape(2, 2), power


def _farthest(cell: _PowerCell, profile: RateProfile, r_star: float, vectors: list) -> tuple:
    """(min(r*, B's ray value), B, power) of the unit vector whose B, scaled
    to spend P_R, reaches farthest, by model._evaluate_2x2 (rate_pair_reduced's)."""
    pc, (g1, g2) = cell.pc, cell.g
    best = (-math.inf, None, None)
    for b in vectors:
        spent = _evaluate_2x2(b, g1, g2, pc.p1, pc.p2)[0]  # at least ||b||^2 >= 1/4
        if not math.isfinite(spent):
            raise NumericalFailureError(f"the exit {float(r_star)!r} gives a beamformer of relay power {spent!r}")
        scale = math.sqrt(pc.p_relay / spent)
        B = [x * scale for x in b]
        power, s21, s12 = _evaluate_2x2(B, g1, g2, pc.p1, pc.p2)
        r21, r12 = _rate(s21), _rate(s12)
        if not (math.isfinite(scale) and math.isfinite(r21 + r12)):
            cause = "gives a beamformer whose matrix or rates are not finite"
            raise NumericalFailureError(f"the exit {float(r_star)!r} {cause}")
        value = min(r_star, *(x / a for x, a in ((r21, profile.alpha21), (r12, profile.alpha12)) if a > 0.0))
        if value > best[0]:
            best = (value, B, power)
    return best


def _slack_forms(lo: list, hi: list, g1: list, g2: list, e1: float, e2: float) -> Tuple[float, float, float]:
    """v^T (E1 - E2) w of (v, w) = (lo, lo), (lo, hi) and (hi, hi),
    with E_i = e_i u_i u_i^H - Q_i, from u_1^H b = g1^T B g2,
    u_2^H b = g2^T B g1 and B^T g_i of each vector b = vec(B): the Q_i
    forms are the inner products of the B^T g_i (model._link_forms)."""

    def form(v: tuple, w: tuple) -> float:
        a, c, (n0, n1), (m0, m1) = v
        a_, c_, (n0_, n1_), (m0_, m1_) = w
        noise = n0 * n0_ + n1 * n1_ - m0 * m0_ - m1 * m1_
        return e1 * (a * a_) - e2 * (c * c_) - noise

    v, w = _link_forms(lo, g1, g2), _link_forms(hi, g1, g2)
    return form(v, v), form(v, w), form(w, w)


def _prune_dominated(r21: np.ndarray, r12: np.ndarray) -> np.ndarray:
    """Indices of the points that survive dropping those another point
    weakly dominates (no worse in both rates and better in one, within
    1e-12), and of the points equal within 1e-12 all but the first. Order
    is kept."""
    r = np.column_stack((r21, r12))
    no_worse = np.all(r[None, :] >= r[:, None] - 1e-12, axis=2)  # [i, j]: j no worse than i
    ahead = np.any(r[None, :] > r[:, None] + 1e-12, axis=2) | np.tri(len(r), k=-1, dtype=bool)
    return np.flatnonzero(~np.any(no_worse & ahead, axis=1))


def _profiles(n_profiles: int) -> List[RateProfile]:
    if n_profiles < 2:
        raise InvalidInputError("need at least two profiles")
    return [RateProfile.of(i / (n_profiles - 1)) for i in range(n_profiles)]


def _trace(cells: Sequence[_PowerCell], n_profiles: int, delta_r: float) -> RegionBoundary:
    """One row per profile, in profile order, each traced from the exit
    search of the first of the cells whose exit is farthest, with the
    relay power that _traced evaluates for its beamformer."""
    profiles, n = _profiles(n_profiles), n_profiles
    alpha21 = np.array([profile.alpha21 for profile in profiles])
    won, r_sum, p_relay, B = np.empty(n, dtype=int), np.empty(n), np.empty(n), np.empty((n, 2, 2))
    for i, profile in enumerate(profiles):
        won[i], found = max(((k, cell.exit(profile)) for k, cell in enumerate(cells)), key=lambda item: item[1][0])
        r_sum[i], B[i], p_relay[i] = _traced(cells[won[i]], profile, found, delta_r)
    powers = np.array([(cell.pc.p1, cell.pc.p2) for cell in cells], dtype=np.float64)[won]
    r21, r12 = alpha21 * r_sum, (1.0 - alpha21) * r_sum
    return RegionBoundary(alpha21, r21, r12, powers[:, 0], powers[:, 1], p_relay, B=B, U=cells[0].eff.U)


def rate_region_boundary(
    eff: EffectiveChannel,
    pc: PowerConfig,
    n_profiles: int = DEFAULT_N_PROFILES,
    delta_r: float = DEFAULT_DELTA_R,
) -> RegionBoundary:
    """Trace the achievable-region boundary with one ray per profile, in
    profile order, which is the boundary's Pareto order. All rays see the
    same (eff, pc), so they share one power cell."""
    return _trace([_PowerCell(eff, pc)], n_profiles, delta_r)


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

    The grid is log-spaced on (0, P] per axis, endpoint included; a zero
    limit is the one setting 0. Only the 2 grid - 1 edge cells, p1 = P1
    or p2 = P2, are searched, in p1-major order. No other cell wins a
    ray: the axes are ladders of one ratio, so scaling a cell's source
    powers by c = min(P1/p1, P2/p2) > 1 lands on an edge cell. A B that
    spends a + b at the cell, b = ||B||^2 > 0, spends c a + b at the edge
    cell, so its budget scale s = P_R/(a + b) becomes s' = P_R/(c a + b),
    s' <= s < c s', and each SNR c p num s'/(s' noise + 1) rises strictly
    where num > 0. _trace takes each ray's first farthest edge cell, as
    the full grid would; points come in profile order, less those weakly
    dominated (the union's flat arms) and repeated (rays that stay at 0).
    Equal limits share one grid.
    """
    if power_grid < 1:
        raise InvalidInputError("power_grid must be at least 1")
    eff = effective(pair)
    p1_grid = _power_grid(P1, power_grid)
    p2_grid = p1_grid if P2 == P1 else _power_grid(P2, power_grid)
    edges = [(p1, p2_grid[-1]) for p1 in p1_grid[:-1].tolist()] + [(p1_grid[-1], p2) for p2 in p2_grid.tolist()]
    cells = [_PowerCell(eff, PowerConfig(p1=float(p1), p2=float(p2), p_relay=P_R)) for p1, p2 in edges]
    boundary = _trace(cells, n_profiles, delta_r)
    return boundary._rows(_prune_dominated(boundary.r21, boundary.r12))

