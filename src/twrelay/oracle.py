"""Derivative-free reference optimizer for cross-checking the solvers.

No SDP machinery is involved: the rates and powers are written out from
the channel definitions in the reduced frame, and the search is a
restarted compass pattern search over the 8 real parameters of the
relay matrix. Witnesses are full relay matrices, so tests can re-verify
them through the full-size evaluators; agreement with the main pipeline
is then evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .beamformer import RateProfile
from .errors import InvalidInputError
from .model import Beamformer, EffectiveChannel, PowerConfig

DEFAULT_RESTARTS = 64
DEFAULT_ITERS = 2000
_DIM = 8  # real parameters of a 2x2 complex matrix


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an oracle run.

    value is the best objective found (math.inf for an infeasible power
    minimization); witness is the full relay matrix achieving it, or
    None when no feasible point was found.
    """

    value: float
    witness: Optional[np.ndarray]


def _unpack(X: np.ndarray) -> np.ndarray:
    """(N, 8) real rows to (N, 2, 2) complex matrices."""
    return (X[:, :4] + 1j * X[:, 4:]).reshape(-1, 2, 2)


def _link_terms(
    Bs: np.ndarray, u1: np.ndarray, u2: np.ndarray, pc: PowerConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched signal, forwarded-noise, and power quadratics.

    With A = conj(U) B U^H and orthonormal U the products collapse to
    two-dimensional ones: h1^T A h2 = g1^T B g2, ||A^H h1*|| =
    ||B^H g1*||, and the power terms lose the basis factors entirely.
    """
    c = np.einsum("i,nij,j->n", u1, Bs, u2)
    d = np.einsum("i,nij,j->n", u2, Bs, u1)
    BH = Bs.conj().transpose(0, 2, 1)
    m1 = np.einsum("nij,j->ni", BH, u1.conj())
    m2 = np.einsum("nij,j->ni", BH, u2.conj())
    m1 = np.real(np.einsum("ni,ni->n", m1, m1.conj()))
    m2 = np.real(np.einsum("ni,ni->n", m2, m2.conj()))
    t1 = np.einsum("nij,j->ni", Bs, u1)
    t2 = np.einsum("nij,j->ni", Bs, u2)
    power = (
        pc.p1 * np.real(np.einsum("ni,ni->n", t1, t1.conj()))
        + pc.p2 * np.real(np.einsum("ni,ni->n", t2, t2.conj()))
        + np.real(np.einsum("nij,nij->n", Bs, Bs.conj()))
    )
    return np.abs(c) ** 2, np.abs(d) ** 2, m1, m2, power


def _matched_family(u1: np.ndarray, u2: np.ndarray, count: int) -> np.ndarray:
    """Matched-filter directions over a fan of link weightings."""
    rows = []
    for k in range(count):
        ang = 0.5 * math.pi * k / max(count - 1, 1)
        B = math.sin(ang) * np.outer(u2.conj(), u1.conj()) + math.cos(ang) * np.outer(
            u1.conj(), u2.conj()
        )
        rows.append(np.concatenate([B.real.ravel(), B.imag.ravel()]))
    return np.array(rows)


def _compass_search(objective, X0: np.ndarray, n_iters: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized compass search, all restarts advancing in lockstep.

    objective maps (N, 8) rows to values to MAXIMIZE (use negation for
    minimization). Each iteration offers every restart the 16 axis
    moves at its own step size; restarts that cannot improve shrink
    their step, the rest keep or grow it.
    """
    X = X0.copy()
    F = objective(X)
    R = X.shape[0]
    step = np.full(R, 0.25)
    moves = np.concatenate([np.eye(_DIM), -np.eye(_DIM)])  # (16, 8)
    for _ in range(n_iters):
        if np.all(step < 1e-12):
            break
        cand = X[None, :, :] + step[None, :, None] * moves[:, None, :]
        vals = objective(cand.reshape(-1, _DIM)).reshape(2 * _DIM, R)
        k = np.argmax(vals, axis=0)
        best = vals[k, np.arange(R)]
        improved = best > F
        X[improved] = cand[k[improved], np.where(improved)[0], :]
        F[improved] = best[improved]
        step[improved] = np.minimum(step[improved] * 1.6, 1.0)
        step[~improved] *= 0.5
    return X, F


def _start_points(
    rng: np.random.Generator, u1: np.ndarray, u2: np.ndarray, n_restarts: int
) -> np.ndarray:
    X0 = rng.normal(size=(n_restarts, _DIM))
    X0 /= np.linalg.norm(X0, axis=1, keepdims=True)
    fan = _matched_family(u1, u2, min(8, n_restarts))
    norms = np.linalg.norm(fan, axis=1, keepdims=True)
    X0[: fan.shape[0]] = fan / np.maximum(norms, 1e-30)
    return X0


def oracle_max_sum_rate(
    eff: EffectiveChannel,
    pc: PowerConfig,
    profile: RateProfile,
    n_restarts: int = DEFAULT_RESTARTS,
    n_iters: int = DEFAULT_ITERS,
    seed: int = 0,
) -> OracleResult:
    """Best sum rate along a rate-profile ray, by restarted direct search.

    Every candidate matrix is rescaled to spend the whole relay budget
    (the rates grow with the scale, so nothing is lost), which turns
    the constrained problem into an unconstrained one over directions.
    Ties between restarts resolve to the lowest restart index.
    """
    m = eff.U.shape[0]
    if pc.p_relay <= 0.0:
        return OracleResult(0.0, np.zeros((m, m), dtype=complex))
    u1, u2 = eff.g1, eff.g2

    def objective(X: np.ndarray) -> np.ndarray:
        c2, d2, m1, m2, power = _link_terms(_unpack(X), u1, u2, pc)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = pc.p_relay / power
            snr1 = s * c2 * pc.p2 / (s * m1 + 1.0)
            snr2 = s * d2 * pc.p1 / (s * m2 + 1.0)
            r21 = 0.5 * np.log2(1.0 + snr1)
            r12 = 0.5 * np.log2(1.0 + snr2)
            t = np.full(X.shape[0], np.inf)
            if profile.alpha21 > 0.0:
                t = np.minimum(t, r21 / profile.alpha21)
            if profile.alpha12 > 0.0:
                t = np.minimum(t, r12 / profile.alpha12)
        return np.where(power > 0.0, t, 0.0)

    rng = np.random.default_rng(seed)
    X, F = _compass_search(objective, _start_points(rng, u1, u2, n_restarts), n_iters)
    k = int(np.argmax(F))
    B = _unpack(X[k : k + 1])[0]
    _, _, _, _, pw = _link_terms(B[None], u1, u2, pc)
    B *= math.sqrt(pc.p_relay / pw[0])
    return OracleResult(float(F[k]), Beamformer(B, eff.U).full())


def oracle_min_power(
    eff: EffectiveChannel,
    pc: PowerConfig,
    gamma1_bar: float,
    gamma2_bar: float,
    n_restarts: int = DEFAULT_RESTARTS,
    n_iters: int = DEFAULT_ITERS,
    seed: int = 0,
) -> OracleResult:
    """Least relay power meeting both receive-snr targets, or infeasible.

    Along any fixed matrix direction the snrs rise monotonically with
    the scale toward a finite ceiling, so the minimal scale per
    direction is available in closed form and the search runs over
    directions only. value = math.inf with witness None means no
    direction could meet the targets.
    """
    if gamma1_bar < 0.0 or gamma2_bar < 0.0:
        raise InvalidInputError("snr targets must be nonnegative")
    m = eff.U.shape[0]
    if gamma1_bar == 0.0 and gamma2_bar == 0.0:
        return OracleResult(0.0, np.zeros((m, m), dtype=complex))
    u1, u2 = eff.g1, eff.g2

    def objective(X: np.ndarray) -> np.ndarray:
        c2, d2, m1, m2, power = _link_terms(_unpack(X), u1, u2, pc)
        with np.errstate(divide="ignore", invalid="ignore"):
            needed = np.zeros(X.shape[0])
            if gamma1_bar > 0.0:
                # roundoff-level margins are ceilings hit exactly: infeasible
                gain, loss = c2 * pc.p2, gamma1_bar * m1
                ok = gain - loss > 1e-9 * (gain + loss)
                needed = np.maximum(
                    needed, np.where(ok, gamma1_bar / (gain - loss), np.inf)
                )
            if gamma2_bar > 0.0:
                gain, loss = d2 * pc.p1, gamma2_bar * m2
                ok = gain - loss > 1e-9 * (gain + loss)
                needed = np.maximum(
                    needed, np.where(ok, gamma2_bar / (gain - loss), np.inf)
                )
            val = needed * power
        return -np.where(np.isfinite(val), val, np.inf)

    rng = np.random.default_rng(seed)
    X, F = _compass_search(objective, _start_points(rng, u1, u2, n_restarts), n_iters)
    k = int(np.argmax(F))
    if not np.isfinite(F[k]):
        return OracleResult(math.inf, None)
    B = _unpack(X[k : k + 1])[0]
    c2, d2, m1, m2, _ = _link_terms(B[None], u1, u2, pc)
    scales = [0.0]
    if gamma1_bar > 0.0:
        scales.append(gamma1_bar / (c2[0] * pc.p2 - gamma1_bar * m1[0]))
    if gamma2_bar > 0.0:
        scales.append(gamma2_bar / (d2[0] * pc.p1 - gamma2_bar * m2[0]))
    B *= math.sqrt(max(scales))
    return OracleResult(float(-F[k]), Beamformer(B, eff.U).full())
