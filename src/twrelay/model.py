"""Channel instances, reduced coordinates, and the rate/power expressions.

Two single-antenna sources exchange messages through an M-antenna
amplify-and-forward relay in two slots; each source subtracts its own
echoed signal before decoding. Noise variances are normalized to 1
everywhere, so transmit powers are SNR-like linear quantities, rates are
log base 2 in bits per complex dimension.

The relay applies an M x M matrix A. Every boundary-attaining A factors
as A = U* B U^H through the isometry U spanning both uplink channels, so
most of the package works with the reduced 2x2 matrix B and the effective
channels g_i = U^H h_i.

Each expression is written once: the reduced evaluators and the
beamformer tracer share _evaluate_2x2 and its link terms (_link_forms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError
from .linalg import svd_tall

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class PowerConfig:
    """Source transmit powers and the relay power budget (linear scale)."""

    p1: float
    p2: float
    p_relay: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p_relay"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise InvalidInputError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class RatePair:
    """Achievable rates in bits/complex dimension; r21 is S2->S1."""

    r21: float
    r12: float


@dataclass(frozen=True)
class ChannelPair:
    """Uplink channel vectors of both sources, with generation metadata."""

    m: int
    h1: np.ndarray
    h2: np.ndarray
    rho: float
    seed: Optional[int] = None

    @property
    def theta1(self) -> float:
        return float(np.real(self.h1.conj() @ self.h1))

    @property
    def theta2(self) -> float:
        return float(np.real(self.h2.conj() @ self.h2))

    @property
    def correlation(self) -> float:
        """|h1^H h2|^2 / (||h1||^2 ||h2||^2)."""
        return float(abs(self.h1.conj() @ self.h2) ** 2) / (self.theta1 * self.theta2)


@dataclass(frozen=True)
class EffectiveChannel:
    """SVD frame of the uplink matrix [h1 h2] and the reduced channels."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


@dataclass(frozen=True)
class Beamformer:
    """Reduced 2x2 relay matrix together with the isometry it lifts through."""

    B: np.ndarray
    U: np.ndarray

    def full(self) -> np.ndarray:
        """The M x M relay matrix A = U* B U^H."""
        return np.conj(self.U) @ self.B @ self.U.conj().T


def _cn_vector(rng: np.random.Generator, m: int) -> np.ndarray:
    """A CN(0, I_m) draw via Box-Muller on two uniform vectors.

    Using explicit uniforms plus Box-Muller (z = sqrt(-ln u) e^{2 pi i v})
    pins the sample path to the seeded PCG64 stream, so fixtures can be
    regenerated from (seed, M, rho) alone.
    """
    u = rng.random(m)
    v = rng.random(m)
    return np.sqrt(-np.log1p(-u)) * np.exp(2j * np.pi * v)


def gen_channels(m: int, rho: float, seed: int, normalize: bool = True) -> ChannelPair:
    """Generate a correlated channel pair.

    h1 is an isotropic complex Gaussian direction; h2 = sqrt(rho) h1 +
    sqrt(1-rho) hw with hw unit-norm and orthogonal to h1, which makes the
    squared correlation of the pair equal rho exactly.

    Args:
        m: relay antenna count, >= 2.
        rho: target squared correlation in [0, 1].
        seed: PCG64 stream seed; a fixed seed reproduces the pair.
        normalize: keep both channels at unit norm (the default). When
            False the channels get independent Gaussian-vector norms while
            the correlation construction is unchanged.

    Returns:
        ChannelPair with |h1^H h2|^2 / (theta1 theta2) == rho to rounding.
    """
    if m < 2:
        raise InvalidInputError("need at least two relay antennas")
    if not (0.0 <= rho <= 1.0):
        raise InvalidInputError("rho must lie in [0, 1]")
    rng = np.random.default_rng(seed)

    raw1 = _cn_vector(rng, m)
    h1 = raw1 / np.linalg.norm(raw1)
    while True:
        hw = _cn_vector(rng, m)
        hw = hw - h1 * (h1.conj() @ hw)
        nrm = np.linalg.norm(hw)
        if nrm > 1e-8:
            hw = hw / nrm
            break
    h2 = np.sqrt(rho) * h1 + np.sqrt(1.0 - rho) * hw

    if not normalize:
        h1 = h1 * np.linalg.norm(raw1)
        h2 = h2 * np.linalg.norm(_cn_vector(rng, m))
    return ChannelPair(m=m, h1=h1, h2=h2, rho=rho, seed=seed)


def effective(pair: ChannelPair) -> EffectiveChannel:
    """Reduced coordinates: U spans both channels, g_i = U^H h_i. The frame
    is svd_tall's of [h1, h2], its phases fixed by V[1, 0] real >= 0 and
    V[0, 1] real <= 0, so a B written to a CSV lifts to the same A."""
    H_ul = np.column_stack([pair.h1, pair.h2])
    U, sigma, V = svd_tall(H_ul)
    return EffectiveChannel(U=U, sigma=sigma, V=V, g1=U.conj().T @ pair.h1, g2=U.conj().T @ pair.h2)


def relay_power(A: np.ndarray, pair: ChannelPair, pc: PowerConfig) -> float:
    """Transmit power spent by the relay when applying A.

    ||A h1||^2 p1 + ||A h2||^2 p2 + tr(A A^H); the trace term is the
    amplified relay noise.
    """
    return float(
        np.linalg.norm(A @ pair.h1) ** 2 * pc.p1
        + np.linalg.norm(A @ pair.h2) ** 2 * pc.p2
        + np.real(np.sum(A * A.conj()))
    )


def rate_pair(A: np.ndarray, pair: ChannelPair, pc: PowerConfig) -> RatePair:
    """Achievable rate pair of the two-slot exchange through relay matrix A.

    After self-interference subtraction S1 sees gain h1^T A h2 on the S2
    symbol and noise of variance ||A^H h1*||^2 + 1, so
    r21 = (1/2) log2(1 + |h1^T A h2|^2 p2 / (||A^H h1*||^2 + 1)), and
    symmetrically for r12.
    """
    h1, h2 = pair.h1, pair.h2
    with np.errstate(all="ignore"):  # an overflow is an inf or nan in the result, not a warning
        s21 = float(abs(h1 @ A @ h2) ** 2 * pc.p2 / (np.linalg.norm(A.conj().T @ np.conj(h1)) ** 2 + 1.0))
        s12 = float(abs(h2 @ A @ h1) ** 2 * pc.p1 / (np.linalg.norm(A.conj().T @ np.conj(h2)) ** 2 + 1.0))
    return RatePair(r21=0.5 * np.log2(1.0 + s21), r12=0.5 * np.log2(1.0 + s12))


def _sq(z):
    """|z|^2 of a complex scalar or array; a Python complex overflows to
    inf, where abs(z) ** 2 would raise."""
    return z.real * z.real + z.imag * z.imag


def _link_forms(b: Sequence[complex], g1: Sequence[complex], g2: Sequence[complex]) -> tuple:
    """(g1^T B g2, g2^T B g1, B^T g1, B^T g2) of B = [[b0, b1], [b2, b3]],
    in Python scalars: the two links' gains and relay-noise vectors."""
    b0, b1, b2, b3 = b
    x0, x1 = g1
    y0, y1 = g2
    n0, n1 = b0 * x0 + b2 * x1, b1 * x0 + b3 * x1  # B^T g1
    m0, m1 = b0 * y0 + b2 * y1, b1 * y0 + b3 * y1  # B^T g2
    return n0 * y0 + n1 * y1, m0 * x0 + m1 * x1, (n0, n1), (m0, m1)


def _evaluate_2x2(b: Sequence[complex], g1: Sequence[complex], g2: Sequence[complex], p1: float, p2: float) -> tuple:
    """(relay power, gamma1, gamma2) of one reduced matrix
    B = [[b0, b1], [b2, b3]], with b, g1 and g2 given as Python scalars:
    the power p1 ||B g1||^2 + p2 ||B g2||^2 + ||B||_F^2 and the SNRs
    gamma1 = |g1^T B g2|^2 p2 / (||B^T g1||^2 + 1) and
    gamma2 = |g2^T B g1|^2 p1 / (||B^T g2||^2 + 1), from _link_forms. An
    overflow gives inf or nan, never an error or a warning."""
    b0, b1, b2, b3 = b
    x0, x1 = g1
    y0, y1 = g2
    a, c, (n0, n1), (m0, m1) = _link_forms(b, g1, g2)
    power = (
        (_sq(b0 * x0 + b1 * x1) + _sq(b2 * x0 + b3 * x1)) * p1
        + (_sq(b0 * y0 + b1 * y1) + _sq(b2 * y0 + b3 * y1)) * p2
        + (_sq(b0) + _sq(b1) + _sq(b2) + _sq(b3))
    )
    gamma1 = _sq(a) * p2 / (_sq(n0) + _sq(n1) + 1.0)
    gamma2 = _sq(c) * p1 / (_sq(m0) + _sq(m1) + 1.0)
    return power, gamma1, gamma2


def _rate(gamma: float) -> float:
    """(1/2) log2(1 + gamma) of an SNR gamma >= 0, inf or nan."""
    return 0.5 * math.log2(1.0 + gamma)


def snr_pair_reduced(
    bf: Union[Beamformer, np.ndarray], eff: EffectiveChannel, pc: PowerConfig
) -> tuple:
    """Receiver SNRs (gamma1 at S1, gamma2 at S2) of one reduced 2x2
    matrix, from _evaluate_2x2."""
    B = bf.B if isinstance(bf, Beamformer) else np.asarray(bf, dtype=complex)
    return _evaluate_2x2(B.ravel().tolist(), eff.g1.tolist(), eff.g2.tolist(), pc.p1, pc.p2)[1:]


def rate_pair_reduced(
    bf: Union[Beamformer, np.ndarray], eff: EffectiveChannel, pc: PowerConfig
) -> RatePair:
    """rate_pair evaluated on one reduced 2x2 matrix; equals the lifted
    value to rounding. It takes the SNRs of snr_pair_reduced and the
    rates of _rate, the same scalar arithmetic in which the beamformer
    tracer finishes each ray, so a traced row's rates and this
    evaluator's agree bit for bit."""
    s21, s12 = snr_pair_reduced(bf, eff, pc)
    return RatePair(r21=_rate(s21), r12=_rate(s12))


def relay_power_reduced(
    bf: Union[Beamformer, np.ndarray], eff: EffectiveChannel, pc: PowerConfig
) -> Union[float, np.ndarray]:
    """Relay power of the lifted matrix, computed from B directly:
    p1 ||B g1||^2 + p2 ||B g2||^2 + ||B||_F^2. An (n, 2, 2) stack of
    matrices gives the array of their n powers, each equal to the power
    of its matrix alone. An overflow gives inf, not a warning."""
    B = bf.B if isinstance(bf, Beamformer) else np.asarray(bf, dtype=complex)
    with np.errstate(all="ignore"):
        power = (
            _sq((B * eff.g1).sum(-1)).sum(-1) * pc.p1
            + _sq((B * eff.g2).sum(-1)).sum(-1) * pc.p2
            + _sq(B).sum((-2, -1))
        )
    return float(power) if power.ndim == 0 else power
