"""Channel instances, reduced coordinates, and the rate/power expressions.

Two single-antenna sources exchange messages through an M-antenna
amplify-and-forward relay in two slots; each source subtracts its own
echoed signal before decoding. Noise variances are normalized to 1
everywhere, so transmit powers are SNR-like linear quantities, rates are
log base 2 in bits per complex dimension.

The relay applies an M x M matrix A. Every boundary-attaining A factors
as A = U* B U^H through the isometry U spanning both uplink channels, so
most of the package works with the reduced 2x2 matrix B and the effective
channels g_i, real since U g1 = conj(s) h1 and U g2 = s h2 for a unit s
that leaves the rates, the relay power and every scheme's A as they are.

Each expression is written once: the reduced evaluators and the
beamformer tracer share _evaluate_2x2 and its link terms (_link_forms).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError

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

    @functools.cached_property
    def theta1(self) -> float:
        return float(np.real(self.h1.conj() @ self.h1))

    @functools.cached_property
    def theta2(self) -> float:
        return float(np.real(self.h2.conj() @ self.h2))

    @property
    def correlation(self) -> float:
        """|h1^H h2|^2 / (||h1||^2 ||h2||^2)."""
        return float(abs(self.h1.conj() @ self.h2) ** 2) / (self.theta1 * self.theta2)


@dataclass(frozen=True)
class EffectiveChannel:
    """SVD frame of the turned uplink matrix [h1 h2] and the real reduced channels."""

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
    """Reduced coordinates in closed form. With c = h1^H h2 and s = (conj(c)/|c|)^(1/2),
    1 at c = 0, k1 = conj(s) h1 and k2 = s h2 have the real Gram matrix
    [[theta1, |c|], [|c|, theta2]]. V is its Jacobi rotation by phi = atan2(2|c|,
    theta1 - theta2)/2 in [0, pi/2], svd_tall's phase rule; U is w_k = [k1 k2] v_k
    made orthonormal, and the real g_i = sigma * V[i, :], sigma_k = ||w_k||, give
    U g1 = k1 and U g2 = k2. At a real c >= 0 (s = 1), as gen_channels draws it, this is
    svd_tall's frame of [h1 h2] to rounding, so a written B lifts to the same A; other
    frames differ from it by the phases diag(s, conj(s)). No complex matrix product or
    SVD is used: a complex OpenBLAS kernel can leave the CPU's wide vector registers in
    a state that slows every later libm call several times over."""
    c = complex(np.vdot(pair.h1, pair.h2))
    s, x = (cmath.sqrt(c.conjugate() / abs(c)), abs(c)) if c else (1.0, 0.0)
    z = complex(0.5 * (pair.theta1 - pair.theta2), x)
    e = cmath.sqrt(z / abs(z)) if z else 1.0  # e^(i phi): V's first column (cos phi, sin phi), with no cancellation
    co, si = e.real, e.imag
    k1, k2 = s.conjugate() * pair.h1, s * pair.h2
    w1, w2 = co * k1 + si * k2, co * k2 - si * k1
    sigma = np.array([np.linalg.norm(w1), np.linalg.norm(w2)])
    u1 = w1 / sigma[0] if sigma[0] > 0.0 else np.eye(pair.m)[0]  # both channels 0: any unit vector spans them
    for w in (w2, np.eye(pair.m)[np.argmin(np.abs(u1))]):  # where w2 is 0 or along u1 to rounding, a unit vector off u1
        for _ in range(2):  # two Gram-Schmidt passes keep u2 orthogonal to u1 as sigma2/sigma1 -> 0
            w = w - np.vdot(u1, w) * u1
        norm = np.linalg.norm(w)
        if norm > 0.0 and abs(np.vdot(u1, w)) <= 1e-8 * norm:
            break
    V = np.array([[co, -si], [si, co]])
    U = np.column_stack((u1, w / norm)).astype(complex)
    return EffectiveChannel(U=U, sigma=sigma, V=V, g1=sigma * V[0], g2=sigma * V[1])


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


def _rate(gamma: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """(1/2) log2(1 + gamma) of SNRs gamma >= 0, inf or nan: log1p(gamma)/ln 2
    below 1, which keeps small rates' digits, and log2(1 + gamma), more exact, above."""
    if isinstance(gamma, np.ndarray):
        return 0.5 * np.where(gamma < 1.0, np.log1p(gamma) / LN2, np.log2(1.0 + gamma))
    return 0.5 * (math.log1p(gamma) / LN2 if gamma < 1.0 else math.log2(1.0 + gamma))


def snr_pair_reduced(
    bf: Union[Beamformer, np.ndarray], eff: EffectiveChannel, pc: PowerConfig
) -> tuple:
    """Receiver SNRs (gamma1 at S1, gamma2 at S2) of one reduced 2x2
    matrix, from _evaluate_2x2."""
    B = bf.B if isinstance(bf, Beamformer) else np.asarray(bf)
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
    B = bf.B if isinstance(bf, Beamformer) else np.asarray(bf)
    with np.errstate(all="ignore"):
        power = (
            _sq((B * eff.g1).sum(-1)).sum(-1) * pc.p1
            + _sq((B * eff.g2).sum(-1)).sum(-1) * pc.p2
            + _sq(B).sum((-2, -1))
        )
    return float(power) if power.ndim == 0 else power
