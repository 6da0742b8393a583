"""Tests for channel generation, reduction, and the rate/power expressions."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orthogonal_pair
from twrelay.errors import InvalidInputError, RankDeficiencyError
from twrelay.model import (
    Beamformer,
    ChannelPair,
    PowerConfig,
    effective,
    gen_channels,
    rate_pair,
    rate_pair_reduced,
    relay_power,
    relay_power_reduced,
    snr_pair_reduced,
)
from twrelay.schemes import zfr_zft


class TestGeneration:
    def test_unit_norms_and_exact_correlation(self):
        for rho in (0.0, 0.1, 0.5, 0.8, 1.0):
            pair = gen_channels(4, rho, seed=7)
            assert abs(pair.theta1 - 1.0) <= 1e-12
            assert abs(pair.theta2 - 1.0) <= 1e-12
            assert abs(pair.correlation - rho) <= 1e-10

    def test_rho_one_gives_identical_vectors(self):
        pair = gen_channels(4, 1.0, seed=3)
        assert np.array_equal(pair.h1, pair.h2)

    def test_deterministic_in_seed(self):
        a = gen_channels(4, 0.5, seed=42)
        b = gen_channels(4, 0.5, seed=42)
        c = gen_channels(4, 0.5, seed=43)
        assert np.array_equal(a.h1, b.h1) and np.array_equal(a.h2, b.h2)
        assert not np.array_equal(a.h1, c.h1)

    def test_unnormalized_keeps_correlation(self):
        pair = gen_channels(4, 0.3, seed=11, normalize=False)
        assert abs(pair.correlation - 0.3) <= 1e-10
        assert abs(pair.theta1 - 1.0) > 1e-3 or abs(pair.theta2 - 1.0) > 1e-3

    def test_gains_are_computed_once_and_exactly(self):
        pair = gen_channels(4, 0.3, seed=11, normalize=False)
        for name, h in (("theta1", pair.h1), ("theta2", pair.h2)):
            value = getattr(pair, name)
            assert value == float(np.real(h.conj() @ h))
            assert getattr(pair, name) is value
        # a pair with another vector gets its own gain, not the cached one
        other = dataclasses.replace(pair, h1=2.0 * pair.h1)
        assert other.theta1 == float(np.real(other.h1.conj() @ other.h1)) != pair.theta1
        assert other.theta2 == pair.theta2

    def test_marginal_statistics(self):
        # Pooled Box-Muller components should look standard normal.
        samples = []
        for seed in range(200):
            pair = gen_channels(4, 0.0, seed=seed, normalize=False)
            samples.extend(np.concatenate([np.real(pair.h1), np.imag(pair.h1)]))
        samples = np.array(samples)
        assert abs(np.mean(samples)) <= 0.05
        assert abs(np.var(samples) - 0.5) <= 0.05

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            gen_channels(1, 0.5, seed=0)
        with pytest.raises(InvalidInputError):
            gen_channels(4, 1.5, seed=0)


class TestReduction:
    def test_effective_preserves_norms_and_inner_product(self):
        pair = gen_channels(4, 0.37, seed=21)
        eff = effective(pair)
        assert abs(np.vdot(eff.g1, eff.g1).real - pair.theta1) <= 1e-12
        assert abs(np.vdot(eff.g2, eff.g2).real - pair.theta2) <= 1e-12
        full = pair.h1.conj() @ pair.h2
        red = eff.g1.conj() @ eff.g2
        assert abs(full - red) <= 1e-12

    @pytest.mark.parametrize(
        "seed, g1, g2",
        [
            (1, [2.6069472406209977, -0.22516867418458797], [0.8354585871335384, 0.7026115511647428]),
            (2, [1.3151802996324102, -0.8412787256573597], [2.2438257643649404, 0.49310121314057004]),
            (3, [1.5552963757306553, -0.65523678390085], [1.5820441521887176, 0.6441586309942877]),
        ],
    )
    def test_frame_is_pinned(self, seed, g1, g2):
        # written CSVs store B in this frame; a change of the frame's
        # phases would stop them lifting to the same relay matrix
        eff = effective(gen_channels(4, 0.5, seed, normalize=False))
        assert np.max(np.abs(eff.g1 - g1)) <= 1e-13
        assert np.max(np.abs(eff.g2 - g2)) <= 1e-13

    def test_lift_consistency(self, rng):
        pc = PowerConfig(p1=3.0, p2=2.0, p_relay=10.0)
        for _ in range(10):
            pair = gen_channels(4, 0.5, seed=int(rng.integers(0, 2**31)))
            eff = effective(pair)
            B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            bf = Beamformer(B=B, U=eff.U)
            A = bf.full()
            rp_full = rate_pair(A, pair, pc)
            rp_red = rate_pair_reduced(bf, eff, pc)
            assert abs(rp_full.r21 - rp_red.r21) <= 1e-12
            assert abs(rp_full.r12 - rp_red.r12) <= 1e-12
            assert abs(relay_power(A, pair, pc) - relay_power_reduced(bf, eff, pc)) <= 1e-10


def _frame_corpus():
    """Pairs for the reduced frame: random complex pairs with norms from
    1e-3 to 1e3, diagonal Grams, rho = 0 at equal norms, rho = 1 - 1e-12,
    parallel channels and silent sources."""
    rng = np.random.default_rng(32)
    for k in range(24):
        m = (2, 4, 8)[k % 3]
        h1, h2 = (10.0 ** rng.uniform(-3.0, 3.0, size=(2, 1))) * (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))
        yield ChannelPair(m=m, h1=h1, h2=h2, rho=0.0)
    e1, e2 = np.eye(4, dtype=complex)[:2]
    yield ChannelPair(m=4, h1=2.0 * e1, h2=e2, rho=0.0)
    yield ChannelPair(m=4, h1=e1, h2=3.0 * e2, rho=0.0)
    for seed in range(3):
        yield gen_channels(4, 0.0, seed)
        yield gen_channels(8, 1.0 - 1e-12, seed)
    h = gen_channels(4, 0.0, 5).h1
    for h2 in (0.6 * np.exp(0.7j) * h, 1j * h):
        yield ChannelPair(m=4, h1=h, h2=h2, rho=1.0)
    # exact entries, where rounding leaves the orthogonalized w2 along u1
    exact = np.array([1j, -1j, 1.0])
    yield ChannelPair(m=3, h1=exact, h2=1j * exact, rho=1.0)
    zero = np.zeros(4, dtype=complex)
    for h1, h2 in ((zero, h), (h, zero), (zero, zero)):
        yield ChannelPair(m=4, h1=h1, h2=h2, rho=0.0)


class TestFrame:
    def test_real_reduced_channels_and_an_orthonormal_lift(self):
        for pair in _frame_corpus():
            eff = effective(pair)
            for name in ("g1", "g2", "V", "sigma"):
                assert getattr(eff, name).dtype == np.float64, name
            assert eff.U.dtype == np.complex128
            assert np.max(np.abs(eff.U.conj().T @ eff.U - np.eye(2))) <= 1e-14
            c = np.vdot(pair.h1, pair.h2)
            s = np.sqrt(np.conj(c) / abs(c)) if c != 0 else 1.0
            for g, h in ((eff.g1, np.conj(s) * pair.h1), (eff.g2, s * pair.h2)):
                assert np.linalg.norm(eff.U @ g - h) <= 1e-14 * np.linalg.norm(h)

    def test_diagonal_grams_keep_the_identity_frame(self):
        e1, e2 = np.eye(4, dtype=complex)[:2]
        eff = effective(ChannelPair(m=4, h1=2.0 * e1, h2=e2, rho=0.0))
        assert np.array_equal(eff.V, np.eye(2))
        assert eff.g1.tolist() == [2.0, 0.0] and eff.g2.tolist() == [0.0, 1.0]
        eff = effective(ChannelPair(m=4, h1=e1, h2=3.0 * e2, rho=0.0))
        assert np.array_equal(eff.V, [[0.0, -1.0], [1.0, 0.0]])

    def test_lifted_and_reduced_evaluators_agree(self, rng):
        pc = PowerConfig(p1=3.0, p2=2.0, p_relay=10.0)
        for pair in _frame_corpus():
            eff = effective(pair)
            B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            bf = Beamformer(B=B, U=eff.U)
            A = bf.full()
            lifted, reduced = rate_pair(A, pair, pc), rate_pair_reduced(bf, eff, pc)
            assert lifted.r21 == pytest.approx(reduced.r21, rel=1e-12, abs=1e-12)
            assert lifted.r12 == pytest.approx(reduced.r12, rel=1e-12, abs=1e-12)
            assert relay_power(A, pair, pc) == pytest.approx(relay_power_reduced(bf, eff, pc), rel=1e-12)

    @pytest.mark.parametrize("factor", [0.6 * np.exp(0.7j), 1j])
    def test_zero_forcing_refuses_parallel_channels_without_a_warning(self, factor):
        h = gen_channels(4, 0.0, 5).h1
        pair = ChannelPair(m=4, h1=h, h2=factor * h, rho=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficiencyError):
                zfr_zft(pair, 1.0, PowerConfig(10.0, 10.0, 10.0))


class TestRatePower:
    def test_relay_power_hand_value(self):
        # B = I on orthonormal channels: p_R = p1 + p2 + 2.
        pair = orthogonal_pair()
        pc = PowerConfig(p1=3.0, p2=1.0, p_relay=10.0)
        A = np.eye(2, dtype=complex)
        assert abs(relay_power(A, pair, pc) - 6.0) <= 1e-14

    def test_rate_hand_values(self):
        # Swap matrix on orthonormal channels, p1 = p2 = 2: each SNR is
        # 1 * 2 / (1 + 1) = 1, so each rate is (1/2) log2(2) = 1/2.
        pair = orthogonal_pair()
        pc = PowerConfig(p1=2.0, p2=2.0, p_relay=10.0)
        A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rp = rate_pair(A, pair, pc)
        assert abs(rp.r21 - 0.5) <= 1e-12
        assert abs(rp.r12 - 0.5) <= 1e-12

    def test_rate_asymmetric_hand_value(self):
        # A = [[0, 2], [1, 0]] boosts the S2->S1 link: gain 2 but also
        # amplified relay noise 4 at S1, so gamma1 = 4*2/5 and r12 stays
        # at 1/2.
        pair = orthogonal_pair()
        pc = PowerConfig(p1=2.0, p2=2.0, p_relay=10.0)
        A = np.array([[0.0, 2.0], [1.0, 0.0]], dtype=complex)
        rp = rate_pair(A, pair, pc)
        assert abs(rp.r21 - 0.5 * np.log2(1.0 + 8.0 / 5.0)) <= 1e-12
        assert abs(rp.r12 - 0.5) <= 1e-12

    def test_antidiagonal_reduced_snrs(self):
        # B = [[0, c], [d, 0]] on orthonormal reduced channels: the row
        # g1^T B = (0, c) carries both the S2 symbol and the relay noise
        # toward S1, so gamma1 = c^2 p2 / (c^2 + 1) and symmetrically
        # gamma2 = d^2 p1 / (d^2 + 1).
        pair = orthogonal_pair()
        eff = effective(pair)
        pc = PowerConfig(p1=4.0, p2=4.0, p_relay=10.0)
        c, d = 1.25, 0.75
        B = np.array([[0.0, c], [d, 0.0]], dtype=complex)
        g1_s, g2_s = snr_pair_reduced(B, eff, pc)
        assert abs(g1_s - c**2 * 4.0 / (c**2 + 1.0)) <= 1e-10
        assert abs(g2_s - d**2 * 4.0 / (d**2 + 1.0)) <= 1e-10

    def test_zero_matrix_rates(self):
        pair = orthogonal_pair()
        pc = PowerConfig(p1=1.0, p2=1.0, p_relay=10.0)
        rp = rate_pair(np.zeros((2, 2), dtype=complex), pair, pc)
        assert rp.r21 == 0.0 and rp.r12 == 0.0

    def test_power_config_validation(self):
        with pytest.raises(InvalidInputError):
            PowerConfig(p1=-1.0, p2=1.0, p_relay=1.0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=0.95),
)
def test_scaling_grows_rates_property(seed, rho):
    """Scaling B up scales both SNRs monotonically (noise term saturates)."""
    pair = gen_channels(3, rho, seed=seed)
    eff = effective(pair)
    pc = PowerConfig(p1=2.0, p2=3.0, p_relay=10.0)
    rng = np.random.default_rng(seed + 1)
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g1a, g2a = snr_pair_reduced(B, eff, pc)
    g1b, g2b = snr_pair_reduced(2.0 * B, eff, pc)
    assert g1b >= g1a - 1e-12
    assert g2b >= g2a - 1e-12
