"""Tests for the optimal beamformer: QCQP assembly, power minimization,
sum-rate bisection, and region tracing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrelay.beamformer import (
    RateProfile,
    build_qcqp,
    capacity_region,
    envelope_value,
    max_sum_rate,
    min_relay_power,
    rate_region_boundary,
    snr_targets,
)
from twrelay.bounds import c21
from twrelay.errors import InvalidInputError
from twrelay.model import (
    Beamformer,
    PowerConfig,
    RatePair,
    effective,
    gen_channels,
    rate_pair_reduced,
    relay_power_reduced,
    snr_pair_reduced,
)
from twrelay.oracle import oracle_min_power

from conftest import orthogonal_pair, symmetric_power

LOG2_3 = math.log2(3.0)
EQUAL_RATE = 0.792481250360578  # (1/2) log2(1 + gamma) at the p=4, P_R=10 optimum

# (M, rho, seed, p1, p2, P_R, alpha21): rays whose optimal SDP solutions
# carry eigen-directions with forms near 1e-10; a rank-one point taken from
# one of those misses the other target and overstates r by up to 0.03 bits
HARD_RAYS = [
    (2, 0.5183724442497971, 1119605604, 277.91958297842797, 8.446035692335853, 1.4274329957879683, 0.1),
    (2, 0.8636124919395863, 1112458289, 816.3057145641496, 6772.594008466207, 7.447333769894264, 0.75),
    (2, 0.5816364199712408, 1366281975, 8325.471356877371, 8122.719735343071, 223.39912170151322, 0.5),
]


def _real_x(b: np.ndarray) -> np.ndarray:
    return np.concatenate([b.real, b.imag])


class TestQcqpBuild:
    def setup_method(self):
        self.pair = gen_channels(4, 0.5, seed=11)
        self.eff = effective(self.pair)
        self.pc = PowerConfig(p1=3.0, p2=5.0, p_relay=10.0)
        self.build = build_qcqp(self.eff, self.pc, 1.5, 0.8)

    def test_forms_match_complex_quadratics(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = _real_x(b)
            B = b.reshape(2, 2)
            # power form
            p_direct = relay_power_reduced(B, self.eff, self.pc)
            assert abs(b.conj() @ self.build.E0 @ b - p_direct) <= 1e-10 * max(1.0, p_direct)
            assert abs(x @ self.build.prob.F0 @ x - p_direct) <= 1e-10 * max(1.0, p_direct)
            # SNR forms: b^H E1 b = (p2/g1bar)|g1^T B g2|^2 - ||B^T g1||^2
            q1 = (self.pc.p2 / 1.5) * abs(self.eff.g1 @ B @ self.eff.g2) ** 2 - np.linalg.norm(B.T @ self.eff.g1) ** 2
            q2 = (self.pc.p1 / 0.8) * abs(self.eff.g2 @ B @ self.eff.g1) ** 2 - np.linalg.norm(B.T @ self.eff.g2) ** 2
            scale = max(1.0, abs(q1), abs(q2))
            assert abs(np.real(b.conj() @ self.build.E1 @ b) - q1) <= 1e-10 * scale
            assert abs(x @ self.build.prob.F1 @ x - q1) <= 1e-10 * scale
            assert abs(np.real(b.conj() @ self.build.E2 @ b) - q2) <= 1e-10 * scale
            assert abs(x @ self.build.prob.F2 @ x - q2) <= 1e-10 * scale

    def test_hand_value_feasible_instance(self):
        # orthonormal effective channels, p2 = 4, target 1: the rank-one
        # part contributes 4/1 - 1 = 3 on the (1,2) vec coordinate
        eff = effective(orthogonal_pair())
        build = build_qcqp(eff, PowerConfig(4.0, 4.0, 10.0), 1.0, 1.0)
        assert np.allclose(build.E1, np.diag([-1.0, 3.0, 0.0, 0.0]), atol=1e-12)

    def test_hand_value_infeasible_instance(self):
        # p2 = gamma bar: no positive direction remains, constraint unmeetable
        eff = effective(orthogonal_pair())
        build = build_qcqp(eff, PowerConfig(1.0, 1.0, 10.0), 1.0, 1.0)
        assert np.allclose(build.E1, np.diag([-1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(InvalidInputError):
            build_qcqp(self.eff, self.pc, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            build_qcqp(self.eff, self.pc, 1.0, -2.0)


class TestMinRelayPower:
    def test_orthogonal_closed_form(self):
        # c^2 = d^2 = 1 serve both targets, spending (p+1) each plus nothing else
        eff = effective(orthogonal_pair())
        pc = PowerConfig(4.0, 4.0, 10.0)
        p_star, B = min_relay_power(eff, pc, 2.0, 2.0)
        assert abs(p_star - 10.0) <= 1e-4
        assert abs(abs(B[0, 1]) - 1.0) <= 1e-5
        assert abs(abs(B[1, 0]) - 1.0) <= 1e-5
        assert abs(B[0, 0]) <= 1e-5 and abs(B[1, 1]) <= 1e-5

    def test_single_target_closed_form(self):
        # only the S2->S1 link: c^2 = gamma/(p2 - gamma), power c^2 (p2 + 1)
        eff = effective(orthogonal_pair())
        p_star, B = min_relay_power(eff, PowerConfig(4.0, 4.0, 10.0), 2.0, 0.0)
        assert abs(p_star - 5.0) <= 1e-6
        assert abs(abs(B[0, 1]) - 1.0) <= 1e-5

    def test_zero_targets(self):
        eff = effective(orthogonal_pair())
        p_star, B = min_relay_power(eff, PowerConfig(4.0, 4.0, 10.0), 0.0, 0.0)
        assert p_star == 0.0
        assert np.array_equal(B, np.zeros((2, 2)))

    def test_infeasible_targets(self):
        eff = effective(orthogonal_pair())
        # gamma1 can never reach theta2 p2
        assert min_relay_power(eff, PowerConfig(4.0, 4.0, 10.0), 4.0, 0.5) == (math.inf, None)
        assert min_relay_power(eff, PowerConfig(1.0, 1.0, 10.0), 1.0, 0.5) == (math.inf, None)

    def test_silent_source_infeasible(self):
        eff = effective(orthogonal_pair())
        assert min_relay_power(eff, PowerConfig(0.0, 4.0, 10.0), 0.0, 0.1) == (math.inf, None)
        assert min_relay_power(eff, PowerConfig(4.0, 0.0, 10.0), 0.1, 0.0) == (math.inf, None)

    def test_rejects_negative_targets(self):
        eff = effective(orthogonal_pair())
        with pytest.raises(InvalidInputError):
            min_relay_power(eff, PowerConfig(4.0, 4.0, 10.0), -1.0, 1.0)

    @pytest.mark.parametrize("m,rho,seed", [(2, 0.1, 0), (3, 0.5, 1), (4, 0.8, 2), (4, 0.3, 3)])
    def test_solution_meets_targets_at_claimed_power(self, m, rho, seed):
        eff = effective(gen_channels(m, rho, seed))
        pc = PowerConfig(10.0, 10.0, 10.0)
        g1b, g2b = 0.8, 1.3
        p_star, B = min_relay_power(eff, pc, g1b, g2b)
        assert math.isfinite(p_star)
        s1, s2 = snr_pair_reduced(B, eff, pc)
        assert s1 >= g1b * (1.0 - 1e-6)
        assert s2 >= g2b * (1.0 - 1e-6)
        assert abs(relay_power_reduced(B, eff, pc) - p_star) <= 1e-6 * max(1.0, p_star)

    def test_monotone_in_targets(self):
        eff = effective(gen_channels(4, 0.5, seed=5))
        pc = PowerConfig(10.0, 10.0, 10.0)
        powers = [min_relay_power(eff, pc, g, 1.0)[0] for g in (0.25, 0.5, 1.0, 2.0, 4.0)]
        for lo, hi in zip(powers, powers[1:]):
            assert lo <= hi * (1.0 + 1e-9)


class TestMaxSumRate:
    def test_orthogonal_equal_profile_value(self):
        eff = effective(orthogonal_pair())
        r, B = max_sum_rate(eff, PowerConfig(4.0, 4.0, 10.0), RateProfile.of(0.5))
        assert abs(r - LOG2_3) <= 2e-4
        # returned matrix realizes the rate within the budget
        assert relay_power_reduced(B, eff, PowerConfig(4.0, 4.0, 10.0)) <= 10.0 * (1 + 1e-6)

    def test_zero_relay_power(self):
        eff = effective(orthogonal_pair())
        r, B = max_sum_rate(eff, PowerConfig(4.0, 4.0, 0.0), RateProfile.of(0.5))
        assert r == 0.0
        assert np.array_equal(B, np.zeros((2, 2)))

    def test_degenerate_profile_hits_single_link_capacity(self):
        # all weight on r21: the optimum is the directional AF capacity
        eff = effective(orthogonal_pair())
        r, _ = max_sum_rate(eff, symmetric_power(10.0), RateProfile.of(1.0))
        assert abs(r - c21(1.0, 10.0, 1.0, 1.0, 10.0)) <= 2e-4

    @pytest.mark.parametrize("rho,seed", [(0.2, 21), (0.5, 22), (0.8, 23)])
    def test_bisection_contract(self, rho, seed):
        eff = effective(gen_channels(4, rho, seed))
        pc = symmetric_power(10.0)
        profile = RateProfile.of(0.4)
        r, B = max_sum_rate(eff, pc, profile)
        p_at, _ = min_relay_power(eff, pc, *snr_targets(profile, r))
        assert p_at <= pc.p_relay * (1.0 + 1e-9)
        p_above, _ = min_relay_power(eff, pc, *snr_targets(profile, r + 2e-4))
        assert p_above > pc.p_relay

    def test_returned_beamformer_achieves_rate(self):
        eff = effective(gen_channels(4, 0.6, seed=31))
        pc = symmetric_power(10.0)
        profile = RateProfile.of(0.3)
        r, B = max_sum_rate(eff, pc, profile)
        rates = rate_pair_reduced(B, eff, pc)
        assert rates.r21 >= profile.alpha21 * r - 1e-9
        assert rates.r12 >= profile.alpha12 * r - 1e-9

    @pytest.mark.parametrize("m,rho,seed,p1,p2,pr,alpha21", HARD_RAYS)
    def test_beamformer_meets_targets_on_hard_rays(self, m, rho, seed, p1, p2, pr, alpha21):
        eff = effective(gen_channels(m, rho, seed))
        pc = PowerConfig(p1, p2, pr)
        profile = RateProfile.of(alpha21)
        r, B = max_sum_rate(eff, pc, profile)
        g1b, g2b = snr_targets(profile, r)
        s1, s2 = snr_pair_reduced(B, eff, pc)
        assert s1 >= g1b * (1.0 - 1e-9)
        assert s2 >= g2b * (1.0 - 1e-9)
        assert relay_power_reduced(B, eff, pc) <= pr * (1.0 + 1e-9)

    def test_rejects_bad_delta(self):
        eff = effective(orthogonal_pair())
        with pytest.raises(InvalidInputError):
            max_sum_rate(eff, symmetric_power(10.0), RateProfile.of(0.5), delta_r=0.0)


def _orthogonal_min_power(pc: PowerConfig, g1b: float, g2b: float) -> float:
    """Closed form on e1/e2 channels: each link pays gamma (p + 1) / (p - gamma)
    on its own anti-diagonal entry of B, and no finite power reaches p."""
    total = 0.0
    for gamma, p in ((g1b, pc.p2), (g2b, pc.p1)):
        if gamma > 0.0:
            if gamma >= p:
                return math.inf
            total += gamma * (p + 1.0) / (p - gamma)
    return total


def _solver_corpus(count: int = 36, seed: int = 2718):
    """Seeded instances over the solver's edges: rho up to 1, powers over
    0-60 dB, a silent source, and targets from 0.01 to 3000, which puts many
    beyond the SNR ceiling p. Every other instance instead draws its targets
    as a fraction of that ceiling, so that most of those are feasible."""
    rng = np.random.default_rng(seed)
    rhos = (0.0, 0.5, 0.9, 0.999, 0.99999, 1.0)
    for i in range(count):
        p1, p2, pr = 10.0 ** rng.uniform(0.0, 6.0, size=3)
        if i % 2:
            f1, f2 = 10.0 ** rng.uniform(-3.0, -0.05, size=2)
            g1b, g2b = f1 * p2, f2 * p1
        else:
            g1b, g2b = 10.0 ** rng.uniform(-2.0, math.log10(3000.0), size=2)
        if i % 12 == 4:
            p1 = 0.0
        if i % 12 == 9:
            p1, g2b = 0.0, 0.0
        pair = gen_channels((2, 4, 8)[i % 3], rhos[i % len(rhos)], int(rng.integers(0, 2**31)))
        yield pair, PowerConfig(float(p1), float(p2), float(pr)), float(g1b), float(g2b)


class TestSolverCorpus:
    def test_against_oracle(self):
        feasible = 0
        for pair, pc, g1b, g2b in _solver_corpus():
            eff = effective(pair)
            p_star, B = min_relay_power(eff, pc, g1b, g2b)
            oracle = oracle_min_power(eff, pc, g1b, g2b, n_restarts=16, n_iters=500)
            if math.isinf(p_star):
                assert B is None
                assert oracle.value == math.inf
                continue
            feasible += 1
            s1, s2 = snr_pair_reduced(B, eff, pc)
            assert s1 >= g1b * (1.0 - 1e-9)
            assert s2 >= g2b * (1.0 - 1e-9)
            assert relay_power_reduced(B, eff, pc) == pytest.approx(p_star, rel=1e-9)
            # the oracle's witness is feasible, so it cannot undercut the
            # optimum by more than the solver's own 1e-8 gap
            assert oracle.value >= p_star * (1.0 - 1e-8)
            assert oracle.value <= p_star * (1.0 + 1e-2)
        assert feasible >= 12

    def test_orthogonal_closed_form(self):
        rng = np.random.default_rng(31)
        eff = effective(orthogonal_pair())
        for _ in range(40):
            p1, p2 = 10.0 ** rng.uniform(0.0, 6.0, size=2)
            pc = PowerConfig(float(p1), float(p2), 10.0)
            # down to a millionth below the ceiling, at it, and above it
            margin1, margin2 = rng.choice([1e-6, 1e-3, 0.1, 0.5, 0.99, 0.0, -0.5], size=2)
            g1b, g2b = (1.0 - margin1) * p2, (1.0 - margin2) * p1
            want = _orthogonal_min_power(pc, g1b, g2b)
            p_star, B = min_relay_power(eff, pc, g1b, g2b)
            if math.isinf(want):
                assert (p_star, B) == (math.inf, None)
            else:
                assert p_star == pytest.approx(want, rel=1e-8)


class TestRateProfile:
    def test_simplex_validation(self):
        with pytest.raises(InvalidInputError):
            RateProfile(alpha21=0.6, alpha12=0.6)
        with pytest.raises(InvalidInputError):
            RateProfile(alpha21=-0.1, alpha12=1.1)

    def test_of_builds_exact_complement(self):
        for i in range(33):
            p = RateProfile.of(i / 32)
            assert p.alpha21 + p.alpha12 == 1.0


class TestRegionBoundary:
    def test_profile_coverage_and_order(self):
        eff = effective(gen_channels(4, 0.8, seed=7))
        rb = rate_region_boundary(eff, symmetric_power(10.0))
        assert len(rb.points) == 33
        assert sorted(p.alpha21 for p in rb.points) == [i / 32 for i in range(33)]
        r21s = [p.rates.r21 for p in rb.points]
        r12s = [p.rates.r12 for p in rb.points]
        slack = 4e-4  # bisection granularity
        assert all(a <= b + slack for a, b in zip(r21s, r21s[1:]))
        assert all(a >= b - slack for a, b in zip(r12s, r12s[1:]))

    def test_points_certified_by_beamformers(self):
        eff = effective(gen_channels(4, 0.5, seed=13))
        pc = symmetric_power(10.0)
        rb = rate_region_boundary(eff, pc, n_profiles=9)
        for p in rb.points:
            achieved = rate_pair_reduced(p.beamformer, eff, pc)
            assert achieved.r21 >= p.rates.r21 - 1e-9
            assert achieved.r12 >= p.rates.r12 - 1e-9
            assert p.p_relay <= pc.p_relay * (1 + 1e-6)

    def test_symmetric_instance_boundary_is_symmetric(self):
        eff = effective(orthogonal_pair())
        rb = rate_region_boundary(eff, symmetric_power(10.0))
        for p in rb.points:
            assert envelope_value(rb, p.rates.r12) >= p.rates.r21 - 1e-3

    def test_contains_equal_rate_closed_form(self):
        eff = effective(orthogonal_pair())
        rb = rate_region_boundary(eff, PowerConfig(4.0, 4.0, 10.0))
        mid = next(p for p in rb.points if p.alpha21 == 0.5)
        assert abs(mid.rates.r21 - EQUAL_RATE) <= 1e-3
        assert abs(mid.rates.r12 - EQUAL_RATE) <= 1e-3

    def test_silent_source_collapses_to_axis(self):
        eff = effective(orthogonal_pair())
        rb = rate_region_boundary(eff, PowerConfig(0.0, 4.0, 10.0), n_profiles=9)
        assert max(p.rates.r12 for p in rb.points) == 0.0
        assert max(p.rates.r21 for p in rb.points) > 0.5

    def test_rejects_single_profile(self):
        eff = effective(orthogonal_pair())
        with pytest.raises(InvalidInputError):
            rate_region_boundary(eff, symmetric_power(10.0), n_profiles=1)


class TestCapacityRegion:
    def test_grid_one_equals_plain_boundary(self):
        pair = orthogonal_pair()
        rb = rate_region_boundary(effective(pair), symmetric_power(10.0), n_profiles=9)
        cr = capacity_region(pair, 10.0, 10.0, 10.0, power_grid=1, n_profiles=9)
        assert len(cr.points) == len(rb.points)
        for a, b in zip(rb.points, cr.points):
            assert a.rates == b.rates
            assert np.array_equal(a.beamformer.B, b.beamformer.B)

    def test_envelope_contains_full_power_boundary(self):
        pair = gen_channels(3, 0.4, seed=17)
        rb = rate_region_boundary(effective(pair), symmetric_power(10.0), n_profiles=9)
        cr = capacity_region(pair, 10.0, 10.0, 10.0, power_grid=2, n_profiles=9)
        for p in rb.points:
            assert envelope_value(cr, p.rates.r21) >= p.rates.r12 - 1e-9

    def test_more_relay_power_dominates(self):
        eff = effective(gen_channels(3, 0.4, seed=17))
        lo = rate_region_boundary(eff, PowerConfig(10.0, 10.0, 5.0), n_profiles=5)
        hi = rate_region_boundary(eff, PowerConfig(10.0, 10.0, 10.0), n_profiles=5)
        for a, b in zip(lo.points, hi.points):
            assert a.rates.r21 + a.rates.r12 <= b.rates.r21 + b.rates.r12 + 2e-4

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidInputError):
            capacity_region(orthogonal_pair(), 10.0, 10.0, 10.0, power_grid=0)


class TestEnvelope:
    def test_step_envelope_semantics(self):
        pts = [
            (0.0, 2.0),
            (1.0, 1.5),
            (2.0, 0.5),
        ]
        from twrelay.beamformer import BoundaryPoint, RegionBoundary

        bf = Beamformer(B=np.zeros((2, 2), dtype=complex), U=np.eye(2, dtype=complex))
        rb = RegionBoundary(
            points=[
                BoundaryPoint(alpha21=0.0, rates=RatePair(x, y), beamformer=bf, p1=1, p2=1, p_relay=0)
                for x, y in pts
            ]
        )
        assert envelope_value(rb, 0.0) == 2.0
        assert envelope_value(rb, 0.5) == 1.5
        assert envelope_value(rb, 2.0) == 0.5
        assert envelope_value(rb, 2.5) == -math.inf


@settings(max_examples=15, deadline=None)
@given(g1=st.floats(0.05, 3.0), g2=st.floats(0.05, 3.0), scale=st.floats(1.1, 4.0))
def test_power_minimum_scales_with_targets(g1, g2, scale):
    eff = effective(gen_channels(3, 0.5, seed=99))
    pc = PowerConfig(8.0, 8.0, 10.0)
    p_base, _ = min_relay_power(eff, pc, g1, g2)
    p_more, _ = min_relay_power(eff, pc, g1 * scale, g2, tol=1e-8)
    if math.isfinite(p_base):
        assert p_more >= p_base * (1.0 - 1e-7)
