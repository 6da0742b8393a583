"""Tests for the optimal beamformer: QCQP assembly, power minimization,
ray exits, and region tracing."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrelay.beamformer import (
    DEFAULT_DELTA_R,
    RateProfile,
    _largest_passing,
    _log_excess,
    _PowerCell,
    _ray_exit,
    _snr_forms,
    build_qcqp,
    capacity_region,
    max_sum_rate,
    min_relay_power,
    rate_region_boundary,
    snr_targets,
)
from twrelay.bounds import c21, c_ub0
from twrelay.errors import InvalidInputError, NumericalFailureError
from twrelay.model import (
    LN2,
    Beamformer,
    ChannelPair,
    PowerConfig,
    RatePair,
    _evaluate_2x2,
    _rate,
    effective,
    gen_channels,
    rate_pair_reduced,
    relay_power,
    relay_power_reduced,
    snr_pair_reduced,
)
from twrelay.oracle import oracle_max_sum_rate, oracle_min_power

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
            assert abs(x @ self.build.prob.F0 @ x - p_direct) <= 1e-10 * max(1.0, p_direct)
            # SNR forms: x^T F1 x = (p2/g1bar)|g1^T B g2|^2 - ||B^T g1||^2
            q1 = (self.pc.p2 / 1.5) * abs(self.eff.g1 @ B @ self.eff.g2) ** 2 - np.linalg.norm(B.T @ self.eff.g1) ** 2
            q2 = (self.pc.p1 / 0.8) * abs(self.eff.g2 @ B @ self.eff.g1) ** 2 - np.linalg.norm(B.T @ self.eff.g2) ** 2
            scale = max(1.0, abs(q1), abs(q2))
            assert abs(x @ self.build.prob.F1 @ x - q1) <= 1e-10 * scale
            assert abs(x @ self.build.prob.F2 @ x - q2) <= 1e-10 * scale

    def test_hand_value_feasible_instance(self):
        # orthonormal effective channels, p2 = 4, target 1: the rank-one
        # part contributes 4/1 - 1 = 3 on the (1,2) vec coordinate, in
        # both the real and the imaginary half
        eff = effective(orthogonal_pair())
        build = build_qcqp(eff, PowerConfig(4.0, 4.0, 10.0), 1.0, 1.0)
        assert np.allclose(build.prob.F1, np.diag([-1.0, 3.0, 0.0, 0.0] * 2), atol=1e-12)

    def test_hand_value_infeasible_instance(self):
        # p2 = gamma bar: no positive direction remains, constraint unmeetable
        eff = effective(orthogonal_pair())
        build = build_qcqp(eff, PowerConfig(1.0, 1.0, 10.0), 1.0, 1.0)
        assert np.allclose(build.prob.F1, np.diag([-1.0, 0.0, 0.0, 0.0] * 2), atol=1e-12)

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

    @pytest.mark.parametrize(
        "terms, message",
        [
            ((math.inf, 1.0, 1.0), "relay power inf"),
            ((math.nan, 1.0, 1.0), "relay power nan"),
            ((1.0, math.nan, 1.0), "matrix or rates are not finite"),
            ((1e-320, 1.0, 1.0), "matrix or rates are not finite"),  # the budget scale overflows
        ],
    )
    def test_non_finite_candidates_raise(self, monkeypatch, terms, message):
        import twrelay.beamformer as bf

        monkeypatch.setattr(bf, "_evaluate_2x2", lambda *args: terms)
        with pytest.raises(NumericalFailureError, match=message):
            max_sum_rate(effective(gen_channels(3, 0.4, seed=17)), symmetric_power(10.0), RateProfile.of(0.5))

    def test_zero_candidate_raises(self, monkeypatch):
        import twrelay.beamformer as bf

        monkeypatch.setattr(bf._PowerCell, "null_vector", lambda self, t, g: [0j, 0j, 0j, 0j])
        with pytest.raises(NumericalFailureError, match="null vector of the dual matrix is 0"):
            max_sum_rate(effective(gen_channels(3, 0.4, seed=17)), symmetric_power(10.0), RateProfile.of(0.5))

    def test_tiny_budget_scales_a_unit_direction(self):
        # the null vectors' entries are near 1e-250 here, so their powers
        # underflow unless they are scaled by a power of two first
        eff = effective(gen_channels(4, 0.5, seed=42))
        pc = PowerConfig(10.0, 10.0, 1e-250)
        r, B = max_sum_rate(eff, pc, RateProfile.of(0.5))
        assert r >= 0.0
        assert relay_power_reduced(B, eff, pc) == pytest.approx(1e-250, rel=1e-12)

    def test_tiny_budgets_keep_their_rates(self):
        # an SNR below 2^-53 has a rate that log2(1 + gamma) rounds to 0.0:
        # the rates keep it, so the beamformer reaches the exit
        eff = effective(gen_channels(4, 0.5, seed=42))
        for p_relay in (1e-20, 1e-250):
            pc = PowerConfig(10.0, 10.0, p_relay)
            r_star = _PowerCell(eff, pc).exit(RateProfile.of(0.5))[0]
            r, _ = max_sum_rate(eff, pc, RateProfile.of(0.5))
            assert r_star > 0.0 and r == pytest.approx(r_star, rel=1e-9, abs=0.0)

    def test_rejects_bad_delta(self):
        eff = effective(orthogonal_pair())
        with pytest.raises(InvalidInputError):
            max_sum_rate(eff, symmetric_power(10.0), RateProfile.of(0.5), delta_r=0.0)

    def test_recovery_short_of_the_exit_raises(self, monkeypatch):
        # an exit 1e-3 above where the ray really leaves: no beamformer
        # reaches within delta_r of it, and that must not become a result
        import twrelay.beamformer as bf

        search = bf._PowerCell.exit

        def inflated(self, profile):
            r_star, ends = search(self, profile)
            return r_star + 1e-3, ends

        monkeypatch.setattr(bf._PowerCell, "exit", inflated)
        eff = effective(gen_channels(4, 0.5, seed=3))
        with pytest.raises(NumericalFailureError):
            max_sum_rate(eff, symmetric_power(10.0), RateProfile.of(0.5))


def _gains(eff):
    """(theta1, theta2): the squared norms of the reduced channels."""
    return tuple(float(np.real(g.conj() @ g)) for g in (eff.g1, eff.g2))


def _bisected_sum_rates(eff, pc, profile, coarse, fine):
    """The sum-rate bisection over [0, c_ub0] that max_sum_rate used before
    its exact ray exit, kept here as the reference: a probe is feasible
    when min_relay_power reports at most P_R (1 + 1e-9). Returns its
    result at tolerance coarse and at tolerance fine; the coarse run's
    probes are the first ones of the fine run."""
    if pc.p_relay <= 0.0:
        return 0.0, 0.0
    r_lo, r_hi = 0.0, c_ub0(pc, *_gains(eff))
    at_coarse = None
    while r_hi - r_lo > fine:
        if at_coarse is None and r_hi - r_lo <= coarse:
            at_coarse = r_lo
        r = 0.5 * (r_lo + r_hi)
        p_star, _ = min_relay_power(eff, pc, *snr_targets(profile, r))
        if p_star <= pc.p_relay * (1.0 + 1e-9):
            r_lo = r
        else:
            r_hi = r
    return (r_lo if at_coarse is None else at_coarse), r_lo


def _exit_corpus(count: int = 30, seed: int = 1618):
    """Seeded instances over the ray exit's edges: every M in 2/4/8 with
    every rho up to 1, unit and unnormalized channels, source and relay
    powers drawn independently over 0-60 dB, and a silent source on
    either side."""
    rng = np.random.default_rng(seed)
    rhos = (0.0, 0.5, 0.9, 0.99, 0.999, 1.0)
    for i in range(count):
        p1, p2, pr = 10.0 ** rng.uniform(0.0, 6.0, size=3)
        if i % 10 == 3:
            p1 = 0.0
        if i % 10 == 7:
            p2 = 0.0
        pair = gen_channels(
            (2, 4, 8)[(i // 6) % 3],
            rhos[i % 6],
            int(rng.integers(0, 2**31)),
            normalize=(i % 6 + i // 6) % 2 == 0,
        )
        yield effective(pair), PowerConfig(float(p1), float(p2), float(pr))


class TestExitCorpus:
    def test_against_sum_rate_bisection(self):
        rays = 0
        for eff, pc in _exit_corpus():
            for alpha21 in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                profile = RateProfile.of(alpha21)
                r, B = max_sum_rate(eff, pc, profile)
                coarse, fine = _bisected_sum_rates(eff, pc, profile, DEFAULT_DELTA_R, 1e-10)
                assert fine - DEFAULT_DELTA_R <= r <= fine + 1e-8
                # no ray loses rate against the bisection at the default tolerance
                assert r >= coarse - 1e-9
                g1b, g2b = snr_targets(profile, r)
                s1, s2 = snr_pair_reduced(B, eff, pc)
                assert s1 >= g1b * (1.0 - 1e-9)
                assert s2 >= g2b * (1.0 - 1e-9)
                assert relay_power_reduced(B, eff, pc) <= pc.p_relay * (1.0 + 1e-9)
                rays += 1
        assert rays >= 200


class TestTracedCorpus:
    def test_beamformer_reaches_its_rate_within_budget(self):
        # rho 0 and 1, silent sources, unnormalized channels, 0-60 dB
        import twrelay.beamformer as bf

        rays = 0
        for eff, pc in _exit_corpus(count=60):
            for alpha21 in (0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.0):
                profile = RateProfile.of(alpha21)
                r_star = bf._PowerCell(eff, pc).exit(profile)[0] if pc.p_relay > 0.0 else 0.0
                r, B = max_sum_rate(eff, pc, profile)
                assert r_star - DEFAULT_DELTA_R <= r <= r_star
                assert r_star - r <= 1e-9
                assert relay_power_reduced(B, eff, pc) <= pc.p_relay * (1.0 + 1e-12)
                rates = rate_pair_reduced(B, eff, pc)
                assert rates.r21 >= profile.alpha21 * r * (1.0 - 1e-15)
                assert rates.r12 >= profile.alpha12 * r * (1.0 - 1e-15)
                rays += 1
        assert rays == 540


def _exact_lifted_snrs(B: np.ndarray, eff, pc: PowerConfig) -> tuple:
    """(s21, s12) of A = U* B U^H on the channels U g_i, as rate_pair gives
    them in exact arithmetic from the floats of U, B and the real g_i: with
    G = U^H U, h_i^T A h_j = g_i^T conj(G) B G g_j and
    ||A^H conj(h_i)||^2 = x^H G x for x = B^H conj(G) g_i. A complex
    number is a pair of Fractions."""

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def dot(u, v):
        return tuple(map(sum, zip(*(mul(x, y) for x, y in zip(u, v)))))

    def conj(v):
        return [(re, -im) for re, im in v]

    def matvec(M, v):
        return [dot(row, v) for row in M]

    def exact(rows):
        return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(rows, dtype=complex).tolist()]

    columns = list(zip(*exact(eff.U)))
    G = [[dot(conj(columns[i]), columns[j]) for j in range(2)] for i in range(2)]
    Gc, Bm = [conj(row) for row in G], exact(B)
    GcT, BH = [list(col) for col in zip(*Gc)], [conj(col) for col in zip(*Bm)]
    g1, g2 = exact([eff.g1, eff.g2])

    def snr(gi, gj, p):
        a = dot(matvec(GcT, gi), matvec(Bm, matvec(G, gj)))
        x = matvec(BH, matvec(Gc, gi))
        return float((a[0] ** 2 + a[1] ** 2) * Fraction(p) / (dot(conj(x), matvec(G, x))[0] + 1))

    return snr(g1, g2, pc.p2), snr(g2, g1, pc.p1)


class TestScalarEvaluator:
    def test_agrees_with_the_lifted_evaluators(self):
        # rho 0 and 1, silent sources, unnormalized channels, 0-60 dB: each
        # traced beamformer's power and rates in scalars against those of
        # the full-size matrix A = U* B U^H on the channels U g_i. A rate
        # near 0 carries the cancellation in g_i^T B g_j, so rates are
        # compared relative to the larger of the pair, and with the lifted
        # rates evaluated exactly from the floats of U, B and g_i: numpy's
        # rate_pair rounds that cancellation through U by up to 1.1e-12 of
        # the larger rate here, the scalar path by at most 2.4e-13
        matrices = 0
        for eff, pc in _exit_corpus(count=60):
            lifted = ChannelPair(m=eff.U.shape[0], h1=eff.U @ eff.g1, h2=eff.U @ eff.g2, rho=0.0)
            stack = np.array([max_sum_rate(eff, pc, RateProfile.of(a))[1] for a in (0.0, 0.3, 0.5, 0.9, 1.0)])
            for B in stack:
                power, s21, s12 = _evaluate_2x2(B.ravel().tolist(), eff.g1.tolist(), eff.g2.tolist(), pc.p1, pc.p2)
                A = Beamformer(B=B, U=eff.U).full()
                assert power == pytest.approx(relay_power(A, lifted, pc), rel=1e-12, abs=0.0)
                want21, want12 = map(_rate, _exact_lifted_snrs(B, eff, pc))
                scale = max(want21, want12)
                assert abs(_rate(s21) - want21) <= 1e-12 * scale
                assert abs(_rate(s12) - want12) <= 1e-12 * scale
                matrices += 1
            # the stack form that fills a boundary's p_relay column
            assert relay_power_reduced(stack, eff, pc).tolist() == [relay_power_reduced(B, eff, pc) for B in stack]
        assert matrices == 300


# relay budgets in ascending order: a tiny one, then 40-160 dB
HIGH_BUDGETS = (1e-250,) + tuple(10.0 ** (db / 10.0) for db in (40, 60, 80, 90, 100, 120, 140, 160))


def _high_budget_rays(count: int = 20):
    """(eff, p1, p2, alpha21) of seeded rays for the budget ladder: M 2/4,
    rho 0, 0.5, 0.99 and 1, unit and unnormalized channels, equal source
    powers, and a silent source on every fifth channel draw."""
    for seed in range(count):
        for rho in (0.0, 0.5, 0.99, 1.0):
            for normalize in (True, False):
                eff = effective(gen_channels((2, 4)[seed % 2], rho, seed, normalize=normalize))
                p1 = 0.0 if seed % 5 == 4 and normalize else 10.0
                for alpha21 in (0.25, 0.5):
                    yield eff, p1, 10.0, alpha21


class TestHighBudgets:
    def test_seed_4_at_90_db(self):
        # a Cholesky whitening of N(0) = Q2 + E0/P_R, whose condition
        # number grows like P_R, left this ray 0.0134 bits short, with no error
        eff = effective(gen_channels(4, 0.5, seed=4))
        r, _ = max_sum_rate(eff, PowerConfig(10.0, 10.0, 1e9), RateProfile.of(0.5))
        assert abs(r - 3.459432) <= 1e-6

    def test_budget_ladder(self):
        # each ray either fails cleanly or stays under c_ub0 and never
        # falls by more than delta_r as the budget rises
        returned = 0
        for eff, p1, p2, alpha21 in _high_budget_rays():
            best = 0.0
            for budget in HIGH_BUDGETS:
                pc = PowerConfig(p1, p2, budget)
                try:
                    r, _ = max_sum_rate(eff, pc, RateProfile.of(alpha21))
                except NumericalFailureError:
                    continue
                assert 0.0 <= r <= c_ub0(pc, *_gains(eff)) + 1e-9
                assert r >= best - DEFAULT_DELTA_R
                best = max(best, r)
                returned += 1
        # 2,821 of the 2,880 calls return; the rest are at rho 0 and 140-160 dB
        assert returned >= 2800

    @pytest.mark.parametrize("seed, rho, budget", [(0, 0.5, 1e9), (1, 0.99, 1e12), (2, 0.0, 1e10), (3, 1.0, 1e16)])
    def test_against_the_oracle(self, seed, rho, budget):
        eff = effective(gen_channels(4, rho, seed, normalize=False))
        pc, profile = PowerConfig(10.0, 10.0, budget), RateProfile.of(0.25)
        r, _ = max_sum_rate(eff, pc, profile)
        assert abs(r - oracle_max_sum_rate(eff, pc, profile).value) <= 1e-3


def _no_solve(monkeypatch):
    """Make every power-minimization solve that beamformer.py can reach
    raise."""
    import twrelay.beamformer as bf

    def refuse(*args, **kwargs):
        raise AssertionError("a traced ray made a solve")

    monkeypatch.setattr(bf, "solve_sdp", refuse)
    monkeypatch.setattr(bf, "min_relay_power", refuse)


class TestWorkCounts:
    def test_boundary_makes_no_solve(self, monkeypatch):
        _no_solve(monkeypatch)
        eff = effective(gen_channels(4, 0.6, seed=19))
        rb = rate_region_boundary(eff, PowerConfig(30.0, 300.0, 100.0), n_profiles=33)
        assert len(rb.r21) == 33
        max_sum_rate(eff, PowerConfig(30.0, 300.0, 100.0), RateProfile.of(0.3))

    def test_capacity_makes_no_solve(self, monkeypatch):
        _no_solve(monkeypatch)
        cr = capacity_region(gen_channels(3, 0.4, seed=17), 10.0, 10.0, 10.0, power_grid=3, n_profiles=5)
        assert len(cr.r21) > 0

    def test_capacity_searches_each_cell_once_per_ray(self, monkeypatch):
        # the winning cell's search also gives the ray's beamformer: the
        # 5 edge cells of the 3 x 3 grid x 5 rays, with no second search
        # of the winner
        import twrelay.beamformer as bf

        searches = []
        search = bf._PowerCell.exit

        def counting(self, profile):
            searches.append(profile)
            return search(self, profile)

        monkeypatch.setattr(bf._PowerCell, "exit", counting)
        capacity_region(gen_channels(3, 0.4, seed=17), 10.0, 10.0, 10.0, power_grid=3, n_profiles=5)
        assert len(searches) == 25

    def test_root_searches_per_exit(self, monkeypatch):
        # 2 on a ray whose minimum is an end of [0, 1], and at most 43
        # otherwise: the two ends and <= 41 ITP steps
        import twrelay.beamformer as bf

        roots = []

        def counting(*args):
            roots.append(args)
            return _largest_passing(*args)

        monkeypatch.setattr(bf, "_largest_passing", counting)
        exits = 0
        for eff, pc in _exit_corpus(count=12):
            if pc.p_relay > 0.0:
                for alpha21 in (0.1, 0.3, 0.5, 0.7, 0.9):
                    roots.clear()
                    bf._PowerCell(eff, pc).exit(RateProfile.of(alpha21))
                    assert len(roots) <= 43
                    exits += 1
        assert exits == 60

    def test_root_steps_per_boundary(self, monkeypatch):
        # each r_hat root search starts from the one before it: 11,076
        # steps on this boundary, against 29,120 from the top of every bracket
        import twrelay.beamformer as bf

        steps = []

        def counting(c, r, X):
            steps.append(r)
            return _log_excess(c, r, X)

        monkeypatch.setattr(bf, "_log_excess", counting)
        eff = effective(gen_channels(4, 0.5, seed=3))
        rate_region_boundary(eff, symmetric_power(10.0), n_profiles=33)
        assert len(steps) <= 15000

    def test_one_power_cell_per_boundary(self, monkeypatch):
        import twrelay.beamformer as bf

        built = []

        class Counting(bf._PowerCell):
            def __init__(self, eff, pc, *forms):
                built.append(pc)
                super().__init__(eff, pc, *forms)

        monkeypatch.setattr(bf, "_PowerCell", Counting)
        pair = gen_channels(3, 0.4, seed=17)
        rate_region_boundary(effective(pair), symmetric_power(10.0), n_profiles=9)
        assert len(built) == 1
        built.clear()
        capacity_region(pair, 10.0, 10.0, 10.0, power_grid=3, n_profiles=5)
        assert len(built) == 5
        assert len(set(built)) == 5


def _halving_exit(cell, profile):
    """The r* of an interior exit as 40 halvings of [0, 1] on the sign of
    gap find it, the search that _PowerCell.exit made before ITP, kept
    as the reference; None where an end of [0, 1] is the minimum."""
    c1, c2 = 2.0 * profile.alpha21 * LN2, 2.0 * profile.alpha12 * LN2
    (r_lo, _, gap_lo), (r_hi, _, gap_hi) = cell.probe(0.0, c1, c2), cell.probe(1.0, c1, c2)
    if min(r_lo, r_hi) == 0.0 or gap_lo >= 0.0 or gap_hi <= 0.0:
        return None
    lo, hi, r_star, r = 0.0, 1.0, min(r_lo, r_hi), None
    for _ in range(40):
        t = 0.5 * (lo + hi)
        r, _, gap = cell.probe(t, c1, c2, r)
        r_star = min(r_star, r)
        if gap < 0.0:
            lo = t
        else:
            hi = t
    return r_star


class TestItpExit:
    def test_matches_the_halving_search(self):
        # rho 0 and 1, silent sources, unnormalized channels, 0-60 dB. At
        # rho 0 (every sixth instance) r_hat has a kink at its minimum, so
        # r* moves by r_hat's slope times where in the 2^-40 bracket the
        # last probes fall: up to 1.9e-13 relative here
        exits = 0
        for i, (eff, pc) in enumerate(_exit_corpus(count=60)):
            if pc.p_relay > 0.0:
                cell = _PowerCell(eff, pc)
                for alpha21 in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
                    profile = RateProfile.of(alpha21)
                    reference = _halving_exit(cell, profile)
                    if reference is not None:
                        tol = 1e-12 if i % 6 == 0 else 1e-15
                        assert abs(cell.exit(profile)[0] - reference) <= tol * reference
                        exits += 1
        assert exits >= 100

    def test_few_steps_on_moderate_instances(self, monkeypatch):
        # the four cells of a two-point capacity grid, 0-30 dB: the
        # halving search takes 40 steps on every interior exit, ITP 10.4
        # on average here
        import twrelay.beamformer as bf

        roots = []

        def counting(*args):
            roots.append(args)
            return _largest_passing(*args)

        monkeypatch.setattr(bf, "_largest_passing", counting)
        rng = np.random.default_rng(1)
        steps = []
        for i in range(24):
            p = float(10.0 ** rng.uniform(0.0, 3.0))
            eff = effective(gen_channels((2, 4, 8)[i % 3], float(rng.uniform(0.1, 0.95)), int(rng.integers(0, 2**31))))
            for pc in [PowerConfig(a, b, p) for a in (p / 100, p) for b in (p / 100, p)]:
                cell = _PowerCell(eff, pc)
                for alpha21 in (0.25, 0.5, 0.75):
                    roots.clear()
                    cell.exit(RateProfile.of(alpha21))
                    if len(roots) > 2:
                        steps.append(len(roots) - 2)
        assert len(steps) >= 80
        assert np.mean(steps) <= 15.0


def _kron_forms(g_rx, g_tx):
    """_snr_forms as np.kron builds them, kept as the reference."""
    G = np.kron(g_rx[None, :], np.eye(2))
    return np.kron(g_rx, g_tx).conj(), G.conj().T @ G


def _channel_vectors(rng):
    """Seeded complex 2-vectors, some with exact zero entries."""
    for k in range(12):
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        if k % 4 == 1:
            g[0] = 0.0
        if k % 4 == 2:
            g[1] = 0.0
        yield g


class TestPowerCellForms:
    def test_forms_match_kron_construction(self):
        # BLAS can move an entry of the kron Q by an ulp, so not bitwise
        rng = np.random.default_rng(43)
        vectors = list(_channel_vectors(rng))
        for g_rx, g_tx in zip(vectors, vectors[::-1]):
            (u, Q), (u_ref, Q_ref) = _snr_forms(g_rx, g_tx), _kron_forms(g_rx, g_tx)
            assert np.max(abs(u - u_ref)) <= 1e-15 * np.max(abs(u_ref), initial=1.0)
            assert np.max(abs(Q - Q_ref)) <= 1e-15 * np.max(abs(Q_ref), initial=1.0)
        for m, rho, seed in ((2, 0.0, 3), (4, 0.5, 8), (8, 0.95, 21)):
            eff = effective(gen_channels(m, rho, seed))
            pc = PowerConfig(3.0, 70.0, 10.0)
            theta = pc.p1 * np.outer(eff.g1, eff.g1.conj()) + pc.p2 * np.outer(eff.g2, eff.g2.conj()) + np.eye(2)
            (u1, Q1), (u2, Q2) = _kron_forms(eff.g1, eff.g2), _kron_forms(eff.g2, eff.g1)
            forms = [np.kron(np.eye(2), theta.T), 2.0 * np.outer(u1, u1.conj()) - Q1, 0.5 * np.outer(u2, u2.conj()) - Q2]
            prob = _PowerCell(eff, pc).problem(pc.p2 / 2.0, pc.p1 / 0.5)
            for got, E in zip((prob.F0, prob.F1, prob.F2), forms):
                want = np.block([[E.real, -E.imag], [E.imag, E.real]])
                assert np.max(abs(got - want)) <= 1e-15 * np.max(abs(want))
            # a zero target drops its constraint
            assert _PowerCell(eff, pc).problem(0.0, pc.p1 / 0.5).F2 is None

    def test_docstring_identities(self):
        rng = np.random.default_rng(47)
        vectors = list(_channel_vectors(rng))
        for g_rx, g_tx in zip(vectors, vectors[1:] + vectors[:1]):
            u, Q = _snr_forms(g_rx, g_tx)
            B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = B.ravel()
            signal, noise = abs(g_rx @ B @ g_tx) ** 2, np.linalg.norm(B.T @ g_rx) ** 2
            assert abs(np.vdot(u, b)) ** 2 == pytest.approx(signal, rel=1e-13, abs=1e-13)
            assert np.vdot(b, Q @ b).real == pytest.approx(noise, rel=1e-13, abs=1e-13)
            assert abs(np.vdot(b, Q @ b).imag) <= 1e-13 * max(noise, 1.0)


def _exit_roots(monkeypatch, count: int = 18, seed: int = 31):
    """The (X, Y, s, c1, c2, start) of every r_hat root search that the
    exits of seeded rays make: M 2/4/8, rho up to 0.99, unit and
    unnormalized channels, powers over 0-60 dB."""
    import twrelay.beamformer as bf

    calls = []

    def recording(*args):
        calls.append(args)
        return _largest_passing(*args)

    monkeypatch.setattr(bf, "_largest_passing", recording)
    rng = np.random.default_rng(seed)
    for i in range(count):
        pair = gen_channels(
            (2, 4, 8)[i % 3], float(rng.uniform(0.0, 0.99)), int(rng.integers(0, 2**31)),
            normalize=i % 2 == 0,
        )
        pc = PowerConfig(*(float(p) for p in 10.0 ** rng.uniform(0.0, 6.0, size=3)))
        for alpha21 in (0.1, 0.5, 0.9):
            bf._PowerCell(effective(pair), pc).exit(RateProfile.of(alpha21))
    return calls


class TestWarmStart:
    def test_started_root_matches_the_cold_root(self, monkeypatch):
        # the last digits of a root are set by rounding in phi, so a start
        # may move them by a few ulps (6.4e-16 relative at most here)
        calls = _exit_roots(monkeypatch)
        assert len(calls) >= 1000
        rng = np.random.default_rng(5)
        for X, Y, s, c1, c2, start in calls:
            cold = _largest_passing(X, Y, s, c1, c2)
            lo = max(math.log1p(X) / c1, math.log1p(Y) / c2)
            hi = max(math.log1p(3.0 * X) / c1, math.log1p(3.0 * Y) / c2)
            for guess in (start, float(rng.uniform(lo, hi)), cold * (1.0 + 1e-6)):
                if guess is not None:
                    assert abs(_largest_passing(X, Y, s, c1, c2, guess) - cold) <= 4e-15 * cold

    def test_start_outside_the_bracket_is_ignored(self):
        X, Y, s, c1, c2 = 3.0, 40.0, 0.6, 0.5, 0.9
        lo = max(math.log1p(X) / c1, math.log1p(Y) / c2)
        hi = max(math.log1p(3.0 * X) / c1, math.log1p(3.0 * Y) / c2)
        cold = _largest_passing(X, Y, s, c1, c2)
        assert lo < cold < hi
        for start in (lo, hi, math.inf, -math.inf, math.nan, 0.0, 2.0 * hi):
            assert _largest_passing(X, Y, s, c1, c2, start) == cold

    def test_start_that_rounds_onto_lo(self):
        # at one float past lo, c1 r - ln(1 + X) rounds to zero: the start
        # passes but gives no Newton step, and the search must still reach
        # the root
        X, Y, s = 0.032824323178530075, 0.9011893051077203, 0.2294747496103047
        c1, c2 = 0.05036669472906644, 1.3356333052709335
        lo = math.log1p(X) / c1
        start = math.nextafter(lo, math.inf)
        assert lo == max(lo, math.log1p(Y) / c2)
        assert _log_excess(c1, start, X)[0] == -math.inf
        cold = _largest_passing(X, Y, s, c1, c2)
        assert abs(_largest_passing(X, Y, s, c1, c2, start) - cold) <= 4e-15 * cold


def _decimal_root(X: float, Y: float, s: float, c1: float, c2: float) -> Decimal:
    """The largest passing r of _largest_passing, bisected in 50-digit
    decimal arithmetic."""
    X, Y, s, c1, c2 = (Decimal(v) for v in (X, Y, s, c1, c2))

    def passes(r: Decimal) -> bool:
        x, y = X / ((c1 * r).exp() - 1), Y / ((c2 * r).exp() - 1)
        return x >= 1 or y >= 1 or (1 - x) * (1 - y) <= s * x * y

    lo, hi = Decimal(0), Decimal(1)
    while passes(hi):
        hi *= 2
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo


class TestRootAccuracy:
    def test_against_decimal_reference(self):
        # where gamma - X cancels (X and Y near 1e-3) the root is still
        # right to a few ulps: 3.7e-16 relative at worst here, against
        # 1.9e-13 with ln(gamma - X) written c r + ln(1 - (1 + X) e^(-c r))
        rng = np.random.default_rng(41)
        with localcontext() as ctx:
            ctx.prec = 50
            for i in range(40):
                X, Y = 10.0 ** rng.uniform(*((-3.3, -2.7) if i % 2 else (-4.0, 4.0)), size=2)
                s, alpha = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 0.95))
                c1, c2 = 2.0 * alpha * math.log(2.0), 2.0 * (1.0 - alpha) * math.log(2.0)
                want = _decimal_root(float(X), float(Y), s, c1, c2)
                got = _largest_passing(float(X), float(Y), s, c1, c2)
                assert abs(Decimal(got) - want) <= Decimal(4e-15) * want


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


class TestRayExit:
    # the frontier jumps between the float `jump` and the next one, the
    # steepest a frontier can be; the bisection ends on that pair and
    # their midpoint rounds to the lower float for 0.75 and to the upper
    # one for its successor
    @pytest.mark.parametrize("jump", [0.75, math.nextafter(0.75, 1.0)])
    @pytest.mark.parametrize(
        "before, after",
        [((4.0, 1.0), (1.5, 5.0)), ((4.0, 1.5), (1.0, 5.0))],
        ids=["upper-end-better", "lower-end-better"],
    )
    def test_steep_frontier_takes_the_better_end(self, jump, before, after):
        def rates(x: float) -> RatePair:
            return RatePair(*(before if x <= jump else after))

        def ray(r: RatePair) -> float:
            return min(r.r21 / 0.5, r.r12 / 0.5)

        want = max(ray(rates(jump)), ray(rates(math.nextafter(jump, 1.0))))
        assert _ray_exit(rates, 0.0, 1.0, RateProfile.of(0.5)) == want


class TestRegionBoundary:
    def test_profile_coverage_and_order(self):
        # the second instance has a low-rate flat arm whose r21 steps are
        # below 4e-4 bits, where a sort with a tie that wide scrambles r21
        for rho, pc in ((0.8, symmetric_power(10.0)), (1.0, PowerConfig(27.0, 3397.0, 0.457))):
            rb = rate_region_boundary(effective(gen_channels(4, rho, seed=7)), pc)
            assert rb.alpha21.tolist() == [i / 32 for i in range(33)]
            r21s, r12s = rb.r21.tolist(), rb.r12.tolist()
            assert all(a <= b + 1e-12 for a, b in zip(r21s, r21s[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(r12s, r12s[1:]))

    def test_points_certified_by_beamformers(self):
        eff = effective(gen_channels(4, 0.5, seed=13))
        pc = symmetric_power(10.0)
        rb = rate_region_boundary(eff, pc, n_profiles=9)
        for B, r21, r12, spent in zip(rb.B, rb.r21, rb.r12, rb.p_relay):
            achieved = rate_pair_reduced(Beamformer(B=B, U=rb.U), eff, pc)
            assert achieved.r21 >= r21 - 1e-9
            assert achieved.r12 >= r12 - 1e-9
            assert spent <= pc.p_relay * (1 + 1e-6)

    def test_symmetric_instance_boundary_is_symmetric(self):
        eff = effective(orthogonal_pair())
        rb = rate_region_boundary(eff, symmetric_power(10.0))
        for r21, r12 in zip(rb.r21.tolist(), rb.r12.tolist()):
            assert rb.r12[rb.r21 >= r12 - 1e-12].max(initial=-math.inf) >= r21 - 1e-3

    def test_contains_equal_rate_closed_form(self):
        eff = effective(orthogonal_pair())
        rb = rate_region_boundary(eff, PowerConfig(4.0, 4.0, 10.0))
        mid = rb.alpha21.tolist().index(0.5)
        assert abs(rb.r21[mid] - EQUAL_RATE) <= 1e-3
        assert abs(rb.r12[mid] - EQUAL_RATE) <= 1e-3

    def test_silent_source_collapses_to_axis(self):
        eff = effective(orthogonal_pair())
        rb = rate_region_boundary(eff, PowerConfig(0.0, 4.0, 10.0), n_profiles=9)
        assert rb.r12.max() == 0.0
        assert rb.r21.max() > 0.5

    def test_rejects_single_profile(self):
        eff = effective(orthogonal_pair())
        with pytest.raises(InvalidInputError):
            rate_region_boundary(eff, symmetric_power(10.0), n_profiles=1)


def _full_grid_capacity(pair, P1, P2, P_R, grid, n_profiles):
    """The capacity envelope as the search of every grid^2 cell gives it:
    cells in p1-major order, each ray traced in the first cell whose exit
    is farthest, then the dominance prune; one (r21, r12, p1, p2,
    p_relay, B) tuple per kept ray."""
    import twrelay.beamformer as bf

    eff = effective(pair)
    cells = [
        bf._PowerCell(eff, PowerConfig(float(p1), float(p2), P_R))
        for p1 in bf._power_grid(P1, grid)
        for p2 in bf._power_grid(P2, grid)
    ]
    points = []
    for profile in bf._profiles(n_profiles):
        cell, found = max(((cell, cell.exit(profile)) for cell in cells), key=lambda item: item[1][0])
        r, B, _ = bf._traced(cell, profile, found, DEFAULT_DELTA_R)
        spent = relay_power_reduced(Beamformer(B=B, U=eff.U), eff, cell.pc)
        points.append((profile.alpha21 * r, profile.alpha12 * r, cell.pc.p1, cell.pc.p2, spent, B))
    keep = bf._prune_dominated(np.array([p[0] for p in points]), np.array([p[1] for p in points]))
    return [points[i] for i in keep]


def _capacity_corpus(count: int = 40, seed: int = 4242):
    """(m, rho, seed, P1, P2, P_R, grid): the edges first (rho 0 and 1, a
    silent source, source limits 1e-4 and 1e4 apart, no relay budget),
    then draws with every power in [1e-4, 1e4] and grid 1, 2, 3 or 8."""
    cases = [
        (4, 0.0, 7, 10.0, 10.0, 10.0, 8),
        (4, 1.0, 7, 10.0, 10.0, 10.0, 8),
        (3, 0.5, 8, 0.0, 100.0, 10.0, 3),
        (3, 0.5, 8, 100.0, 0.0, 10.0, 8),
        (2, 0.3, 9, 1e-4, 1e4, 10.0, 8),
        (2, 0.3, 9, 1e4, 1e-4, 1e4, 3),
        (4, 0.6, 10, 1e4, 1e4, 1e-4, 2),
        (4, 0.6, 10, 10.0, 1000.0, 0.0, 3),
        (4, 0.6, 10, 10.0, 10.0, 10.0, 1),
    ]
    rng = np.random.default_rng(seed)
    while len(cases) < count:
        P1, P2, P_R = (10.0 ** rng.uniform(-4.0, 4.0, size=3)).tolist()
        cases.append(
            (
                int(rng.choice([2, 4, 8])),
                float(rng.uniform()),
                int(rng.integers(0, 2**31)),
                P1,
                P2,
                P_R,
                int(rng.choice([1, 2, 3, 8])),
            )
        )
    return cases


class TestCapacityRegion:
    def test_grid_one_equals_plain_boundary(self):
        pair = orthogonal_pair()
        rb = rate_region_boundary(effective(pair), symmetric_power(10.0), n_profiles=9)
        cr = capacity_region(pair, 10.0, 10.0, 10.0, power_grid=1, n_profiles=9)
        assert len(cr.r21) == len(rb.r21)
        assert np.array_equal(cr.r21, rb.r21) and np.array_equal(cr.r12, rb.r12)
        assert np.array_equal(cr.B, rb.B)

    def test_envelope_contains_full_power_boundary(self):
        pair = gen_channels(3, 0.4, seed=17)
        rb = rate_region_boundary(effective(pair), symmetric_power(10.0), n_profiles=9)
        cr = capacity_region(pair, 10.0, 10.0, 10.0, power_grid=2, n_profiles=9)
        for r21, r12 in zip(rb.r21.tolist(), rb.r12.tolist()):
            assert cr.r12[cr.r21 >= r21 - 1e-12].max(initial=-math.inf) >= r12 - 1e-9

    def test_more_relay_power_dominates(self):
        eff = effective(gen_channels(3, 0.4, seed=17))
        lo = rate_region_boundary(eff, PowerConfig(10.0, 10.0, 5.0), n_profiles=5)
        hi = rate_region_boundary(eff, PowerConfig(10.0, 10.0, 10.0), n_profiles=5)
        assert np.all(lo.r21 + lo.r12 <= hi.r21 + hi.r12 + 2e-4)

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidInputError):
            capacity_region(orthogonal_pair(), 10.0, 10.0, 10.0, power_grid=0)

    # at rho 0.041 the p2 cells of the best p1 end within 4e-4 bits of
    # each other on the r12 axis ray
    @pytest.mark.parametrize("rho, powers", [(0.4, (10.0, 10.0, 10.0)), (0.041, (1000.0, 10.0, 10.0))])
    def test_each_ray_takes_its_farthest_cell(self, rho, powers):
        import twrelay.beamformer as bf

        pair = gen_channels(3, rho, seed=17)
        cr = capacity_region(pair, *powers, power_grid=3, n_profiles=5)
        eff = effective(pair)
        cells = [
            PowerConfig(float(p1), float(p2), powers[2])
            for p1 in bf._power_grid(powers[0], 3)
            for p2 in bf._power_grid(powers[1], 3)
        ]
        alphas = cr.alpha21.tolist()
        assert len(set(alphas)) == len(alphas)
        for alpha21, r21, r12, p1, p2 in zip(alphas, cr.r21.tolist(), cr.r12.tolist(), cr.p1.tolist(), cr.p2.tolist()):
            profile = RateProfile.of(alpha21)
            values = [max_sum_rate(eff, pc, profile)[0] for pc in cells]
            best = max(values)
            first = cells[values.index(best)]
            assert (r21, r12) == (profile.alpha21 * best, profile.alpha12 * best)
            assert (p1, p2) == (first.p1, first.p2)

    def test_matches_the_full_grid_search(self):
        # only edge cells can hold the union's boundary, so searching them
        # alone gives every point of the full grid's search; with no relay
        # budget every exit ties at 0 and only the rates are defined
        for m, rho, seed, P1, P2, P_R, grid in _capacity_corpus():
            pair = gen_channels(m, rho, seed)
            got = capacity_region(pair, P1, P2, P_R, power_grid=grid, n_profiles=9)
            want = _full_grid_capacity(pair, P1, P2, P_R, grid, n_profiles=9)
            assert list(zip(got.r21.tolist(), got.r12.tolist())) == [p[:2] for p in want]
            if P_R > 0.0:
                columns = (got.p1.tolist(), got.p2.tolist(), got.p_relay.tolist())
                assert list(zip(*columns)) == [p[2:5] for p in want]
                assert [B.tobytes() for B in got.B] == [p[5].tobytes() for p in want]

    @pytest.mark.parametrize("grid", (1, 2, 3, 8))
    def test_searches_only_the_edge_cells(self, monkeypatch, grid):
        # the 2 grid - 1 cells with one source at full power, in the
        # p1-major order of the full grid
        import twrelay.beamformer as bf

        built = []

        class Counting(bf._PowerCell):
            def __init__(self, eff, pc, *forms):
                built.append((pc.p1, pc.p2))
                super().__init__(eff, pc, *forms)

        monkeypatch.setattr(bf, "_PowerCell", Counting)
        capacity_region(gen_channels(3, 0.4, seed=17), 10.0, 20.0, 10.0, power_grid=grid, n_profiles=3)
        p1_grid, p2_grid = bf._power_grid(10.0, grid).tolist(), bf._power_grid(20.0, grid).tolist()
        full = [(p1, p2) for p1 in p1_grid for p2 in p2_grid]
        assert len(built) == 2 * grid - 1
        assert built == [cell for cell in full if cell[0] == p1_grid[-1] or cell[1] == p2_grid[-1]]

    @pytest.mark.parametrize("grid", (1, 3, 8))
    def test_power_grid_built_once_per_axis(self, monkeypatch, grid):
        import twrelay.beamformer as bf

        calls = []
        build = bf._power_grid

        def counting(limit, count):
            calls.append(limit)
            return build(limit, count)

        monkeypatch.setattr(bf, "_power_grid", counting)
        capacity_region(gen_channels(3, 0.4, seed=17), 10.0, 20.0, 10.0, power_grid=grid, n_profiles=3)
        assert sorted(calls) == [10.0, 20.0]

    def test_zero_relay_power_gives_one_zero_point(self):
        # every ray stays at (0, 0), and equal points are kept once
        cr = capacity_region(gen_channels(3, 0.4, seed=17), 10.0, 10.0, 0.0, power_grid=3, n_profiles=5)
        assert (cr.r21.tolist(), cr.r12.tolist()) == ([0.0], [0.0])


@settings(max_examples=15, deadline=None)
@given(g1=st.floats(0.05, 3.0), g2=st.floats(0.05, 3.0), scale=st.floats(1.1, 4.0))
def test_power_minimum_scales_with_targets(g1, g2, scale):
    eff = effective(gen_channels(3, 0.5, seed=99))
    pc = PowerConfig(8.0, 8.0, 10.0)
    p_base, _ = min_relay_power(eff, pc, g1, g2)
    p_more, _ = min_relay_power(eff, pc, g1 * scale, g2)
    if math.isfinite(p_base):
        assert p_more >= p_base * (1.0 - 1e-7)
