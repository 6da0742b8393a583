"""Tests for the suboptimal beamforming schemes and baselines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orthogonal_pair, symmetric_power

from twrelay.beamformer import RateProfile, min_relay_power
from twrelay.bounds import r_lb_mr, r_lb_zf
from twrelay.errors import InvalidInputError, RankDeficiencyError
from twrelay.model import (
    ChannelPair,
    PowerConfig,
    effective,
    gen_channels,
    rate_pair,
    rate_pair_reduced,
    relay_power,
    relay_power_reduced,
)
from twrelay.schemes import (
    _ratio_to_components,
    direct_relay,
    mrr_mrt,
    oneway_alternating,
    scheme_best_rates,
    scheme_max_sum_rate,
    scheme_profile_sum_rate,
    sweep_region,
    zfr_zft,
)


def complex_correlation_pair(m: int = 4) -> ChannelPair:
    """Pair whose inner product h1^H h2 has a nonzero phase.

    Generated pairs always have a real inner product by construction, so
    conjugation mistakes in the factored scheme forms cancel on them.
    This pair does not let them cancel.
    """
    rng = np.random.default_rng(77)
    h1 = rng.normal(size=m) + 1j * rng.normal(size=m)
    h1 /= np.linalg.norm(h1)
    w = rng.normal(size=m) + 1j * rng.normal(size=m)
    w -= (h1.conj() @ w) * h1
    w /= np.linalg.norm(w)
    h2 = 0.6 * np.exp(0.7j) * h1 + 0.8 * w
    return ChannelPair(m=m, h1=h1, h2=h2, rho=0.36, seed=None)


class TestRatioComponents:
    def test_unit_norm_and_ratio(self):
        for ratio in (0.0, 0.3, 1.0, 7.5):
            a, b = _ratio_to_components(ratio)
            assert math.hypot(a, b) == pytest.approx(1.0, abs=1e-15)
            assert a == pytest.approx(ratio * b, abs=1e-15)

    def test_infinite_ratio(self):
        assert _ratio_to_components(math.inf) == (1.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            _ratio_to_components(-0.1)


class TestMatchedFilter:
    def test_matches_direct_construction(self):
        pc = symmetric_power(10.0)
        for pair in (gen_channels(4, 0.5, seed=3), complex_correlation_pair()):
            bf = mrr_mrt(pair, 0.7, pc)
            a, b = _ratio_to_components(0.7)
            A_direct = a * np.outer(pair.h2.conj(), pair.h1.conj()) + b * np.outer(
                pair.h1.conj(), pair.h2.conj()
            )
            A_direct *= math.sqrt(pc.p_relay / relay_power(A_direct, pair, pc))
            np.testing.assert_allclose(bf.full(), A_direct, atol=1e-10)

    def test_spends_full_budget(self):
        pair = gen_channels(4, 0.3, seed=11)
        eff = effective(pair)
        pc = PowerConfig(5.0, 20.0, 13.0)
        for ratio in (0.0, 0.4, 1.0, math.inf):
            bf = mrr_mrt(pair, ratio, pc)
            assert relay_power_reduced(bf, eff, pc) == pytest.approx(
                pc.p_relay, rel=1e-10
            )

    def test_ratio_zero_silences_reverse_link_orthogonal(self):
        # only without cross-talk: matched filtering does not zero-force
        pair = orthogonal_pair()
        pc = symmetric_power(10.0)
        rates = rate_pair_reduced(mrr_mrt(pair, 0.0, pc), effective(pair), pc)
        assert rates.r12 == 0.0
        assert rates.r21 > 0.5


class TestZeroForcing:
    def test_self_interference_removed(self):
        pc = symmetric_power(10.0)
        for pair in (gen_channels(4, 0.8, seed=5), complex_correlation_pair()):
            A = zfr_zft(pair, 1.0, pc).full()
            assert abs(pair.h1 @ A @ pair.h1) < 1e-9
            assert abs(pair.h2 @ A @ pair.h2) < 1e-9

    def test_forward_coefficients_follow_ratio(self):
        pair = complex_correlation_pair()
        pc = symmetric_power(10.0)
        ratio = 2.5
        A = zfr_zft(pair, ratio, pc).full()
        c21 = pair.h1 @ A @ pair.h2  # amplifies S2 -> S1
        c12 = pair.h2 @ A @ pair.h1
        assert abs(c12) / abs(c21) == pytest.approx(ratio, rel=1e-10)

    def test_matches_pseudoinverse_construction(self):
        pair = complex_correlation_pair()
        pc = symmetric_power(10.0)
        a, b = _ratio_to_components(0.7)
        H = np.column_stack([pair.h1, pair.h2])
        inner = np.array([[0.0, b], [a, 0.0]], dtype=complex)
        A_pinv = np.linalg.pinv(H.T) @ inner @ np.linalg.pinv(H)
        A_pinv *= math.sqrt(pc.p_relay / relay_power(A_pinv, pair, pc))
        np.testing.assert_allclose(zfr_zft(pair, 0.7, pc).full(), A_pinv, atol=1e-10)

    def test_ratio_zero_silences_reverse_link(self):
        pair = gen_channels(4, 0.6, seed=2)
        pc = symmetric_power(10.0)
        rates = rate_pair_reduced(zfr_zft(pair, 0.0, pc), effective(pair), pc)
        assert rates.r12 == 0.0
        assert rates.r21 > 0.0

    def test_parallel_channels_rejected(self):
        h = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        pair = ChannelPair(m=2, h1=h, h2=1.0j * h, rho=1.0, seed=None)
        with pytest.raises(RankDeficiencyError):
            zfr_zft(pair, 1.0, symmetric_power(10.0))


class TestSweepRegion:
    def test_two_ratio_sweep_hits_single_link_endpoints(self):
        pair = orthogonal_pair()
        pc = symmetric_power(10.0)
        boundary = sweep_region("mr", pair, pc, n_ratios=2)
        assert len(boundary.points) == 2
        first, last = boundary.points[0], boundary.points[-1]
        # ordered by increasing r21: ratio inf point first, ratio 0 last
        assert first.rates.r21 == 0.0 and first.rates.r12 > 0.5
        assert last.rates.r12 == 0.0 and last.rates.r21 > 0.5

    def test_ordering_monotone(self):
        pair = gen_channels(4, 0.5, seed=6)
        boundary = sweep_region("zf", pair, symmetric_power(10.0), n_ratios=33)
        r21 = [p.rates.r21 for p in boundary.points]
        r12 = [p.rates.r12 for p in boundary.points]
        assert all(x <= y + 1e-12 for x, y in zip(r21, r21[1:]))
        assert all(x >= y - 1e-12 for x, y in zip(r12, r12[1:]))

    def test_swept_points_inside_optimal_region(self):
        # certificate: the minimum relay power to reach a swept rate pair
        # never exceeds the budget the scheme spent
        pair = gen_channels(4, 0.5, seed=4)
        eff = effective(pair)
        pc = symmetric_power(10.0)
        for point in sweep_region("mr", pair, pc, n_ratios=9).points:
            g1bar = 2.0 ** (2.0 * point.rates.r21) - 1.0
            g2bar = 2.0 ** (2.0 * point.rates.r12) - 1.0
            p_star, _ = min_relay_power(eff, pc, g1bar, g2bar)
            assert p_star <= pc.p_relay * (1.0 + 1e-6)

    def test_rejects_single_ratio(self):
        with pytest.raises(InvalidInputError):
            sweep_region("mr", orthogonal_pair(), symmetric_power(10.0), n_ratios=1)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidInputError):
            sweep_region("dirty-paper", orthogonal_pair(), symmetric_power(10.0))


class TestSchemeEvaluators:
    def test_uncorrelated_matched_filter_attains_average_bound(self):
        # at zero correlation the sweep maximum equals the closed-form
        # average-rate bound exactly
        pair = gen_channels(4, 0.0, seed=7)
        pc = symmetric_power(10.0)
        r_mr = scheme_max_sum_rate("mr", pair, pc)
        assert r_mr == pytest.approx(2.0443941193584534, abs=1e-9)
        assert r_mr >= r_lb_mr(pc, 1.0, 1.0, 0.0) - 1e-9

    def test_uncorrelated_zero_forcing_matches_matched_filter(self):
        pair = gen_channels(4, 0.0, seed=7)
        pc = symmetric_power(10.0)
        r_zf = scheme_max_sum_rate("zf", pair, pc)
        assert r_zf == pytest.approx(scheme_max_sum_rate("mr", pair, pc), abs=1e-9)
        assert r_zf >= r_lb_zf(pc, 1.0, 1.0, 0.0) - 1e-9

    def test_profile_value_matches_dense_sweep(self):
        pair = gen_channels(4, 0.5, seed=8)
        pc = symmetric_power(10.0)
        for scheme in ("mr", "zf"):
            pts = [p.rates for p in sweep_region(scheme, pair, pc, n_ratios=1025).points]
            for alpha21 in (0.0, 0.25, 0.5, 0.9, 1.0):
                profile = RateProfile.of(alpha21)

                def ray(r21, r12):
                    value = math.inf
                    if profile.alpha21 > 0.0:
                        value = r21 / profile.alpha21
                    if profile.alpha12 > 0.0:
                        value = min(value, r12 / profile.alpha12)
                    return value

                t = scheme_profile_sum_rate(scheme, pair, pc, profile)
                best = max(ray(r.r21, r.r12) for r in pts)
                # r21 rises and r12 falls along the ordered points, so the
                # ray leaves between two neighbours under their outer corner
                cap = max(ray(q.r21, p.r12) for p, q in zip(pts, pts[1:]))
                assert best - 1e-12 <= t <= cap + 1e-12
                if scheme == "mr":
                    assert t == pytest.approx(best, abs=1e-6)

    def test_degenerate_profile_is_single_link_maximum(self):
        pair = gen_channels(4, 0.5, seed=8)
        pc = symmetric_power(10.0)
        t = scheme_profile_sum_rate("mr", pair, pc, RateProfile.of(1.0))
        best = max(
            p.rates.r21 for p in sweep_region("mr", pair, pc, n_ratios=1025).points
        )
        assert t == pytest.approx(best, abs=1e-6)

    def test_best_rates_sum_to_the_maximum(self):
        pair = gen_channels(4, 0.5, seed=8)
        pc = symmetric_power(10.0)
        for scheme in ("mr", "zf"):
            rates = scheme_best_rates(scheme, pair, pc)
            assert rates.r21 + rates.r12 == pytest.approx(
                scheme_max_sum_rate(scheme, pair, pc), abs=1e-9
            )
            assert rates.r21 > 0.0 and rates.r12 > 0.0


    def test_one_effective_channel_per_call(self, monkeypatch):
        import twrelay.schemes as schemes

        calls = []

        def counting(pair):
            calls.append(pair)
            return effective(pair)

        monkeypatch.setattr(schemes, "effective", counting)
        pair = gen_channels(4, 0.5, seed=8)
        pc = symmetric_power(10.0)
        for run in (
            lambda: sweep_region("zf", pair, pc, n_ratios=9),
            lambda: scheme_best_rates("mr", pair, pc),
            lambda: scheme_profile_sum_rate("zf", pair, pc, RateProfile.of(0.25)),
        ):
            calls.clear()
            run()
            assert len(calls) == 1


class TestDirectRelay:
    def test_scaling_closed_form(self):
        pair = orthogonal_pair()
        pc = symmetric_power(10.0)
        A = direct_relay(pair, pc)
        np.testing.assert_allclose(A, math.sqrt(10.0 / 22.0) * np.eye(2), atol=1e-15)
        assert relay_power(A, pair, pc) == pytest.approx(pc.p_relay, rel=1e-10)

    def test_orthogonal_channels_carry_nothing(self):
        # identity relaying needs channel cross-talk; h1^T I h2 = 0 here
        pair = orthogonal_pair()
        rates = rate_pair(direct_relay(pair, symmetric_power(10.0)), pair, symmetric_power(10.0))
        assert rates.r21 == 0.0 and rates.r12 == 0.0

    def test_correlated_channels_carry_rate(self):
        pair = gen_channels(4, 0.5, seed=10)
        pc = symmetric_power(10.0)
        rates = rate_pair(direct_relay(pair, pc), pair, pc)
        assert rates.r21 > 0.05 and rates.r12 > 0.05

    def test_zero_budget_rejected(self):
        with pytest.raises(InvalidInputError):
            direct_relay(orthogonal_pair(), PowerConfig(10.0, 10.0, 0.0))


class TestOnewayAlternating:
    def test_orthogonal_reference_values(self):
        pair = orthogonal_pair()
        pc = symmetric_power(10.0)
        assert oneway_alternating(pair, pc) == pytest.approx(
            1.263272907247917, abs=1e-12
        )
        assert oneway_alternating(pair, pc, equal_energy=True) == pytest.approx(
            1.0221970596792267, abs=1e-12
        )

    def test_equal_energy_costs_rate(self):
        pair = gen_channels(4, 0.5, seed=12)
        pc = symmetric_power(10.0)
        assert oneway_alternating(pair, pc, equal_energy=True) < oneway_alternating(
            pair, pc
        )

    def test_silent_source_halves_the_sum(self):
        pair = orthogonal_pair()
        full = oneway_alternating(pair, symmetric_power(10.0))
        half = oneway_alternating(pair, PowerConfig(0.0, 10.0, 10.0))
        assert half == pytest.approx(0.5 * full, abs=1e-12)

    def test_zero_budget_rejected(self):
        with pytest.raises(InvalidInputError):
            oneway_alternating(orthogonal_pair(), PowerConfig(10.0, 10.0, 0.0))


class TestHighPowerOrdering:
    def test_matched_filter_beats_baselines_at_30db(self):
        pair = gen_channels(4, 1.0 / 3.0, seed=9)
        pc = symmetric_power(1000.0)
        r_mr = scheme_max_sum_rate("mr", pair, pc)
        dr = rate_pair(direct_relay(pair, pc), pair, pc)
        r_dr = dr.r21 + dr.r12
        r_ow = oneway_alternating(pair, pc)
        assert r_mr == pytest.approx(8.2151, abs=1e-3)
        assert r_dr == pytest.approx(7.0334, abs=1e-3)
        assert r_ow == pytest.approx(4.4840, abs=1e-3)
        assert r_mr > r_dr > r_ow


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    angle=st.floats(min_value=0.0, max_value=math.pi / 2.0),
    rho=st.sampled_from([0.0, 0.3, 0.8]),
    zf=st.booleans(),
)
def test_sweep_always_spends_the_budget(seed, angle, rho, zf):
    pair = gen_channels(3, rho, seed=seed)
    pc = PowerConfig(4.0, 9.0, 7.0)
    ratio = math.inf if angle >= math.pi / 2.0 else math.tan(angle)
    bf = (zfr_zft if zf else mrr_mrt)(pair, ratio, pc)
    assert relay_power_reduced(bf, effective(pair), pc) == pytest.approx(
        pc.p_relay, rel=1e-9
    )
