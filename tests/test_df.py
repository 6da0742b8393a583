"""Tests for the decode-and-forward baseline."""

import dataclasses
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import format_rows, orthogonal_pair

from twrelay.beamformer import RateProfile, max_sum_rate
from twrelay.cli import main
from twrelay.df import (
    BcBoundary,
    bc_boundary,
    bc_ray_exit,
    bc_wsrmax,
    df_boundary_value,
    _tau_grid,
    df_tau_slice,
    df_tau_slices,
    mac_region,
)
from twrelay.io import TAU_HEADER, format_columns
from twrelay.errors import InvalidInputError, NumericalFailureError
from twrelay.linalg import eig_herm2
from twrelay.model import ChannelPair, EffectiveChannel, PowerConfig, effective, gen_channels


class TestMacRegion:
    def test_sum_bound_matches_full_determinant(self):
        pair = gen_channels(4, 0.95, seed=21)
        pent = mac_region(pair, 100.0, 100.0)
        big = (
            np.eye(4)
            + 100.0 * np.outer(pair.h1, pair.h1.conj())
            + 100.0 * np.outer(pair.h2, pair.h2.conj())
        )
        assert pent.c_sum == pytest.approx(
            math.log2(np.linalg.det(big).real), abs=1e-10
        )

    def test_orthonormal_channels_decouple(self):
        pent = mac_region(orthogonal_pair(), 10.0, 10.0)
        assert pent.c1 == pytest.approx(math.log2(11.0), abs=1e-12)
        assert pent.c2 == pytest.approx(math.log2(11.0), abs=1e-12)
        assert pent.c_sum == pytest.approx(2.0 * math.log2(11.0), abs=1e-12)

    def test_silent_source_degenerates_to_segment(self):
        pent = mac_region(orthogonal_pair(), 0.0, 10.0)
        assert pent.c2 == 0.0
        assert pent.c1 > 0.0

    def test_parallel_unit_channels_share_one_dimension(self):
        h = np.array([1.0, 0.0], dtype=complex)
        pair = ChannelPair(m=2, h1=h, h2=h.copy(), rho=1.0, seed=None)
        pent = mac_region(pair, 10.0, 10.0)
        assert pent.c_sum == pytest.approx(math.log2(21.0), abs=1e-12)

    def test_individual_bounds(self):
        pair = gen_channels(3, 0.4, seed=5)
        pent = mac_region(pair, 7.0, 11.0)
        assert pent.c1 == pytest.approx(math.log2(1.0 + 11.0 * pair.theta2))
        assert pent.c2 == pytest.approx(math.log2(1.0 + 7.0 * pair.theta1))

    def test_pentagon_shape_invariant(self):
        pair = gen_channels(4, 0.8, seed=2)
        pent = mac_region(pair, 100.0, 100.0)
        assert max(pent.c1, pent.c2) <= pent.c_sum <= pent.c1 + pent.c2
        for r21, r12 in pent.corners():
            assert r21 <= pent.c1 + 1e-12
            assert r12 <= pent.c2 + 1e-12
            assert r21 + r12 <= pent.c_sum + 1e-12

    def test_overflowing_sum_rate_raises_with_no_warning(self):
        # from about p = 1e155 the term p1 p2 (g1 x g2)^2 overflows to inf
        pair = gen_channels(4, 0.95, seed=42)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(mac_region(pair, 1e154, 1e154).c_sum)
            for p in (1e160, 1e200):
                with pytest.raises(NumericalFailureError, match="MAC sum rate is inf"):
                    mac_region(pair, p, p)

    def test_sum_rate_against_exact_arithmetic_near_parallel(self):
        # log2 det(I + p1 h1 h1^H + p2 h2 h2^H) = log2(1 + p1 theta1 + p2 theta2
        # + p1 p2 (theta1 theta2 - |h1^H h2|^2)) in exact arithmetic on the
        # float channel entries, where a 2x2 determinant in floats cancels
        worst = 0.0
        for rho in (0.95, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0):
            for seed in range(1, 7):
                for normalize in (True, False):
                    pair = gen_channels(4, rho, seed, normalize=normalize)
                    h1, h2 = ([(Fraction(z.real), Fraction(z.imag)) for z in h.tolist()] for h in (pair.h1, pair.h2))
                    theta1, theta2 = (sum(re * re + im * im for re, im in h) for h in (h1, h2))
                    c_re = sum(a_re * b_re + a_im * b_im for (a_re, a_im), (b_re, b_im) in zip(h1, h2))
                    c_im = sum(a_re * b_im - a_im * b_re for (a_re, a_im), (b_re, b_im) in zip(h1, h2))
                    for p1, p2 in ((1.0, 1.0), (1e3, 10.0), (1e10, 1e10), (1e15, 1e12), (1e20, 1e20)):
                        det = 1 + Fraction(p1) * theta1 + Fraction(p2) * theta2
                        det += Fraction(p1) * Fraction(p2) * (theta1 * theta2 - c_re * c_re - c_im * c_im)
                        error = abs(mac_region(pair, p1, p2).c_sum - math.log2(det))
                        assert error <= 1e-9, (rho, seed, normalize, p1, p2, error)
                        worst = max(worst, error)
        assert worst > 0.0

    def test_ray_exit_agrees_with_caps(self):
        pair = gen_channels(4, 0.8, seed=2)
        pent = mac_region(pair, 100.0, 100.0)
        assert pent.ray_exit(RateProfile.of(1.0)) == pytest.approx(pent.c1)
        assert pent.ray_exit(RateProfile.of(0.0)) == pytest.approx(pent.c2)
        assert pent.ray_exit(RateProfile.of(0.5)) == pytest.approx(pent.c_sum)

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidInputError):
            mac_region(orthogonal_pair(), -1.0, 1.0)


class TestBcWsrmax:
    def test_single_link_closed_form(self):
        pair = gen_channels(4, 0.95, seed=21)
        point = bc_wsrmax(pair, 100.0, 1.0, 0.0)
        assert point.rates.r21 == pytest.approx(
            math.log2(1.0 + 100.0 * pair.theta1), abs=1e-8
        )
        point = bc_wsrmax(pair, 100.0, 0.0, 1.0)
        assert point.rates.r12 == pytest.approx(
            math.log2(1.0 + 100.0 * pair.theta2), abs=1e-8
        )

    def test_orthonormal_equal_weights_split_evenly(self):
        # every [[5, z], [z*, 5]] with |z| <= 5 is optimal: pin the rates
        # and the budget, not one covariance
        pair = orthogonal_pair()
        point = bc_wsrmax(pair, 10.0, 1.0, 1.0)
        assert point.rates.r21 == pytest.approx(math.log2(6.0), abs=1e-8)
        assert point.rates.r12 == pytest.approx(math.log2(6.0), abs=1e-8)
        assert np.trace(point.S_reduced).real == pytest.approx(10.0, rel=1e-12)
        assert np.min(np.linalg.eigvalsh(point.S_reduced)) >= -1e-9
        S = point.full()
        s1 = (pair.h1 @ S @ pair.h1.conj()).real
        s2 = (pair.h2 @ S @ pair.h2.conj()).real
        assert math.log2(1.0 + s1) == pytest.approx(point.rates.r21, abs=1e-12)
        assert math.log2(1.0 + s2) == pytest.approx(point.rates.r12, abs=1e-12)

    def test_covariance_is_feasible_and_consistent(self):
        pair = gen_channels(4, 0.6, seed=8)
        point = bc_wsrmax(pair, 25.0, 0.7, 0.3)
        assert np.trace(point.S_reduced).real <= 25.0 * (1.0 + 1e-8)
        assert np.min(np.linalg.eigvalsh(point.S_reduced)) >= -1e-9
        S = point.full()
        s1 = (pair.h1 @ S @ pair.h1.conj()).real
        s2 = (pair.h2 @ S @ pair.h2.conj()).real
        assert point.rates.r21 == pytest.approx(math.log2(1.0 + s1), abs=1e-9)
        assert point.rates.r12 == pytest.approx(math.log2(1.0 + s2), abs=1e-9)

    def test_off_span_power_is_wasted(self):
        pair = gen_channels(4, 0.6, seed=8)
        point = bc_wsrmax(pair, 25.0, 0.7, 0.3)
        q = np.ones(4, dtype=complex)
        q -= point.basis @ (point.basis.conj().T @ q)
        q /= np.linalg.norm(q)
        S = point.full() + 5.0 * np.outer(q, q.conj())
        assert (pair.h1 @ S @ pair.h1.conj()).real == pytest.approx(
            (pair.h1 @ point.full() @ pair.h1.conj()).real, rel=1e-10
        )

    def test_dead_link_leaves_the_other_single_link_optimum(self):
        h = gen_channels(4, 0.5, seed=3).h1
        pair = ChannelPair(m=4, h1=np.zeros(4, dtype=complex), h2=h, rho=0.0, seed=None)
        point = bc_wsrmax(pair, 10.0, 0.5, 0.5)
        assert point.rates.r21 == 0.0
        assert point.rates.r12 == pytest.approx(math.log2(11.0), abs=1e-12)
        assert np.trace(point.S_reduced).real == pytest.approx(10.0, rel=1e-12)
        assert bc_ray_exit(pair, 10.0, RateProfile.of(0.0)) == pytest.approx(
            math.log2(11.0), abs=1e-12
        )
        assert bc_ray_exit(pair, 10.0, RateProfile.of(0.5)) == 0.0

    def test_invalid_inputs_rejected(self):
        pair = gen_channels(2, 0.3, seed=1)
        with pytest.raises(InvalidInputError):
            bc_wsrmax(pair, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            bc_wsrmax(pair, 10.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            bc_wsrmax(pair, 10.0, -1.0, 1.0)


_WEIGHTS = ((1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.2, 0.8), (0.0, 1.0))


def _assert_lifted(point, h1, h2, p_relay):
    """As test_covariance_is_feasible_and_consistent: the covariance fits the
    budget and reaches its rates through the lifted channels."""
    assert np.trace(point.S_reduced) <= p_relay * (1.0 + 1e-8)
    assert np.min(np.linalg.eigvalsh(point.S_reduced)) >= -1e-9
    S = point.full()
    s1, s2 = ((h @ S @ h.conj()).real for h in (h1, h2))
    assert point.rates.r21 == pytest.approx(math.log2(1.0 + s1), abs=1e-9)
    assert point.rates.r12 == pytest.approx(math.log2(1.0 + s2), abs=1e-9)


def _frame_only(g1, g2):
    """An effective channel with the real reduced channels g1 and g2 in the
    first two coordinates of C^4, and the channels it lifts them to."""
    U = np.eye(4, 2, dtype=complex)
    eff = EffectiveChannel(U=U, g1=g1, g2=g2)
    return eff, ChannelPair(m=4, h1=U @ g1, h2=U @ g2, rho=0.0, seed=None)


class TestBcArcEdges:
    def test_dead_second_link(self):
        import twrelay.df as df

        h = gen_channels(4, 0.5, seed=3).h1
        pair = ChannelPair(m=4, h1=h, h2=np.zeros(4, dtype=complex), rho=0.0, seed=None)
        assert df._bc_arc(effective(pair), 10.0).phi == 0.0
        for w21, w12 in _WEIGHTS:
            point = bc_wsrmax(pair, 10.0, w21, w12)
            assert point.rates.r12 == 0.0
            assert point.rates.r21 == pytest.approx(math.log2(1.0 + 10.0 * pair.theta1), abs=1e-12)
            _assert_lifted(point, pair.h1, pair.h2, 10.0)

    def test_both_links_dead(self):
        zero = np.zeros(4, dtype=complex)
        pair = ChannelPair(m=4, h1=zero, h2=zero.copy(), rho=0.0, seed=None)
        for w21, w12 in _WEIGHTS:
            point = bc_wsrmax(pair, 10.0, w21, w12)
            assert (point.rates.r21, point.rates.r12) == (0.0, 0.0)
            assert np.trace(point.S_reduced) == pytest.approx(10.0, rel=1e-12)
            _assert_lifted(point, pair.h1, pair.h2, 10.0)
        assert bc_ray_exit(pair, 10.0, RateProfile.of(0.5)) == 0.0

    def test_exactly_parallel_channels(self, monkeypatch):
        # g2 = 2 g1 with exact products: phi = 0, and every weight gives
        # both links their single-link maxima at once
        import twrelay.df as df

        eff, pair = _frame_only(np.array([0.75, 1.0]), np.array([1.5, 2.0]))
        monkeypatch.setattr(df, "effective", lambda _: eff)
        assert df._bc_arc(eff, 10.0).phi == 0.0
        for w21, w12 in _WEIGHTS:
            point = bc_wsrmax(pair, 10.0, w21, w12)
            assert (point.rates.r21, point.rates.r12) == (math.log2(1.0 + 15.625), math.log2(1.0 + 62.5))
            _assert_lifted(point, pair.h1, pair.h2, 10.0)
        # gen_channels at rho = 1 draws h2 = h1, which the frame keeps parallel to rounding
        pair = gen_channels(4, 1.0, seed=5)
        monkeypatch.setattr(df, "effective", effective)
        assert df._bc_arc(effective(pair), 10.0).phi <= 1e-15
        for w21, w12 in _WEIGHTS:
            point = bc_wsrmax(pair, 10.0, w21, w12)
            assert point.rates.r21 == pytest.approx(math.log2(11.0), abs=1e-12)
            assert point.rates.r12 == pytest.approx(math.log2(11.0), abs=1e-12)
            _assert_lifted(point, pair.h1, pair.h2, 10.0)

    @pytest.mark.parametrize(
        "flip, sign",
        [
            pytest.param([1.0, 1.0], -1.0, id="g2-negated"),  # g1.g2 < 0
            pytest.param([1.0, -1.0], 1.0, id="reflected"),  # g1 x g2 < 0
            pytest.param([1.0, -1.0], -1.0, id="reflected-g2-negated"),
        ],
    )
    def test_frames_of_other_signs(self, monkeypatch, flip, sign):
        # the frame gives g1.g2 >= 0 and g1 x g2 >= 0; for other signs the
        # arc turns from g1 toward g2 or -g2 with the same a, b, phi and rates
        import twrelay.df as df

        pair = gen_channels(4, 0.6, seed=8)
        eff = effective(pair)
        other, lifted = _frame_only(eff.g1 * flip, sign * eff.g2 * flip)
        arc, arc_other = df._bc_arc(eff, 25.0), df._bc_arc(other, 25.0)
        assert (arc_other.a, arc_other.b, arc_other.phi) == (arc.a, arc.b, arc.phi)
        wants = [bc_wsrmax(pair, 25.0, w21, w12).rates for w21, w12 in _WEIGHTS]
        monkeypatch.setattr(df, "effective", lambda _: other)
        for (w21, w12), want in zip(_WEIGHTS, wants):
            point = bc_wsrmax(lifted, 25.0, w21, w12)
            assert point.rates == want
            _assert_lifted(point, lifted.h1, lifted.h2, 25.0)


class TestBcBoundary:
    def test_sweep_monotone_and_concave(self):
        pair = gen_channels(4, 0.95, seed=21)
        bc = bc_boundary(pair, 100.0, n_weights=17)
        xs, ys = bc.r21.tolist(), bc.r12.tolist()
        assert all(a <= b + 1e-9 for a, b in zip(xs, xs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(ys, ys[1:]))
        slopes = [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(zip(xs, ys), zip(xs[1:], ys[1:]))
            if x2 - x1 > 1e-9
        ]
        assert all(a >= b - 1e-6 for a, b in zip(slopes, slopes[1:]))

    def test_covariances_feasible(self):
        # the boundary keeps only rates: a knot's covariance is the
        # S_reduced of bc_wsrmax at the knot's weights
        pair = gen_channels(3, 0.5, seed=4)
        bc = bc_boundary(pair, 10.0, n_weights=9)
        for k, (r21, r12) in enumerate(zip(bc.r21.tolist(), bc.r12.tolist())):
            point = bc_wsrmax(pair, 10.0, k / 8, 1.0 - k / 8)
            assert (point.rates.r21, point.rates.r12) == (r21, r12)
            S = point.S_reduced
            assert S.shape == (2, 2) and S.dtype == np.float64
            assert np.trace(S).real <= 10.0 + 1e-8
            assert np.min(np.linalg.eigvalsh(S)) >= -1e-9

    def test_ray_exit_matches_dense_weight_sweep(self):
        pair = gen_channels(4, 0.7, seed=13)
        profile = RateProfile.of(0.35)
        t = bc_ray_exit(pair, 50.0, profile)
        best = 0.0
        for w in np.linspace(0.0, 1.0, 201):
            rates = bc_wsrmax(pair, 50.0, w, 1.0 - w).rates
            best = max(
                best,
                min(rates.r21 / profile.alpha21, rates.r12 / profile.alpha12),
            )
        assert t == pytest.approx(best, abs=1e-6)

    @pytest.mark.parametrize("n_weights", (2, 3, 17, 65))
    def test_one_arc_per_boundary(self, monkeypatch, n_weights):
        import twrelay.df as df

        built = []
        build = df._bc_arc

        def counting(pair, p_relay):
            built.append(p_relay)
            return build(pair, p_relay)

        monkeypatch.setattr(df, "_bc_arc", counting)
        bc = bc_boundary(gen_channels(4, 0.7, seed=13), 50.0, n_weights=n_weights)
        assert len(bc.r21) == n_weights
        assert len(built) == 1

    def test_knots_come_in_weight_order(self):
        # knot k is the weight-k/(n - 1) point, unsorted, and r21 never
        # falls along them: rho 0 to 1, unit and unnormalized channels
        rng = np.random.default_rng(29)
        boundaries = 0
        for rho in (0.0, 0.5, 0.99, 1.0):
            for p_relay in (0.1, 3.0, 100.0, 1e4, 1e6):
                for normalize in (True, False):
                    pair = gen_channels(int(rng.choice((2, 4, 8))), rho, int(rng.integers(0, 2**31)), normalize)
                    for n in (2, 3, 17, 65):
                        bc = bc_boundary(pair, p_relay, n_weights=n)
                        for k, (r21, r12) in enumerate(zip(bc.r21.tolist(), bc.r12.tolist())):
                            point = bc_wsrmax(pair, p_relay, k / (n - 1), 1.0 - k / (n - 1))
                            assert _bits(r21) == _bits(point.rates.r21) and _bits(r12) == _bits(point.rates.r12)
                        r21 = bc.r21.tolist()
                        assert all(x <= y for x, y in zip(r21, r21[1:]))
                        boundaries += 1
        assert boundaries == 160

    def test_columns_are_the_only_fields(self):
        assert [f.name for f in dataclasses.fields(BcBoundary)] == ["r21", "r12"]
        for rho, n in ((0.0, 2), (0.7, 17), (1.0, 65)):
            bc = bc_boundary(gen_channels(4, rho, seed=13), 50.0, n_weights=n)
            assert bc.r21.dtype == bc.r12.dtype == np.float64
            assert bc.r21.shape == bc.r12.shape == (n,)
            assert np.all(np.diff(bc.r21) >= 0.0)

    def test_ray_exit_degenerate_profiles(self):
        pair = gen_channels(4, 0.95, seed=21)
        assert bc_ray_exit(pair, 100.0, RateProfile.of(1.0)) == pytest.approx(
            math.log2(1.0 + 100.0 * pair.theta1), abs=1e-8
        )
        assert bc_ray_exit(pair, 100.0, RateProfile.of(0.0)) == pytest.approx(
            math.log2(1.0 + 100.0 * pair.theta2), abs=1e-8
        )


class TestDfRegion:
    def test_slice_has_no_cliff_at_its_end(self):
        # the last knot sits on the cap of one scaled frontier, and the
        # unscaled lookup x / tau or x / (1 - tau) can round past that cap
        for m, rho, seed in ((4, 0.8371544099377217, 199660017), (2, 0.9, 1), (8, 0.5, 2)):
            pair = gen_channels(m, rho, seed)
            pent = mac_region(pair, 100.0, 100.0)
            bc = bc_boundary(pair, 100.0, n_weights=17)
            for tau in np.linspace(0.0, 1.0, 257)[1:-1]:
                ys = [y for _, y in df_tau_slice(pent, bc, float(tau))]
                assert ys[-1] > 0.0
                assert all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))

    def test_grid_region_approaches_exact_ray_values(self):
        # the tau-grid slices are inner approximations whose farthest
        # ray exit converges to the closed-form time-share optimum
        pair = gen_channels(4, 0.8, seed=21)
        pent, bc = mac_region(pair, 100.0, 100.0), bc_boundary(pair, 100.0, n_weights=65)
        _, x, y = df_tau_slices(pent, bc, _tau_grid(257))
        for alpha in (0.25, 0.5, 0.75):
            profile = RateProfile.of(alpha)
            t, tau = df_boundary_value(pair, 100.0, 100.0, 100.0, profile)
            assert 0.0 < tau < 1.0
            grid_t = max(min(r21 / profile.alpha21, r12 / profile.alpha12) for r21, r12 in zip(x.tolist(), y.tolist()))
            assert grid_t <= t + 1e-9
            assert grid_t == pytest.approx(t, abs=0.02)

    def test_equal_split_value_is_contained_and_dominated(self):
        pair = gen_channels(4, 0.95, seed=21)
        pent = mac_region(pair, 100.0, 100.0)
        for alpha in (0.0, 0.25, 0.5, 0.8, 1.0):
            profile = RateProfile.of(alpha)
            t_mac = pent.ray_exit(profile)
            t_bc = bc_ray_exit(pair, 100.0, profile)
            t, _ = df_boundary_value(pair, 100.0, 100.0, 100.0, profile)
            assert t >= 0.5 * min(t_mac, t_bc) - 1e-9
            assert t <= min(t_mac, t_bc) + 1e-9

    def test_half_mac_inside_half_bc_at_figure_settings(self):
        # makes the tau = 1/2 region equal to half the MAC pentagon
        for rho in (0.95, 0.8):
            pair = gen_channels(4, rho, seed=21)
            pent = mac_region(pair, 100.0, 100.0)
            for r21, r12 in pent.corners():
                total = r21 + r12
                if total == 0.0:
                    continue
                profile = RateProfile.of(r21 / total)
                assert bc_ray_exit(pair, 100.0, profile) >= total - 1e-6

    def test_tau_grid(self):
        # one tau is the equal split; more cover [0, 1] as Python floats
        assert _tau_grid(1) == [0.5]
        assert _tau_grid(3) == [0.0, 0.5, 1.0]
        taus = _tau_grid(65)
        assert taus == [float(t) for t in np.linspace(0.0, 1.0, 65)]
        assert all(type(t) is float for t in taus)

    def test_beats_forwarding_at_high_correlation_equal_rates(self):
        # at rho = 0.95 the optimal forwarding sum still lands between the
        # equal-split pentagon and the full time-shared region
        pc = PowerConfig(100.0, 100.0, 100.0)
        pair = gen_channels(4, 0.95, seed=21)
        profile = RateProfile.of(0.5)
        r_af, _ = max_sum_rate(effective(pair), pc, profile)
        t_df, _ = df_boundary_value(pair, 100.0, 100.0, 100.0, profile)
        half_mac = 0.5 * mac_region(pair, 100.0, 100.0).ray_exit(profile)
        assert t_df > r_af > half_mac

    def test_gain_over_forwarding_grows_as_correlation_drops(self):
        pc = PowerConfig(100.0, 100.0, 100.0)
        profile = RateProfile.of(0.5)
        gaps = []
        for rho in (0.95, 0.8):
            pair = gen_channels(4, rho, seed=21)
            r_af, _ = max_sum_rate(effective(pair), pc, profile)
            t_df, _ = df_boundary_value(pair, 100.0, 100.0, 100.0, profile)
            gaps.append(t_df - r_af)
        assert gaps[1] > gaps[0] > 0.0


def _corpus():
    """Seeded broadcast instances: orthogonal, parallel and correlated
    channels (unequal gains) at low, moderate and high relay power."""
    h = gen_channels(4, 0.5, seed=3, normalize=False).h1
    pairs = {
        "orthogonal": orthogonal_pair(),
        "parallel": ChannelPair(m=4, h1=h, h2=0.6 * np.exp(0.7j) * h, rho=1.0, seed=None),
    }
    for rho in (0.5, 0.95, 0.99999):
        pairs[f"rho{rho}"] = gen_channels(4, rho, seed=17, normalize=False)
    return [
        pytest.param(pair, p_relay, id=f"{name}-P{p_relay:g}")
        for name, pair in pairs.items()
        for p_relay in (0.1, 100.0, 1e4)
    ]


def _mu_sweep(pair, p_relay, n=4001):
    """Rates of the top eigenvectors of mu f1 f1^H + (1 - mu) f2 f2^H over
    a uniform mu grid, in a QR frame of span{h1*, h2*}."""
    Q, _ = np.linalg.qr(np.column_stack([pair.h1.conj(), pair.h2.conj()]))
    f1 = Q.conj().T @ pair.h1.conj()
    f2 = Q.conj().T @ pair.h2.conj()
    r21, r12 = [], []
    for mu in np.linspace(0.0, 1.0, n):
        H = mu * np.outer(f1, f1.conj()) + (1.0 - mu) * np.outer(f2, f2.conj())
        v = eig_herm2(H)[1][:, 0]
        r21.append(math.log2(1.0 + p_relay * abs(f1.conj() @ v) ** 2))
        r12.append(math.log2(1.0 + p_relay * abs(f2.conj() @ v) ** 2))
    return np.array(r21), np.array(r12)


def _snr_rates(pair, S):
    return (
        math.log2(1.0 + (pair.h1 @ S @ pair.h1.conj()).real),
        math.log2(1.0 + (pair.h2 @ S @ pair.h2.conj()).real),
    )


@pytest.mark.parametrize("pair,p_relay", _corpus())
def test_broadcast_reaches_the_eigenvector_sweep(pair, p_relay):
    r21, r12 = _mu_sweep(pair, p_relay)
    for w21, w12 in ((1.0, 0.0), (0.9, 0.1), (0.5, 0.5), (0.2, 0.8), (0.0, 1.0), (3.0, 1.0)):
        point = bc_wsrmax(pair, p_relay, w21, w12)
        got = w21 * point.rates.r21 + w12 * point.rates.r12
        assert got >= float(np.max(w21 * r21 + w12 * r12)) - 1e-12
        lam = np.linalg.eigvalsh(point.S_reduced)
        assert abs(np.trace(point.S_reduced).real - p_relay) <= 1e-12 * p_relay
        assert abs(lam[0]) <= 1e-12 * p_relay
        s21, s12 = _snr_rates(pair, point.full())
        assert abs(s21 - point.rates.r21) <= 1e-12 * max(1.0, s21)
        assert abs(s12 - point.rates.r12) <= 1e-12 * max(1.0, s12)
    for alpha21 in (0.0, 0.2, 0.5, 0.7, 1.0):
        profile = RateProfile.of(alpha21)
        ray = np.full(r21.shape, np.inf)
        if profile.alpha21 > 0.0:
            ray = np.minimum(ray, r21 / profile.alpha21)
        if profile.alpha12 > 0.0:
            ray = np.minimum(ray, r12 / profile.alpha12)
        assert bc_ray_exit(pair, p_relay, profile) >= float(np.max(ray)) - 1e-12


# ------------------------------------------------ frontier lookup reference


def _interp_frontier(bc, r21):
    """BcBoundary.frontier as np.interp on knot arrays: the reference that
    the bisect lookup must match bit for bit."""
    xs, ys = bc.r21, bc.r12
    if r21 > xs[-1]:
        return -math.inf
    if r21 <= xs[0]:
        return float(ys[0])
    return float(np.interp(r21, xs, ys))


def _bits(value):
    return struct.pack("<d", value)


def _hand_boundary(knots):
    r21, r12 = np.array(knots, dtype=np.float64).T
    return BcBoundary(r21=r21, r12=r12)


def _lookup_corpus():
    """Traced boundaries (rho = 1 repeats every knot; large budgets repeat
    the end knots) and hand-made ones with repeated knots and infinite
    r12, whose slopes are NaN and take np.interp's fallback."""
    rng = np.random.default_rng(31)
    boundaries = []
    for rho in (0.3, 0.8, 0.95, 1.0):
        for p_relay in (1.0, 100.0, 1e6):
            pair = gen_channels(int(rng.choice((2, 4, 8))), rho, int(rng.integers(0, 2**31)))
            for n in (2, 17, 65):
                boundaries.append(bc_boundary(pair, p_relay, n_weights=n))
    boundaries.append(_hand_boundary([(0.0, 3.0), (1.0, 2.0), (1.0, 1.5), (1.0, 1.0), (2.0, 0.5), (2.0, 0.0)]))
    boundaries.append(_hand_boundary([(0.5, 1.0), (0.5, 0.25)]))
    boundaries.append(_hand_boundary([(0.0, math.inf), (1.0, math.inf), (2.0, 1.0)]))
    return boundaries


def _scalar_tau_slice(pent, bc, tau):
    """The scalar knot loop that df_tau_slices replaced, reading the
    broadcast frontier through _interp_frontier: the reference that the
    array pass must match bit for bit."""
    sigma = 1.0 - tau
    bc_cap = bc.r21.tolist()[-1]
    x_max = min(tau * pent.c1, sigma * bc_cap)
    knots = {0.0, x_max}
    for x, _ in pent.corners():
        if 0.0 <= tau * x <= x_max:
            knots.add(tau * x)
    for r21 in bc.r21.tolist():
        if 0.0 <= sigma * r21 <= x_max:
            knots.add(sigma * r21)
    out = []
    for x in sorted(knots):
        y_mac = tau * pent.frontier(min(x / tau, pent.c1)) if tau > 0.0 else 0.0
        y_bc = sigma * _interp_frontier(bc, min(x / sigma, bc_cap)) if sigma > 0.0 else 0.0
        out.append((x, max(0.0, min(y_mac, y_bc))))
    return out


def _bits_of(pairs):
    return [(_bits(x), _bits(y)) for x, y in pairs]


@pytest.fixture(scope="module")
def slice_corpus():
    """(pent, bc, taus) settings: every pairing of 1, 2, 3, 65 and 129 taus
    with 2, 3, 17 and 65 weights, at rho 0, 0.5, 0.95 and 1 (phi = 0),
    P_R from 1e-2 to 1e5 and P1, P2 up to 1e4; a silent source with a
    dead uplink, whose BC knots all sit at r21 = 0; hand-made boundaries
    whose first knots repeat, and one ending at r12 = -0.0."""
    rng = np.random.default_rng(41)
    corpus = []
    rhos = (0.0, 0.5, 0.95, 1.0)
    for k, (n_tau, n_weights) in enumerate((t, w) for t in (1, 2, 3, 65, 129) for w in (2, 3, 17, 65)):
        pair = gen_channels(int(rng.choice((2, 4, 8))), rhos[k % 4], int(rng.integers(0, 2**31)))
        p1, p2 = 10.0 ** rng.uniform(-2.0, 4.0, size=2)
        p_relay = 10.0 ** rng.uniform(-2.0, 5.0)
        corpus.append((mac_region(pair, p1, p2), bc_boundary(pair, p_relay, n_weights), _tau_grid(n_tau)))
    taus = _tau_grid(65)
    for p, p_relay in ((1e4, 1e-2), (1e-2, 1e5), (1e4, 1e5)):
        pair = gen_channels(4, 0.8, int(rng.integers(0, 2**31)))
        corpus.append((mac_region(pair, p, p), bc_boundary(pair, p_relay, 17), taus))
    h = gen_channels(4, 0.5, seed=3).h2
    silent = ChannelPair(m=4, h1=np.zeros(4, dtype=complex), h2=h, rho=0.0, seed=None)
    corpus.append((mac_region(silent, 0.0, 100.0), bc_boundary(silent, 100.0, 17), taus))
    pent = mac_region(gen_channels(4, 0.5, seed=3), 10.0, 10.0)
    for knots in (
        [(0.5, 2.0), (0.5, 1.5), (1.0, 1.0), (2.0, 0.0)],
        [(0.0, 3.0), (0.0, 2.0), (0.0, 1.0), (1.5, 0.5), (3.0, 0.25)],
        [(0.0, 2.0), (1.0, 1.0), (2.0, -0.0)],
    ):
        corpus.append((pent, _hand_boundary(knots), taus))
    return corpus


class TestFrontierLookup:
    def test_matches_np_interp_bit_for_bit(self):
        rng = np.random.default_rng(37)
        queries = 0
        for bc in _lookup_corpus():
            xs = bc.r21.tolist()
            cases = [*xs, xs[0] - 1.0, math.nextafter(xs[0], -math.inf), math.nextafter(xs[-1], math.inf)]
            cases += [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
            cases += [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]
            cases += list(rng.uniform(xs[0], xs[-1], size=16))
            for r21 in cases:
                got = bc.frontier(float(r21))
                assert type(got) is float
                assert _bits(got) == _bits(_interp_frontier(bc, float(r21))), (xs, r21)
                queries += 1
            assert bc.frontier(math.nextafter(xs[-1], math.inf)) == -math.inf
        assert queries > 4000

    def test_nan_query_gives_nan_as_np_interp_does(self):
        bc = _hand_boundary([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
        assert math.isnan(bc.frontier(math.nan))
        assert math.isnan(_interp_frontier(bc, math.nan))

    def test_tau_slices_match_the_np_interp_reference(self, slice_corpus):
        # df_tau_slices and its one-tau case against the scalar knot loop,
        # bit for bit and knot for knot
        for pent, bc, taus in slice_corpus:
            want = [_scalar_tau_slice(pent, bc, tau) for tau in taus]
            index, x, y = df_tau_slices(pent, bc, taus)
            assert index.tolist() == [i for i, s in enumerate(want) for _ in s]
            assert _bits_of(zip(x.tolist(), y.tolist())) == _bits_of(xy for s in want for xy in s)
            for tau, s in list(zip(taus, want))[:: max(1, len(taus) // 4)]:
                assert _bits_of(df_tau_slice(pent, bc, tau)) == _bits_of(s)

    def test_slice_csv_matches_the_scalar_rows(self, slice_corpus):
        for pent, bc, taus in slice_corpus:
            want = format_rows(TAU_HEADER, [(tau, x, y) for tau in taus for x, y in _scalar_tau_slice(pent, bc, tau)])
            index, x, y = df_tau_slices(pent, bc, taus)
            assert format_columns(TAU_HEADER, [np.asarray(taus)[index], x, y]) == want

    def test_df_compare_writes_the_scalar_rows(self, tmp_path):
        for rho, taus in ((0.95, None), (0.5, 1), (1.0, 2)):
            argv = ["df-compare", "--rho", str(rho), "--profiles", "2", "--weights", "17", "--out", str(tmp_path)]
            assert main(argv + (["--taus", str(taus)] if taus else [])) == 0
            pair = gen_channels(4, rho, 42)
            pent, bc = mac_region(pair, 100.0, 100.0), bc_boundary(pair, 100.0, 17)
            grid = _tau_grid(taus or 65)
            rows = [(tau, x, y) for tau in grid for x, y in _scalar_tau_slice(pent, bc, tau)]
            assert (tmp_path / "df_tau_slices.csv").read_text() == format_rows(TAU_HEADER, rows)

    def test_capacity_region_matches_the_scalar_cloud(self):
        # every tau grid's slice points at unequal powers, bit for bit
        rng = np.random.default_rng(43)
        for rho in (0.0, 0.5, 0.95, 1.0):
            pair = gen_channels(int(rng.choice((2, 4, 8))), rho, int(rng.integers(0, 2**31)))
            for n_tau, n_weights in ((1, 2), (3, 17), (65, 3), (129, 65)):
                pent, bc = mac_region(pair, 100.0, 10.0), bc_boundary(pair, 1e3, n_weights)
                _, x, y = df_tau_slices(pent, bc, _tau_grid(n_tau))
                cloud = [xy for tau in _tau_grid(n_tau) for xy in _scalar_tau_slice(pent, bc, tau)]
                assert _bits_of(zip(x.tolist(), y.tolist())) == _bits_of(cloud)
