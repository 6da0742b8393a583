"""Tests for the closed-form bounds and asymptotics."""

import math

import numpy as np
import pytest

from twrelay.bounds import (
    BoundsReport,
    _golden_max,
    asymptotic_gaps,
    asymptotic_sum_rates,
    bounds_report,
    c12,
    c21,
    c_ub,
    c_ub0,
    c_ub_sym,
    gap_mr_asymptotic,
    r_lb_mr,
    r_lb_zf,
)
from twrelay.errors import InvalidInputError
from twrelay.model import PowerConfig, gen_channels

SYM10 = PowerConfig(10.0, 10.0, 10.0)


class TestDirectional:
    def test_hand_value(self):
        assert abs(c21(0.5, 10, 1, 1, 10) - 0.5 * math.log2(1 + 10 / 2.05)) <= 1e-12

    def test_zero_power(self):
        assert c21(0.5, 0.0, 1, 1, 10) == 0.0
        assert c12(0.5, -1.0, 1, 1, 10) == 0.0

    def test_underflowing_power(self):
        # theta1 * P21 underflows to 0; the SNR is still a finite quotient
        assert 0.0 <= c21(0.0, 5e-324, 0.5, 1.0, 10.0) <= 1e-300
        assert 0.0 <= c12(0.0, 5e-324, 1.0, 0.5, 10.0) <= 1e-300

    def test_infinite_power_limit(self):
        v = c21(0.0, 1e12, 1.0, 2.0, 10.0)
        assert abs(v - 0.5 * math.log2(1 + 2.0 * 10.0)) <= 1e-9


class TestUpperBounds:
    def test_c_ub0_value(self):
        v = c_ub0(SYM10, 1.0, 1.0)
        assert abs(v - math.log2(1 + 10 / 2.05)) <= 1e-12
        assert abs(v - 2.5560) <= 1e-3

    def test_c_ub0_high_power_limit(self):
        pc = PowerConfig(10.0, 10.0, 1e12)
        v = c_ub0(pc, 1.0, 1.0)
        assert abs(v - math.log2(1 + 10.0)) <= 1e-9

    def test_c_ub_sym_values(self):
        assert abs(c_ub_sym(1.0, 10.0) - math.log2(1 + 10 / 3.1)) <= 1e-12
        assert c_ub_sym(1.0, 0.0) == 0.0
        assert abs(c_ub_sym(1.0, 1e4) - math.log2(1 + 1e4 / 3.0001)) <= 1e-12

    def test_c_ub_symmetric_split(self):
        value, kappa_star, p21_star = c_ub(SYM10, 1.0, 1.0)
        assert abs(kappa_star - 0.5) <= 1e-4
        assert abs(p21_star - 5.0) <= 1e-3
        slice_val = c21(0.5, 5.0, 1, 1, 10) + c12(0.5, 5.0, 1, 1, 10)
        assert abs(slice_val - c_ub_sym(1.0, 10.0)) <= 1e-12
        assert value <= c_ub_sym(1.0, 10.0) + 1e-6

    def test_c_ub_below_c_ub0_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pair = gen_channels(4, float(rng.uniform(0, 0.9)), int(rng.integers(2**31)),
                                normalize=False)
            pc = PowerConfig(*np.exp(rng.uniform(0.0, 4.0, size=3)))
            ub, _, _ = c_ub(pc, pair.theta1, pair.theta2)
            assert ub <= c_ub0(pc, pair.theta1, pair.theta2) + 1e-9


def _saddle_corpus():
    """Seeded instances: M 2/4/8, unnormalized channels, powers 0.1 to
    1e6, and a silent source or no relay budget in some of them."""
    rng = np.random.default_rng(2024)
    for i in range(240):
        pair = gen_channels((2, 4, 8)[i % 3], float(rng.uniform(0.0, 0.99)),
                            int(rng.integers(2**31)), normalize=False)
        p1, p2, pr = 10.0 ** rng.uniform(-1.0, 6.0, size=3)
        if i % 8 == 1:
            p1 = 0.0
        elif i % 8 == 3:
            p2 = 0.0
        elif i % 8 == 5:
            pr = 0.0
        yield PowerConfig(p1, p2, pr), pair.theta1, pair.theta2


class TestSaddlePoint:
    def test_value_is_the_minimax(self):
        # max over P21 at kappa* reaches no higher than c_ub, no kappa
        # keeps the max over P21 below c_ub, and c_ub <= c_ub0
        for pc, th1, th2 in _saddle_corpus():
            P = pc.p_relay
            value, kappa_star, p21_star = c_ub(pc, th1, th2)
            assert 0.0 <= kappa_star <= 1.0 and 0.0 <= p21_star <= P

            def f(kappa, x):
                return c21(kappa, x, th1, th2, pc.p2) + c12(1.0 - kappa, P - x, th1, th2, pc.p1)

            assert value == f(kappa_star, p21_star)
            assert value <= c_ub0(pc, th1, th2)
            for x in np.linspace(0.0, P, 4097):
                assert f(kappa_star, x) <= value + 1e-12
            for kappa in np.linspace(0.0, 1.0, 41):
                _, inner = _golden_max(lambda x: f(kappa, x), 0.0, P)
                assert value <= max(inner, f(kappa, 0.0), f(kappa, P)) + 1e-12

    def test_symmetric_setup_equals_closed_form(self):
        for p in (1.0, 10.0, 1e4, 1e6):
            value, _, _ = c_ub(PowerConfig(p, p, p), 1.0, 1.0)
            assert abs(value - c_ub_sym(1.0, p)) <= 1e-12

    def test_symmetric_setup_at_huge_powers(self):
        # p^5 overflows a float at these powers; the noise split of a
        # symmetric setup is 1/2 at any power
        for p in (1e40, 1e62, 1e80, 1e150):
            value, kappa, _ = c_ub(PowerConfig(p, p, p), 1.0, 1.0)
            want = c_ub_sym(1.0, p)
            assert abs(value - want) <= 1e-12 * want
            assert kappa == 0.5

    def test_symmetric_setup_past_overflowing_squares(self):
        # p^2 overflows a float at these powers: no SNR, noise split or
        # sign test may form a product of two powers
        for p in (1e155, 1e200, 1e300):
            pc = PowerConfig(p, p, p)
            value, kappa, _ = c_ub(pc, 1.0, 1.0)
            want = c_ub_sym(1.0, p)
            assert abs(value - want) <= 1e-12 * want
            assert kappa == 0.5
            assert math.isfinite(c_ub0(pc, 1.0, 1.0))


class TestLowerBounds:
    def test_mr_hand_value(self):
        assert abs(r_lb_mr(SYM10, 1, 1, 0.0) - math.log2(1 + 10 / 3.2)) <= 1e-12

    def test_zf_hand_value(self):
        assert abs(r_lb_zf(SYM10, 1, 1, 0.0) - math.log2(1 + 200 / 68)) <= 1e-12

    def test_zf_rejects_parallel(self):
        with pytest.raises(InvalidInputError):
            r_lb_zf(SYM10, 1, 1, 1.0)

    def test_lower_below_upper_random(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rho = float(rng.uniform(0, 0.9))
            pair = gen_channels(4, rho, int(rng.integers(2**31)), normalize=False)
            pc = PowerConfig(*np.exp(rng.uniform(0.0, 4.0, size=3)))
            ub, _, _ = c_ub(pc, pair.theta1, pair.theta2)
            assert r_lb_mr(pc, pair.theta1, pair.theta2, rho) <= ub + 1e-6
            assert r_lb_zf(pc, pair.theta1, pair.theta2, rho) <= ub + 1e-6


class TestAsymptotics:
    def test_gap_values(self):
        gm, gz = asymptotic_gaps(1.0 / 3.0)
        assert abs(gm - math.log2(9.0 / 8.0)) <= 1e-12
        assert abs(gz - math.log2(3.0 / 2.0)) <= 1e-12
        assert asymptotic_gaps(0.0) == (0.0, 0.0)

    def test_gap_mr_extremal_structure(self):
        # fine scan: maximum at rho = 1/3, zero at both ends
        rhos = np.linspace(0.0, 1.0, 1001)
        vals = np.array([gap_mr_asymptotic(r) for r in rhos])
        assert abs(vals[0]) <= 1e-12 and abs(vals[-1]) <= 1e-12
        k = int(np.argmax(vals))
        assert abs(rhos[k] - 1.0 / 3.0) <= 2e-3
        assert abs(vals[k] - math.log2(9.0 / 8.0)) <= 1e-5

    def test_gap_zf_rejects_parallel(self):
        with pytest.raises(InvalidInputError):
            asymptotic_gaps(1.0)

    def test_high_snr_convergence(self):
        pc = PowerConfig(1e4, 1e4, 1e4)
        rho = 1.0 / 3.0
        assert abs((c_ub_sym(1.0, 1e4) - r_lb_mr(pc, 1, 1, rho)) - math.log2(9 / 8)) <= 0.01
        assert abs((c_ub_sym(1.0, 1e4) - r_lb_zf(pc, 1, 1, rho)) - math.log2(3 / 2)) <= 0.01

    def test_prelog_doubling(self):
        # each bound loses one bit when P halves, at high SNR
        for f in (
            lambda P: c_ub0(PowerConfig(P, P, P), 1.0, 1.0),
            lambda P: r_lb_mr(PowerConfig(P, P, P), 1.0, 1.0, 0.5),
            lambda P: r_lb_zf(PowerConfig(P, P, P), 1.0, 1.0, 0.5),
        ):
            assert abs((f(2e6) - f(1e6)) - 1.0) <= 1e-4

    def test_asymptote_matches_finite_formula(self):
        # the high-SNR expansions are the limits of the finite formulas
        rho = 0.4
        th1, th2 = 1.3, 0.7
        k1, k2 = 1.0, 2.5
        P = 1e8
        pc = PowerConfig(P / k1, P / k2, P)
        ub0_a, mr_a, zf_a = asymptotic_sum_rates(P, th1, th2, rho, k1=k1, k2=k2)
        assert abs(c_ub0(pc, th1, th2) - ub0_a) <= 1e-5
        assert abs(r_lb_mr(pc, th1, th2, rho) - mr_a) <= 1e-5
        assert abs(r_lb_zf(pc, th1, th2, rho) - zf_a) <= 1e-5


class TestReport:
    def test_report_roundtrip_and_invariants(self):
        rep = bounds_report(SYM10, 1.0, 1.0, 0.5)
        assert rep.c_ub <= rep.c_ub0 + 1e-9
        assert rep.c_ub_sym is not None
        assert abs(rep.c21 + rep.c12 - rep.c_ub) <= 1e-6
        clone = BoundsReport.from_json(rep.to_json())
        assert clone == rep

    def test_report_asymmetric_no_sym_bound(self):
        rep = bounds_report(PowerConfig(5.0, 10.0, 20.0), 1.0, 1.0, 0.3)
        assert rep.c_ub_sym is None
        assert rep.r_lb_zf is not None

    def test_report_parallel_channels(self):
        rep = bounds_report(SYM10, 1.0, 1.0, 1.0)
        assert rep.r_lb_zf is None
        assert rep.r_lb_mr > 0.0
