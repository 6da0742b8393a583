"""Tests for the closed-form bounds and asymptotics."""

import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import bisect_crossing, golden_max

import twrelay.beamformer
import twrelay.df
import twrelay.schemes
from twrelay import bounds
from twrelay.beamformer import RateProfile
from twrelay.bounds import (
    BoundsReport,
    _crossing,
    asymptotic_sum_rates,
    bounds_report,
    c12,
    c21,
    c_ub,
    c_ub0,
    c_ub_sym,
    gap_mr_asymptotic,
    gap_zf_asymptotic,
    r_lb_mr,
    r_lb_zf,
)
from twrelay.errors import InvalidInputError, NumericalFailureError
from twrelay.model import PowerConfig, effective, gen_channels

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

    @pytest.mark.parametrize("p, pr, theta1, theta2, value", [
        (10.0, 10.0, 1.0, 1.0, 1.2632729072479172),
        (422.5316050858636, 118829.48330492494, 45.0935203961963, 0.02245138513715111, 5.596485397459668),
        (0.5029172871456614, 72774.79798643023, 0.0010754539707583221, 84.6000286855887, 0.00039004565430901734),
        (14915.054985750563, 16.271012382888014, 0.06579525295105193, 0.04683318269323204, 0.4080571503291863),
        (1827.7657549403257, 0.01444535043028848, 0.004154941976937239, 271.97720834440804, 0.8790478784792786),
        (10.0, 0.0, 1.0, 1.0, 0.0),
    ])
    def test_c_ub_with_a_silent_s2_takes_no_search(self, monkeypatch, p, pr, theta1, theta2, value):
        # the live source's direction takes the whole budget and relay
        # noise, one value at p21_star exactly 0 with a silent S2 and,
        # mirrored, exactly P_R with a silent S1
        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(bounds, "_crossing", no_search)
        assert c_ub(PowerConfig(p, 0.0, pr), theta1, theta2) == (value, 0.0, 0.0)
        assert c_ub(PowerConfig(0.0, p, pr), theta2, theta1) == (value, 1.0, pr)

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


def _replay(f, lo, hi, f_lo, f_hi, width=0.0):
    """_crossing's bracket and, for each evaluation, the bracket it was
    made in, its point, and the values at the bracket's ends."""
    steps, state = [], [lo, hi, f_lo, f_hi]

    def g(x):
        steps.append((state[0], state[1], x, state[2], state[3]))
        value = f(x)
        state[0 if value > 0.0 else 1], state[2 if value > 0.0 else 3] = x, value
        return value

    return _crossing(g, lo, hi, f_lo, f_hi, width), steps


def _shape(shape, root):
    """A signed function on [0, 1] that switches at root."""
    return {
        "step": lambda x: 1.0 if x < root else -1e-300,
        "cube": lambda x: (root - x) ** 3,
        "tanh": lambda x: math.tanh(1e6 * (root - x)),
        "floor": lambda x: 1e-300 if x < root else -1.0,
    }[shape]


class TestCrossing:
    def test_empty_bracket_returns_before_the_first_step(self):
        # a dead link's arc has phi = 0, and both ends' values are 0
        def never(x):
            raise AssertionError("evaluated")

        assert _crossing(never, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)
        assert _crossing(never, 1.0, math.nextafter(1.0, 2.0), 1.0, -1.0) == (1.0, math.nextafter(1.0, 2.0))

    @pytest.mark.parametrize("f_lo, f_hi", [(math.inf, -1.0), (1.0, -math.inf), (math.inf, -math.inf)])
    def test_an_end_that_cannot_be_evaluated_starts_with_a_halving(self, f_lo, f_hi):
        bracket, steps = _replay(lambda x: 0.3 - x, 0.0, 1.0, f_lo, f_hi)
        assert steps[0][2] == 0.5
        assert bracket == bisect_crossing(lambda x: 0.3 - x > 0.0, 0.0, 1.0)[0]

    def test_a_silent_source_end_in_c_ub(self):
        # a silent source would make the slope 0/0 at one end, so c_ub
        # takes no search there (see TestUpperBounds): the value that the
        # search found, at p21_star = 0 for a silent S2 and P_R for S1
        assert c_ub(PowerConfig(10.0, 0.0, 10.0), 1.0, 1.0) == (1.2632729072479172, 0.0, 0.0)
        assert c_ub(PowerConfig(0.0, 10.0, 10.0), 1.0, 1.0) == (1.2632729072479172, 1.0, 10.0)

    @pytest.mark.parametrize("root", [0.3, 1.0 / 3.0, 0.999, 1e-5])
    @pytest.mark.parametrize("shape", ["step", "cube", "tanh", "floor"])
    def test_every_step_lies_in_the_itp_ball(self, root, shape):
        f = _shape(shape, root)  # at width 0, the float-exact stop
        bracket, steps = _replay(f, 0.0, 1.0, f(0.0), f(1.0), 0.0)
        reference, halvings = bisect_crossing(lambda x: f(x) > 0.0, 0.0, 1.0)
        assert bracket == reference
        assert len(steps) <= halvings + 1
        for j, (lo, hi, x, _, _) in enumerate(steps):
            mid, radius = 0.5 * (lo + hi), math.ldexp(1.0, -j) - 0.5 * (hi - lo)
            assert lo < x < hi
            # a radius that is not positive takes the midpoint
            assert x == mid if radius <= 0.0 else abs(x - mid) <= radius + math.ulp(mid)
        if shape in ("step", "floor"):  # regula falsi lands at an end: the ball binds
            assert any(math.ldexp(1.0, -j) - 0.5 * (hi - lo) <= 0.0 for j, (lo, hi, *_) in enumerate(steps))

    @pytest.mark.parametrize("root", [0.3, 1.0 / 3.0, 0.999, 1e-5])
    @pytest.mark.parametrize("shape", ["step", "cube", "tanh", "floor"])
    def test_a_width_stops_the_search(self, root, shape):
        # the power cell's exit width: at most 41 evaluations, the bracket
        # narrowed to the width and no further, and each point at least
        # width/2 from its regula falsi point, or the midpoint
        f, width = _shape(shape, root), 2.0**-40
        (lo, hi), steps = _replay(f, 0.0, 1.0, f(0.0), f(1.0), width)
        assert lo <= root <= hi and hi - lo <= width
        assert len(steps) <= 41
        for lo, hi, x, f_lo, f_hi in steps:
            assert hi - lo > width
            regula_falsi = (f_lo * hi - f_hi * lo) / (f_lo - f_hi)
            assert x == 0.5 * (lo + hi) or abs(x - regula_falsi) >= 0.5 * width


def _crossing_calls(monkeypatch):
    """Every call that arc angles, ray exits, c_ub and scheme slopes make
    to _crossing on a seeded corpus, as (caller, f, lo, hi, f_lo, f_hi):
    M 2/4/8, rho 0 to 0.99, unit and unnormalized channels, and powers
    from -10 to 50 dB with up to 10 dB between them."""
    calls = []

    def recording(caller):
        def record(f, lo, hi, f_lo, f_hi):
            calls.append((caller, f, lo, hi, f_lo, f_hi))
            return _crossing(f, lo, hi, f_lo, f_hi)

        return record

    monkeypatch.setattr(twrelay.df, "_crossing", recording("arc"))
    monkeypatch.setattr(twrelay.beamformer, "_crossing", recording("ray"))
    monkeypatch.setattr(bounds, "_crossing", recording("c_ub"))
    monkeypatch.setattr(twrelay.schemes, "_crossing", recording("slope"))
    rng = np.random.default_rng(24)
    for i in range(18):
        pair = gen_channels((2, 4, 8)[i % 3], float(rng.uniform(0.0, 0.99)), int(rng.integers(2**31)),
                            normalize=i % 2 == 0)
        p = 10.0 ** rng.uniform(-1.0, 5.0)
        pc = PowerConfig(p * 10.0 ** rng.uniform(-1.0, 0.0), p * 10.0 ** rng.uniform(-1.0, 0.0), p)
        twrelay.df._bc_arc(effective(pair), p).boundary(9)
        for alpha21 in (0.2, 0.5, 0.8):
            twrelay.df.bc_ray_exit(pair, p, RateProfile.of(alpha21))
            twrelay.schemes.scheme_profile_sum_rate("mr", pair, pc, RateProfile.of(alpha21))
        c_ub(pc, pair.theta1, pair.theta2)
        for scheme in ("mr", "zf"):
            twrelay.schemes.scheme_best_rates(scheme, pair, pc)
    return calls


class TestCrossingCorpus:
    def test_against_the_bisection(self, monkeypatch):
        # the same bracket wherever the sign is monotone over the floats,
        # in at most one step more
        calls = _crossing_calls(monkeypatch)
        monkeypatch.undo()
        assert {call[0] for call in calls} == {"arc", "ray", "c_ub", "slope"}
        same = 0
        for caller, f, lo, hi, f_lo, f_hi in calls:
            count = [0]

            def counted(x):
                count[0] += 1
                return f(x)

            got = _crossing(counted, lo, hi, f_lo, f_hi)
            want, halvings = bisect_crossing(lambda x: f(x) > 0.0, lo, hi)
            assert count[0] <= halvings + 1, (caller, count[0], halvings)
            if got == want:
                same += 1
                continue
            # two different switches: the floats between them show a sign
            # that returns to positive, so the sign is not monotone there
            x, signs = min(got[0], want[0]), []
            while x <= max(got[1], want[1]):
                assert len(signs) < 4096, (caller, got, want)
                signs.append(f(x) > 0.0)
                x = math.nextafter(x, math.inf)
            assert any(not a and b for a, b in zip(signs, signs[1:])), (caller, got, want)
        assert same >= 0.9 * len(calls)

    def test_arc_angles_take_few_steps(self, monkeypatch):
        # at most 20 evaluations per interior weight, the two ends included
        counts = []

        def counting(f, lo, hi, f_lo, f_hi):
            calls = [2]

            def g(x):
                calls[0] += 1
                return f(x)

            bracket = _crossing(g, lo, hi, f_lo, f_hi)
            counts.append(calls[0])
            return bracket

        monkeypatch.setattr(twrelay.df, "_crossing", counting)
        rng = np.random.default_rng(25)
        for i in range(30):
            pair = gen_channels((2, 4, 8)[i % 3], float(rng.uniform(0.0, 0.99)), int(rng.integers(2**31)))
            twrelay.df.bc_boundary(pair, 10.0 ** rng.uniform(-1.0, 5.0), 17)
        assert len(counts) == 30 * 15
        assert max(counts) <= 20


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
                _, inner = golden_max(lambda x: f(kappa, x), 0.0, P)
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

    @staticmethod
    def _zf_exact(pc, theta1, theta2, rho):
        """r_lb_zf's quotient 2 p1 p2 / (S (1 + p1/P + p2/P)(max(p1, p2) + S (p1 + p2)/(P + p1 + p2))),
        S = (theta1 + theta2)/(theta1 theta2 (1 - rho)), in exact rational
        arithmetic, and the bound from its correctly rounded float."""
        p1, p2, P, t1, t2, r = map(Fraction, (pc.p1, pc.p2, pc.p_relay, theta1, theta2, rho))
        S = (t1 + t2) / (t1 * t2 * (1 - r))
        den = S * (1 + p1 / P + p2 / P) * (max(p1, p2) + S * (p1 + p2) / (P + p1 + p2))
        return math.log1p(float(2 * p1 * p2 / den)) / math.log(2.0)

    @pytest.mark.parametrize(
        "theta1, theta2, p",
        [(1e-200, 1.0, 10.0), (1e-200, 0.5, 1e100), (1.0, 1e-300, 1e150), (1e-200, 1e-200, 1e200),
         (1e200, 1e200, 1e-200), (1e-150, 1.0, 1e160), (1e-150, 1e-150, 1e300), (1e-160, 1e-160, 1e300)],
    )
    def test_zf_where_its_denominator_leaves_the_float_range(self, theta1, theta2, p):
        # bounds --theta1 1e-200 exited 1, though the bound is 4e-399 bits
        for rho in (0.0, 0.5, 0.99):
            pc = PowerConfig(p, 0.5 * p, 2.0 * p)
            want = self._zf_exact(pc, theta1, theta2, rho)
            got = r_lb_zf(pc, theta1, theta2, rho)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert r_lb_zf(PowerConfig(10.0, 10.0, 10.0), 1e-200, 1.0, 0.5) == 0.0

    def test_zf_unchanged_where_its_denominator_fits(self):
        # bit for bit the direct quotient wherever that is a finite value
        # and theta1 theta2 (1 - rho) a normal float
        rng = np.random.default_rng(26)
        for _ in range(2000):
            theta1, theta2, p1, p2, P = (10.0 ** rng.uniform(-150.0, 150.0, size=5)).tolist()
            rho = float(rng.uniform(0.0, 0.99))
            q = theta1 * theta2 * (1.0 - rho)
            if q < sys.float_info.min:  # a subnormal q, where S lost digits
                continue
            S = (theta1 + theta2) / q
            den = (S * (1.0 + p1 / P + p2 / P)
                   * (max(p1, p2) + S * (0.5 * p1 + 0.5 * p2) / (0.5 * P + 0.5 * p1 + 0.5 * p2)))
            if 0.0 < den < math.inf:
                want = math.log2(1.0 + 2.0 * p1 * p2 / den)
                assert r_lb_zf(PowerConfig(p1, p2, P), theta1, theta2, rho) == want
            else:
                got = r_lb_zf(PowerConfig(p1, p2, P), theta1, theta2, rho)
                want = self._zf_exact(PowerConfig(p1, p2, P), theta1, theta2, rho)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

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
        assert abs(gap_mr_asymptotic(1.0 / 3.0) - math.log2(9.0 / 8.0)) <= 1e-12
        assert abs(gap_zf_asymptotic(1.0 / 3.0) - math.log2(3.0 / 2.0)) <= 1e-12
        assert gap_mr_asymptotic(0.0) == gap_zf_asymptotic(0.0) == 0.0

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
            gap_zf_asymptotic(1.0)

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
        clone = BoundsReport(**json.loads(rep.to_json()))
        assert clone == rep

    def test_report_asymmetric_no_sym_bound(self):
        rep = bounds_report(PowerConfig(5.0, 10.0, 20.0), 1.0, 1.0, 0.3)
        assert rep.c_ub_sym is None
        assert rep.r_lb_zf is not None

    def test_report_parallel_channels(self):
        rep = bounds_report(SYM10, 1.0, 1.0, 1.0)
        assert rep.r_lb_zf is None
        assert rep.r_lb_mr > 0.0

    @pytest.mark.parametrize("name, value", [("c_ub0", math.nan), ("r_lb_zf", math.inf), ("c_ub_sym", -math.inf)])
    def test_json_refuses_a_non_finite_bound(self, name, value):
        rep = dataclasses.replace(bounds_report(SYM10, 1.0, 1.0, 0.5), **{name: value})
        with pytest.raises(NumericalFailureError, match=f"{name} is {value!r}, not a finite number"):
            rep.to_json()
