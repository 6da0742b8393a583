"""Tests for the suboptimal beamforming schemes and baselines."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import best_rates_reference, golden_max, grid_products_reference, orthogonal_pair, symmetric_power

from twrelay.beamformer import RateProfile, min_relay_power
from twrelay.bounds import r_lb_mr, r_lb_zf
from twrelay.cli import main as cli_main
from twrelay.errors import InvalidInputError, RankDeficiencyError
from twrelay.model import (
    Beamformer,
    ChannelPair,
    PowerConfig,
    RatePair,
    effective,
    gen_channels,
    rate_pair,
    rate_pair_reduced,
    relay_power,
    relay_power_reduced,
)
from twrelay.schemes import (
    _ChannelForms,
    _Sweep,
    _basis,
    _best_rates,
    _direct_relay_sum,
    _grid_products,
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


def _components(ratio: float):
    """Unit-scale (a, b) with a/b = ratio; ratio = inf means b = 0."""
    if math.isinf(ratio):
        return 1.0, 0.0
    norm = math.hypot(ratio, 1.0)
    return ratio / norm, 1.0 / norm


def _matched_direct(pair: ChannelPair, ratio: float, pc: PowerConfig) -> np.ndarray:
    a, b = _components(ratio)
    A = a * np.outer(pair.h2.conj(), pair.h1.conj()) + b * np.outer(pair.h1.conj(), pair.h2.conj())
    return A * math.sqrt(pc.p_relay / relay_power(A, pair, pc))


class TestRatioComponents:
    def test_unit_norm_and_ratio(self):
        # the built matrix weights the two unit matrices by (a, b) with
        # a/b = ratio
        pair = complex_correlation_pair()
        pc = PowerConfig(5.0, 20.0, 13.0)
        for ratio in (0.0, 0.3, 1.0, 7.5):
            np.testing.assert_allclose(
                mrr_mrt(pair, ratio, pc).full(), _matched_direct(pair, ratio, pc), atol=1e-10
            )

    def test_infinite_ratio(self):
        pair = complex_correlation_pair()
        pc = symmetric_power(10.0)
        for ratio in (math.inf, 1e300):
            np.testing.assert_allclose(
                mrr_mrt(pair, ratio, pc).full(), _matched_direct(pair, math.inf, pc), atol=1e-10
            )

    def test_negative_rejected(self):
        pair = gen_channels(4, 0.5, seed=3)
        for build in (mrr_mrt, zfr_zft):
            with pytest.raises(InvalidInputError):
                build(pair, -0.1, symmetric_power(10.0))


class TestMatchedFilter:
    def test_matches_direct_construction(self):
        pc = symmetric_power(10.0)
        for pair in (gen_channels(4, 0.5, seed=3), complex_correlation_pair()):
            np.testing.assert_allclose(
                mrr_mrt(pair, 0.7, pc).full(), _matched_direct(pair, 0.7, pc), atol=1e-10
            )

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
        a, b = _components(0.7)
        H = np.column_stack([pair.h1, pair.h2])
        inner = np.array([[0.0, b], [a, 0.0]], dtype=complex)
        A_pinv = np.linalg.pinv(H.T) @ inner @ np.linalg.pinv(H)
        A_pinv *= math.sqrt(pc.p_relay / relay_power(A_pinv, pair, pc))
        np.testing.assert_allclose(zfr_zft(pair, 0.7, pc).full(), A_pinv, atol=1e-10)

    def test_ratio_zero_silences_reverse_link(self):
        pair = gen_channels(4, 0.6, seed=2)
        pc = symmetric_power(10.0)
        rates = rate_pair_reduced(zfr_zft(pair, 0.0, pc), effective(pair), pc)
        # the nulled gain is rounding residue, whose rate log1p keeps
        # (4e-34 bits here): bounded far below any rate a link carries
        assert rates.r12 <= 1e-30
        assert rates.r21 > 0.0

    def test_ratio_infinity_silences_forward_link_unnormalized(self):
        # orthogonal channels of unequal norm, whose Gram matrix has a
        # rounding-level off-diagonal
        pair = gen_channels(2, 0.0, 104, normalize=False)
        pc = symmetric_power(10.0)
        rates = rate_pair_reduced(zfr_zft(pair, math.inf, pc), effective(pair), pc)
        assert rates.r21 <= 1e-12
        assert rates.r12 > 0.5

    def test_parallel_channels_rejected(self):
        h = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        pair = ChannelPair(m=2, h1=h, h2=1.0j * h, rho=1.0, seed=None)
        with pytest.raises(RankDeficiencyError):
            zfr_zft(pair, 1.0, symmetric_power(10.0))


class TestSweepRegion:
    def test_two_ratio_sweep_hits_single_link_endpoints(self):
        pair = orthogonal_pair()
        pc = symmetric_power(10.0)
        boundary = sweep_region("mr", effective(pair), pc, n_ratios=2)
        assert len(boundary.r21) == 2
        # ordered by increasing r21: ratio inf point first, ratio 0 last
        assert boundary.r21[0] == 0.0 and boundary.r12[0] > 0.5
        assert boundary.r12[-1] == 0.0 and boundary.r21[-1] > 0.5

    def test_ordering_monotone(self):
        # points come in angle order, unsorted; zero-forcing is undefined
        # on the parallel channels of rho = 1
        for scheme, rho in (("zf", 0.5), ("mr", 0.5), ("zf", 0.99), ("mr", 0.99), ("mr", 1.0)):
            pair = gen_channels(4, rho, seed=6)
            boundary = sweep_region(scheme, effective(pair), symmetric_power(10.0), n_ratios=33)
            r21, r12 = boundary.r21.tolist(), boundary.r12.tolist()
            assert all(x <= y + 1e-12 for x, y in zip(r21, r21[1:]))
            assert all(x >= y - 1e-12 for x, y in zip(r12, r12[1:]))

    def test_swept_points_inside_optimal_region(self):
        # certificate: the minimum relay power to reach a swept rate pair
        # never exceeds the budget the scheme spent
        pair = gen_channels(4, 0.5, seed=4)
        eff = effective(pair)
        pc = symmetric_power(10.0)
        boundary = sweep_region("mr", eff, pc, n_ratios=9)
        for r21, r12 in zip(boundary.r21.tolist(), boundary.r12.tolist()):
            g1bar = 2.0 ** (2.0 * r21) - 1.0
            g2bar = 2.0 ** (2.0 * r12) - 1.0
            p_star, _ = min_relay_power(eff, pc, g1bar, g2bar)
            assert p_star <= pc.p_relay * (1.0 + 1e-6)

    def test_rejects_single_ratio(self):
        with pytest.raises(InvalidInputError):
            sweep_region("mr", effective(orthogonal_pair()), symmetric_power(10.0), n_ratios=1)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidInputError):
            sweep_region("dirty-paper", effective(orthogonal_pair()), symmetric_power(10.0))


def _evaluator_corpus():
    """(pair, pc) over M 2/4/8, rho up to 0.99, unit and unnormalized
    channels, 0-60 dB and a silent source."""
    seed = 300
    for m in (2, 4, 8):
        for rho in (0.0, 0.5, 0.9, 0.99):
            for normalize in (True, False):
                seed += 1
                pair = gen_channels(m, rho, seed, normalize=normalize)
                for db in (0.0, 20.0, 40.0, 60.0):
                    p = 10.0 ** (db / 10.0)
                    yield pair, PowerConfig(p, p, p)
                    yield pair, PowerConfig(0.0, 2.0 * p, 0.5 * p)


class TestSweepForms:
    def test_rates_match_the_built_beamformer(self):
        angles = (0.0, 0.25 * math.pi, 0.5 * math.pi)
        for pair, pc in _evaluator_corpus():
            eff = effective(pair)
            for scheme, build in (("mr", mrr_mrt), ("zf", zfr_zft)):
                sweep = _Sweep.build(scheme, pair, pc)
                r21s, r12s = sweep.rates(np.array(angles))
                for k, angle in enumerate(angles):
                    ratio = math.inf if angle == 0.5 * math.pi else math.tan(angle)
                    want = rate_pair_reduced(build(pair, ratio, pc), eff, pc)
                    r21, r12 = sweep.rates(angle)
                    assert isinstance(r21, float) and isinstance(r12, float)
                    for got, ref in (
                        (r21, want.r21),
                        (r12, want.r12),
                        (r21s[k], want.r21),
                        (r12s[k], want.r12),
                    ):
                        # a link zero-forcing nulls keeps a rate of rounding
                        # residue, at most 1e-21 bits here, which the two
                        # paths round apart
                        assert got == pytest.approx(ref, rel=1e-12, abs=1e-20)

    def test_sweep_points_match_their_matrices(self):
        for pair, pc in list(_evaluator_corpus())[::5]:
            eff = effective(pair)
            for scheme in ("mr", "zf"):
                boundary = sweep_region(scheme, eff, pc, n_ratios=17)
                for B, r21, r12, spent in zip(boundary.B, boundary.r21, boundary.r12, boundary.p_relay):
                    beamformer = Beamformer(B=B, U=boundary.U)
                    want = rate_pair_reduced(beamformer, eff, pc)
                    # abs: the residue rate of a nulled link, as above
                    assert r21 == pytest.approx(want.r21, rel=1e-12, abs=1e-20)
                    assert r12 == pytest.approx(want.r12, rel=1e-12, abs=1e-20)
                    assert spent == relay_power_reduced(beamformer, eff, pc)
                    assert spent == pytest.approx(pc.p_relay, rel=1e-9)

    def test_searches_build_no_beamformer(self, monkeypatch):
        import twrelay.schemes as schemes

        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return Beamformer(*args, **kwargs)

        monkeypatch.setattr(schemes, "Beamformer", counting)
        pair = gen_channels(4, 0.5, seed=8)
        pc = symmetric_power(10.0)
        for scheme in ("mr", "zf"):
            scheme_best_rates(scheme, pair, pc)
            scheme_profile_sum_rate(scheme, pair, pc, RateProfile.of(0.25))
        # the sweep's rows hold one stack of relay matrices, not one object each
        sweep_region("zf", effective(pair), pc, n_ratios=9)
        assert built == []


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
            boundary = sweep_region(scheme, effective(pair), pc, n_ratios=1025)
            pts = [RatePair(x, y) for x, y in zip(boundary.r21.tolist(), boundary.r12.tolist())]
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
        best = sweep_region("mr", effective(pair), pc, n_ratios=1025).r21.max()
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
        eff = effective(pair)
        # the sweep takes the effective channel and makes none of its own
        for run, frames in (
            (lambda: sweep_region("zf", eff, pc, n_ratios=9), 0),
            (lambda: scheme_best_rates("mr", pair, pc), 1),
            (lambda: scheme_profile_sum_rate("zf", pair, pc, RateProfile.of(0.25)), 1),
        ):
            calls.clear()
            run()
            assert len(calls) == frames


def _per_job_corpus():
    """(pair, powers) over M 2/4/8, rho from 0 to 0.999, unit and
    unnormalized channels, and equal and unequal powers from -30 to 60 dB."""
    seed = 500
    for m in (2, 4, 8):
        for rho in (0.0, 0.3, 0.9, 0.999):
            for normalize in (True, False):
                seed += 1
                powers = []
                for db in range(-30, 61, 15):
                    p = 10.0 ** (db / 10.0)
                    powers += [
                        PowerConfig(p, p, p),
                        PowerConfig(p, 0.1 * p, 10.0 * p),
                        PowerConfig(10.0 * p, p, 0.5 * p),
                    ]
                yield gen_channels(m, rho, seed, normalize=normalize), powers


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1]


def _four_factors(scheme, eff):
    """The factors (ua, va, ub, vb) of Ba = ua va^T and Bb = ub vb^T taken
    apart, the reference for _basis: for zero-forcing each matrix's left
    factor comes from V^T / sigma and its right one from V / sigma."""
    if scheme == "mr":
        return eff.g2, eff.g1, eff.g1, eff.g2
    left, right = eff.V.T / eff.sigma[:, None], eff.V / eff.sigma
    return left[:, 1], right[0], left[:, 0], right[1]


def _fourteen_dot_forms(scheme, eff):
    """(F1, F2, F0, N21, N12, q21, q12) of B = a ua va^T + b ub vb^T from the
    four factors and 14 two-term dot products, the reference for
    _ChannelForms: F1 = (|ua|^2 (va.g1)^2,
    (ua.ub)(va.g1)(vb.g1), |ub|^2 (vb.g1)^2), F0 = (|ua|^2 |va|^2,
    (ua.ub)(va.vb), |ub|^2 |vb|^2), N21 the squares and product of the link
    gains (g1.ua)(va.g2) and (g1.ub)(vb.g2), and q21 = (|va|^2 (g1.ua)^2,
    (va.vb)(g1.ua)(g1.ub), |vb|^2 (g1.ub)^2)."""
    ua, va, ub, vb = (f.tolist() for f in _four_factors(scheme, eff))
    g1, g2 = eff.g1.tolist(), eff.g2.tolist()
    uu = (_dot(ua, ua), _dot(ua, ub), _dot(ub, ub))
    vv = (_dot(va, va), _dot(va, vb), _dot(vb, vb))

    def pair_form(gram, x, y):
        return gram[0] * (x * x), gram[1] * (x * y), gram[2] * (y * y)

    a1, b1, a2, b2 = _dot(va, g1), _dot(vb, g1), _dot(va, g2), _dot(vb, g2)
    x1a, x1b, x2a, x2b = _dot(g1, ua), _dot(g1, ub), _dot(g2, ua), _dot(g2, ub)
    ones = (1.0, 1.0, 1.0)
    return (
        pair_form(uu, a1, b1),
        pair_form(uu, a2, b2),
        (uu[0] * vv[0], uu[1] * vv[1], uu[2] * vv[2]),
        pair_form(ones, x1a * a2, x1b * b2),
        pair_form(ones, x2a * a1, x2b * b1),
        pair_form(vv, x1a, x1b),
        pair_form(vv, x2a, x2b),
    )


def _bits(form):
    return [float(c).hex() for c in form]


def _exact_forms(factors, g1, g2):
    """The seven forms (F1, F2, F0, N21, N12, q21, q12) of
    B = a u v^T + b v u^T from their definitions, F1 = |B g1|^2 and
    so on, in exact rational arithmetic on the floats given."""
    u, v, g1, g2 = ([Fraction(x) for x in f] for f in (*factors, g1, g2))
    Ba = [[x * y for y in v] for x in u]
    Bb = [list(col) for col in zip(*Ba)]

    def dot(x, y):
        return sum(p * q for p, q in zip(x, y))

    def form(fa, fb):
        return dot(fa, fa), dot(fa, fb), dot(fb, fb)

    def right(B, g):  # B g
        return [dot(row, g) for row in B]

    def left(g, B):  # g^T B
        return [dot(g, col) for col in zip(*B)]

    return (
        form(right(Ba, g1), right(Bb, g1)),
        form(right(Ba, g2), right(Bb, g2)),
        form(Ba[0] + Ba[1], Bb[0] + Bb[1]),
        form([dot(g1, right(Ba, g2))], [dot(g1, right(Bb, g2))]),
        form([dot(g2, right(Ba, g1))], [dot(g2, right(Bb, g1))]),
        form(left(g1, Ba), left(g1, Bb)),
        form(left(g2, Ba), left(g2, Bb)),
    )


def _form_corpus_channels():
    """Each channel of _per_job_corpus and _evaluator_corpus once."""
    pairs = [pair for pair, _ in _per_job_corpus()]
    return pairs + list({id(pair): pair for pair, _ in _evaluator_corpus()}.values())


class TestPerJobForms:
    def test_maximum_from_per_job_forms_equals_a_fresh_search(self):
        # one set of channel forms per scheme and channel, scaled at every
        # power setting, gives exactly what a search from scratch gives
        for pair, powers in _per_job_corpus():
            eff = effective(pair)
            for scheme in ("mr", "zf"):
                forms = _ChannelForms(scheme, eff)
                F1, F2, F0, N21, N12, _, _ = _fourteen_dot_forms(scheme, eff)
                for pc in powers:
                    sweep = _Sweep(forms, pc)
                    assert sweep.best_rates() == scheme_best_rates(scheme, pair, pc)
                    # the scaled forms are the four-factor build's, bit for bit
                    assert sweep.pw == tuple(pc.p1 * f1 + pc.p2 * f2 + f0 for f1, f2, f0 in zip(F1, F2, F0))
                    assert sweep.n21 == tuple(pc.p2 * c for c in N21)
                    assert sweep.n12 == tuple(pc.p1 * c for c in N12)

    def test_forms_equal_the_four_factor_build(self):
        # Bb = Ba^T: the four factors are two, bit for bit, and the 7 dot
        # products of (u, v) give the 14-dot build's coefficients exactly
        for pair in _form_corpus_channels():
            eff = effective(pair)
            for scheme in ("mr", "zf"):
                forms = _ChannelForms(scheme, eff)
                (u, v), (ua, va, ub, vb) = forms.factors, _four_factors(scheme, eff)
                for got, want in ((u, ua), (v, va), (v, ub), (u, vb)):
                    assert got.tobytes() == want.tobytes()
                got = (forms.F1, forms.F2, forms.F0, forms.N21, forms.N12, forms.q21, forms.q12)
                for form, want in zip(got, _fourteen_dot_forms(scheme, eff)):
                    assert _bits(form) == _bits(want)

    def test_forms_against_exact_arithmetic(self):
        # each coefficient is a product of up to four two-term dot products
        # and three more roundings, so it lies within 12 unit roundoffs of the
        # exact value, relative to the same coefficient of the factors' and
        # channels' absolute values (every dot product's sum of |terms|)
        u = Fraction(1, 2**53)
        for pair in _form_corpus_channels():
            eff = effective(pair)
            for scheme in ("mr", "zf"):
                forms = _ChannelForms(scheme, eff)
                factors = _basis(scheme, eff)
                assert [f.tobytes() for f in forms.factors] == [f.tobytes() for f in factors]
                g1, g2 = eff.g1.tolist(), eff.g2.tolist()
                exact = _exact_forms([f.tolist() for f in factors], g1, g2)
                scale = _exact_forms([np.abs(f).tolist() for f in factors], *(np.abs(g).tolist() for g in (eff.g1, eff.g2)))
                got = (forms.F1, forms.F2, forms.F0, forms.N21, forms.N12, forms.q21, forms.q12)
                for form, want, size in zip(got, exact, scale):
                    for c, w, s in zip(form, want, size):
                        assert isinstance(c, float)
                        assert abs(Fraction(c) - w) <= 12 * u * s

    def test_maximum_against_the_grid_and_golden_search(self):
        # the slope root never falls more than 4e-15 bits below the 513-point
        # grid and golden-section search that it replaced
        grid = np.linspace(0.0, 0.5 * math.pi, 513)
        for pair, powers in _per_job_corpus():
            eff = effective(pair)
            for scheme in ("mr", "zf"):
                forms = _ChannelForms(scheme, eff)
                for pc in powers:
                    sweep = _Sweep(forms, pc)
                    r21, r12 = sweep.rates(grid)
                    vals = r21 + r12
                    k = int(np.argmax(vals))
                    lo, hi = float(grid[max(0, k - 1)]), float(grid[min(512, k + 1)])
                    x, best = golden_max(lambda angle: sum(sweep.rates(angle)), lo, hi)
                    want = sum(sweep.rates(x if best > vals[k] else float(grid[k])))
                    rates = sweep.best_rates()
                    assert rates.r21 + rates.r12 >= want - 4e-15

    def test_few_slope_evaluations(self, monkeypatch):
        # at most 15 per search, its bracket's two ends included, on the
        # sum-rate table's settings: unit channels and equal powers, 0-40 dB
        counts = []

        def counting(sweep, angle):
            counts[-1] += 1
            return slope(sweep, angle)

        slope = _Sweep.slope
        monkeypatch.setattr(_Sweep, "slope", counting)
        for seed in range(10):
            for m in (2, 4, 8):
                eff = effective(gen_channels(m, (0.1, 0.5, 0.9)[seed % 3], seed))
                for scheme in ("mr", "zf"):
                    forms = _ChannelForms(scheme, eff)
                    for db in range(0, 41, 8):
                        counts.append(0)
                        _Sweep(forms, symmetric_power(10.0 ** (db / 10.0))).best_rates()
        assert max(counts) <= 15
        assert sum(counts) / len(counts) <= 11

    def test_errors_keep_their_order(self):
        # unknown scheme, then rank deficiency, then the relay budget
        parallel = gen_channels(4, 1.0, seed=3)
        no_budget = PowerConfig(1.0, 1.0, 0.0)
        with pytest.raises(InvalidInputError, match="unknown scheme"):
            scheme_best_rates("dirty-paper", parallel, no_budget)
        with pytest.raises(RankDeficiencyError):
            scheme_best_rates("zf", parallel, no_budget)
        forms = _ChannelForms("mr", effective(parallel))
        with pytest.raises(InvalidInputError, match="relay power budget"):
            _Sweep(forms, no_budget)


def _grid_corpus():
    """(pair, powers) over M 2/4/8, rho from 0 to 0.999999, unit and
    unnormalized channels, and -20 to 80 dB with equal, lopsided and one
    silent source's powers."""
    seed = 700
    for m in (2, 4, 8):
        for rho in (0.0, 0.3, 0.9, 0.999999):
            for normalize in (True, False):
                seed += 1
                powers = []
                for db in range(-20, 81, 10):
                    p = 10.0 ** (db / 10.0)
                    powers += [PowerConfig(p, p, p), PowerConfig(p, 1e-3 * p, 10.0 * p), PowerConfig(0.0, p, p)]
                yield gen_channels(m, rho, seed, normalize=normalize), powers


class TestGridProduct:
    def test_argmax_matches_the_element_wise_reference(self):
        # the coefficient product rounds apart from the element-wise formula,
        # by a few ulps, so where the two pick different grid points those
        # points' values are equal to 4 ulps in the reference
        for pair, powers in _grid_corpus():
            eff = effective(pair)
            for scheme in ("mr", "zf"):
                forms = _ChannelForms(scheme, eff)
                products = _grid_products([_Sweep(forms, pc) for pc in powers])
                assert products.shape == (len(powers), 513)
                for pc, got in zip(powers, products):
                    want = grid_products_reference(forms, pc)
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
                    k, j = int(np.argmax(got)), int(np.argmax(want))
                    assert k == j or abs(want[k] - want[j]) <= 4.0 * np.spacing(want[j])

    def test_best_rates_against_the_reference_path(self):
        for pair, powers in _grid_corpus():
            eff = effective(pair)
            for scheme in ("mr", "zf"):
                forms = _ChannelForms(scheme, eff)
                found = _best_rates([_Sweep(forms, pc) for pc in powers])
                for pc, got in zip(powers, found):
                    want = best_rates_reference(forms, pc)
                    assert abs((got.r21 + got.r12) - (want.r21 + want.r12)) <= 4e-16


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


    def test_closed_form_sum(self):
        # the sum-rate table's closed form, from theta1, theta2 and |h1^T h2|^2,
        # against the lifted evaluator: on raw channels, a silent source and
        # extreme powers, and at every point of the default 0-40 dB table over
        # M 2/4/8, rho 0-0.9 and seeds 0-39 (840 channels)
        cases = []
        for seed in range(12):
            pair = gen_channels((2, 4, 8)[seed % 3], (0.0, 0.4, 0.9, 1.0)[seed % 4], seed, normalize=seed % 2 == 0)
            pcs = (symmetric_power(1e-3), symmetric_power(10.0), PowerConfig(3.0, 0.0, 1e4), symmetric_power(1e8))
            cases.append((pair, pcs))
        table = [symmetric_power(10.0 ** (2.0 * k / 10.0)) for k in range(21)]
        for m in (2, 4, 8):
            for rho in (0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9):
                cases += [(gen_channels(m, rho, seed), table) for seed in range(40)]
        for pair, pcs in cases:
            cross = float(abs(pair.h1 @ pair.h2) ** 2)
            for pc in pcs:
                rates = rate_pair(direct_relay(pair, pc), pair, pc)
                got = _direct_relay_sum(pair.theta1, pair.theta2, cross, pair.m, pc)
                assert got == pytest.approx(rates.r21 + rates.r12, rel=1e-13, abs=1e-300)


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


    def test_equals_the_sumrate_column(self, tmp_path):
        # sumrate's r_ow column is oneway_alternating at every grid point,
        # bit for bit, with and without --ow-equal-energy, on channels
        # whose gains h^H h and ||h||^2 differ in their last bits
        for m, rho, seed in ((2, 0.0, 0), (4, 0.9, 2), (8, 0.5, 0)):
            pair = gen_channels(m, rho, seed)
            for equal_energy in (False, True):
                out = tmp_path / f"{m}-{seed}-{equal_energy}"
                argv = ["sumrate", "--m", str(m), "--rho", repr(rho), "--seed", str(seed), "--out", str(out)]
                assert cli_main(argv + ["--ow-equal-energy"] * equal_energy) == 0
                with open(out / "sumrate.csv", newline="") as handle:
                    rows = list(csv.DictReader(handle))
                assert len(rows) == 21
                for row in rows:
                    p = 10.0 ** (float(row["snr_db"]) / 10.0)
                    assert float(row["r_ow"]) == oneway_alternating(pair, PowerConfig(p, p, p), equal_energy)


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
