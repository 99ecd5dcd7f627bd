import cmath
import math
import random

import pytest

from helpers import conj_selfdual_unit, h_pair_series, ramified_rep, satake, unit_circle
from localperiods import periods, whittaker
from localperiods.lfactors import pair_dual_lfactor, rs_lfactor
from localperiods.periods import (
    TruncationCfg,
    TruncResult,
    beta_closed,
    beta_spherical_closed,
    beta_spherical_truncated,
    beta_truncated,
    check_beta,
    check_beta_spherical,
    check_lambda,
    check_theta,
    lambda_closed,
    lambda_truncated,
    ratio_spread,
    theta_closed,
    theta_truncated,
)
from localperiods.report import STATUS_PASS, STATUS_SOFT
from localperiods.reps import GenericRep, RamCusp, Segment, UnramChar
from localperiods.symfunc import weakly_decreasing_tuples
from localperiods.volumes import vol_gl

TR = TruncationCfg(depth=40)
TR_DEEP = TruncationCfg(depth=60)


def rep_with_su(params, rank, cond=1):
    segs = tuple(Segment(UnramChar(a)) for a in params)
    return GenericRep(segs + (Segment(RamCusp(rank - len(params), cond)),))


class TestBetaTruncated:
    def test_trivial_parameter_geometric_series(self):
        rep = rep_with_su((1.0,), 2)
        got = beta_truncated(rep, 3, TR)
        assert abs(got.value - 0.75) < 1e-12

    def test_general_parameter_geometric_series(self):
        alpha = cmath.exp(1.3j)
        rep = rep_with_su((alpha,), 2)
        got = beta_truncated(rep, 3, TR)
        assert abs(got.value - 1 / (1 + alpha / 3)) < 1e-12

    def test_fully_ramified_single_term(self):
        rep = rep_with_su((), 3, cond=2)
        got = beta_truncated(rep, 3, TR)
        assert got.value == float(vol_gl(2, 3))

    def test_unramified_rejected(self):
        rep = GenericRep((Segment(UnramChar(1.0)),))
        with pytest.raises(ValueError):
            beta_truncated(rep, 3, TR)

    def test_closed_form_frozen_rank_two(self):
        rep = rep_with_su((1j, -1j), 3)
        assert abs(beta_closed(rep, 3) - 0.9) < 1e-13

    def test_matches_closed_across_ranks(self):
        rng = random.Random(31)
        for n in (1, 2, 3):
            for r in range(n + 1):
                for _ in range(3):
                    rep = ramified_rep(rng, n + 1, r, rng.randint(1, 3))
                    q_f = rng.choice([3, 5])
                    trunc = TruncationCfg(depth=30)
                    got = beta_truncated(rep, q_f, trunc)
                    want = beta_closed(rep, q_f)
                    assert abs(got.value - want) <= 1e-8 * max(1.0, abs(want)), (n, r)

    def test_check_report_passes(self):
        rng = random.Random(37)
        rep = ramified_rep(rng, 3, 2, 1)
        report = check_beta(rep, 3, TR)
        assert report.status == STATUS_PASS
        assert report.tail_estimate is not None


class TestBetaSpherical:
    def test_rank_one_point_integral(self):
        got = beta_spherical_truncated(satake((1.0,), 9), 3, TR)
        assert got.value == 1.0

    def test_rank_two_product_form(self):
        a = cmath.exp(0.7j)
        sigma = satake((a, a.conjugate()), 9)
        got = beta_spherical_truncated(sigma, 3, TR)
        want = 1 / ((1 + a / 3) * (1 + a.conjugate() / 3))
        assert abs(got.value - want) < 1e-12

    def test_rank_two_trivial_frozen(self):
        got = beta_spherical_truncated(satake((1.0, 1.0), 9), 3, TR)
        assert abs(got.value - 9 / 16) < 1e-12

    def test_soft_constant_is_the_missing_length_term(self):
        # measured/reference = 1 - q^-n * prod(alpha): recorded, not patched
        rng = random.Random(41)
        for n in (2, 3):
            alphas = unit_circle(rng, n)
            sigma = satake(alphas, 9)
            got = beta_spherical_truncated(sigma, 3, TR).value
            ref = beta_spherical_closed(sigma, 3)
            prod = 1.0
            for a in alphas:
                prod *= a
            want_ratio = 1 - prod * 3.0**-n
            assert abs(got / ref - want_ratio) < 1e-10

    def test_soft_report_records_discrepancy(self):
        report = check_beta_spherical(satake((1.0, 1.0), 9), 3, TR)
        assert report.status == STATUS_SOFT
        assert report.discrepancy_factor is not None
        assert abs(report.discrepancy_factor - (1 - 1 / 9)) < 1e-10


class TestTheta:
    def test_rank_one_point_integral(self):
        got = theta_truncated(satake((cmath.exp(0.2j),), 9), TR)
        assert got.value == 1.0

    def test_rank_two_squared_series_oracle(self):
        got = theta_truncated(satake((1.0, 1.0), 4), TR_DEEP)
        want = sum((f + 1) ** 2 * 0.25**f for f in range(500))
        assert abs(got.value - want) < 1e-10
        assert abs(got.value - 80 / 27) < 1e-10

    def test_rank_two_h_series_oracle(self):
        rng = random.Random(43)
        alphas = unit_circle(rng, 2)
        sigma = satake(alphas, 9)
        got = theta_truncated(sigma, TR)
        conj = tuple(a.conjugate() for a in alphas)
        want = h_pair_series(alphas, conj, 1 / 9)
        assert abs(got.value - want.real) < 1e-10

    def test_ratio_is_missing_top_row(self):
        rng = random.Random(47)
        for k in (2, 3):
            ratios = []
            for _ in range(4):
                sigma = satake(unit_circle(rng, k), 9)
                ratios.append(theta_truncated(sigma, TR).value / pair_dual_lfactor(sigma).value(1))
            assert ratio_spread(ratios) < 1e-10
            want = float(vol_gl(k - 1, 9)) * (1 - 9.0**-k)
            assert abs(ratios[0] - want) < 1e-9

    def test_soft_report(self):
        rng = random.Random(53)
        sigma = satake(unit_circle(rng, 2), 9)
        report = check_theta(sigma, TR)
        assert report.status == STATUS_SOFT
        assert abs(report.discrepancy_factor - (1 - 1 / 81)) < 1e-9
        assert abs(report.rhs - theta_closed(sigma)) < 1e-12


class TestLambda:
    def test_rank_one_ramified_geometric(self):
        alpha, beta = cmath.exp(0.4j), cmath.exp(-1.1j)
        sigma = satake((alpha,), 9)
        rep = rep_with_su((beta,), 2)
        got = lambda_truncated(sigma, rep, TR)
        want = 1 / (1 - alpha * beta / 3)
        assert abs(got.value - want) < 1e-12

    def test_rank_one_unramified_cauchy(self):
        sigma = satake((1.0,), 4)
        rep = GenericRep((Segment(UnramChar(1.0)), Segment(UnramChar(1.0))))
        got = lambda_truncated(sigma, rep, TR_DEEP)
        assert abs(got.value - 4.0) < 1e-10

    def test_rank_two_support_collapse(self):
        rng = random.Random(59)
        alphas = unit_circle(rng, 2)
        beta = cmath.exp(0.25j)
        sigma = satake(alphas, 9)
        rep = rep_with_su((beta,), 3)
        got = lambda_truncated(sigma, rep, TR)
        want = float(vol_gl(2, 9))
        for a in alphas:
            want /= 1 - a * beta / 3
        assert abs(got.value - want) < 1e-11

    def test_matches_closed_up_to_rank_three(self):
        rng = random.Random(61)
        for n in (1, 2, 3):
            for r in range(n + 1):
                rep = ramified_rep(rng, n + 1, r, rng.randint(1, 2))
                sigma = satake(unit_circle(rng, n), 25)
                got = lambda_truncated(sigma, rep, TruncationCfg(depth=25))
                want = lambda_closed(sigma, rep)
                assert abs(got.value - want) <= 1e-8 * max(1.0, abs(want)), (n, r)

    def test_rank_three_ratio_parameter_independent(self):
        rng = random.Random(67)
        ratios = []
        for _ in range(6):
            rep = ramified_rep(rng, 4, rng.randint(0, 3), 1)
            sigma = satake(unit_circle(rng, 3), 25)
            got = lambda_truncated(sigma, rep, TruncationCfg(depth=25)).value
            _, sigma_u = rep.unramified_part(25)
            lval = rs_lfactor(sigma, sigma_u).value(0.5) if len(sigma_u) else 1.0
            ratios.append(got / lval)
        assert ratio_spread(ratios) < 1e-7
        assert abs(ratios[0] - float(vol_gl(3, 25))) < 1e-8

    def test_s_parameter_shifts_value(self):
        sigma = satake((1.0,), 9)
        rep = rep_with_su((1.0,), 2)
        at0 = lambda_truncated(sigma, rep, TR).value
        at_half = lambda_truncated(sigma, rep, TR, s=0.5).value
        assert abs(at0 - at_half) > 1e-3

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            lambda_truncated(satake((1.0,), 9), rep_with_su((1.0,), 3), TR)

    def test_check_report(self):
        rng = random.Random(71)
        rep = ramified_rep(rng, 2, 1, 1)
        sigma = satake(unit_circle(rng, 1), 9)
        report = check_lambda(sigma, rep, TR)
        assert report.status == STATUS_PASS


class TestTails:
    def test_tail_monotonicity(self):
        rng = random.Random(73)
        rep = ramified_rep(rng, 3, 2, 1)
        sigma = satake(unit_circle(rng, 2), 9)
        base = lambda_truncated(sigma, rep, TruncationCfg(depth=12))
        deeper = lambda_truncated(sigma, rep, TruncationCfg(depth=22))
        assert abs(deeper.value - base.value) <= base.tail_estimate

    def test_tail_shrinks_with_depth(self):
        rng = random.Random(79)
        rep = ramified_rep(rng, 2, 1, 1)
        t1 = beta_truncated(rep, 3, TruncationCfg(depth=10)).tail_estimate
        t2 = beta_truncated(rep, 3, TruncationCfg(depth=20)).tail_estimate
        assert 0 < t2 < t1

    def test_ratio_spread_basics(self):
        assert ratio_spread([]) == 0.0
        assert ratio_spread([1.0, 1.0]) == 0.0
        assert ratio_spread([1.0, 2.0]) > 0.3


def full_box_torus_sum(rank, head, trunc, q, term):
    """Reference summer: every weakly decreasing tuple in [-depth, depth]^rank,
    ignoring the support head, with the shell taken by largest |f_i|."""
    total = 0.0
    shell = 0.0
    depth = trunc.depth
    for f in weakly_decreasing_tuples(rank, -depth, depth):
        t = term(f)
        if t == 0:
            continue
        total += t
        if f and max(abs(v) for v in f) == depth:
            shell += abs(t)
    geo = 1.0 / (1.0 - float(q) ** -0.5)
    return TruncResult(total, shell * geo)


def newform_reps(rng, n):
    """Rank-(n+1) representations covering every unramified-part rank:
    a ramified cuspidal part with r = 0..n, a Steinberg-type segment with
    r = n, and a fully unramified one."""
    reps = [ramified_rep(rng, n + 1, r, rng.randint(1, 2)) for r in range(n + 1)]
    alphas = conj_selfdual_unit(rng, n)
    reps.append(GenericRep((Segment(UnramChar(alphas[0]), 2),)
                           + tuple(Segment(UnramChar(a)) for a in alphas[1:])))
    reps.append(GenericRep(tuple(Segment(UnramChar(a)) for a in unit_circle(rng, n + 1))))
    return reps


class TestSupportSummation:
    def test_equals_full_box_enumeration_exactly(self, monkeypatch):
        rng = random.Random(83)
        cases = []
        for n in (1, 2, 3):
            for depth in (1, 3, 8):
                trunc = TruncationCfg(depth=depth)
                q_f = rng.choice([3, 5])
                q_e = q_f**2
                sigma_n = satake(unit_circle(rng, n), q_e)
                sigma_up = satake(unit_circle(rng, n + 1), q_e)
                cases.append((theta_truncated, (sigma_up, trunc)))
                cases.append((beta_spherical_truncated, (sigma_up, q_f, trunc)))
                for rep in newform_reps(rng, n):
                    cases.append((lambda_truncated, (sigma_n, rep, trunc)))
                    if rep.is_ramified():
                        cases.append((beta_truncated, (rep, q_f, trunc)))
        got = [fn(*args) for fn, args in cases]
        monkeypatch.setattr(periods, "_torus_sum", full_box_torus_sum)
        want = [fn(*args) for fn, args in cases]
        for (fn, args), g, w in zip(cases, got, want):
            assert g.value == w.value, (fn.__name__, args)
            assert g.tail_estimate == w.tail_estimate, (fn.__name__, args)

    def test_ramified_lambda_evaluates_only_the_head(self, monkeypatch):
        """A ramified lambda sum evaluates the spherical factor once per
        support tuple, C(d + r, r) times, and builds one evaluator per
        parameter set: sigma_n's in periods, the unramified part's in
        whittaker."""
        built, calls = [], [0]

        def counting(module):
            make = module._spherical_on_torus

            def build(params, q_e, max_part):
                built.append(tuple(params))
                value = make(params, q_e, max_part)

                def counted(exponents):
                    calls[0] += module is periods
                    return value(exponents)

                return counted

            monkeypatch.setattr(module, "_spherical_on_torus", build)

        counting(periods)
        counting(whittaker)
        rng = random.Random(89)
        for n in (1, 2, 3):
            sigma = satake(unit_circle(rng, n), 9)
            for r in range(n + 1):
                rep = ramified_rep(rng, n + 1, r, 1)
                sigma_u = rep.unramified_part(9)[1]
                for depth in (1, 4, 9):
                    built.clear()
                    calls[0] = 0
                    lambda_truncated(sigma, rep, TruncationCfg(depth=depth))
                    assert calls[0] == math.comb(depth + r, r), (n, r, depth)
                    assert len(built) == 2
                    assert set(built) == {tuple(sigma_u.params), tuple(sigma.params)}
