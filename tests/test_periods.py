import cmath
import itertools
import math
import random

import pytest

from helpers import beta_spherical_literature, bits, h_pair_series, satake
from localperiods import periods, symfunc, whittaker
from localperiods.draws import (
    conj_selfdual_unit,
    off_unit_circle,
    random_ramified_rep,
    unit_circle,
)
from localperiods.lfactors import pair_dual_lfactor, rs_lfactor
from localperiods.periods import (
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
from localperiods.report import STATUS_PASS
from localperiods.reps import GenericRep, RamCusp, Segment, UnramChar
from localperiods.symfunc import _modular_weight, delta_weight, weakly_decreasing_tuples
from localperiods.volumes import vol_gl
from localperiods.whittaker import essential_value, spherical_value

DEPTH = 40
DEEP = 60


def rep_with_su(params, rank, cond=1):
    segs = tuple(Segment(UnramChar(a)) for a in params)
    return GenericRep(segs + (Segment(RamCusp(rank - len(params), cond)),))


class TestBetaTruncated:
    def test_trivial_parameter_geometric_series(self):
        rep = rep_with_su((1.0,), 2)
        got = beta_truncated(rep, 3, DEPTH)
        assert abs(got.value - 0.75) < 1e-12

    def test_general_parameter_geometric_series(self):
        alpha = cmath.exp(1.3j)
        rep = rep_with_su((alpha,), 2)
        got = beta_truncated(rep, 3, DEPTH)
        assert abs(got.value - 1 / (1 + alpha / 3)) < 1e-12

    def test_fully_ramified_single_term(self):
        rep = rep_with_su((), 3, cond=2)
        got = beta_truncated(rep, 3, DEPTH)
        assert got.value == float(vol_gl(2, 3))

    def test_unramified_rejected(self):
        rep = GenericRep((Segment(UnramChar(1.0)),))
        with pytest.raises(ValueError):
            beta_truncated(rep, 3, DEPTH)

    def test_closed_form_frozen_rank_two(self):
        rep = rep_with_su((1j, -1j), 3)
        assert abs(beta_closed(rep, 3) - 0.9) < 1e-13

    def test_matches_closed_across_ranks(self):
        rng = random.Random(31)
        for n in (1, 2, 3):
            for r in range(n + 1):
                for _ in range(3):
                    rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 3))
                    q_f = rng.choice([3, 5])
                    got = beta_truncated(rep, q_f, 30)
                    want = beta_closed(rep, q_f)
                    assert abs(got.value - want) <= 1e-8 * max(1.0, abs(want)), (n, r)

    def test_check_report_passes(self):
        rng = random.Random(37)
        rep = random_ramified_rep(rng, 3, 2, 1)
        report = check_beta(rep, 3, DEPTH)
        assert report.status == STATUS_PASS
        assert report.tail_estimate is not None


class TestBetaSpherical:
    def test_rank_one_point_integral(self):
        got = beta_spherical_truncated(satake((1.0,), 9), DEPTH)
        assert got.value == 1.0

    def test_rank_two_product_form(self):
        a = cmath.exp(0.7j)
        sigma = satake((a, a.conjugate()), 9)
        got = beta_spherical_truncated(sigma, DEPTH)
        want = 1 / ((1 + a / 3) * (1 + a.conjugate() / 3))
        assert abs(got.value - want) < 1e-12

    def test_rank_two_trivial_frozen(self):
        got = beta_spherical_truncated(satake((1.0, 1.0), 9), DEPTH)
        assert abs(got.value - 9 / 16) < 1e-12

    def test_closed_form_is_the_literature_form_times_the_length_term(self):
        # on and off the unit circle, so that det(sigma) is not always 1 in
        # modulus
        rng = random.Random(41)
        for n in (1, 2, 3):
            for alphas in (unit_circle(rng, n), tuple(0.7 * a for a in unit_circle(rng, n))):
                sigma = satake(alphas, 9)
                want = beta_spherical_literature(sigma, -1 if (n - 1) % 2 else 1)
                report = check_beta_spherical(sigma, DEPTH)
                assert report.status == STATUS_PASS, (n, alphas)
                assert abs(report.rhs - want) <= 1e-12 * abs(want), (n, alphas)

    def test_check_report_passes_rank_two_trivial(self):
        # vol(GL_1) L(1, As^-)(1 - 1/9) = (81/128)(8/9) = 9/16
        report = check_beta_spherical(satake((1.0, 1.0), 9), DEPTH)
        assert report.status == STATUS_PASS
        assert abs(report.rhs - 9 / 16) < 1e-12


class TestTheta:
    def test_rank_one_point_integral(self):
        got = theta_truncated(satake((cmath.exp(0.2j),), 9), DEPTH)
        assert got.value == 1.0

    def test_rank_two_squared_series_oracle(self):
        got = theta_truncated(satake((1.0, 1.0), 4), DEEP)
        want = sum((f + 1) ** 2 * 0.25**f for f in range(500))
        assert abs(got.value - want) < 1e-10
        assert abs(got.value - 80 / 27) < 1e-10

    def test_rank_two_h_series_oracle(self):
        rng = random.Random(43)
        alphas = unit_circle(rng, 2)
        sigma = satake(alphas, 9)
        got = theta_truncated(sigma, DEPTH)
        conj = tuple(a.conjugate() for a in alphas)
        want = h_pair_series(alphas, conj, 1 / 9)
        assert abs(got.value - want.real) < 1e-10

    def test_ratio_is_missing_top_row(self):
        rng = random.Random(47)
        for k in (2, 3):
            ratios = []
            for _ in range(4):
                sigma = satake(unit_circle(rng, k), 9)
                ratios.append(theta_truncated(sigma, DEPTH).value / pair_dual_lfactor(sigma).value(1))
            assert ratio_spread(ratios) < 1e-10
            want = float(vol_gl(k - 1, 9)) * (1 - 9.0**-k)
            assert abs(ratios[0] - want) < 1e-9

    def test_closed_form_is_the_literature_form_times_the_length_term(self):
        # the literature form vol(GL_{k-1}) L(1, sigma x conj-dual) times the
        # factor 1 - |det sigma|^2 q_E^-k of the length-k partitions, on and
        # off the unit circle
        rng = random.Random(53)
        for k in (2, 3):
            for alphas in (unit_circle(rng, k), tuple(1.3 * a for a in unit_circle(rng, k))):
                sigma = satake(alphas, 9)
                det = math.prod(alphas)
                want = (float(vol_gl(k - 1, 9)) * pair_dual_lfactor(sigma).value(1)
                        * (1 - abs(det) ** 2 * 9.0**-k))
                report = check_theta(sigma, DEPTH)
                assert report.status == STATUS_PASS, (k, alphas)
                assert abs(report.rhs - want) <= 1e-12 * abs(want), (k, alphas)
                assert report.rhs == theta_closed(sigma)


class TestLambda:
    def test_rank_one_ramified_geometric(self):
        alpha, beta = cmath.exp(0.4j), cmath.exp(-1.1j)
        sigma = satake((alpha,), 9)
        rep = rep_with_su((beta,), 2)
        got = lambda_truncated(sigma, rep, DEPTH)
        want = 1 / (1 - alpha * beta / 3)
        assert abs(got.value - want) < 1e-12

    def test_rank_two_support_collapse(self):
        rng = random.Random(59)
        alphas = unit_circle(rng, 2)
        beta = cmath.exp(0.25j)
        sigma = satake(alphas, 9)
        rep = rep_with_su((beta,), 3)
        got = lambda_truncated(sigma, rep, DEPTH)
        want = float(vol_gl(2, 9))
        for a in alphas:
            want /= 1 - a * beta / 3
        assert abs(got.value - want) < 1e-11

    def test_matches_closed_up_to_rank_three(self):
        rng = random.Random(61)
        for n in (1, 2, 3):
            for r in range(n + 1):
                rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 2))
                sigma = satake(unit_circle(rng, n), 25)
                got = lambda_truncated(sigma, rep, 25)
                want = lambda_closed(sigma, rep)
                assert abs(got.value - want) <= 1e-8 * max(1.0, abs(want)), (n, r)

    def test_rank_three_ratio_parameter_independent(self):
        rng = random.Random(67)
        ratios = []
        for _ in range(6):
            rep = random_ramified_rep(rng, 4, rng.randint(0, 3), 1)
            sigma = satake(unit_circle(rng, 3), 25)
            got = lambda_truncated(sigma, rep, 25).value
            ratios.append(got / rs_lfactor(sigma, rep.unramified_part(25)).value(0.5))
        assert ratio_spread(ratios) < 1e-7
        assert abs(ratios[0] - float(vol_gl(3, 25))) < 1e-8

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            lambda_truncated(satake((1.0,), 9), rep_with_su((1.0,), 3), DEPTH)

    def test_check_report(self):
        rng = random.Random(71)
        rep = random_ramified_rep(rng, 2, 1, 1)
        sigma = satake(unit_circle(rng, 1), 9)
        report = check_lambda(sigma, rep, DEPTH)
        assert report.status == STATUS_PASS


#: inputs that the torus periods reject: name -> (call, message)
REJECTED = {
    # lambda's newform-line factor is always ramified
    "lambda-unramified": (
        lambda: lambda_truncated(satake((1.0,), 4), GenericRep(
            (Segment(UnramChar(1.0)), Segment(UnramChar(1.0)))), DEPTH),
        "representation is unramified"),
    "check-lambda-unramified": (
        lambda: check_lambda(satake((0.6 + 0.8j,), 9), GenericRep(
            (Segment(UnramChar(1.0)), Segment(UnramChar(-1.0)))), DEPTH),
        "representation is unramified"),
    # beta-spherical takes q_F from the base, which must be a square
    "beta-spherical-truncated-base-8": (
        lambda: beta_spherical_truncated(satake((1.0, 1.0), 8), DEPTH), "base 8 is not the square"),
    "beta-spherical-closed-base-8": (
        lambda: beta_spherical_closed(satake((1.0, 1.0), 8)), "base 8 is not the square"),
    "check-beta-spherical-base-5": (
        lambda: check_beta_spherical(satake((1.0,), 5), DEPTH), "base 5 is not the square"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_inputs_raise(name):
    call, message = REJECTED[name]
    with pytest.raises(ValueError, match=message):
        call()


class TestTails:
    def test_tail_monotonicity(self):
        rng = random.Random(73)
        rep = random_ramified_rep(rng, 3, 2, 1)
        sigma = satake(unit_circle(rng, 2), 9)
        base = lambda_truncated(sigma, rep, 12)
        deeper = lambda_truncated(sigma, rep, 22)
        assert abs(deeper.value - base.value) <= base.tail_estimate

    def test_tail_shrinks_with_depth(self):
        rng = random.Random(79)
        rep = random_ramified_rep(rng, 2, 1, 1)
        t1 = beta_truncated(rep, 3, 10).tail_estimate
        t2 = beta_truncated(rep, 3, 20).tail_estimate
        assert 0 < t2 < t1

    def test_depth_below_one_is_rejected(self):
        rep = rep_with_su((1.0,), 2)
        sigma = satake((1.0,), 9)
        for call in (
            lambda d: beta_truncated(rep, 3, d),
            lambda d: beta_spherical_truncated(satake((1.0, 1.0), 9), d),
            lambda d: theta_truncated(satake((1.0, 1.0), 9), d),
            lambda d: lambda_truncated(sigma, rep, d),
        ):
            for depth in (0, -1):
                with pytest.raises(ValueError, match="depth must be >= 1"):
                    call(depth)

    def test_ratio_spread_basics(self):
        with pytest.raises(ValueError):
            ratio_spread([])
        assert ratio_spread([1.0, 1.0]) == 0.0
        assert ratio_spread([1.0, 2.0]) > 0.3
        # purely relative: a zero mean has no scale, so no tolerance passes
        assert ratio_spread([1.0, -1.0]) == math.inf
        assert ratio_spread([0.0, 0.0]) == math.inf


def full_box_torus_sum(rank, depth, q, integrand):
    """Reference summer: every weakly decreasing tuple in [-depth, depth]^rank,
    with the shell taken by largest |f_i|; each nonzero integrand value is
    weighted by 1/delta_weight(f, q) per term, and the sum and tail are
    scaled by vol_gl(rank, q)."""
    total = 0.0
    shell = 0.0
    for f in weakly_decreasing_tuples(rank, -depth, depth):
        w = integrand(f)
        if w == 0:
            continue
        t = w * float(1 / delta_weight(f, q))
        total += t
        if f and max(abs(v) for v in f) == depth:
            shell += abs(t)
    vol = float(vol_gl(rank, q))
    geo = 1.0 / (1.0 - float(q) ** -0.5)
    return TruncResult(vol * total, vol * (shell * geo))


def parity_sign(rank, f):
    return (-1 if rank % 2 else 1) ** (sum(f) % 2)


def lambda_reference(sigma_n, rep, depth):
    q_e = sigma_n.base

    def reference(f):
        w1 = spherical_value(sigma_n.params, f, q_e)
        return w1 * essential_value(rep, f, q_e) if w1 != 0 else 0.0

    return len(sigma_n), q_e, reference


def beta_reference(rep, q_f, depth):
    n = rep.rank - 1
    return n, q_f, lambda f: essential_value(rep, f, q_f**2) * parity_sign(n, f)


def beta_spherical_reference(sigma_n, depth):
    rank, q_f = len(sigma_n) - 1, math.isqrt(sigma_n.base)

    def reference(f):
        return spherical_value(sigma_n.params, f + (0,), sigma_n.base) * parity_sign(rank, f)

    return rank, q_f, reference


def theta_reference(sigma, depth):
    def reference(f):
        return abs(spherical_value(sigma.params, f + (0,), sigma.base)) ** 2

    return len(sigma) - 1, sigma.base, reference


#: each truncated period's torus rank, weight residue size and reference
#: composition of its integrand: spherical_value and essential_value with
#: the sign or abs(.)**2 the period applies.  Both evaluators test their
#: support, so a composition is zero off it.
REFERENCES = {
    lambda_truncated: lambda_reference,
    beta_truncated: beta_reference,
    beta_spherical_truncated: beta_spherical_reference,
    theta_truncated: theta_reference,
}


def newform_reps(rng, n):
    """Ramified rank-(n+1) representations covering every unramified-part
    rank: a ramified cuspidal part with r = 0..n, and a Steinberg-type
    segment with r = n."""
    reps = [random_ramified_rep(rng, n + 1, r, rng.randint(1, 2)) for r in range(n + 1)]
    alphas = conj_selfdual_unit(rng, n)
    reps.append(GenericRep((Segment(UnramChar(alphas[0]), 2),)
                           + tuple(Segment(UnramChar(a)) for a in alphas[1:])))
    return reps


class TestSupportSummation:
    def test_equals_full_box_enumeration_exactly(self):
        """Each period, summed over its support, equals its reference
        composition summed over the full box bit for bit: nothing off the
        support is lost."""
        rng = random.Random(83)
        cases = []
        for n in (1, 2, 3):
            for depth in (1, 3, 8):
                q_f = rng.choice([3, 5])
                q_e = q_f**2
                sigma_n = satake(unit_circle(rng, n), q_e)
                sigma_up = satake(unit_circle(rng, n + 1), q_e)
                cases.append((theta_truncated, (sigma_up, depth)))
                cases.append((beta_spherical_truncated, (sigma_up, depth)))
                for rep in newform_reps(rng, n):
                    cases.append((lambda_truncated, (sigma_n, rep, depth)))
                    cases.append((beta_truncated, (rep, q_f, depth)))
        for fn, args in cases:
            got = fn(*args)
            rank, q, reference = REFERENCES[fn](*args)
            want = full_box_torus_sum(rank, args[-1], q, reference)
            assert got.value == want.value, (fn.__name__, args)
            assert got.tail_estimate == want.tail_estimate, (fn.__name__, args)

    @pytest.mark.parametrize("depth", [1, 4])
    @pytest.mark.parametrize("head", [0, 2, 3])
    def test_torus_sum_passes_exactly_the_support(self, head, depth):
        """_torus_sum takes its values along the support walk, each weakly
        decreasing head in [0, depth], padded with zeros to the rank, once
        and in descending lexicographic order: C(depth + head, head) tuples,
        the support that the integrands rely on."""
        rank = 3
        seen = []

        def spy():
            for block in symfunc._support(head, rank, depth):
                for f in block:
                    seen.append(f)
                    yield 1.0

        periods._torus_sum(rank, head, depth, 9, spy())
        want = [
            lam + (0,) * (rank - head)
            for lam in itertools.product(range(depth, -1, -1), repeat=head)
            if all(a >= b for a, b in zip(lam, lam[1:]))
        ]
        assert seen == want
        assert len(seen) == math.comb(depth + head, head)

    @pytest.mark.parametrize("head", [1, 2, 3])
    def test_zero_values_change_no_bit(self, head):
        """A sum with exact zeros among its values, signed and complex ones
        included, sums to the bits of a sum that skips them: the reference
        summer weights only the nonzero values."""
        rank, depth, q = 3, 4, 9
        zeros = (0.0, -0.0, 0j, complex(-0.0, -0.0))

        def value(f):
            k = sum(v * 7**i for i, v in enumerate(f))
            return zeros[k % 4] if k % 3 == 0 else complex(math.sin(k), math.cos(k))

        support = {f: value(f) for block in symfunc._support(head, rank, depth) for f in block}
        got = periods._torus_sum(rank, head, depth, q, iter(support.values()))
        assert any(v == 0 for v in support.values())
        want = full_box_torus_sum(rank, depth, q, lambda f: support.get(f, 0))
        assert got.value == want.value
        assert got.tail_estimate == want.tail_estimate

    def test_ramified_lambda_evaluates_only_the_head(self, monkeypatch):
        """A ramified lambda sum takes C(d + r, r) values from each of two
        Schur walks of r head parts, sigma_n's in periods and the unramified
        part's in whittaker, and builds its weight vectors once per sum
        shape: a second sum of the same shape builds none."""
        taken = {}

        def counting(module):
            real = module._schur_support

            def counted(params, head, depth):
                key = module.__name__, tuple(params), head
                taken[key] = 0
                for value in real(params, head, depth):
                    taken[key] += 1
                    yield value

            monkeypatch.setattr(module, "_schur_support", counted)

        counting(periods)
        counting(whittaker)
        builders = (symfunc._support_exponents, periods._weights, periods._size_powers)
        rng = random.Random(89)
        for n in (1, 2, 3):
            sigma = satake(unit_circle(rng, n), 9)
            for r in range(n + 1):
                rep = random_ramified_rep(rng, n + 1, r, 1)
                sigma_u = rep.unramified_part(9)
                for depth in (1, 4, 9):
                    taken.clear()
                    lambda_truncated(sigma, rep, depth)
                    terms = math.comb(depth + r, r)
                    assert taken == {(periods.__name__, tuple(sigma.params), r): terms,
                                     (whittaker.__name__, tuple(sigma_u.params), r): terms}
                    built = [f.cache_info().misses for f in builders]
                    lambda_truncated(satake(unit_circle(rng, n), 9), rep, depth)
                    assert [f.cache_info().misses for f in builders] == built
                    assert len(periods._weights(9, -2, n, r, depth)) == terms

    @pytest.mark.parametrize("depth", [1, 4, 9])
    def test_head_three_lambda_takes_minors_once_per_run(self, depth, monkeypatch):
        """A head-3 lambda sum (n = r = 3) has two rank-3 Schur walks,
        sigma_n's and the unramified part's.  Each takes the minors of its
        first two columns once per (a, b) run of last parts, inline, and the
        last-column expansion inline for each weight: no value calls
        _minors or _last_column, and the sum is unchanged."""
        rng = random.Random(113)
        sigma = satake(unit_circle(rng, 3), 25)
        rep = random_ramified_rep(rng, 4, 3, 1)
        want = lambda_truncated(sigma, rep, depth)

        def no_call(*args):
            raise AssertionError("a value was taken through a call")

        monkeypatch.setattr(symfunc, "_minors", no_call)
        monkeypatch.setattr(symfunc, "_last_column", no_call)
        assert lambda_truncated(sigma, rep, depth) == want


class TestWeightVectors:
    """The weight vectors of a sum shape against the exact modular weights
    of symfunc, at every exponent of the support."""

    @pytest.mark.parametrize("q", [9, 25, 49])
    def test_equal_the_exact_weights(self, q):
        for rank in range(5):
            for head in range(rank + 1):
                for depth in (1, 2, 5):
                    support = [f for block in symfunc._support(head, rank, depth) for f in block]
                    exponents = [sum(c * v for c, v in zip(range(1 - rank, rank, 2), f))
                                 for f in support]
                    delta_inv = [bits(float(1 / _modular_weight(e, q))) for e in exponents]
                    half = [bits(float(_modular_weight(e, q, half=True))) for e in exponents]
                    assert list(map(bits, periods._weights(q, -2, rank, head, depth))) == delta_inv
                    assert list(map(bits, periods._weights(q, 1, rank, head, depth))) == half

    def test_deep_exponents(self):
        # 1/delta at depth 25 reaches q^-150 and q^150
        for q in (9, 25, 49):
            exponents = [sum(c * v for c, v in zip((-2, 0, 2), f))
                         for f in weakly_decreasing_tuples(3, 0, 25)]
            want = [bits(float(1 / _modular_weight(e, q))) for e in exponents]
            assert list(map(bits, periods._weights(q, -2, 3, 3, 25))) == want

    def test_odd_exponent_of_a_nonsquare_raises(self):
        # (1, 0) has the odd modular exponent -1; 1/delta needs no root
        with pytest.raises(ValueError, match="not exact"):
            periods._weights(3, 1, 2, 1, 1)
        with pytest.raises(ValueError):
            _modular_weight(-1, 3, half=True)
        assert periods._weights(3, -2, 2, 1, 1) == (3.0, 1.0)
        # every exponent of a rank-3 weight is even
        assert periods._weights(3, 1, 3, 3, 2) == tuple(
            float(delta_weight(f, 3, half=True)) for f in weakly_decreasing_tuples(3, 0, 2))

    def test_shared_vectors_are_immutable(self):
        # one vector serves every sum of its shape in the process
        for vector in (periods._weights(9, -2, 3, 2, 4), periods._weights(9, 1, 3, 3, 4),
                       periods._size_powers(3, 2, 4, 9), periods._signs(1, 2, 4)):
            assert isinstance(vector, tuple)

    def test_size_powers_and_signs(self):
        for rank, head, depth in ((1, 0, 3), (2, 1, 4), (3, 2, 5), (3, 3, 5)):
            sizes = [sum(f) for block in symfunc._support(head, head, depth) for f in block]
            assert periods._size_powers(rank, head, depth, 25) == tuple(
                25.0 ** (-(rank + 1 - head) * t / 2) for t in sizes)
            assert periods._signs(1, head, depth) == tuple((-1) ** t for t in sizes)
            assert periods._signs(0, head, depth) == (1,) * len(sizes)


def integrand_of(monkeypatch, period, *args):
    """The torus rank, support head and weight residue size that a
    truncated period hands to _torus_sum, and its integrand as a function
    of one support tuple, taken from the values it hands over."""
    seen = {}

    def capture(rank, head, depth, q, values):
        seen.update(rank=rank, head=head, q=q, values=list(values))
        return TruncResult(0j, 0.0)

    with monkeypatch.context() as m:
        m.setattr(periods, "_torus_sum", capture)
        period(*args)
    rank, head = seen["rank"], seen["head"]
    support = [f for block in symfunc._support(head, rank, args[-1]) for f in block]
    assert len(seen["values"]) == len(support)
    return rank, head, seen["q"], dict(zip(support, seen["values"])).__getitem__


def assert_same_terms(monkeypatch, period, *args, head=None):
    """A period's integrand against its reference composition on every
    tuple of its support, by bits, and its rank and residue size against
    the reference's; head defaults to the torus rank.  A zero of either
    sign or type counts as zero: it adds 0 to the sum."""
    rank, got_head, q, integrand = integrand_of(monkeypatch, period, *args)
    want_rank, want_q, reference = REFERENCES[period](*args)
    assert (rank, got_head, q) == (want_rank, rank if head is None else head, want_q)
    for lam in weakly_decreasing_tuples(got_head, 0, args[-1]):
        f = lam + (0,) * (rank - got_head)
        got, want = integrand(f), reference(f)
        assert (got == 0 and want == 0) or bits(got) == bits(want), f


class TestIntegrands:
    """Each integrand against its composition from the reference
    evaluators spherical_value and essential_value, with the sign or
    abs(.)**2 that its period applies, on the support that _torus_sum
    walks."""

    DEPTH = 3

    def test_lambda(self, monkeypatch):
        rng = random.Random(97)
        for n in (1, 2, 3):
            for q_e in (9, 25):
                sigma_n = satake(unit_circle(rng, n), q_e)
                for rep in newform_reps(rng, n):
                    head = len(rep.unramified_part(q_e))
                    assert_same_terms(
                        monkeypatch, lambda_truncated, sigma_n, rep, self.DEPTH, head=head)

    def test_beta(self, monkeypatch):
        rng = random.Random(101)
        for n in (1, 2, 3):
            for q_f in (3, 5):
                for rep in newform_reps(rng, n):
                    head = len(rep.unramified_part(q_f**2))
                    assert_same_terms(
                        monkeypatch, beta_truncated, rep, q_f, self.DEPTH, head=head)

    def test_beta_spherical(self, monkeypatch):
        rng = random.Random(103)
        for n in (1, 2, 3, 4):
            for q_f in (3, 5):
                sigma_n = satake(unit_circle(rng, n), q_f**2)
                assert_same_terms(monkeypatch, beta_spherical_truncated, sigma_n, self.DEPTH)

    def test_theta(self, monkeypatch):
        rng = random.Random(107)
        for k in (1, 2, 3, 4):
            for q_e in (9, 25):
                for alphas in (unit_circle(rng, k), off_unit_circle(rng, k, q_e)):
                    assert_same_terms(monkeypatch, theta_truncated, satake(alphas, q_e), self.DEPTH)
