import cmath
import random

import pytest

import itertools

from helpers import bits, outcome, ssyt_schur
from localperiods.draws import random_ramified_rep, unit_circle
from localperiods.periods import _size_powers, _weights
from localperiods.reps import GenericRep, RamCusp, Segment, UnramChar
from localperiods.symfunc import (
    _schur_support,
    _support,
    is_weakly_decreasing,
    weakly_decreasing_tuples,
)
from localperiods.whittaker import _essential_on_torus, essential_value, spherical_value


class TestSphericalValue:
    def test_identity_point(self):
        assert spherical_value((0.3j, -1.0), (0, 0), 9) == 1.0

    def test_off_support(self):
        assert spherical_value((1.0, 1.0), (0, 1), 9) == 0.0

    def test_rank_two_single_box(self):
        a, b = cmath.exp(0.4j), cmath.exp(-0.4j)
        want = 9 ** -0.5 * (a + b)
        assert abs(spherical_value((a, b), (1, 0), 9) - want) < 1e-13

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spherical_value((1.0,), (1, 0), 9)

    def test_central_covariance_is_central_character(self):
        # shifting by k central boxes multiplies by the central value exactly
        rng = random.Random(4)
        for _ in range(20):
            m = rng.randint(1, 4)
            alphas = unit_circle(rng, m)
            f = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
            k = rng.randint(-2, 2)
            prod = 1.0
            for a in alphas:
                prod *= a
            lhs = spherical_value(alphas, tuple(x + k for x in f), 9)
            rhs = prod**k * spherical_value(alphas, f, 9)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def support_values(values, head, m, max_part):
    """values along the support of `head` parts padded to m, by weight."""
    support = [f for block in _support(head, m, max_part) for f in block]
    values = list(values)
    assert len(values) == len(support)
    return dict(zip(support, values))


class TestTorusEvaluators:
    """The per-sum factors that the torus sums compose, the weight vectors
    of periods and the Schur walks, against the reference evaluators."""

    @pytest.mark.parametrize("q_e", [9, 25, 3])
    def test_spherical_on_torus_is_bit_identical(self, q_e):
        # every weight of a full-rank support, the weakly decreasing tuples
        # in [0, max_part]; q_e = 3 has no exact half weight at odd
        # exponents, so its vector raises where spherical_value does
        rng = random.Random(5)
        for m in range(5):
            for params in (unit_circle(rng, m), (0.0,) * m, (0.5,) * m):
                for max_part in (0, 3):
                    schur = support_values(_schur_support(params, m, max_part), m, m, max_part)
                    assert list(schur) == list(weakly_decreasing_tuples(m, 0, max_part))
                    want = {f: outcome(spherical_value, params, f, q_e) for f in schur}
                    try:
                        half = support_values(_weights(q_e, 1, m, m, max_part), m, m, max_part)
                    except ValueError:
                        assert ValueError in want.values()
                        continue
                    for f in schur:
                        assert outcome(lambda: half[f] * schur[f]) == want[f], f

    def test_essential_on_torus_matches_its_spherical_formula(self):
        rng = random.Random(6)
        for m in (2, 3, 4):
            for r in range(m):
                rep = random_ramified_rep(rng, m, r, cond=1)
                sigma_u = rep.unramified_part(9)
                got_r, schur_u = _essential_on_torus(rep, 9, 4)
                assert got_r == r
                schur = support_values(schur_u, r, r, 4)
                half = support_values(_weights(9, 1, r, r, 4), r, r, 4)
                size = support_values(_size_powers(m - 1, r, 4, 9), r, r, 4)
                # the parts of a head on the support stay in the walk's [0, 4]
                for f in itertools.product(range(-1, 5), repeat=m - 1):
                    head, tail = f[:r], f[r:]
                    if any(tail) or not is_weakly_decreasing(head) or (head and head[-1] < 0):
                        want = 0.0
                    else:
                        want = spherical_value(sigma_u.params, head, 9)
                        want *= 9.0 ** (-(m - r) * sum(head) / 2)
                        got = half[head] * schur[head] * size[head]
                        assert bits(got) == bits(want), f
                    assert outcome(essential_value, rep, f, 9) == outcome(lambda: want), f


class TestEssentialValue:
    def test_identity_is_one(self):
        rng = random.Random(1)
        for r in range(3):
            rep = random_ramified_rep(rng, 4, r, cond=2)
            assert essential_value(rep, (0, 0, 0), 9) == 1.0

    def test_vanishes_when_tail_nonzero(self):
        rng = random.Random(2)
        rep = random_ramified_rep(rng, 3, 1, cond=1)  # r = 1, rank 3
        assert essential_value(rep, (2, 1), 9) == 0.0
        assert essential_value(rep, (0, -1), 9) == 0.0

    def test_vanishes_on_negative_head(self):
        rng = random.Random(3)
        rep = random_ramified_rep(rng, 3, 1, cond=1)
        assert essential_value(rep, (-1, 0), 9) == 0.0

    def test_rank_two_formula(self):
        alpha = cmath.exp(0.9j)
        rep = GenericRep((Segment(UnramChar(alpha)), Segment(RamCusp(1, 2))))
        # rank 3 here; use the rank-2 shape instead
        rep = GenericRep((Segment(UnramChar(alpha), 2),))
        assert rep.rank == 2 and rep.conductor() == 1
        for f1 in range(4):
            want = alpha**f1 * 9 ** (-f1 / 2)
            got = essential_value(rep, (f1,), 9)
            assert abs(got - want) < 1e-13

    def test_unramified_rejected(self):
        rep = GenericRep((Segment(UnramChar(1.0)), Segment(UnramChar(-1.0))))
        with pytest.raises(ValueError):
            essential_value(rep, (1,), 9)

    def test_against_independent_reimplementation(self):
        # the display value recomputed from scratch: tableau-sum Schur value,
        # explicit modular weight, explicit determinant-size power
        rng = random.Random(11)
        q_e = 9
        for _ in range(100):
            m = rng.randint(2, 4)
            r = rng.randint(0, m - 1)
            rep = random_ramified_rep(rng, m, r, cond=rng.randint(1, 3))
            head = tuple(sorted((rng.randint(0, 3) for _ in range(r)), reverse=True))
            f = head + (0,) * (m - 1 - r)
            sigma_u = rep.unramified_part(q_e)
            delta_half = 1.0
            for i, fi in enumerate(head, start=1):
                delta_half *= float(q_e) ** (-fi * (r + 1 - 2 * i) / 2)
            want = (
                delta_half
                * ssyt_schur(head, sigma_u.params)
                * float(q_e) ** (-(m - r) * sum(head) / 2)
            )
            got = essential_value(rep, f, q_e)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_wrong_arity(self):
        rng = random.Random(5)
        rep = random_ramified_rep(rng, 3, 1, cond=1)
        with pytest.raises(ValueError):
            essential_value(rep, (1, 0, 0), 9)
