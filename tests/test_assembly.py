import cmath
import dataclasses
import random

import pytest

from helpers import satake
from localperiods.assembly import (
    PairData,
    i_assembled,
    i_closed,
    j_main,
    j_via_bridge,
)
from localperiods.draws import conj_selfdual_unit, random_ramified_rep, unit_circle
from localperiods.lfactors import asai_lfactor, pair_dual_lfactor, rs_lfactor
from localperiods.reps import GenericRep, RamCusp, SatakeSet, Segment, UnramChar
from localperiods.volumes import constant_c_main

DEPTH = 40


def pair_data(rng, n, c, q_f, r=None):
    r = rng.randint(0, n) if r is None else r
    return PairData(
        satake(conj_selfdual_unit(rng, n), q_f**2), random_ramified_rep(rng, n + 1, r, c)
    )


def trivial_pair(n=1, c=1, q_f=3):
    return PairData(
        satake((1.0,) * n, q_f**2),
        GenericRep(tuple(Segment(UnramChar(1.0)) for _ in range(n)) + (Segment(RamCusp(1, c)),)),
    )


class TestPairData:
    def test_derived_context(self):
        d = trivial_pair(n=2, c=3, q_f=5)
        assert [f.name for f in dataclasses.fields(PairData)] == ["sigma_n", "rep"]
        assert (d.n, d.c, d.q_f, d.q_e) == (2, 3, 5, 25)

    def test_conductor_mismatch(self):
        unramified = GenericRep((Segment(UnramChar(1.0)), Segment(UnramChar(1.0))))
        with pytest.raises(ValueError, match="c must be >= 1"):
            PairData(satake((1.0,), 9), unramified)

    def test_residue_size_bound(self):
        rng = random.Random(2)
        with pytest.raises(ValueError):
            PairData(satake(unit_circle(rng, 3), 9), random_ramified_rep(rng, 4, 1, 1))

    def test_base_mismatch(self):
        rng = random.Random(3)
        with pytest.raises(ValueError, match="not the square of a residue size"):
            PairData(satake((1.0,), 8), random_ramified_rep(rng, 2, 1, 1))


class TestIClosed:
    def test_frozen_rank_one(self):
        assert abs(i_closed(trivial_pair()) - 16 / 729) < 1e-13

    def test_real_positive_for_selfdual_data(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 2)
            d = pair_data(rng, n, rng.randint(1, 3), 5)
            val = i_closed(d)
            assert abs(val.imag) < 1e-10 * abs(val)
            assert val.real > 0

    def test_multiset_symmetry(self):
        rng = random.Random(7)
        d = pair_data(rng, 2, 1, 5)
        perm = SatakeSet(tuple(reversed(d.sigma_n.params)), d.sigma_n.base)
        d2 = PairData(perm, d.rep)
        assert abs(i_closed(d) - i_closed(d2)) < 1e-14


class TestIAssembled:
    def test_truncated_mode_matches_to_tolerance(self):
        rng = random.Random(11)
        for _ in range(10):
            d = pair_data(rng, rng.randint(1, 2), rng.randint(1, 3), 3)
            lhs = i_assembled(d, DEPTH)
            rhs = i_closed(d)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_fully_ramified_case(self):
        rng = random.Random(13)
        d = pair_data(rng, 2, 2, 5, r=0)
        assert abs(i_assembled(d, DEPTH) - i_closed(d)) <= 1e-10 * abs(i_closed(d))

    def test_rank_one_pipeline(self):
        rng = random.Random(15)
        for c in (1, 2, 3):
            d = pair_data(rng, 1, c, 3)
            assert abs(i_assembled(d, DEPTH) - i_closed(d)) <= 1e-10 * abs(i_closed(d))


class TestJMain:
    def test_constant_echo(self):
        d = trivial_pair()
        assert constant_c_main(1, 1, 3) == pytest.approx(1 / 9)
        assert abs(j_main(d) - 4 / 27) < 1e-13

    def test_real_positive(self):
        rng = random.Random(17)
        for _ in range(10):
            d = pair_data(rng, rng.randint(1, 2), rng.randint(1, 4), 5)
            val = j_main(d)
            assert abs(val.imag) < 1e-9 * abs(val)
            assert val.real > 0


class TestBridge:
    def test_frozen_rank_one(self):
        d = trivial_pair()
        assert abs(j_via_bridge(d) - 4 / 27) < 1e-13

    def test_bridge_equals_main_formula(self):
        rng = random.Random(19)
        for k in range(20):
            n = rng.randint(1, 3)
            q_f = 3 if n < 3 else rng.choice([5, 7])
            d = pair_data(rng, n, rng.randint(1, 4), q_f)
            lhs, rhs = j_main(d), j_via_bridge(d)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs)), (k, n)

    def test_closed_pipelines_ignore_depth(self):
        d = trivial_pair(n=2, c=2, q_f=5)
        assert j_main(d) == j_main(d)
        assert i_closed(d) == i_closed(d)

    def test_mismatch_appears_for_non_selfdual_data(self):
        # off the conjugate-self-dual locus the cancellation hypothesis
        # fails and the two routes genuinely differ
        rng = random.Random(21)
        sigma = satake((cmath.exp(0.4j),), 9)  # not stable under inversion pairing
        rep = GenericRep((Segment(UnramChar(cmath.exp(0.9j))), Segment(RamCusp(1, 1))))
        d = PairData(sigma, rep)
        lhs, rhs = j_main(d), j_via_bridge(d)
        assert abs(lhs - rhs) > 1e-3 * max(abs(lhs), abs(rhs))


class TestUnramifiedDegeneration:
    def test_quotient_reduces_to_adjoint_shape(self):
        # with every support unramified the post-cancellation quotient equals
        # the pre-cancellation shape, since PD = As^+ * As^- at
        # conjugate-self-dual unit parameters; the overall constant stays
        # outside the hypotheses and is deliberately not asserted
        rng = random.Random(25)
        n = 2
        q_e = 25
        sigma_n = satake(conj_selfdual_unit(rng, n), q_e)
        gamma = conj_selfdual_unit(rng, n + 1)
        rep = GenericRep(tuple(Segment(UnramChar(a)) for a in gamma))
        assert rep.conductor() == 0
        sigma_u = rep.unramified_part(q_e)
        key = lambda z: (z.real, z.imag)
        assert len(sigma_u) == n + 1 and sorted(sigma_u.params, key=key) == sorted(gamma, key=key)
        eps_n = -1 if n % 2 else 1
        quotient = rs_lfactor(sigma_n, sigma_u).value(0.5) / (
            asai_lfactor(sigma_n, eps_n).value(1) * asai_lfactor(sigma_u, -eps_n).value(1)
        )
        adjoint_shape = (
            rs_lfactor(sigma_n, sigma_u).value(0.5)
            * asai_lfactor(sigma_n, -eps_n).value(1)
            * asai_lfactor(sigma_u, eps_n).value(1)
            / (pair_dual_lfactor(sigma_n).value(1) * pair_dual_lfactor(sigma_u).value(1))
        )
        assert cmath.isclose(quotient, adjoint_shape)
