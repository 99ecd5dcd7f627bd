import cmath
import math
import random

import pytest

from localperiods.draws import conj_selfdual_unit, unit_circle
from localperiods.lfactors import (
    LocalLFactor,
    PoleError,
    asai_cancellation_check,
    asai_lfactor,
    pair_dual_lfactor,
    rs_lfactor,
)
from localperiods.report import STATUS_PASS, STATUS_REJECTED
from localperiods.reps import SatakeSet


class TestEval:
    def test_empty_product(self):
        assert LocalLFactor(5, ()).value(1.0) == 1.0

    def test_single_factor(self):
        assert abs(LocalLFactor(4, (((1 + 0j), 1),)).value(1.0) - 4 / 3) < 1e-14

    def test_pole(self):
        with pytest.raises(PoleError) as err:
            LocalLFactor(4, (((1 + 0j), 1),)).value(0.0)
        assert err.value.factor == (1 + 0j, 1)

    def test_multiplicative_over_unions(self):
        rng = random.Random(1)
        f1 = tuple((cmath.exp(2j * math.pi * rng.random()), rng.randint(1, 2)) for _ in range(3))
        f2 = tuple((0.5 * cmath.exp(2j * math.pi * rng.random()), 1) for _ in range(2))
        a, b = LocalLFactor(9, f1), LocalLFactor(9, f2)
        s = 0.75
        assert abs(LocalLFactor(9, f1 + f2).value(s) - a.value(s) * b.value(s)) < 1e-12

    def test_zero_gamma_dropped(self):
        assert len(LocalLFactor(9, ((0j, 1), (1 + 0j, 1))).factors) == 1


class TestConstructors:
    def test_rs_rank_one(self):
        lf = rs_lfactor(SatakeSet((2.0,), 9), SatakeSet((3.0,), 9))
        assert lf.factors == ((6 + 0j, 1),)

    def test_rs_direct_product(self):
        lf = rs_lfactor(SatakeSet((1.0,), 4), SatakeSet((1.0, 1.0), 4))
        assert abs(lf.value(0.5) - 4.0) < 1e-13

    def test_rs_base_mismatch(self):
        with pytest.raises(ValueError):
            rs_lfactor(SatakeSet((1.0,), 9), SatakeSet((1.0,), 4))

    def test_asai_rank_one_plus(self):
        lf = asai_lfactor(SatakeSet((0.5j,), 9), 1)
        assert lf.base == 3 and lf.factors == ((0.5j, 1),)

    def test_asai_minus_frozen_value(self):
        lf = asai_lfactor(SatakeSet((1j, -1j), 9), -1)
        want = 81 / 80  # (1+i/3)^-1 (1-i/3)^-1 (1-1/9)^-1
        assert abs(lf.value(1.0) - want) < 1e-13

    def test_asai_twist_relation(self):
        plus = asai_lfactor(SatakeSet((1.0, 1.0), 9), 1)
        minus = asai_lfactor(SatakeSet((-1.0, -1.0), 9), -1)
        assert abs(plus.value(1.0) - minus.value(1.0)) < 1e-13

    def test_asai_needs_square_base(self):
        with pytest.raises(ValueError):
            asai_lfactor(SatakeSet((1.0,), 3), 1)

    def test_asai_product_degree_bookkeeping(self):
        # As+ x As- at s equals the squared pair product with doubled linear parts
        rng = random.Random(3)
        alphas = unit_circle(rng, 3)
        sigma = SatakeSet(alphas, 9)
        s = 0.8
        lhs = asai_lfactor(sigma, 1).value(s) * asai_lfactor(sigma, -1).value(s)
        rhs = 1.0
        for i, a in enumerate(alphas):
            rhs /= 1 - a * a * 3.0 ** (-2 * s)
            for b in alphas[i + 1 :]:
                rhs /= (1 - a * b * 3.0 ** (-2 * s)) ** 2
        assert abs(lhs - rhs) < 1e-11 * abs(rhs)

    def test_pair_dual_unit_scalar(self):
        lf = pair_dual_lfactor(SatakeSet((cmath.exp(0.3j),), 9))
        assert abs(lf.value(1.0) - 9 / 8) < 1e-13

    def test_pair_dual_all_ordered_pairs(self):
        lf = pair_dual_lfactor(SatakeSet((1.0, 1.0), 4))
        assert len(lf.factors) == 4
        assert abs(lf.value(1.0) - (3 / 4) ** -4) < 1e-12

    def test_pair_dual_involutive(self):
        sigma = SatakeSet((0.5 + 0.1j, 2.0), 9)
        sigma_bar = SatakeSet(tuple(a.conjugate() for a in sigma), 9)
        lf_bar = pair_dual_lfactor(sigma_bar)
        conj = LocalLFactor(9, tuple((g.conjugate(), d) for g, d in lf_bar.factors))
        assert pair_dual_lfactor(sigma) == conj


class TestAsaiCancellation:
    def test_trivial_parameter_even_rank_parity(self):
        rep = asai_cancellation_check(SatakeSet((1.0,), 9), 0)
        assert rep.status == STATUS_PASS and rep.rel_err <= 1e-12
        # both sides reduce to 1 - 1/q here
        assert abs(rep.lhs - (1 - 1 / 3)) < 1e-13

    def test_rotation_pairs_both_parities(self):
        rng = random.Random(9)
        for _ in range(10):
            theta = rng.random()
            z = cmath.exp(2j * math.pi * theta)
            sigma = SatakeSet((z, 1 / z), 9)
            for parity in (0, 1):
                rep = asai_cancellation_check(sigma, parity)
                assert rep.status == STATUS_PASS, rep

    def test_rejects_non_selfdual(self):
        rep = asai_cancellation_check(SatakeSet((2.0,), 9), 0)
        assert rep.status == STATUS_REJECTED

    def test_rejects_off_circle(self):
        # self-dual under inversion but not unit circle: {2, 1/2} pairs inverses
        rep = asai_cancellation_check(SatakeSet((2.0, 0.5), 9), 1)
        assert rep.status == STATUS_REJECTED

    def test_random_families_to_tight_tolerance(self):
        rng = random.Random(23)
        for _ in range(20):
            m = rng.randint(1, 4)
            sigma = SatakeSet(conj_selfdual_unit(rng, m), 25)
            for parity in (0, 1):
                rep = asai_cancellation_check(sigma, parity)
                assert rep.status == STATUS_PASS and rep.rel_err <= 1e-10
