from fractions import Fraction

import pytest

from localperiods.volumes import (
    c1,
    constant_c_main,
    l_eta,
    vol_gl,
    vol_gl_formula,
    vol_k0,
    vol_kprime_c,
    vol_u_lie,
    vol_unitary_v,
    vol_unitary_w,
    zeta1,
)

Q_GRID = (3, 5, 7, 9, 27)


class TestElementary:
    def test_zeta_values(self):
        assert zeta1(3) == Fraction(3, 2)
        assert l_eta(3) == Fraction(3, 4)


class TestVolGl:
    def test_rank_one_telescopes(self):
        for q in Q_GRID:
            assert vol_gl(1, q) == 1

    def test_rank_two(self):
        assert vol_gl(2, 3) == Fraction(8, 9)

    def test_rank_zero_convention(self):
        assert vol_gl(0, 3) == 1

    def test_formula_variant_at_rank_zero(self):
        assert vol_gl_formula(0, 3) == Fraction(3, 2)
        assert vol_gl_formula(2, 3) == vol_gl(2, 3)


class TestCongruenceVolumes:
    def test_kprime_frozen(self):
        assert vol_kprime_c(1, 1, 9) == Fraction(1, 81)

    def test_kprime_rank_zero(self):
        assert vol_kprime_c(0, 1, 9) == zeta1(9) * Fraction(1, 9)

    def test_kprime_rejects_c0(self):
        with pytest.raises(ValueError):
            vol_kprime_c(1, 0, 9)

    def test_bmk_frozen(self):
        # the base-field block group is the same formula at q_F
        assert vol_kprime_c(1, 1, 3) == Fraction(1, 9)
        assert vol_kprime_c(1, 2, 3) == Fraction(1, 81)

    def test_bmk_rejects_c0(self):
        with pytest.raises(ValueError):
            vol_kprime_c(2, 0, 3)

    def test_c0_would_not_extend_to_the_full_group(self):
        # the depth-0 extension of the formula disagrees with the full
        # lattice volume, which is why depth zero is rejected
        q, n = 3, 1
        formula_at_c0 = zeta1(q) * (1 - Fraction(1, q))  # c = 0 plugged in
        assert formula_at_c0 != vol_gl(n + 1, q)


class TestUnitaryVolumes:
    def test_rank_one_is_one(self):
        for q in Q_GRID:
            assert vol_unitary_w(1, q) == 1

    def test_rank_two_frozen(self):
        assert vol_unitary_w(2, 3) == Fraction(8, 9)

    def test_v_variant_scaling(self):
        for q in (3, 5):
            for n in (1, 2):
                for c in (1, 2):
                    assert vol_unitary_v(n, c, q) == vol_unitary_w(n, q) * Fraction(
                        1, q ** (c * n)
                    ) * (1 + Fraction(1, q))

    def test_lie_companions(self):
        assert vol_u_lie(2, 3, 5) == Fraction(1, 5**6)
        assert vol_k0(2, 1, 3) == Fraction(1, 3 ** (2 + 4 + 1))

    def test_group_core_carries_eta_factor(self):
        # the full unitary volume is the group-level core L(1, eta) vol(k_0)
        # times the two finite-group orders, checked at small size
        q, n, c = 3, 1, 1
        u1 = q + 1  # norm-one circle over the residue field
        assert l_eta(q) * vol_k0(n, c, q) * u1 * u1 == vol_unitary_v(n, c, q)

    def test_positivity_grid(self):
        for q in Q_GRID:
            for n in range(1, 5):
                for c in range(1, 4):
                    for val in (
                        vol_gl(n, q),
                        vol_kprime_c(n, c, q * q),
                        vol_kprime_c(n, c, q),
                        vol_unitary_w(n, q),
                        vol_unitary_v(n, c, q),
                        vol_u_lie(n, c, q),
                        vol_k0(n, c, q),
                    ):
                        assert isinstance(val, Fraction) and val > 0


class TestMatchingConstant:
    def test_frozen_rank_one(self):
        assert c1(1, 1, 3) == (9, 9)
        assert c1(1, 2, 3) == (81, 81)

    def test_both_forms_agree_exactly_on_grid(self):
        for q in Q_GRID:
            for n in range(1, 5):
                for c in range(1, 6):
                    left, right = c1(n, c, q)
                    assert left == right, (q, n, c)

    def test_rejects_c0(self):
        with pytest.raises(ValueError):
            c1(1, 0, 3)


class TestMainConstant:
    def test_frozen(self):
        assert constant_c_main(1, 1, 3) == Fraction(1, 9)
        assert constant_c_main(1, 3, 3) == Fraction(1, 729)

    def test_positive(self):
        for q in Q_GRID:
            for n in range(1, 4):
                for c in range(1, 5):
                    assert constant_c_main(n, c, q) > 0

    def test_rejects_c0(self):
        with pytest.raises(ValueError):
            constant_c_main(1, 0, 3)
