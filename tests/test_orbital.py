import random
from fractions import Fraction

import pytest

from localperiods.hermitian import (
    EMat,
    herm_form_j,
    in_k_tilde_lie,
    in_lie_u,
    matching_invariants,
    transfer_factor,
)
from localperiods.numerics import QuadExt, qe_valuation
from localperiods.orbital import (
    fl_check_rank1,
    group_transport_check,
    match_rank1,
    orb_s2,
    orb_u2,
    rank_one_element,
)
from localperiods.report import STATUS_PASS

U = -1
P = 3


def qe(a, b=0):
    return QuadExt(Fraction(a), Fraction(b), U)


class TestOrbS2:
    def test_single_shell(self):
        y = rank_one_element(0, 0, 3, 1, U)  # v12 = 1, v21 = 0
        assert orb_s2(y, 1, P) == 1

    def test_even_length_cancels(self):
        y = rank_one_element(0, 0, 3, 3, U)  # v12 + v21 = 2, c = 1
        assert orb_s2(y, 1, P) == 0

    def test_non_integral_diagonal(self):
        y = rank_one_element(Fraction(1, 3), 0, 3, 1, U)
        assert orb_s2(y, 1, P) == 0

    def test_empty_shell_range(self):
        y = rank_one_element(0, 0, 1, 1, U)  # v12 = v21 = 0, c = 2
        assert orb_s2(y, 2, P) == 0

    def test_negative_shell_start_sign(self):
        y = rank_one_element(0, 0, 9, 3, U)  # v12 = 2, v21 = 1, c = 1
        assert orb_s2(y, 1, P) == -1

    def test_depends_only_on_valuations(self):
        rng = random.Random(3)
        for _ in range(20):
            v12, v21, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
            base = orb_s2(rank_one_element(0, 0, P**v12, P**v21, U), c, P)
            u12 = rng.choice([1, 2, 4, 5]) * Fraction(P**v12)
            u21 = rng.choice([1, 2, 4, 5]) * Fraction(P**v21)
            other = orb_s2(rank_one_element(1, 2, u12, u21, U), c, P)
            assert base == other

    def test_twisted_integral_is_conjugation_invariant(self):
        # the sign picked up by the factor cancels the one from the integral
        rng = random.Random(5)
        for _ in range(30):
            v12, v21, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
            y = rank_one_element(rng.randint(0, 2), rng.randint(0, 2), P**v12, P**v21, U)
            t = qe(Fraction(rng.choice([1, 2, -1]) * P ** rng.randint(0, 2)))
            h = EMat([[t, qe(0)], [qe(0), qe(1)]], U)
            y2 = h.inv() @ y @ h
            lhs = transfer_factor(y, P) * orb_s2(y, c, P)
            rhs = transfer_factor(y2, P) * orb_s2(y2, c, P)
            assert lhs == rhs

    def test_rejects_non_regular(self):
        with pytest.raises(ValueError):
            orb_s2(rank_one_element(1, 1, 0, 1, U), 0, P)


class TestOrbU2:
    def test_worked_membership(self):
        x = EMat([[qe(0), qe(0, 3)], [qe(0, 1), qe(0)]], U)
        assert orb_u2(x, 1, P) == 1

    def test_shallow_corner_fails(self):
        x = EMat([[qe(0), qe(0, 1)], [qe(0, Fraction(1, 3)), qe(0)]], U)
        # b = -p^c conj(z) with z of valuation -1 keeps x anti-hermitian but
        # non-integral, so the lattice bit is zero
        z = QuadExt(Fraction(0), Fraction(1, 3), U)
        x = EMat([[qe(0), -(Fraction(3)) * z.conj()], [z, qe(0)]], U)
        assert in_lie_u(x, herm_form_j(1, 1, P, U))
        assert orb_u2(x, 1, P) == 0

    def test_norm_one_conjugation_invariance(self):
        rng = random.Random(7)
        z0 = QuadExt(Fraction(1), Fraction(2), U)
        h_scalar = z0 / z0.conj()  # norm one
        assert h_scalar.norm() == 1
        for _ in range(20):
            c = rng.randint(0, 2)
            z = QuadExt(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(1, 4)), U)
            x = EMat(
                [[qe(0, rng.randint(-2, 2)), -(Fraction(P**c)) * z.conj()], [z, qe(0, rng.randint(-2, 2))]],
                U,
            )
            h = EMat([[h_scalar, qe(0)], [qe(0), qe(1)]], U)
            y = h.inv() @ x @ h
            assert orb_u2(x, c, P) == orb_u2(y, c, P)

    def test_rejects_wrong_form(self):
        with pytest.raises(ValueError):
            orb_u2(EMat.identity(2, U), 1, P)


class TestMatchRank1:
    def test_side_zero_with_representative(self):
        y = rank_one_element(0, 0, 3, 1, U)  # v(y12 y21) = 1 = c
        side, x = match_rank1(y, 1, P)
        assert side == 0 and x is not None
        assert in_lie_u(x, herm_form_j(1, 1, P, U))
        assert matching_invariants(y) == matching_invariants(x)

    def test_side_one_parity_obstruction(self):
        y = rank_one_element(0, 0, 1, 1, U)  # v = 0, c = 1
        side, x = match_rank1(y, 1, P)
        assert side == 1 and x is None

    def test_matched_invariants_on_grid(self):
        rng = random.Random(11)
        for _ in range(30):
            v12, v21 = rng.randint(0, 3), rng.randint(0, 3)
            c = rng.randint(0, 2)
            y = rank_one_element(rng.randint(-2, 2), rng.randint(-2, 2), P**v12, P**v21, U)
            side, x = match_rank1(y, c, P)
            assert side == (v12 + v21 - c) % 2
            if side == 0 and x is not None:
                assert matching_invariants(y) == matching_invariants(x)

    def test_rejects_non_regular(self):
        with pytest.raises(ValueError, match="not regular semisimple"):
            match_rank1(rank_one_element(1, 1, 0, 1, U), 0, P)

    def test_general_rational_target(self):
        y = rank_one_element(1, -1, Fraction(2), Fraction(1, 2), U)  # v = 0
        side, x = match_rank1(y, 0, P)
        assert side == 0
        if x is not None:
            assert matching_invariants(y) == matching_invariants(x)


class TestFlRank1:
    def test_exhaustive_small_grid(self):
        for c in range(3):
            reports = fl_check_rank1(P, c, vmax=3)
            assert reports and all(r.status == STATUS_PASS for r in reports)

    def test_depth_zero_case(self):
        reports = fl_check_rank1(P, 0, vmax=4)
        assert all(r.status == STATUS_PASS for r in reports)

    def test_other_prime(self):
        reports = fl_check_rank1(7, 1, vmax=3)
        assert all(r.status == STATUS_PASS for r in reports)

    def test_rejects_bad_context(self):
        with pytest.raises(ValueError):
            fl_check_rank1(5, 1, 2, u=-1)  # -1 is a square mod 5

    def test_group_transport(self):
        outcomes = set()
        for c in (0, 1, 2):
            reports = group_transport_check(P, c, seed=1)
            assert len(reports) == 50
            assert all(r.status == STATUS_PASS for r in reports)
            outcomes |= {bool(r.lhs.real) for r in reports}
        # both membership outcomes must occur somewhere on the grid
        assert outcomes == {True, False}

    def test_group_transport_crafted_non_lattice_instance(self):
        # a non-integral anti-hermitian element whose Cayley denominator is
        # still a unit (the cross terms cancel exactly); its image must land
        # outside the congruence group
        from localperiods.hermitian import cayley, in_bmk_tilde, in_group_u

        a = QuadExt(Fraction(0), Fraction(1, 3), U)
        z = QuadExt(Fraction(1, 3), Fraction(5, 3), U)
        x = EMat([[a, -z.conj()], [z, -a]], U)
        j = herm_form_j(1, 0, P, U)
        assert in_lie_u(x, j)
        den = (EMat.identity(2, U) - x).det()
        assert qe_valuation(den, P) == 0
        assert not in_k_tilde_lie(x, 0, P, j)
        g = cayley(x, qe(1))
        assert in_group_u(g, j)
        assert not in_bmk_tilde(g, 0, P)
