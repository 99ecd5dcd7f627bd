import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fraction_det,
    fraction_inv,
    fraction_matmul,
    rand_invertible,
    rand_kprime_element,
    rand_s_element,
    rand_unitary,
)
from localperiods.draws import random_anti_hermitian, random_integral_emat
from localperiods.hermitian import (
    EMat,
    NonRegularError,
    cayley,
    cayley_inv,
    det_stack_identity_check,
    herm_form_j,
    in_bmk,
    in_bmk_tilde,
    in_group_u,
    in_k_s,
    in_k_tilde_lie,
    in_kprime,
    in_lie_u,
    in_s_lie,
    in_s_variety,
    iota_c,
    is_regular_semisimple,
    matching_invariants,
    norm_one_units,
    r_map,
    transfer_factor,
)
from localperiods.numerics import QuadExt, qe_valuation

U = -1
P = 3


def qe(a, b=0, u=U):
    return QuadExt(Fraction(a), Fraction(b), u)


def emat(rows, u=U):
    return EMat(rows, u)


class TestEMatBasics:
    def test_exact_inverse(self):
        rng = random.Random(1)
        for _ in range(20):
            m = rand_invertible(rng, rng.randint(1, 4), U)
            assert m @ m.inv() == EMat.identity(m.nrows, U)

    def test_det_multiplicative(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 4)
            a, b = random_integral_emat(rng, n, U), random_integral_emat(rng, n, U)
            assert (a @ b).det() == a.det() * b.det()

    def test_charpoly_evaluates_to_det(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(1, 4)
            x = random_integral_emat(rng, n, U)
            coeffs = x.charpoly()
            for t in (0, 1, -2):
                tmat = EMat.diagonal([t] * n, U) - x
                val = QuadExt.of(0, U)
                for k, c in enumerate(coeffs):
                    val = val + c * qe(t) ** (n - k)
                assert val == tmat.det()

    def test_immutability(self):
        m = EMat.identity(2, U)
        with pytest.raises(AttributeError):
            m.u = 5

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.matmul])
    def test_mixed_field_contexts_raise(self, op):
        with pytest.raises(ValueError, match="field context mismatch"):
            op(EMat.identity(2, U), EMat.identity(2, 2))

    @pytest.mark.parametrize("u", [0, 1, 4, 9])
    def test_square_u_is_rejected(self, u):
        # Q(sqrt(u)) is no field: (1 + sqrt(1)) (1 - sqrt(1)) = 0
        with pytest.raises(ValueError, match=f"u={u} is a square"):
            EMat.identity(2, u)

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    @pytest.mark.parametrize(
        "x, y",
        [
            ([[1, 2]], [[1, 2], [3, 4]]),  # row counts differ
            ([[1, 2], [3, 4]], [[1], [3]]),  # column counts differ
        ],
    )
    def test_sum_and_difference_reject_a_shape_mismatch(self, op, x, y):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="shape mismatch"):
                op(emat(a), emat(b))


FIELDS = st.sampled_from([-1, -3, 2, 3, 5, 7])
# rational parts with denominators 1 to 12, zero often enough to force pivot swaps
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)


@st.composite
def matrices(draw, nrows, ncols, u):
    return EMat(
        [
            [QuadExt(draw(RATIONALS), draw(RATIONALS), u) for _ in range(ncols)]
            for _ in range(nrows)
        ],
        u,
    )


@st.composite
def square_matrices(draw):
    """1x1 to 5x5, plain, with a repeated row, or with a leading column that
    is zero in its first rows (all of them for a singular matrix)."""
    u = draw(FIELDS)
    n = draw(st.integers(1, 5))
    rows = [list(row) for row in draw(matrices(n, n, u)).rows]
    kind = draw(st.sampled_from(["plain", "repeated row", "zero leading column"]))
    if kind == "repeated row":
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[dst] = list(rows[src])
    elif kind == "zero leading column":
        for row in rows[: draw(st.integers(1, n))]:
            row[0] = QuadExt.of(0, u)
    return EMat(rows, u)


@st.composite
def products(draw):
    """Pairs x, y with x @ y defined: square, the n x n @ n x 1 of _krylov,
    or any shapes up to 5."""
    u = draw(FIELDS)
    kind = draw(st.sampled_from(["square", "krylov", "rectangular"]))
    n, m, k = (draw(st.integers(1, 5)) for _ in range(3))
    if kind == "square":
        m = k = n
    elif kind == "krylov":
        m, k = n, 1
    return draw(matrices(n, m, u)), draw(matrices(m, k, u))


class TestIntegerKernel:
    """Products, determinants and inverses on integers over a common
    denominator equal the QuadExt loops they replaced, exactly."""

    @given(products())
    @settings(max_examples=150, deadline=None)
    def test_matmul_equals_the_fraction_loop(self, pair):
        x, y = pair
        assert x @ y == fraction_matmul(x, y)

    @given(square_matrices())
    @settings(max_examples=250, deadline=None)
    def test_det_and_inv_equal_the_fraction_elimination(self, x):
        assert x.det() == fraction_det(x)
        try:
            expected = fraction_inv(x)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="singular matrix"):
                x.inv()
        else:
            assert x.inv() == expected

    def test_inv_runs_no_quadext_arithmetic(self, monkeypatch):
        x = emat([[0, qe(1, 1), 2], [qe(0, Fraction(1, 2)), 1, 0], [3, 0, qe(Fraction(2, 5), -1)]])
        expected = fraction_inv(x)

        def refuse(*_args):
            raise AssertionError("QuadExt arithmetic inside EMat.inv")

        for name in ("__mul__", "__sub__", "__truediv__"):
            monkeypatch.setattr(QuadExt, name, refuse)
        assert x.inv() == expected

    def test_det_sign_follows_the_pivot_swaps(self):
        swap = emat([[0, 1, 0], [1, 0, 0], [0, 0, qe(2, 1)]])
        assert swap.det() == qe(-2, -1)
        cycle = emat([[0, 1, 0], [0, 0, 1], [qe(0, Fraction(1, 3)), 0, 0]])
        assert cycle.det() == qe(0, Fraction(1, 3))


class TestMembership:
    def test_zero_in_lie_and_identity_in_group(self):
        j = herm_form_j(1, 1, P, U)
        assert in_lie_u(EMat.zeros(2, 2, U), j)
        assert in_group_u(EMat.identity(2, U), j)

    def test_imaginary_diagonal_in_s(self):
        y = emat([[qe(0, 2), qe(0)], [qe(0), qe(0, -5)]])
        assert in_s_lie(y)
        assert not in_s_lie(EMat.identity(2, U))

    def test_worked_lattice_example(self):
        j = herm_form_j(1, 1, P, U)
        x = emat([[qe(0), qe(0, 3)], [qe(0, 1), qe(0)]])
        assert in_lie_u(x, j)
        assert in_k_tilde_lie(x, 1, P, j)
        assert not in_k_tilde_lie(x, 2, P, j)

    def test_congruence_blocks(self):
        g = emat([[qe(2), qe(3, 3)], [qe(0, 1), qe(2)]])
        assert in_bmk_tilde(g, 1, P)
        assert not in_bmk(g, 1, P)  # corner is 2, not 1 mod 3
        h = emat([[qe(2), qe(3, 3)], [qe(0, 1), qe(4)]])  # corner 4 = 1 mod 3
        assert in_bmk(h, 1, P)
        assert not in_bmk_tilde(emat([[qe(Fraction(1, 3)), qe(3)], [qe(1), qe(1)]]), 0, P)

    def test_dispatcher(self):
        """One element per family of predicates, each called directly."""
        j = herm_form_j(1, 1, P, U)
        x = emat([[qe(0), qe(0, 3)], [qe(0, 1), qe(0)]])
        assert in_lie_u(x, j)
        assert in_k_tilde_lie(x, 1, P, j)
        assert not in_s_lie(EMat.identity(2, U))
        assert in_s_variety(EMat.identity(2, U))


class TestCayley:
    def test_zero_maps_to_xi(self):
        xi = norm_one_units(U)[1]
        assert cayley(EMat.zeros(2, 2, U), xi) == EMat.identity(2, U) * xi

    def test_lands_in_unitary_group(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 2)
            c = rng.randint(0, 2)
            x = random_anti_hermitian(rng, n, c, P, U)
            if (EMat.identity(n + 1, U) - x).det().is_zero():
                continue
            g = cayley(x, qe(1))
            assert in_group_u(g, herm_form_j(n, c, P, U))

    def test_inverse_round_trip(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 2)
            x = random_anti_hermitian(rng, n, 1, P, U)
            if (EMat.identity(n + 1, U) - x).det().is_zero():
                continue
            g = cayley(x, qe(1))
            assert cayley_inv(g, qe(1)) == x

    def test_equivariance(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 2)
            x = random_integral_emat(rng, n + 1, U, span=2)
            h = rand_invertible(rng, n + 1, U, span=2)
            one = EMat.identity(n + 1, U)
            conj_x = h @ x @ h.inv()
            if (one - x).det().is_zero() or (one - conj_x).det().is_zero():
                continue
            assert cayley(conj_x, qe(1)) == h @ cayley(x, qe(1)) @ h.inv()

    def test_lattice_stability_property(self):
        # congruence-group elements with unit cayley denominator stay in the
        # congruence lattice after the inverse map, for any norm-one xi
        rng = random.Random(8)
        xis = norm_one_units(U)
        done = 0
        while done < 100:
            n = rng.randint(1, 2)
            c = rng.randint(0, 2)
            one = EMat.identity(n + 1, U)
            x = random_anti_hermitian(rng, n, c, P, U)
            den = (one - x).det()
            if den.is_zero() or qe_valuation(den, P) != 0:
                continue
            g = cayley(x, qe(1))
            assert in_bmk_tilde(g, c, P)
            xi = rng.choice(xis)
            dd = (g + one * xi).det()
            if dd.is_zero() or qe_valuation(dd, P) != 0:
                continue
            assert in_bmk_tilde(cayley_inv(g, xi), c, P)
            done += 1


class TestTransferFactor:
    def test_rank_one_formula(self):
        # stack det is -y21 up to sign, so the factor is the parity of v(y21)
        for v in range(4):
            y = emat([[qe(0, 1), qe(0, 1)], [qe(0, 3**v), qe(0, 2)]])
            assert transfer_factor(y, P) == (-1) ** v

    def test_non_regular_raises(self):
        # vanishing bottom-left entry collapses the Krylov stack at rank one
        y = emat([[qe(0, 2), qe(0, 1)], [qe(0), qe(0, 2)]])
        with pytest.raises(NonRegularError):
            transfer_factor(y, P)

    def test_covariance_under_base_conjugation(self):
        rng = random.Random(9)
        done = 0
        while done < 50:
            n = rng.randint(1, 3)
            y = rand_s_element(rng, n + 1, U)
            # h over the base field with a p-power factor, embedded with a
            # trivial last slot
            h_small = EMat(
                [[qe(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)], U
            ) * qe(P ** rng.randint(0, 2))
            if h_small.det().is_zero():
                continue
            rows = [list(h_small.rows[i]) + [qe(0)] for i in range(n)]
            rows.append([qe(0)] * n + [qe(1)])
            h = EMat(rows, U)
            try:
                lhs = transfer_factor(h.inv() @ y @ h, P)
                rhs = transfer_factor(y, P)
            except NonRegularError:
                continue
            sign = (-1) ** (int(qe_valuation(h.det(), P)) % 2)
            assert lhs == sign * rhs
            done += 1

    def test_iota_preserves_factor(self):
        rng = random.Random(10)
        done = 0
        while done < 100:
            n = rng.randint(1, 3)
            c = rng.randint(0, 3)
            y = rand_s_element(rng, n + 1, U)
            try:
                assert transfer_factor(iota_c(y, c, P), P) == transfer_factor(y, P)
            except NonRegularError:
                continue
            done += 1


class TestRegularSemisimple:
    def test_zero_column_fails(self):
        x = emat([[qe(1), qe(0)], [qe(1), qe(2)]])
        assert not is_regular_semisimple(x)

    def test_rank_one_criterion(self):
        x = emat([[qe(1), qe(2)], [qe(3), qe(4)]])
        assert is_regular_semisimple(x)

    def test_against_stabilizer_dimension_oracle(self):
        # trivial infinitesimal stabilizer of the block conjugation action:
        # h with hA = Ah, hb = 0, zh = 0 forces h = 0
        rng = random.Random(11)

        def stabilizer_is_trivial(x):
            n = x.nrows - 1
            a = x.block(0, n, 0, n)
            b = x.block(0, n, n, n + 1)
            z = x.block(n, n + 1, 0, n)
            cols = []
            for i in range(n):
                for j in range(n):
                    h = EMat.zeros(n, n, U) + EMat(
                        [[qe(1) if (r, s) == (i, j) else qe(0) for s in range(n)] for r in range(n)],
                        U,
                    )
                    comm = h @ a - a @ h
                    col = [comm.entry(r, s) for r in range(n) for s in range(n)]
                    col += [(h @ b).entry(r, 0) for r in range(n)]
                    col += [(z @ h).entry(0, s) for s in range(n)]
                    cols.append(col)
            # column rank via exact elimination
            rows = list(map(list, zip(*cols)))
            rank = 0
            col = 0
            nrows, ncols = len(rows), len(cols)
            for col in range(ncols):
                piv = next((r for r in range(rank, nrows) if not rows[r][col].is_zero()), None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                inv = qe(1) / rows[rank][col]
                for r in range(nrows):
                    if r != rank and not rows[r][col].is_zero():
                        f = rows[r][col] * inv
                        rows[r] = [x0 - f * y0 for x0, y0 in zip(rows[r], rows[rank])]
                rank += 1
            return rank == ncols

        for k in range(20):
            n = rng.randint(1, 2)
            x = random_integral_emat(rng, n + 1, U, span=3)
            if k % 4 == 0:
                # plant a degenerate instance: zero column Krylov family
                rows = [list(r) for r in x.rows]
                for i in range(n):
                    rows[i][n] = qe(0)
                x = EMat(rows, U)
                assert not is_regular_semisimple(x)
            # a cyclic pair forces a trivial stabilizer (the converse can
            # fail: triviality does not see orbit closedness)
            if is_regular_semisimple(x):
                assert stabilizer_is_trivial(x)


class TestMatching:
    def test_matches_itself(self):
        rng = random.Random(12)
        x = random_integral_emat(rng, 3, U)
        if is_regular_semisimple(x):
            assert matching_invariants(x) == matching_invariants(x)

    def test_conjugation_preserves_invariants(self):
        rng = random.Random(13)
        done = 0
        while done < 30:
            n = rng.randint(1, 2)
            x = random_integral_emat(rng, n + 1, U, span=3)
            if not is_regular_semisimple(x):
                continue
            h_small = rand_invertible(rng, n, U, span=2)
            rows = [list(h_small.rows[i]) + [qe(0)] for i in range(n)]
            rows.append([qe(0)] * n + [qe(1)])
            h = EMat(rows, U)
            y = h @ x @ h.inv()
            assert matching_invariants(x) == matching_invariants(y)
            done += 1

    def test_rank_one_characterization(self):
        # equal diagonals and equal off-diagonal products match; corner swap
        # does not, even though the characteristic polynomials agree
        x = emat([[qe(1), qe(1)], [qe(1), qe(2)]])
        y = emat([[qe(1), qe(2)], [qe(Fraction(1, 2)), qe(2)]])
        swapped = emat([[qe(2), qe(1)], [qe(1), qe(1)]])
        assert matching_invariants(x) == matching_invariants(y)
        assert matching_invariants(x) != matching_invariants(swapped)
        assert x.charpoly() == swapped.charpoly()

    def test_matching_preserved_by_cayley(self):
        rng = random.Random(14)
        done = 0
        while done < 20:
            n = rng.randint(1, 2)
            one = EMat.identity(n + 1, U)
            x = random_integral_emat(rng, n + 1, U, span=2)
            h_small = rand_invertible(rng, n, U, span=2)
            rows = [list(h_small.rows[i]) + [qe(0)] for i in range(n)]
            rows.append([qe(0)] * n + [qe(1)])
            h = EMat(rows, U)
            y = h @ x @ h.inv()
            if (one - x).det().is_zero() or (one - y).det().is_zero():
                continue
            gx, gy = cayley(x, qe(1)), cayley(y, qe(1))
            if not (is_regular_semisimple(gx) and is_regular_semisimple(gy)):
                continue
            if not (is_regular_semisimple(x) and is_regular_semisimple(y)):
                continue
            assert matching_invariants(x) == matching_invariants(y)
            assert matching_invariants(gx) == matching_invariants(gy)
            done += 1

    def test_corner_entry_fixed_by_embedded_block(self):
        rng = random.Random(15)
        for _ in range(20):
            n = rng.randint(1, 3)
            x = random_integral_emat(rng, n + 1, U)
            h_small = rand_invertible(rng, n, U, span=2)
            rows = [list(h_small.rows[i]) + [qe(0)] for i in range(n)]
            rows.append([qe(0)] * n + [qe(1)])
            h = EMat(rows, U)
            assert (h @ x @ h.inv()).entry(n, n) == x.entry(n, n)


class TestIota:
    def test_depth_zero_is_identity(self):
        rng = random.Random(16)
        x = random_integral_emat(rng, 3, U)
        assert iota_c(x, 0, P) == x

    def test_membership_transport(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 2)
            c = rng.randint(1, 3)
            x = random_anti_hermitian(rng, n, c, P, U)
            jc = herm_form_j(n, c, P, U)
            j0 = herm_form_j(n, 0, P, U)
            y = iota_c(x, c, P)
            assert in_lie_u(x, jc) and in_lie_u(y, j0)
            assert in_k_tilde_lie(x, c, P, jc) == in_k_tilde_lie(y, 0, P, j0)

    def test_block_diagonal_equivariance(self):
        rng = random.Random(18)
        for _ in range(20):
            n = rng.randint(1, 2)
            c = rng.randint(1, 2)
            x = random_integral_emat(rng, n + 1, U, span=2)
            h_small = rand_invertible(rng, n, U, span=2)
            rows = [list(h_small.rows[i]) + [qe(0)] for i in range(n)]
            rows.append([qe(0)] * n + [qe(1)])
            h = EMat(rows, U)
            assert iota_c(h @ x @ h.inv(), c, P) == h @ iota_c(x, c, P) @ h.inv()


class TestRMap:
    def test_base_field_collapses(self):
        g = emat([[qe(2), qe(1)], [qe(1), qe(1)]])
        assert r_map(g) == EMat.identity(2, U)

    def test_lands_in_norm_one_variety(self):
        rng = random.Random(19)
        done = 0
        while done < 100:
            n = rng.randint(1, 3)
            g = random_integral_emat(rng, n, U, span=3)
            if g.det().is_zero():
                continue
            assert in_s_variety(r_map(g))
            done += 1

    def test_congruence_easy_direction(self):
        rng = random.Random(20)
        for k in range(100):
            n = rng.randint(1, 2)
            c = rng.randint(1, 2)
            g = rand_kprime_element(rng, n, c, P, U)
            assert in_kprime(g, c, P)
            assert in_k_s(r_map(g), c, P), (k, n, c)


class TestDetStack:
    def test_rank_one_frozen(self):
        b = qe(5, 1)
        x = emat([[qe(7), b], [qe(1), qe(2)]])
        stack = EMat(
            [[qe(0), b], [qe(1), qe(2)]], U
        )  # columns e, x e
        assert stack.det() == -b
        assert det_stack_identity_check(x)

    def test_zero_column_degenerate(self):
        x = emat([[qe(3), qe(0)], [qe(1), qe(2)]])
        assert det_stack_identity_check(x)

    def test_random_exact_instances(self):
        rng = random.Random(21)
        for _ in range(200):
            m = rng.randint(1, 4)
            x = random_integral_emat(rng, m + 1, U)
            assert det_stack_identity_check(x)


class TestUnitaryGeneration:
    def test_generated_elements_are_unitary(self):
        rng = random.Random(22)
        for _ in range(10):
            n = rng.randint(1, 2)
            c = rng.randint(0, 2)
            g = rand_unitary(rng, n, c, P, U)
            assert in_group_u(g, herm_form_j(n, c, P, U))
