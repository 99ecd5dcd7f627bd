import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bits,
    per_call_macdonald_sum,
    recursive_weakly_decreasing,
    ssyt_schur,
)
from localperiods import symfunc
from localperiods.symfunc import (
    COINCIDENCE_SPREAD,
    DivergenceError,
    _det,
    _run_tops,
    _run_weights,
    _schur_table,
    delta_weight,
    macdonald_closed,
    macdonald_sum,
    schur,
    schur_bialternant,
    schur_jacobi_trudi,
    weakly_decreasing_tuples,
)


class TestSchur:
    def test_empty_weight(self):
        assert schur((0, 0), (0.3 + 0.1j, -0.7)) == 1.0

    def test_first_elementary(self):
        a, b = 1.5 + 0.5j, -0.25j
        assert abs(schur((1, 0), (a, b)) - (a + b)) < 1e-12

    def test_hook_weight_frozen_value(self):
        # tableau enumeration for shape (2,1) in two letters gives 30 at (2,3)
        assert abs(schur((2, 1), (2.0, 3.0)) - 30.0) < 1e-10
        assert abs(ssyt_schur((2, 1), (2.0, 3.0)) - 30.0) < 1e-10

    def test_against_tableau_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rng.randint(1, 3)
            lam = sorted((rng.randint(0, 4) for _ in range(m)), reverse=True)
            xs = tuple(rng.uniform(0.2, 2.0) * cmath.exp(2j * math.pi * rng.random()) for _ in range(m))
            want = ssyt_schur(lam, xs)
            assert abs(schur(tuple(lam), xs) - want) <= 1e-9 * max(1.0, abs(want))

    def test_bialternant_agrees_with_jacobi_trudi(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rng.randint(1, 5)
            lam = tuple(sorted((rng.randint(0, 6) for _ in range(m)), reverse=True))
            xs = tuple(
                rng.uniform(0.3, 1.7) * cmath.exp(2j * math.pi * rng.random()) for _ in range(m)
            )
            b = schur_bialternant(lam, xs)
            j = schur_jacobi_trudi(lam, xs)
            assert abs(b - j) <= 1e-10 * max(1.0, abs(b), abs(j))

    def test_coincident_parameters_route(self):
        # bialternant denominator vanishes; value must still match the oracle
        xs = (0.5, 0.5)
        assert abs(schur((3, 1), xs) - ssyt_schur((3, 1), xs)) < 1e-12

    def test_nearly_coincident_parameters(self):
        xs = (0.5, 0.5 + 1e-14)
        val = schur((3, 1), xs)
        assert abs(val - ssyt_schur((3, 1), (0.5, 0.5))) < 1e-9

    @given(st.integers(-3, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_central_shift_covariance(self, k, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        m = rng.randint(1, 4)
        lam = tuple(sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True))
        xs = tuple(cmath.exp(2j * math.pi * rng.random()) for _ in range(m))
        prod = 1.0
        for x in xs:
            prod *= x
        lhs = schur(tuple(p + k for p in lam), xs)
        rhs = prod**k * schur(lam, xs)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_laurent_weight(self):
        xs = (0.6 + 0.8j, 0.28 - 0.96j)
        lam = (1, -2)
        prod = xs[0] * xs[1]
        want = prod**-2 * schur((3, 0), xs)
        assert abs(schur(lam, xs) - want) < 1e-12

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            schur((0, 1), (1.0, 2.0))


#: entries of equal modulus (1, -1, 1j, ...), signed zeros, and floats next
#: to complex numbers, as the Jacobi-Trudi matrices mix them.
#: Every part is 0 or of magnitude in [2^-40, 2^40], so at 2 and 3 rows
#: no operation of _det under- or overflows.  A nonzero part of an entry
#: is a multiple of 2^-92, and a rounded sum or product of multiples of
#: powers of two Q and Q' is a multiple of Q or of QQ', so every nonzero
#: intermediate part is a multiple of 2^-276, far above the smallest
#: normal 2^-1022; and none reaches 2^126.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(2**-40, 2**40),
    st.floats(-(2**40), -(2**-40)),
)
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 0j, 1.0, -1.0, 2.0, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, 0.5]),
    PARTS,
    st.builds(complex, PARTS, PARTS),
)


@st.composite
def square_matrices(draw, m):
    """An m x m matrix of ENTRIES, with one column zeroed now and then."""
    rows = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=m, max_size=m))
    zero_col = draw(st.integers(-m, m - 1))
    if zero_col >= 0:
        for row in rows:
            row[zero_col] = 0.0
    return rows


def exact_det(rows):
    """The determinant of a matrix of complex floats, exactly: the Leibniz
    expansion over the Gaussian rationals, as a pair of Fractions."""
    total_re = total_im = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        re, im = Fraction(-1 if inversions % 2 else 1), Fraction(0)
        for row, col in enumerate(perm):
            z = complex(rows[row][col])
            a, b = Fraction(z.real), Fraction(z.imag)
            re, im = re * a - im * b, re * b + im * a
        total_re += re
        total_im += im
    return total_re, total_im


def permanent_of_moduli(rows):
    """per(|A|): the Leibniz sum with every sign + and every entry abs()."""
    return math.fsum(
        math.prod(abs(rows[row][col]) for row, col in enumerate(perm))
        for perm in itertools.permutations(range(len(rows)))
    )


#: 2√5 + 3 rounded up; see TestUnrolledDet.test_within_the_rounding_bound
ROUNDING_K = 7.48


class TestUnrolledDet:
    """_det: the cofactor forms at 2 and 3 rows, and the pivoted loop at 4."""

    @pytest.mark.parametrize("m", [2, 3])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_within_the_rounding_bound(self, m, data):
        """|_det(A) - det A| <= K u per(|A|), u = 2^-53, K = 2√5 + 3.

        Round to nearest gives fl(x op y) = (x op y)(1 + d) for every
        operation that does not under- or overflow (ENTRIES rules both
        out), with complex d: |d| <= u for a complex sum or difference,
        whose parts are rounded once each, and |d| <= √5 u for CPython's
        product (ac - bd, ad + bc) (Brent, Percival and Zimmermann, "Error
        bounds on complex floating-point multiplication", Math. Comp. 76
        (2007)).  A factor (1 + d) on a sum is the same
        factor on each summand, so the result is the Leibniz expansion
        with every monomial c_i a_j b_k times a product of such factors.
        At 3 rows that product holds two products (in the minor, and c_i
        times the minor), the minor's difference and at most two of the
        last column's three-term sum: |error| <= ((1 + √5 u)^2 (1 + u)^3 - 1)
        |monomial| = (2√5 + 3) u |monomial| + O(u^2).  At 2 rows it holds
        one product and one difference, (√5 + 1) u.  Summing the
        monomials' moduli gives per(|A|).  K = 7.48 exceeds 2√5 + 3 =
        7.472... by far more than the O(u) terms and the rounding of the
        float evaluation of both sides of the inequality.
        """
        rows = data.draw(square_matrices(m))
        copy = [row[:] for row in rows]
        got = _det(rows)
        re, im = exact_det(rows)
        error = math.hypot(float(Fraction(got.real) - re), float(Fraction(got.imag) - im))
        assert error <= ROUNDING_K * 2**-53 * permanent_of_moduli(rows)
        assert rows == copy

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 2.0], [-1.0, 3j]],  # entries of equal modulus
            [[0.0, 1.0], [0.0, 2.0]],  # zero column
            [[0.0, 1.0], [1j, 0.0]],  # zero leading entry
            [[1j, 2.0, 3.0], [-1.0, 1.0, 0.0], [1.0, -0.0, 5j]],
            [[0.0, 1.0, 2.0], [0.0, 3.0, 1j], [2.0, 0.0, 0.0]],
            [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]],  # two equal rows
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.5], [3.0, 6.0, 9.0]],
            # an entry whose modulus overflows: the cofactor forms take no abs()
            [[0.0, 1.3e308 + 1.3e308j], [1.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.3e308 + 1.3e308j]],
            [[0.0, 0.0], [1.3e308 + 1.3e308j, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.3e308 + 1.3e308j, 1.0]],
            [[1.0, 1.0, 1.0], [1.3e308 + 1.3e308j, 0.0, 1.0], [1.0, 0.0, 0.0]],
            # the loop at rank 4: abs() of the big entry overflows in the
            # pivot search, which raises
            [[1.0, 0.0, 0.0, 0.0], [1.3e308 + 1.3e308j, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        ],
    )
    def test_edge_cases(self, rows):
        if len(rows) == 4:
            with pytest.raises(OverflowError):
                _det(rows)
            return
        assert abs(_det(rows) - complex(*map(float, exact_det(rows)))) <= 1e-12

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 0.0], [1.3e308 + 1.3e308j, 1.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.3e308 + 1.3e308j, 1.0]],
            [[1.0, 1.0, 1.0], [1.3e308 + 1.3e308j, 0.0, 1.0], [1.0, 0.0, 0.0]],
            [[1.0, 0.0, 0.0, 0.0], [1.3e308 + 1.3e308j, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        ],
    )
    def test_huge_pivot_keeps_its_multipliers(self, rows):
        # 1.0 / pivot comes out -0j for these pivots, which would zero every
        # multiplier of the sweep below them and with it the determinant
        assert exact_det(rows) == (1, 0)
        if len(rows) < 4:
            assert _det(rows) == 1  # no division at 2 and 3 rows
        else:
            with pytest.raises(OverflowError):  # the loop's pivot search
                _det(rows)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_overflowing_pivot_candidate(self, m):
        # at rank 4 abs() of the big entry raises OverflowError in the pivot
        # search; the cofactor forms at 2 and 3 rows take no abs()
        big = 1.3e308 + 1.3e308j
        rows = [[1.0 if r == c else 0.0 for c in range(m)] for r in range(m)]
        rows[1][:2] = [big, 0.0]
        rows[0][1] = 0.0
        if m == 4:
            with pytest.raises(OverflowError):
                _det(rows)
            return
        assert _det(rows) == 0  # a zero column
        rows[0][1] = 1.0
        assert _det(rows) == -big

    def test_pivot_whose_reciprocal_is_zero(self):
        # abs() of this pivot is finite, but 1.0 / pivot underflows to 0
        pivot = 1e308 + 1e308j
        rows = [[pivot, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0]]
        assert abs(pivot) < math.inf and 1.0 / pivot == 0
        with pytest.raises(OverflowError, match="reciprocal"):
            _det(rows)

    @pytest.mark.parametrize("m", [1, 4, 5])
    def test_loop_against_exact(self, m):
        # the loop runs at 1 and at 4 or more rows
        rng = random.Random(m)
        rows = [[complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(m)]
                for _ in range(m)]
        want = complex(*map(float, exact_det(rows)))
        assert abs(_det(rows) - want) <= 1e-12 * max(1.0, abs(want))


#: arguments for _schur_table: generic, with a zero, constant (coincident
#: and therefore Jacobi-Trudi), nearly coincident, and real
TABLE_ARGS = [
    (),
    (0.4 + 0.3j,),
    (0.0,),
    (0.7 - 0.2j, -0.3 + 0.9j),
    (0.0, 1.3j),
    (0.5, 0.5),
    (0.5, 0.5 + 1e-14),
    (cmath.exp(0.3j), cmath.exp(-0.3j), -1.0),
    (0.0, 0.6, -0.8j),
    (0.9j, 0.9j, 0.9j),
    (1.2, 0.3 - 0.4j, 0.3 - 0.4j + 1e-13),
    (0.2, -0.5, 0.7, 1.1),
    (0.4j, 0.0, -0.6 + 0.1j, 0.9 - 0.9j),
    (0.3 + 0.3j,) * 4,
]


def table_tops(m: int, max_part: int):
    """Every top of a table's contract at length m: weakly decreasing
    heads of every length from 0 to m, so runs with every number of
    padding zeros, and with a last part at or below the one before it.  A
    top whose parts are all equal starts its run at a constant weight, a
    power of the product that reads no power column."""
    for head in range(m + 1):
        yield from weakly_decreasing_tuples(head, 0, max_part)


def run_outcome(run, top):
    """bits() of each value of run(top), or the type of the exception it
    raises."""
    try:
        return [bits(value) for value in run(top)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def schur_outcome(top, xs):
    """run_outcome of schur itself on the weights of the run of top."""
    return run_outcome(lambda t: [schur(w, xs) for w in _run_weights(t, len(xs))], top)


class TestSchurTable:
    """A table's run of a top equals schur on the run's weights bit for
    bit, on every top at every pad: the constant weights, a zero argument,
    coincident arguments and ranks 0 and 4, where the table is schur,
    included."""

    @pytest.mark.parametrize("xs", TABLE_ARGS)
    @pytest.mark.parametrize("max_part", [-1, 0, 1, 3])
    def test_bit_identical_to_schur(self, xs, max_part):
        run = _schur_table(xs, max_part)
        for top in table_tops(len(xs), max_part):
            assert run_outcome(run, top) == schur_outcome(top, xs), top

    @given(
        st.lists(
            st.one_of(st.just(0j), st.complex_numbers(max_magnitude=3.0)), min_size=1, max_size=4
        ),
        st.integers(0, 8),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_on_random_arguments(self, xs, max_part):
        run = _schur_table(xs, max_part)
        for top in table_tops(len(xs), max_part):
            assert run_outcome(run, top) == schur_outcome(top, xs), top

    @given(
        st.lists(
            st.one_of(st.just(0j), st.complex_numbers(max_magnitude=3.0)), min_size=3, max_size=3
        ),
        st.integers(0, 12),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_in_any_call_order(self, xs, max_part, data):
        # a run holds nothing over from one call to the next
        tops = data.draw(st.permutations(list(table_tops(3, max_part))))
        run = _schur_table(xs, max_part)
        for top in tops:
            assert run_outcome(run, top) == schur_outcome(top, xs), top

    def test_overflowing_powers_go_to_schur(self):
        xs = (1e200, 2e200)
        run = _schur_table(xs, 3)
        for top in table_tops(2, 3):
            assert run_outcome(run, top) == schur_outcome(top, xs), top

    def test_nearly_coincident_arguments_take_jacobi_trudi(self):
        xs = (0.5, 0.5 + COINCIDENCE_SPREAD / 2)
        assert bits(_schur_table(xs, 4)((3, 1))[0]) == bits(schur_jacobi_trudi((3, 1), xs))

    @pytest.mark.parametrize("xs", [(0.3 + 0.4j, -0.5), (0.3 + 0.4j, -0.5, 0.7j), (0j, 0.5, -0.5j)])
    def test_every_run_reads_the_power_columns(self, xs, monkeypatch):
        """At 2 and 3 distinct arguments no run, padded or whole, takes a
        value weight by weight through schur's determinant."""

        def per_weight(minors, col):
            raise AssertionError("a run took a value weight by weight")

        monkeypatch.setattr(symfunc, "_last_column", per_weight)
        run = _schur_table(xs, 4)
        for top in table_tops(len(xs), 4):
            assert len(run(top)) == len(_run_weights(top, len(xs)))

    def test_run_weights(self):
        assert _run_weights((), 2) == [(0, 0)]
        assert _run_weights((), 0) == [()]
        assert _run_weights((3, 1), 3) == [(3, 1, 0), (3, 0, 0)]
        assert _run_weights((2,), 1) == [(2,), (1,), (0,)]
        assert _run_weights((2, 2, 1), 3) == [(2, 2, 1), (2, 2, 0)]


#: distinct arguments at ranks 2 and 3, each with the depth its box of
#: weights and its Macdonald sum run to
DIRECT_ARGS = [
    ((0.6j, -0.5, 0.3 - 0.7j), 20),
    ((0.0, 0.6, -0.8j), 20),
    # x^k underflows to 0 from k = 28 on: a zero first column
    ((0.0, 1.5e-12, -1.5e-12j), 30),
    ((0.7 - 0.2j, -0.3 + 0.6j), 20),
    ((0.0, 1.5e-12), 30),
]


class TestDirectSchurRoute:
    """At 2 and 3 distinct arguments the table evaluates _det's cofactor
    forms itself, without _det, and takes the minors of the first two
    parts once per run."""

    @pytest.mark.parametrize("xs, depth", DIRECT_ARGS)
    def test_values_without_det(self, xs, depth, monkeypatch):
        box = list(weakly_decreasing_tuples(len(xs), 0, depth))
        want = [bits(schur(lam, xs)) for lam in box]
        want_sum = bits(per_call_macdonald_sum(xs, depth))

        def no_det(rows):
            raise AssertionError("_det is off the direct route")

        monkeypatch.setattr(symfunc, "_det", no_det)
        run = _schur_table(xs, depth)
        assert [bits(v) for top in _run_tops(len(xs), depth) for v in run(top)] == want
        assert bits(macdonald_sum(xs, depth)) == want_sum

    @pytest.mark.parametrize("xs, depth", DIRECT_ARGS)
    def test_minors_once_per_first_two_parts(self, xs, depth, monkeypatch):
        # the rank-2 table takes no minors
        calls = []
        real = symfunc._minors

        def counted(col0, col1):
            calls.append(1)
            return real(col0, col1)

        monkeypatch.setattr(symfunc, "_minors", counted)
        run = _schur_table(xs, depth)
        for top in _run_tops(len(xs), depth):
            run(top)
        pairs = {lam[:2] for lam in weakly_decreasing_tuples(len(xs), 0, depth)}
        assert len(calls) == (len(pairs) if len(xs) == 3 else 0)

    @pytest.mark.parametrize("xs, depth", DIRECT_ARGS)
    def test_bits_do_not_depend_on_call_order(self, xs, depth):
        tops = list(_run_tops(len(xs), depth))
        want = {top: schur_outcome(top, xs) for top in tops}
        shuffled = tops[:]
        random.Random(17).shuffle(shuffled)
        for order in (tops, tops[::-1], shuffled):
            run = _schur_table(xs, depth)
            assert [run_outcome(run, top) for top in order] == [want[top] for top in order]


class TestDeltaWeight:
    def test_zero_weight(self):
        assert delta_weight((0, 0, 0), 3) == 1

    def test_rank_two_single_box(self):
        # exponent m+1-2i at i=1 is 1, so the weight is q^-1
        assert delta_weight((1, 0), 7) == Fraction(1, 7)

    def test_rank_one_trivial(self):
        assert delta_weight((5,), 3) == 1
        assert delta_weight((-9,), 3) == 1

    def test_half_even_exponent(self):
        assert delta_weight((1, 0, -1), 3, half=True) == Fraction(1, 9)

    def test_half_square_base(self):
        assert delta_weight((1, 0), 9, half=True) == Fraction(1, 3)

    def test_half_odd_exponent_nonsquare_base_rejected(self):
        with pytest.raises(ValueError):
            delta_weight((1, 0), 3, half=True)

    def test_matches_absolute_value_product(self):
        # prod |pi^{f_i}|^(m+1-2i) with |pi| = 1/q
        q = 5
        f = (3, 1, -2)
        m = len(f)
        want = Fraction(1)
        for i, fi in enumerate(f, start=1):
            want *= Fraction(1, q) ** (fi * (m + 1 - 2 * i))
        assert delta_weight(f, q) == want


#: arguments in the open unit disk for macdonald_sum, each with the
#: largest depth it is summed to: ranks 1-4 (the table sends rank 4 to
#: schur), a zero argument, and nearly coincident arguments (which the
#: table sends to schur, and schur to Jacobi-Trudi).  Depth 60 is the
#: macdonald suite's; the rank-4 and rank-3 Jacobi-Trudi sums stop earlier
#: because the per-call reference takes seconds there.
MACDONALD_CASES = [
    ((0.4 + 0.3j,), 60),
    ((0.0,), 60),
    ((0.7 - 0.2j, -0.3 + 0.6j), 60),
    ((0.0, 0.5j), 60),
    ((0.5, 0.5 + COINCIDENCE_SPREAD / 2), 60),
    ((0.6j, -0.5, 0.3 - 0.7j), 60),
    ((0.0, 0.6, -0.8j), 60),
    ((0.3 - 0.4j, 0.3 - 0.4j + 1e-13, 0.2), 20),
    ((0.2, -0.5, 0.7j, 0.4 - 0.4j), 12),
]


class TestMacdonald:
    def test_rank_one_geometric(self):
        assert abs(macdonald_sum((0.5,), 60) - 2.0) < 1e-12
        assert abs(macdonald_closed((0.5,)) - 2.0) < 1e-15

    def test_zero_arguments(self):
        assert macdonald_closed((0.0, 0.0)) == 1.0
        assert macdonald_sum((0.0, 0.0), 5) == 1.0

    def test_rank_two_frozen_value(self):
        xs = (0.5, 1 / 3)
        want = 18 / 5
        assert abs(macdonald_closed(xs) - want) < 1e-14
        assert abs(macdonald_sum(xs, 60) - want) < 1e-12

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            macdonald_closed((1.0, 0.5))
        with pytest.raises(DivergenceError):
            macdonald_sum((1.2,), 10)

    def test_geometric_tail_decay(self):
        rng = random.Random(3)
        xs = tuple(0.6 * cmath.exp(2j * math.pi * rng.random()) for _ in range(2))
        closed = macdonald_closed(xs)
        errs = [abs(macdonald_sum(xs, d) - closed) for d in (10, 20, 30)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < errs[0] * 0.6**18

    @pytest.mark.parametrize("xs, max_depth", MACDONALD_CASES)
    def test_bit_identical_to_per_call_schur(self, xs, max_depth):
        for depth in (1, max_depth):
            assert bits(macdonald_sum(xs, depth)) == bits(per_call_macdonald_sum(xs, depth))

    def test_cauchy_pairing_oracle(self):
        # truncated sum of s_lam(x) s_lam(y) against the closed two-family product
        rng = random.Random(5)
        for _ in range(5):
            r = rng.randint(1, 2)
            xs = tuple(0.5 * cmath.exp(2j * math.pi * rng.random()) for _ in range(r))
            ys = tuple(0.5 * cmath.exp(2j * math.pi * rng.random()) for _ in range(r))
            total = 0.0
            for lam in weakly_decreasing_tuples(r, 0, 50):
                total += schur(lam, xs) * schur(lam, ys)
            closed = 1.0
            for x in xs:
                for y in ys:
                    closed /= 1 - x * y
            assert abs(total - closed) < 1e-9 * abs(closed)


class TestIterators:
    def test_partition_count_in_box(self):
        assert sum(1 for _ in weakly_decreasing_tuples(3, 0, 4)) == math.comb(7, 3)

    def test_weakly_decreasing_range(self):
        tuples = list(weakly_decreasing_tuples(2, -2, 2))
        assert len(tuples) == math.comb(5 + 1, 2)
        assert all(a >= b for a, b in tuples)
        assert (2, -2) in tuples

    def test_zero_length(self):
        assert list(weakly_decreasing_tuples(0, -3, 3)) == [()]

    @pytest.mark.parametrize("length", range(5))
    def test_order_matches_the_recursive_generator(self, length):
        # sums add in this order, so it sets their float bits; lo > hi included
        for lo in range(-3, 5):
            for hi in range(-3, 5):
                want = list(recursive_weakly_decreasing(length, lo, hi))
                assert list(weakly_decreasing_tuples(length, lo, hi)) == want, (lo, hi)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            weakly_decreasing_tuples(-1, 0, 3)
