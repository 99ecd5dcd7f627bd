import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bits,
    nan_blind_bits,
    outcome,
    per_call_macdonald_sum,
    recursive_weakly_decreasing,
    ssyt_schur,
)
from localperiods import symfunc
from localperiods.symfunc import (
    COINCIDENCE_SPREAD,
    DivergenceError,
    _det,
    _first_pivot,
    _last_pivot,
    _last_step,
    _modulus,
    _schur_table,
    _sweep,
    delta_weight,
    macdonald_closed,
    macdonald_sum,
    partitions_in_box,
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


#: entries that tie in pivot magnitude (1, -1, 1j, ...), signed zeros,
#: infinities, and floats next to complex numbers, as the Jacobi-Trudi
#: matrices mix them
ENTRIES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 0j, 1.0, -1.0, 2.0, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, 0.5, math.inf, -math.inf]
    ),
    st.floats(-1e6, 1e6),
    st.complex_numbers(max_magnitude=1e6),
    st.complex_numbers(),
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


def staged_det(rows):
    """The determinant of a 2x2 or 3x3 matrix composed from _det's column
    stages, as _schur_table composes them."""
    columns = list(zip(*rows))
    det = 1.0
    if len(rows) == 3:
        first = _first_pivot(*columns.pop(0))
        if first is None:
            return 0.0
        det = first[1]
        columns = [_sweep(first, column) for column in columns]
    last = _last_pivot(det, columns[0])
    return 0.0 if last is None else _last_step(last, columns[1])


class TestUnrolledDet:
    """The column stages that _schur_table runs at ranks 2 and 3 against
    the elimination loop of _det.  A NaN part may carry either sign bit:
    CPython 3.11 has given the loop a NaN of one sign on its first call in
    a process and of the other on later calls with the same matrix."""

    @pytest.mark.parametrize("m", [2, 3])
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_the_loop(self, m, data):
        rows = data.draw(square_matrices(m))
        copy = [row[:] for row in rows]
        assert nan_blind_bits(staged_det(rows)) == nan_blind_bits(_det(rows))
        assert rows == copy

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 2.0], [-1.0, 3j]],  # tie: the first maximum stays the pivot
            [[0.0, 1.0], [0.0, 2.0]],  # zero column
            [[0.0, 1.0], [1j, 0.0]],  # zero pivot swapped away
            [[1j, 2.0, 3.0], [-1.0, 1.0, 0.0], [1.0, -0.0, 5j]],
            [[0.0, 1.0, 2.0], [0.0, 3.0, 1j], [2.0, 0.0, 0.0]],
            [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]],  # singular after a step
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.5], [3.0, 6.0, 9.0]],
            # the last pivot's modulus overflows: no abs() of it, no OverflowError
            [[0.0, 1.3e308 + 1.3e308j], [1.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.3e308 + 1.3e308j]],
            # an earlier pivot candidate's modulus overflows: ranked infinite
            [[0.0, 0.0], [1.3e308 + 1.3e308j, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.3e308 + 1.3e308j, 1.0]],
            [[1.0, 1.0, 1.0], [1.3e308 + 1.3e308j, 0.0, 1.0], [1.0, 0.0, 0.0]],
            # no stages at rank 4: 1.0 / pivot underflows to 0, so the first
            # sweep changes nothing and leaves column 1 zero below the pivot
            [[1.0, 0.0, 0.0, 0.0], [1.3e308 + 1.3e308j, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        ],
    )
    def test_edge_cases(self, rows):
        want = nan_blind_bits(0.0 if len(rows) == 4 else staged_det(rows))
        assert nan_blind_bits(_det(rows)) == want

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_overflowing_pivot_candidate(self, m):
        # abs() of the big entry raises OverflowError in the pivot search
        big = 1.3e308 + 1.3e308j
        rows = [[1.0 if r == c else 0.0 for c in range(m)] for r in range(m)]
        rows[1][:2] = [big, 0.0]
        rows[0][1] = 0.0
        assert _det(rows) == 0  # a zero column
        rows[0][1] = 1.0
        assert _det(rows) == -big

    def test_modulus(self):
        big = 1.3e308 + 1.3e308j
        assert _modulus(big) == math.inf
        assert _modulus(3 + 4j) == 5.0
        # CPython's abs() of a NaN complex raises after an overflowing abs()
        assert _modulus(big) == math.inf
        assert math.isnan(_modulus(complex(math.nan, 1.0)))


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


class TestSchurTable:
    @pytest.mark.parametrize("xs", TABLE_ARGS)
    @pytest.mark.parametrize("max_part", [-1, 0, 3])
    def test_bit_identical_to_schur(self, xs, max_part):
        value = _schur_table(xs, max_part)
        for lam in weakly_decreasing_tuples(len(xs), -2, max_part + 2):
            assert outcome(value, lam) == outcome(schur, lam, xs), lam

    @given(
        st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=4),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_random_arguments(self, xs, max_part):
        value = _schur_table(xs, max_part)
        for lam in weakly_decreasing_tuples(len(xs), -1, max_part + 1):
            assert outcome(value, lam) == outcome(schur, lam, xs), lam

    @given(
        st.lists(
            st.one_of(st.just(0j), st.complex_numbers(max_magnitude=3.0)), min_size=3, max_size=3
        ),
        st.integers(0, 12),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_in_any_call_order(self, xs, max_part, data):
        # the rank-3 table keeps its column stages from one call for the next
        box = data.draw(st.permutations(list(partitions_in_box(3, max_part))))
        value = _schur_table(xs, max_part)
        for lam in box:
            assert outcome(value, lam) == outcome(schur, lam, xs), lam

    def test_overflowing_powers_go_to_schur(self):
        xs = (1e200, 2e200)
        value = _schur_table(xs, 3)
        for lam in weakly_decreasing_tuples(2, 0, 3):
            assert outcome(value, lam) == outcome(schur, lam, xs), lam

    def test_nearly_coincident_arguments_take_jacobi_trudi(self):
        xs = (0.5, 0.5 + COINCIDENCE_SPREAD / 2)
        assert bits(_schur_table(xs, 4)((3, 1))) == bits(schur_jacobi_trudi((3, 1), xs))


#: distinct arguments at ranks 2 and 3, each with the depth its box of
#: weights and its Macdonald sum run to
DIRECT_ARGS = [
    ((0.6j, -0.5, 0.3 - 0.7j), 20),
    ((0.0, 0.6, -0.8j), 20),
    # x^k underflows to 0 from k = 28 on: a zero first pivot
    ((0.0, 1.5e-12, -1.5e-12j), 30),
    ((0.7 - 0.2j, -0.3 + 0.6j), 20),
    ((0.0, 1.5e-12), 30),
]


class TestDirectSchurRoute:
    """At 2 and 3 distinct arguments the table runs _det's column stages
    itself, without _det, and keeps those of the current first part."""

    @pytest.mark.parametrize("xs, depth", DIRECT_ARGS)
    def test_values_without_det(self, xs, depth, monkeypatch):
        box = list(partitions_in_box(len(xs), depth))
        want = [bits(schur(lam, xs)) for lam in box]
        want_sum = bits(per_call_macdonald_sum(xs, depth))

        def no_det(rows):
            raise AssertionError("_det is off the direct route")

        monkeypatch.setattr(symfunc, "_det", no_det)
        value = _schur_table(xs, depth)
        assert [bits(value(lam)) for lam in box] == want
        assert bits(macdonald_sum(xs, depth)) == want_sum

    @pytest.mark.parametrize("xs, depth", DIRECT_ARGS)
    def test_first_stage_once_per_first_part(self, xs, depth, monkeypatch):
        # the pivot of the first column: 3 rows at rank 3, 2 at rank 2
        stage = "_first_pivot" if len(xs) == 3 else "_last_pivot"
        calls = [0]
        real = getattr(symfunc, stage)

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(symfunc, stage, counted)
        value = _schur_table(xs, depth)
        box = list(partitions_in_box(len(xs), depth))
        for lam in box:
            value(lam)
        assert calls[0] == len({lam[0] for lam in box if lam[0] != lam[-1]})

    @pytest.mark.parametrize("xs, depth", DIRECT_ARGS)
    def test_bits_do_not_depend_on_call_order(self, xs, depth):
        box = list(partitions_in_box(len(xs), depth))
        want = {lam: bits(schur(lam, xs)) for lam in box}
        shuffled = box[:]
        random.Random(17).shuffle(shuffled)
        for order in (box, box[::-1], shuffled):
            value = _schur_table(xs, depth)
            assert [bits(value(lam)) for lam in order] == [want[lam] for lam in order]


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
            for lam in partitions_in_box(r, 50):
                total += schur(lam, xs) * schur(lam, ys)
            closed = 1.0
            for x in xs:
                for y in ys:
                    closed /= 1 - x * y
            assert abs(total - closed) < 1e-9 * abs(closed)


class TestIterators:
    def test_partition_count_in_box(self):
        assert sum(1 for _ in partitions_in_box(3, 4)) == math.comb(7, 3)

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
