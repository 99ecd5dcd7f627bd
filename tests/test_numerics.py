import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from localperiods.hermitian import EMat
from localperiods.numerics import (
    QuadExt,
    fraction_sqrt,
    is_nonsquare_mod,
    is_prime,
    is_prime_power,
    padic_valuation,
    qe_valuation,
    validate_field_context,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def qe(a, b, u=-1):
    return QuadExt(Fraction(a), Fraction(b), u)


class TestPadicValuation:
    def test_prime_factor(self):
        assert padic_valuation(Fraction(9, 2), 3) == 2

    def test_negative_valuation(self):
        assert padic_valuation(Fraction(1, 3), 3) == -1

    def test_zero_is_infinite(self):
        assert padic_valuation(Fraction(0), 5) == math.inf

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            padic_valuation(Fraction(1), 6)

    @given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7, 11]))
    def test_multiplicative(self, x, y, p):
        assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)


class TestQeValuation:
    def test_common_factor(self):
        assert qe_valuation(qe(3, 9), 3) == 1

    def test_root_is_unit(self):
        assert qe_valuation(qe(0, 1), 3) == 0

    def test_conj_invariant(self):
        x = qe(Fraction(3, 7), 18)
        assert qe_valuation(x.conj(), 3) == qe_valuation(x, 3)

    @given(
        st.tuples(rationals, rationals).filter(lambda t: t != (0, 0)),
        st.tuples(rationals, rationals).filter(lambda t: t != (0, 0)),
        st.sampled_from([(3, -1), (7, -1), (5, 2)]),
    )
    def test_multiplicative_with_norm_oracle(self, t1, t2, ctx):
        # the norm gives an independent handle: v(x) = v_p(Nm x) / 2
        p, u = ctx
        x = QuadExt(t1[0], t1[1], u)
        y = QuadExt(t2[0], t2[1], u)
        assert qe_valuation(x * y, p) == qe_valuation(x, p) + qe_valuation(y, p)
        assert 2 * qe_valuation(x, p) == padic_valuation(x.norm(), p)


class TestQuadExtRing:
    def test_conj_is_involutive_ring_map(self):
        x, y = qe(2, 3, 5), qe(Fraction(1, 2), -4, 5)
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x.conj().conj() == x

    def test_trace_and_norm_are_rational(self):
        x = qe(Fraction(3, 4), Fraction(-1, 6), 2)
        assert x + x.conj() == qe(Fraction(3, 2), 0, 2)
        assert x * x.conj() == qe(x.norm(), 0, 2)
        assert x.norm() == Fraction(9, 16) - 2 * Fraction(1, 36)

    @given(
        st.tuples(rationals, rationals),
        st.tuples(rationals, rationals),
        st.sampled_from([-1, 2, 5]),
    )
    def test_norm_multiplicative(self, t1, t2, u):
        x = QuadExt(t1[0], t1[1], u)
        y = QuadExt(t2[0], t2[1], u)
        assert (x * y).norm() == x.norm() * y.norm()

    @given(st.tuples(rationals, rationals).filter(lambda t: t != (0, 0)))
    def test_division_inverts_multiplication(self, t):
        x = QuadExt(t[0], t[1], -1)
        y = qe(5, Fraction(2, 3))
        assert (y * x) / x == y

    def test_pow_negative(self):
        x = qe(1, 1, 2)
        assert x**3 * x**-3 == qe(1, 0, 2)

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            qe(1, 1, 2) + qe(1, 1, 3)

    @pytest.mark.parametrize("a, b", [(1, 0), (Fraction(1), 0.5), (Fraction(1), 0)])
    def test_constructor_rejects_non_fraction_parts(self, a, b):
        # an int part would make __truediv__ divide in floating point
        with pytest.raises(TypeError):
            QuadExt(a, b, -1)

    def test_of_and_arithmetic_give_fraction_parts(self):
        for x in (
            QuadExt.of(2, -1),
            EMat([[1, 0], [0, 1]], -1).entry(0, 0),
            QuadExt.of(1, -1) / 3,
            3 / QuadExt.of(2, -1),
            QuadExt.of(1, -1) - 1,
        ):
            assert type(x.a) is Fraction and type(x.b) is Fraction
        assert QuadExt.of(1, -1) / 3 == qe(Fraction(1, 3), 0)


class TestRationalExactness:
    @given(rationals, rationals)
    def test_sum_identity(self, x, y):
        # (a/b + c/d) * (b*d) == a*d + c*b with no rounding anywhere
        lhs = (x + y) * (x.denominator * y.denominator)
        rhs = x.numerator * y.denominator + y.numerator * x.denominator
        assert lhs == rhs


class TestContext:
    def test_primality(self):
        assert is_prime(7) and not is_prime(9)
        assert is_prime_power(27) and is_prime_power(9) and not is_prime_power(12)

    def test_nonsquare(self):
        assert is_nonsquare_mod(-1, 3)
        assert not is_nonsquare_mod(1, 3)
        assert not is_nonsquare_mod(3, 3)  # not a unit

    def test_validate(self):
        validate_field_context(3, -1)
        with pytest.raises(ValueError):
            validate_field_context(2, -1)
        with pytest.raises(ValueError):
            validate_field_context(5, -1)  # -1 is a square mod 5

    def test_fraction_sqrt(self):
        assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert fraction_sqrt(Fraction(2)) is None
        assert fraction_sqrt(Fraction(-1)) is None
