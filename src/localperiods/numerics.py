"""Exact scalar layer: rationals, the quadratic extension Q(sqrt(u)),
and p-adic valuations.  The floating-point checks take their tolerances
from report.TOLERANCES.

Exactness-critical computations (volumes, orbital integrals, matrix
identities) stay exact: they run on :class:`fractions.Fraction` and
:class:`QuadExt`, except that matrix products, determinants and inverses
(``hermitian.EMat``) run on plain integers over a common denominator and
return ``QuadExt``s.  Complex floats only enter through Satake parameters.
The :class:`QuadExt` constructor takes ``Fraction`` parts and only checks
them; :meth:`QuadExt.of` converts an int or a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_prime_power(q: int) -> bool:
    """True iff q = p^k for a prime p and k >= 1."""
    if q < 2:
        return False
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    return True  # q itself prime


def padic_valuation(x: RatLike, p: int) -> float:
    """Exponent of p in x, with the convention v(0) = +infinity.

    Accepts any rational; the result is a (possibly negative) integer
    returned as an int, or ``math.inf`` for zero.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_nonsquare_mod(u: RatLike, p: int) -> bool:
    """Euler criterion for a p-unit u to be a non-residue mod the odd prime p."""
    u = Fraction(u)
    if padic_valuation(u, p) != 0:
        return False
    r = (u.numerator * pow(u.denominator, -1, p)) % p
    return pow(r, (p - 1) // 2, p) == p - 1


def validate_field_context(p: int, u: RatLike) -> None:
    """Check (p, u) describes an unramified quadratic extension model."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if not is_nonsquare_mod(u, p):
        raise ValueError(f"u={u} must be a p-unit non-square mod p={p}")


def ensure_finite(z: complex) -> complex:
    """Reject NaN/Inf at API boundaries; returns z unchanged."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite value {z!r}")
    return z


def fraction_sqrt(x: RatLike) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    ns = math.isqrt(x.numerator)
    ds = math.isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Fraction(ns, ds)
    return None


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(u) of the quadratic extension Q(sqrt(u)).

    u is a fixed squarefree-ish integer shared by all operands of an
    expression (mixing contexts raises).  Galois conjugation flips the
    sign of b; the norm lands back in Q.  The constructor only checks
    that a and b are ``Fraction``s; ``QuadExt.of`` converts an int.
    """

    a: Fraction
    b: Fraction
    u: int

    def __post_init__(self) -> None:
        # an int part would turn the division in __truediv__ into a float one
        if not (isinstance(self.a, Fraction) and isinstance(self.b, Fraction)):
            raise TypeError("QuadExt parts must be Fractions; use QuadExt.of")
        if not isinstance(self.u, int):
            raise TypeError("u must be an int")

    @classmethod
    def of(cls, x: "QuadExt | RatLike", u: int) -> "QuadExt":
        if isinstance(x, QuadExt):
            if x.u != u:
                raise ValueError(f"field context mismatch: {x.u} vs {u}")
            return x
        return cls(Fraction(x), Fraction(0), u)

    @classmethod
    def sqrt_u(cls, u: int) -> "QuadExt":
        return cls(Fraction(0), Fraction(1), u)

    def __add__(self, other: "QuadExt | RatLike") -> "QuadExt":
        o = QuadExt.of(other, self.u)
        return QuadExt(self.a + o.a, self.b + o.b, self.u)

    __radd__ = __add__

    def __sub__(self, other: "QuadExt | RatLike") -> "QuadExt":
        o = QuadExt.of(other, self.u)
        return QuadExt(self.a - o.a, self.b - o.b, self.u)

    def __rsub__(self, other: "QuadExt | RatLike") -> "QuadExt":
        return QuadExt.of(other, self.u) - self

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.u)

    def __mul__(self, other: "QuadExt | RatLike") -> "QuadExt":
        o = QuadExt.of(other, self.u)
        return QuadExt(
            self.a * o.a + self.u * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.u,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadExt | RatLike") -> "QuadExt":
        o = QuadExt.of(other, self.u)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(u))")
        return self * QuadExt(o.a / n, -o.b / n, self.u)

    def __rtruediv__(self, other: "QuadExt | RatLike") -> "QuadExt":
        return QuadExt.of(other, self.u) / self

    def __pow__(self, k: int) -> "QuadExt":
        if k < 0:
            return (QuadExt.of(1, self.u) / self) ** (-k)
        out = QuadExt.of(1, self.u)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.u)

    def norm(self) -> Fraction:
        return self.a * self.a - self.u * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        sign = "+" if self.b >= 0 else "-"
        return f"({self.a}{sign}{abs(self.b)}*sqrt({self.u}))"


def qe_valuation(x: QuadExt, p: int) -> float:
    """Valuation on the unramified quadratic extension, v(a+b*sqrt(u)) =
    min(v_p(a), v_p(b)); +infinity for zero."""
    return min(padic_valuation(x.a, p), padic_valuation(x.b, p))
