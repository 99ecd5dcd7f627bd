"""Seeded random draws shared by the verification suites and the tests:
Satake parameters on and off the unit circle, ramified representations,
and integral exact matrices.  Each draw consumes the generator in a fixed
order, so a seed pins every value it returns."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from .hermitian import EMat, in_kprime
from .numerics import QuadExt, qe_valuation
from .reps import GenericRep, RamCusp, Segment, UnramChar


def unit_circle(rng: random.Random, m: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * math.pi * rng.random()) for _ in range(m))


def off_unit_circle(rng: random.Random, m: int, q: int) -> tuple[complex, ...]:
    """m parameters of modulus q^(s t_i), with one sign s = +-1 for the
    whole draw and each t_i in [0.1, 0.2], at uniform angles: the modulus
    of their product is q^(s sum t_i), at least a factor q^(m/10) away
    from 1."""
    s = rng.choice((1, -1))
    return tuple(
        q ** (s * rng.uniform(0.1, 0.2)) * cmath.exp(2j * math.pi * rng.random()) for _ in range(m)
    )


def conj_selfdual_unit(rng: random.Random, m: int) -> tuple[complex, ...]:
    """Unit-circle multiset stable under inversion: rotation pairs plus a
    self-inverse +-1 when the size is odd."""
    out: list[complex] = []
    if m % 2:
        out.append(complex(rng.choice([1.0, -1.0])))
    while len(out) < m:
        z = cmath.exp(2j * math.pi * rng.random())
        out.extend([z, 1 / z])
    rng.shuffle(out)
    return tuple(out)


def random_ramified_rep(
    rng: random.Random, rank: int, r: int, cond: int
) -> GenericRep:
    """Rank-`rank` representation with r unramified-character supports on
    the unit circle (conjugate-self-dual) and one opaque ramified support
    carrying the whole conductor."""
    if not (0 <= r < rank):
        raise ValueError("need 0 <= r < rank")
    params = conj_selfdual_unit(rng, r)
    segments = [Segment(UnramChar(a)) for a in params]
    segments.append(Segment(RamCusp(dim=rank - r, cond=cond)))
    return GenericRep(tuple(segments))


def _integral_qe(rng: random.Random, u: int, span: int) -> QuadExt:
    return QuadExt(Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span)), u)


def random_integral_emat(rng: random.Random, size: int, u: int, span: int = 4) -> EMat:
    """Square matrix whose entries have integer coordinates in [-span, span]."""
    return EMat([[_integral_qe(rng, u, span) for _ in range(size)] for _ in range(size)], u)


def random_anti_hermitian(
    rng: random.Random, n: int, c: int, p: int, u: int, span: int = 3
) -> EMat:
    """Integral anti-hermitian matrix for the form diag(1,...,1,p^c)."""
    root = QuadExt.sqrt_u(u)
    a = [[QuadExt.of(0, u)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = root * Fraction(rng.randint(-span, span))
        for jj in range(i + 1, n):
            val = _integral_qe(rng, u, span)
            a[i][jj] = val
            a[jj][i] = -val.conj()
    z = [_integral_qe(rng, u, span) for _ in range(n)]
    w = root * Fraction(rng.randint(-span, span))
    rows = [list(a[i]) + [-(Fraction(p**c)) * z[i].conj()] for i in range(n)]
    rows.append(list(z) + [w])
    return EMat(rows, u)


def random_kprime_element(rng: random.Random, n: int, c: int, p: int, u: int) -> EMat | None:
    """One attempt at an element of the depth-c mirahoric subgroup of
    GL_{n+1}: a unit-determinant block, a last column divisible by p^c and a
    corner entry congruent to 1.  None when the attempt misses the subgroup;
    the caller draws again."""
    a = random_integral_emat(rng, n, u, span=2)
    if qe_valuation(a.det(), p) != 0:
        return None
    y = [Fraction(p**c) * _integral_qe(rng, u, 2) for _ in range(n)]
    z = [_integral_qe(rng, u, 2) for _ in range(n)]
    w = QuadExt.of(1, u) + Fraction(p**c) * _integral_qe(rng, u, 2)
    rows = [list(a.rows[i]) + [y[i]] for i in range(n)]
    rows.append(z + [w])
    g = EMat(rows, u)
    return g if in_kprime(g, c, p) else None
