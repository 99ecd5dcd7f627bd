"""Shared test utilities: independent combinatorial oracles, bit-level
comparison, and generators built on the shared draws in localperiods.draws."""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

from localperiods.draws import random_anti_hermitian, random_integral_emat, random_kprime_element
from localperiods.hermitian import EMat, herm_form_j, in_group_u
from localperiods.numerics import QuadExt
from localperiods.reps import SatakeSet
from localperiods.symfunc import schur


# ---------------------------------------------------------------------------
# independent oracles


def ssyt_schur(lam, xs):
    """Schur value by brute-force enumeration of semistandard tableaux:
    rows weakly increase, columns strictly increase, entries in 1..len(xs)."""
    shape = [p for p in lam if p > 0]
    if any(p < 0 for p in lam):
        raise ValueError("oracle needs a nonnegative shape")
    if not shape:
        return 1.0
    m = len(xs)
    total = 0.0

    def fill_row(row_idx, prev_row, weight):
        nonlocal total
        if row_idx == len(shape):
            total += weight
            return
        length = shape[row_idx]

        def fill(j, row, w):
            if j == length:
                fill_row(row_idx + 1, row, w)
                return
            lo = row[j - 1] if j else 1
            if prev_row is not None:
                lo = max(lo, prev_row[j] + 1)
            for v in range(lo, m + 1):
                fill(j + 1, row + [v], w * xs[v - 1])

        fill(0, [], weight)

    fill_row(0, None, 1.0)
    return total


def recursive_weakly_decreasing(length, lo, hi):
    """Weakly decreasing tuples with entries in [lo, hi] by the recursive
    generator symfunc.weakly_decreasing_tuples replaced, kept here as the
    reference for its order: sums over the tuples add in that order, so it
    sets their float bits."""
    if length == 0:
        yield ()
        return

    def rec(prefix, bound, left):
        if left == 0:
            yield prefix
            return
        for part in range(bound, lo - 1, -1):
            yield from rec(prefix + (part,), part, left - 1)

    yield from rec((), hi, length)


def per_call_macdonald_sum(xs, depth):
    """symfunc.macdonald_sum as a sum of per-call schur values over the
    recursive enumeration, the reference its per-sum table must match bit
    for bit."""
    total = 0.0
    for lam in recursive_weakly_decreasing(len(xs), 0, depth):
        total += schur(lam, xs)
    return total


def bits(value):
    """A float or complex value down to its type and IEEE bit pattern, so
    that signed zeros and NaNs compare exactly."""
    z = complex(value)
    return type(value), struct.pack("<dd", z.real, z.imag)


def nan_blind_bits(value):
    """bits(), but with a NaN part read as NaN whatever its sign and payload."""
    z = complex(value)
    parts = ("nan" if math.isnan(p) else struct.pack("<d", p) for p in (z.real, z.imag))
    return type(value), *parts


def outcome(fn, *args):
    """bits() of fn(*args), or the type of the exception it raises."""
    try:
        return bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def geometric_sq_sum(t: float, terms: int = 2000) -> float:
    """sum (f+1)^2 t^f, the diagonal norm series at equal parameters."""
    return sum((f + 1) ** 2 * t**f for f in range(terms))


def h_pair_series(xs, ys, t: complex, terms: int = 400) -> complex:
    """sum_f h_f(xs) h_f(ys) t^f via the two-variable generating identity's
    series side, summed directly from the h recurrences."""
    from localperiods.symfunc import complete_homogeneous

    hx = complete_homogeneous(terms, xs)
    hy = complete_homogeneous(terms, ys)
    return sum(hx[f] * hy[f] * t**f for f in range(terms + 1))


def beta_spherical_literature(sigma: SatakeSet, q_f: int, sign: int) -> complex:
    """The spherical period's closed form written out: the literature form
    vol(GL_{n-1}(O_F)) L(1, As^sign), an integral over the whole unipotent
    quotient of GL_n, times 1 - det(sigma) q_F^-n, which drops the length-n
    partitions that the GL_{n-1} torus does not reach."""
    from localperiods.lfactors import asai_lfactor
    from localperiods.volumes import vol_gl

    n = len(sigma)
    length_term = 1 - math.prod(sigma.params) * float(q_f) ** -n
    return float(vol_gl(n - 1, q_f)) * asai_lfactor(sigma, sign).value(1) * length_term


# ---------------------------------------------------------------------------
# parameter sets and exact matrix generators (the draws are localperiods.draws)


def satake(params, q_e: int) -> SatakeSet:
    return SatakeSet(tuple(params), q_e)


def rand_invertible(rng: random.Random, size: int, u: int, span: int = 3) -> EMat:
    while True:
        m = random_integral_emat(rng, size, u, span)
        if not m.det().is_zero():
            return m


def rand_s_element(rng: random.Random, size: int, u: int, span: int = 4) -> EMat:
    """Random element of the entrywise trace-zero model: all entries are
    rational multiples of sqrt(u)."""
    root = QuadExt.sqrt_u(u)
    return EMat(
        [[root * Fraction(rng.randint(-span, span)) for _ in range(size)] for _ in range(size)], u
    )


def rand_unitary(rng: random.Random, n: int, c: int, p: int, u: int) -> EMat:
    """Random element of the unitary group via a Cayley image."""
    from localperiods.hermitian import cayley

    j = herm_form_j(n, c, p, u)
    while True:
        x = random_anti_hermitian(rng, n, c, p, u, span=2)
        if (EMat.identity(n + 1, u) - x).det().is_zero():
            continue
        g = cayley(x, QuadExt.of(1, u))
        assert in_group_u(g, j)
        return g


def rand_kprime_element(rng: random.Random, n: int, c: int, p: int, u: int) -> EMat:
    """Random element of the depth-c mirahoric subgroup of GL_{n+1}."""
    while True:
        g = random_kprime_element(rng, n, c, p, u)
        if g is not None:
            return g
