"""Shared test utilities: independent combinatorial oracles and random
generators for exact matrices and parameter draws."""

from __future__ import annotations

import cmath
import math
import random
import struct
from fractions import Fraction

from localperiods.hermitian import EMat, herm_form_j, in_group_u, in_kprime
from localperiods.numerics import QuadExt
from localperiods.reps import GenericRep, RamCusp, SatakeSet, Segment, UnramChar
from localperiods.symfunc import _modulus, schur


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


def loop_det(rows):
    """Determinant by the generic pivoted elimination loop of
    symfunc._det, kept here as the reference its unrolled sizes must match
    bit for bit."""
    m = len(rows)
    if m == 0:
        return 1.0
    a = [list(row) for row in rows]
    det = 1.0
    for col in range(m - 1):
        try:
            piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        except OverflowError:
            piv = max(range(col, m), key=lambda r: _modulus(a[r][col]))
        if a[piv][col] == 0:
            return 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, m):
            f = a[r][col] * inv
            if f == 0:
                continue
            for c in range(col, m):
                a[r][c] -= f * a[col][c]
    if a[m - 1][m - 1] == 0:
        return 0.0
    return det * a[m - 1][m - 1]


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


# ---------------------------------------------------------------------------
# random draws


def unit_circle(rng: random.Random, m: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * math.pi * rng.random()) for _ in range(m))


def conj_selfdual_unit(rng: random.Random, m: int) -> tuple[complex, ...]:
    out: list[complex] = []
    if m % 2:
        out.append(complex(rng.choice([1.0, -1.0])))
    while len(out) < m:
        z = cmath.exp(2j * math.pi * rng.random())
        out.extend([z, 1 / z])
    rng.shuffle(out)
    return tuple(out)


def ramified_rep(rng: random.Random, rank: int, r: int, cond: int) -> GenericRep:
    params = conj_selfdual_unit(rng, r)
    segments = [Segment(UnramChar(a)) for a in params]
    segments.append(Segment(RamCusp(dim=rank - r, cond=cond)))
    return GenericRep(tuple(segments))


def satake(params, q_e: int) -> SatakeSet:
    return SatakeSet(tuple(params), q_e)


# ---------------------------------------------------------------------------
# exact matrix generators


def rand_qe(rng: random.Random, u: int, span: int = 4, den: int = 1) -> QuadExt:
    return QuadExt(
        Fraction(rng.randint(-span, span), den), Fraction(rng.randint(-span, span), den), u
    )


def rand_emat(rng: random.Random, size: int, u: int, span: int = 4) -> EMat:
    return EMat([[rand_qe(rng, u, span) for _ in range(size)] for _ in range(size)], u)


def rand_invertible(rng: random.Random, size: int, u: int, span: int = 3) -> EMat:
    while True:
        m = rand_emat(rng, size, u, span)
        if not m.det().is_zero():
            return m


def rand_s_element(rng: random.Random, size: int, u: int, span: int = 4) -> EMat:
    """Random element of the entrywise trace-zero model: all entries are
    rational multiples of sqrt(u)."""
    root = QuadExt.sqrt_u(u)
    return EMat(
        [[root * Fraction(rng.randint(-span, span)) for _ in range(size)] for _ in range(size)], u
    )


def rand_anti_hermitian(rng: random.Random, n: int, c: int, p: int, u: int, span: int = 3) -> EMat:
    """Random integral anti-hermitian matrix for the form diag(1,..,1,p^c)."""
    root = QuadExt.sqrt_u(u)
    a = [[QuadExt.of(0, u)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = root * Fraction(rng.randint(-span, span))
        for j in range(i + 1, n):
            val = rand_qe(rng, u, span)
            a[i][j] = val
            a[j][i] = -val.conj()
    z = [rand_qe(rng, u, span) for _ in range(n)]
    w = root * Fraction(rng.randint(-span, span))
    rows = [list(a[i]) + [-(Fraction(p**c)) * z[i].conj()] for i in range(n)]
    rows.append(list(z) + [w])
    return EMat(rows, u)


def rand_unitary(rng: random.Random, n: int, c: int, p: int, u: int) -> EMat:
    """Random element of the unitary group via a Cayley image."""
    from localperiods.hermitian import cayley

    j = herm_form_j(n, c, p, u)
    while True:
        x = rand_anti_hermitian(rng, n, c, p, u, span=2)
        if (EMat.identity(n + 1, u) - x).det().is_zero():
            continue
        g = cayley(x, QuadExt.of(1, u))
        assert in_group_u(g, j)
        return g


def rand_kprime_element(rng: random.Random, n: int, c: int, p: int, u: int) -> EMat:
    """Random element of the depth-c mirahoric subgroup of GL_{n+1}."""
    from localperiods.numerics import qe_valuation

    while True:
        a = rand_emat(rng, n, u, span=2)
        det_a = a.det()
        if det_a.is_zero() or qe_valuation(det_a, p) != 0:
            continue
        y = [Fraction(p**c) * rand_qe(rng, u, 2) for _ in range(n)]
        z = [rand_qe(rng, u, 2) for _ in range(n)]
        w = QuadExt.of(1, u) + Fraction(p**c) * rand_qe(rng, u, 2)
        rows = [list(a.rows[i]) + [y[i]] for i in range(n)]
        rows.append(z + [w])
        g = EMat(rows, u)
        if in_kprime(g, c, p):
            return g
