"""Schur polynomial evaluation and related symmetric-function machinery.

Two independent evaluation routes are kept deliberately: the bialternant
ratio (fast, valid for distinct arguments) and the Jacobi-Trudi
determinant in complete homogeneous polynomials (valid always, used when
arguments nearly collide).  A truncated product-free summation of Schur
values over partitions serves as the series side of the closed product
identity checked by the verification suites.

Torus sums and the Macdonald series evaluate many weights at the same
arguments, so _schur_table computes the powers, product and Vandermonde
of the arguments once per sum and returns schur's values bit for bit;
2x2 and 3x3 determinants take unrolled copies of the elimination loop
with the same operations.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import ge, itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

from .numerics import RatLike, fraction_sqrt

#: below this pairwise spread the bialternant denominator is treated as singular
COINCIDENCE_SPREAD = 1e-12


class DivergenceError(ValueError):
    """Raised when a series argument lies outside the open unit disk."""


def is_weakly_decreasing(parts: Sequence[int]) -> bool:
    return all(map(ge, parts, parts[1:]))


def _modulus(z: complex) -> float:
    """abs(z), or inf where the modulus of a finite z lies above the float
    range and abs() raises OverflowError.  CPython's abs() of a complex
    with a NaN part also raises when the abs() before it overflowed; its
    modulus is NaN, as abs() returns at other times."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf if cmath.isfinite(z) else math.nan


def _det(rows: Sequence[Sequence[complex]]) -> complex:
    """Determinant by Gaussian elimination with partial pivoting.

    Sizes 2 and 3 take unrolled copies of the loop that perform the same
    floating-point operations in the same order, so every size gives the
    loop's value bit for bit.  A pivot search whose abs() overflows is
    redone with _modulus, which ranks such an entry as infinite; only
    matrices on which abs() raises take that route.
    """
    m = len(rows)
    if m == 2:
        return _det2(*rows)
    if m == 3:
        return _det3(*rows)
    if m == 0:
        return 1.0
    a = [list(row) for row in rows]
    det: complex = 1.0
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
    # The last column has a single candidate pivot: no abs() is taken, so an
    # entry whose modulus overflows does not raise.
    if a[m - 1][m - 1] == 0:
        return 0.0
    return det * a[m - 1][m - 1]


def _det2(row0: Sequence[complex], row1: Sequence[complex]) -> complex:
    """_det of a 2x2 matrix, unrolled.  Entries left of the pivot column
    are not updated since the loop never reads them again."""
    a00, a01 = row0
    a10, a11 = row1
    det: complex = 1.0
    try:
        swap = abs(a10) > abs(a00)  # max() keeps the first maximum
    except OverflowError:
        swap = _modulus(a10) > _modulus(a00)
    if swap:
        a00, a01, a10, a11 = a10, a11, a00, a01
        det = -det
    if a00 == 0:
        return 0.0
    det *= a00
    f = a10 * (1.0 / a00)
    if f != 0:
        a11 -= f * a01
    if a11 == 0:
        return 0.0
    return det * a11


def _det3(
    row0: Sequence[complex], row1: Sequence[complex], row2: Sequence[complex]
) -> complex:
    """_det of a 3x3 matrix, unrolled like _det2."""
    a00, a01, a02 = row0
    a10, a11, a12 = row1
    a20, a21, a22 = row2
    det: complex = 1.0
    try:
        m0, m1, m2 = abs(a00), abs(a10), abs(a20)
    except OverflowError:
        m0, m1, m2 = _modulus(a00), _modulus(a10), _modulus(a20)
    if m1 > m0:
        if m2 > m1:
            a00, a01, a02, a20, a21, a22 = a20, a21, a22, a00, a01, a02
        else:
            a00, a01, a02, a10, a11, a12 = a10, a11, a12, a00, a01, a02
        det = -det
    elif m2 > m0:
        a00, a01, a02, a20, a21, a22 = a20, a21, a22, a00, a01, a02
        det = -det
    if a00 == 0:
        return 0.0
    det *= a00
    inv = 1.0 / a00
    f = a10 * inv
    if f != 0:
        a11 -= f * a01
        a12 -= f * a02
    f = a20 * inv
    if f != 0:
        a21 -= f * a01
        a22 -= f * a02
    try:
        swap = abs(a21) > abs(a11)
    except OverflowError:
        swap = _modulus(a21) > _modulus(a11)
    if swap:
        a11, a12, a21, a22 = a21, a22, a11, a12
        det = -det
    if a11 == 0:
        return 0.0
    det *= a11
    f = a21 * (1.0 / a11)
    if f != 0:
        a22 -= f * a12
    if a22 == 0:
        return 0.0
    return det * a22


def complete_homogeneous(max_degree: int, xs: Sequence[complex]) -> list[complex]:
    """[h_0, ..., h_max_degree] evaluated at xs."""
    h: list[complex] = [1.0] + [0.0] * max_degree
    for x in xs:
        for k in range(1, max_degree + 1):
            h[k] += x * h[k - 1]
    return h


def _product(xs: Sequence[complex]) -> complex:
    prod: complex = 1.0
    for x in xs:
        prod *= x
    return prod


def _vandermonde(xs: Sequence[complex]) -> complex:
    """prod_{i<j} (x_i - x_j), in row order."""
    m = len(xs)
    den: complex = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            den *= xs[i] - xs[j]
    return den


def _coincident(xs: Sequence[complex]) -> bool:
    """Whether two arguments lie within COINCIDENCE_SPREAD of each other."""
    m = len(xs)
    spread = min(
        (abs(xs[i] - xs[j]) for i in range(m) for j in range(i + 1, m)),
        default=float("inf"),
    )
    return spread < COINCIDENCE_SPREAD


def schur_bialternant(parts: Sequence[int], xs: Sequence[complex]) -> complex:
    """det(x_i^(lambda_j + m - j)) / Vandermonde(x).  Arguments must be distinct."""
    m = len(xs)
    if len(parts) != m:
        raise ValueError("weight length must match number of arguments")
    num = _det([[xs[i] ** (parts[j] + m - 1 - j) for j in range(m)] for i in range(m)])
    den = _vandermonde(xs)
    if den == 0:
        raise ZeroDivisionError("coincident arguments in bialternant")
    return num / den


def schur_jacobi_trudi(parts: Sequence[int], xs: Sequence[complex]) -> complex:
    """det(h_{lambda_i - i + j}) over the length of the partition."""
    if any(p < 0 for p in parts):
        raise ValueError("Jacobi-Trudi path requires nonnegative parts")
    lam = list(parts)
    while lam and lam[-1] == 0:
        lam.pop()
    if not lam:
        return 1.0
    ell = len(lam)
    if ell > len(xs):
        return 0.0
    h = complete_homogeneous(lam[0] + ell, xs)

    def h_at(k: int) -> complex:
        return h[k] if 0 <= k < len(h) else 0.0

    return _det([[h_at(lam[i] - (i + 1) + (j + 1)) for j in range(ell)] for i in range(ell)])


def _raise_zero_laurent() -> complex:
    raise ValueError("negative weights need nonzero arguments")


def schur(parts: Sequence[int], xs: Sequence[complex]) -> complex:
    """Laurent-Schur value s_lambda(xs) for a weakly decreasing integer weight.

    Negative weights are handled by factoring out the central power
    (prod xs)^(lambda_m).  Nearly coincident arguments are routed through
    Jacobi-Trudi since the bialternant degenerates to 0/0 there.
    """
    m = len(xs)
    if len(parts) != m:
        raise ValueError("weight length must match number of arguments")
    if m == 0:
        return 1.0
    if not is_weakly_decreasing(parts):
        raise ValueError("weight must be weakly decreasing")
    if all(p == parts[0] for p in parts):
        # constant weight: a pure central power, exact without determinants
        if parts[0] == 0:
            return 1.0
        if any(x == 0 for x in xs):
            return 0.0 if parts[0] > 0 else _raise_zero_laurent()
        return _product(xs) ** parts[0]
    shift = parts[-1] if parts[-1] < 0 else 0
    lam = [p - shift for p in parts]
    central: complex = 1.0
    if shift:
        if any(x == 0 for x in xs):
            raise ValueError("negative weights need nonzero arguments")
        central = _product(xs) ** shift
    if _coincident(xs):
        return central * schur_jacobi_trudi(lam, xs)
    return central * schur_bialternant(lam, xs)


def _schur_table(xs: Sequence[complex], max_part: int) -> Callable[[Sequence[int]], complex]:
    """schur(parts, xs) as a function of a weakly decreasing weight alone.

    The powers x_i^k for k < max_part + len(xs), the product of the
    arguments, the Vandermonde and the coincidence test are computed once
    here, with the operations schur performs per call, so every value is
    bit-identical to schur's.  Weights with a part outside [0, max_part],
    and all weights at nearly coincident arguments, go to schur itself.
    The weight must be weakly decreasing; schur's check of that is not
    repeated here.
    """
    xs = tuple(xs)
    m = len(xs)

    def per_call(parts: Sequence[int]) -> complex:
        return schur(parts, xs)

    if m == 0:
        return per_call
    try:
        if _coincident(xs):
            return per_call
        den = _vandermonde(xs)
        if den == 0:
            return per_call
        powers = [[x**k for k in range(max_part + m)] for x in xs]
    except OverflowError:
        return per_call
    prod = _product(xs)
    has_zero = any(x == 0 for x in xs)
    offsets = range(m - 1, -1, -1)

    def value(parts: Sequence[int]) -> complex:
        if len(parts) != m or parts[-1] < 0 or parts[0] > max_part:
            return per_call(parts)
        if parts[0] == parts[-1]:
            if parts[0] == 0:
                return 1.0
            return 0.0 if has_zero else prod ** parts[0]
        row_at = itemgetter(*[p + o for p, o in zip(parts, offsets)])
        # schur's central factor 1.0 stays: it can change the sign of a zero
        return 1.0 * (_det(list(map(row_at, powers))) / den)

    return value


def _modular_exponent(parts: Sequence[int]) -> int:
    """The exponent e with delta(diag(pi^parts)) = q^e."""
    m = len(parts)
    # the coefficient of lambda_i is m + 1 - 2i, for i = 1..m
    return -sum(map(mul, parts, range(m - 1, -m, -2)))


def _per_modular_exponent(
    weight: Callable[[Sequence[int]], float]
) -> Callable[[Sequence[int]], float]:
    """`weight`, a function of a weight tuple through its modular exponent
    only (such as a float of delta_weight), evaluated once per exponent."""
    values: dict[int, float] = {}

    def cached(parts: Sequence[int]) -> float:
        e = _modular_exponent(parts)
        w = values.get(e)
        if w is None:
            w = values[e] = weight(parts)
        return w

    return cached


def delta_weight(parts: Sequence[int], q: RatLike, half: bool = False) -> Fraction:
    """Modular-character weight prod_i q^(-lambda_i * (m + 1 - 2i)) of the
    diagonal torus point with exponent tuple `parts`, exactly.

    With ``half`` the square root is taken; it is exact whenever the total
    exponent is even or q is a perfect square (the only cases in scope,
    since the quadratic-extension residue size is a square).
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    e = _modular_exponent(parts)
    if not half:
        return q**e
    if e % 2 == 0:
        return q ** (e // 2)
    root = fraction_sqrt(q)
    if root is None:
        raise ValueError(f"q^(1/2) not exact for q={q} with odd exponent {e}")
    return root**e


def partitions_in_box(length: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing nonnegative tuples of the given length with
    parts bounded by max_part (includes the zero tuple)."""
    return weakly_decreasing_tuples(length, 0, max_part)


def weakly_decreasing_tuples(length: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing integer tuples with entries in [lo, hi], in
    descending lexicographic order (sums over them add in this order)."""
    return combinations_with_replacement(range(hi, lo - 1, -1), length)


def _check_in_disk(xs: Iterable[complex]) -> tuple[complex, ...]:
    xs = tuple(xs)
    if any(abs(x) >= 1 for x in xs):
        raise DivergenceError("series requires |x_i| < 1")
    return xs


def macdonald_sum(xs: Sequence[complex], depth: int) -> complex:
    """Truncated sum of s_lambda(xs) over all partitions with lambda_1 <= depth.

    The values come from one _schur_table per call, so they are schur's
    bit for bit, added in the order of partitions_in_box.
    """
    xs = _check_in_disk(xs)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    value = _schur_table(xs, depth)
    total: complex = 0.0
    for lam in partitions_in_box(len(xs), depth):
        total += value(lam)
    return total


def macdonald_closed(xs: Sequence[complex]) -> complex:
    """Closed product prod_i (1-x_i)^-1 * prod_{i<j} (1-x_i x_j)^-1."""
    xs = _check_in_disk(xs)
    out: complex = 1.0
    for i, x in enumerate(xs):
        out /= 1 - x
        for y in xs[i + 1 :]:
            out /= 1 - x * y
    return out
