"""Schur polynomial evaluation and related symmetric-function machinery.

Two independent evaluation routes are kept deliberately: the bialternant
ratio (fast, valid for distinct arguments) and the Jacobi-Trudi
determinant in complete homogeneous polynomials (valid always, used when
arguments nearly collide).  A truncated product-free summation of Schur
values over partitions serves as the series side of the closed product
identity checked by the verification suites.

Torus sums and the Macdonald series evaluate many weights at the same
distinct arguments, so _schur_table computes the powers, product and
Vandermonde of the arguments once per sum and returns schur's
bialternant values bit for bit; at nearly coincident arguments, and at
4 or more arguments, it hands every weight to schur itself.  schur's
determinants take one pivoted elimination loop, _det.  At ranks 2 and 3
the table runs that loop's operations in column stages and keeps the
stages of the current first part (the pivot of its first column, and at
rank 3 the last pivot and the swept last column per second and per last
part), so that a weight in a run of one first part pays only the last
step of the elimination.  _modular_weight is delta_weight as a function of
the modular exponent, which the torus sums tabulate in a _Memo.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import ge, mul
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

    A pivot search whose abs() overflows is redone with _modulus, which
    ranks such an entry as infinite; only matrices on which abs() raises
    take that route.  A finite pivot whose reciprocal comes out 0 takes
    its multipliers from _scaled_quotient.  _schur_table runs this loop's
    operations at sizes 2 and 3 in the column stages below.
    """
    m = len(rows)
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
        huge = inv == 0 and cmath.isfinite(a[col][col])
        for r in range(col + 1, m):
            f = _scaled_quotient(a[r][col], a[col][col]) if huge else a[r][col] * inv
            if f == 0:
                continue
            for c in range(col, m):
                a[r][c] -= f * a[col][c]
    # The last column has a single candidate pivot: no abs() is taken, so an
    # entry whose modulus overflows does not raise.
    if a[m - 1][m - 1] == 0:
        return 0.0
    return det * a[m - 1][m - 1]


def _scaled_quotient(entry: complex, pivot: complex) -> complex:
    """entry / pivot as _det's sweep takes it, entry * (1.0 / pivot), for a
    finite pivot whose reciprocal comes out 0: CPython's complex division
    overflows its scaled denominator near the float limit, so that
    1.0 / (1.3e308 + 1.3e308j) gives -0j.  Both are first scaled by the
    power of two that brings the larger part of the pivot into [0.5, 1)."""
    k = -math.frexp(max(abs(pivot.real), abs(pivot.imag)))[1]

    def scaled(z: complex) -> complex:
        return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))

    return scaled(entry) * (1.0 / scaled(pivot))


# _det's loop on 2 and 3 rows, split by column with the same operations in
# the same order.  On 3 rows _first_pivot reads column 0 and _sweep
# eliminates it from a later column; on the last 2 rows, of 2 or of 3,
# _last_pivot reads the next column and _last_step the last one.  Entries
# left of the pivot column are not updated since the loop never reads
# them again.

#: _first_pivot's result: the row order after its swap, the running
#: determinant and the two multipliers of the sweep
_First = tuple[tuple[int, int, int], complex, complex, complex]
#: _last_pivot's result: the running determinant, whether the two rows
#: swap, and the last multiplier
_Last = tuple[complex, bool, complex]


def _first_pivot(a00: complex, a10: complex, a20: complex) -> _First | None:
    """The first pivot of 3 rows from column 0 alone, or None where the
    determinant is 0."""
    det: complex = 1.0
    order = 0, 1, 2
    try:
        m0, m1, m2 = abs(a00), abs(a10), abs(a20)
    except OverflowError:
        m0, m1, m2 = _modulus(a00), _modulus(a10), _modulus(a20)
    if m1 > m0:  # max() keeps the first maximum
        if m2 > m1:
            order, a00, a20 = (2, 1, 0), a20, a00
        else:
            order, a00, a10 = (1, 0, 2), a10, a00
        det = -det
    elif m2 > m0:
        order, a00, a20 = (2, 1, 0), a20, a00
        det = -det
    if a00 == 0:
        return None
    det *= a00
    inv = 1.0 / a00
    if inv == 0 and cmath.isfinite(a00):
        return order, det, _scaled_quotient(a10, a00), _scaled_quotient(a20, a00)
    return order, det, a10 * inv, a20 * inv


def _sweep(first: _First, column: Sequence[complex]) -> tuple[complex, complex]:
    """The two lower entries of a later column after the first sweep."""
    (i, j, k), _, f1, f2 = first
    top, a1, a2 = column[i], column[j], column[k]
    if f1 != 0:
        a1 -= f1 * top
    if f2 != 0:
        a2 -= f2 * top
    return a1, a2


def _last_pivot(det: complex, column: tuple[complex, complex]) -> _Last | None:
    """The pivot of the last 2 rows from their next column and the running
    determinant det, or None where the determinant is 0."""
    a11, a21 = column
    try:
        swap = abs(a21) > abs(a11)
    except OverflowError:
        swap = _modulus(a21) > _modulus(a11)
    if swap:
        a11, a21 = a21, a11
        det = -det
    if a11 == 0:
        return None
    det *= a11
    inv = 1.0 / a11
    if inv == 0 and cmath.isfinite(a11):
        return det, swap, _scaled_quotient(a21, a11)
    return det, swap, a21 * inv


def _last_step(last: _Last, column: tuple[complex, complex]) -> complex:
    """The determinant from the last pivot and the last column."""
    det, swap, f = last
    a12, a22 = column
    if swap:
        a12, a22 = a22, a12
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

    At 1 to 3 distinct arguments the powers x_i^k for k < max_part +
    len(xs), the Vandermonde and the product of the arguments are computed
    once here, with the operations schur performs per call, so every value
    is bit-identical to schur's bialternant.  At ranks 2 and 3 the returned
    function runs _det's column stages itself and keeps the pivots of the
    current first part for the weights that follow with the same first
    part; the values do not depend on the order of the calls.  Nearly
    coincident arguments, a vanishing Vandermonde, overflowing powers,
    weights with a part outside [0, max_part] and ranks 4 and up go to
    schur itself.  The weight must be weakly decreasing; schur's check of
    that is not repeated here.
    """
    xs = tuple(xs)
    m = len(xs)

    def per_call(parts: Sequence[int]) -> complex:
        return schur(parts, xs)

    if not 1 <= m <= 3:
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

    def value(parts: Sequence[int]) -> complex:
        """Constant weights, and those that go to schur."""
        if len(parts) != m or parts[-1] < 0 or parts[0] > max_part:
            return per_call(parts)
        if parts[0] == 0:
            return 1.0
        return 0.0 if has_zero else prod ** parts[0]

    if m == 1:
        return value
    # A weight (a, b) has the power columns x^(a+1) and x^b, and a weight
    # (a, b, c) the columns x^(a+2), x^(b+1) and x^c.  So the pivot of the
    # first column depends on a alone, and at rank 3 the last pivot on
    # (a, b) and the swept last column on (a, c).  The table holds the
    # stages of one first part at a time, the rank-3 pairs keyed by b and
    # by c: the sums take their weights in runs of one first part, and
    # holding every pair would take memory quadratic in max_part.
    columns = list(zip(*powers))
    held = -1
    pivot: _Last | None = None
    first: _First | None = None
    lasts: dict[int, _Last | None] = {}
    sweeps: dict[int, tuple[complex, complex]] = {}

    # schur's central factor 1.0 stays below: it can change the sign of a zero
    def value2(parts: Sequence[int]) -> complex:
        nonlocal held, pivot
        if len(parts) != 2 or parts[-1] < 0 or parts[0] > max_part or parts[0] == parts[-1]:
            return value(parts)
        a, b = parts
        if a != held:
            held, pivot = a, _last_pivot(1.0, columns[a + 1])
        if pivot is None:
            return 1.0 * (0.0 / den)
        return 1.0 * (_last_step(pivot, columns[b]) / den)

    def value3(parts: Sequence[int]) -> complex:
        nonlocal held, first
        if len(parts) != 3 or parts[-1] < 0 or parts[0] > max_part or parts[0] == parts[-1]:
            return value(parts)
        a, b, c = parts
        if a != held:
            held, first = a, _first_pivot(*columns[a + 2])
            lasts.clear()
            sweeps.clear()
        if first is None:
            return 1.0 * (0.0 / den)
        try:
            swept = sweeps[c]
        except KeyError:
            swept = sweeps[c] = _sweep(first, columns[c])
        try:
            last = lasts[b]
        except KeyError:
            last = lasts[b] = _last_pivot(first[1], _sweep(first, columns[b + 1]))
        return 1.0 * ((0.0 if last is None else _last_step(last, swept)) / den)

    return value2 if m == 2 else value3


def _modular_coefficients(m: int) -> range:
    """The coefficients c_i = 2i - m - 1 (i = 1..m) with delta(diag(pi^f))
    = q^e for e = sum_i c_i f_i."""
    return range(1 - m, m, 2)


class _Memo(dict[int, float]):
    """A function of one integer, such as a modular weight of its
    exponent, read by subscript and computed once per argument."""

    def __init__(self, fn: Callable[[int], float]) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key: int) -> float:
        value = self[key] = self.fn(key)
        return value


def delta_weight(parts: Sequence[int], q: RatLike, half: bool = False) -> Fraction:
    """Modular-character weight prod_i q^(-lambda_i * (m + 1 - 2i)) of the
    diagonal torus point with exponent tuple `parts`, exactly.

    With ``half`` the square root is taken; it is exact whenever the total
    exponent is even or q is a perfect square (the only cases in scope,
    since the quadratic-extension residue size is a square).
    """
    return _modular_weight(sum(map(mul, parts, _modular_coefficients(len(parts)))), q, half)


def _modular_weight(e: int, q: RatLike, half: bool = False) -> Fraction:
    """delta_weight of a weight whose modular exponent is e: q^e, or with
    ``half`` q^(e/2)."""
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    if not half:
        return q**e
    if e % 2 == 0:
        return q ** (e // 2)
    root = fraction_sqrt(q)
    if root is None:
        raise ValueError(f"q^(1/2) not exact for q={q} with odd exponent {e}")
    return root**e


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
    bit for bit, added in the order of weakly_decreasing_tuples.
    """
    xs = _check_in_disk(xs)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    value = _schur_table(xs, depth)
    total: complex = 0.0
    for lam in weakly_decreasing_tuples(len(xs), 0, depth):
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
