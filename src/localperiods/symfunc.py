"""Schur polynomial evaluation and related symmetric-function machinery.

Two independent evaluation routes are kept deliberately: the bialternant
ratio (fast, valid for distinct arguments) and the Jacobi-Trudi
determinant in complete homogeneous polynomials (valid always, used when
arguments nearly collide).  A truncated product-free summation of Schur
values over partitions serves as the series side of the closed product
identity checked by the verification suites.

Torus sums and the Macdonald series evaluate many weights at the same
distinct arguments, in one order: the support of a sum (_support), the
weakly decreasing heads of a given number of parts padded with zeros, in
descending lexicographic order, one block per first part.  Its integer
modular exponents and sizes (_support_exponents) and the length of its
first block (_shell_size) are kept next to it, so one module owns the
order that the Schur values and the weight vectors of a sum share.
_schur_support walks it, a block at a time (_schur_blocks): at 1 to 3
distinct arguments it computes the powers, product and Vandermonde of
the arguments once per sum and evaluates schur's determinant
expressions on them inline, so its values are schur's bit for bit; at
nearly coincident arguments, overflowing powers and 4 or more arguments
it hands every weight to schur itself.  schur's determinants go through
_det: at 2 and 3 rows a cofactor expansion along the last column
(_last_column), with the 2x2 minors of the first two columns at 3 rows
(_minors), and at 1 and at 4 or more rows a pivoted elimination loop,
which raises OverflowError where a pivot leaves the float range.
_modular_weight is delta_weight as a function of the modular exponent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations_with_replacement
from math import comb
from operator import add, ge, mul
from typing import Iterable, Iterator, Sequence

from .numerics import RatLike, fraction_sqrt

#: below this pairwise spread the bialternant denominator is treated as singular
COINCIDENCE_SPREAD = 1e-12


class DivergenceError(ValueError):
    """Raised when a series argument lies outside the open unit disk."""


def is_weakly_decreasing(parts: Sequence[int]) -> bool:
    return all(map(ge, parts, parts[1:]))


def _minors(col0: Sequence[complex], col1: Sequence[complex]) -> tuple[complex, complex, complex]:
    """The 2x2 minors of two columns of 3 rows; the i-th leaves out row i."""
    a0, a1, a2 = col0
    b0, b1, b2 = col1
    return a1 * b2 - b1 * a2, a0 * b2 - b0 * a2, a0 * b1 - b0 * a1


def _last_column(minors: Sequence[complex], col: Sequence[complex]) -> complex:
    """The determinant of a matrix expanded along its last column col.

    At 3 rows minors are the _minors of the first two columns, and the
    value is c0 m0 - c1 m1 + c2 m2.  At 2 rows they are the first column
    itself, and the value is ad - bc.
    """
    if len(col) == 2:
        (a, c), (b, d) = minors, col
        return a * d - b * c
    m0, m1, m2 = minors
    c0, c1, c2 = col
    return c0 * m0 - c1 * m1 + c2 * m2


def _det(rows: Sequence[Sequence[complex]]) -> complex:
    """Determinant of a matrix of 1 or more rows: the cofactor forms of
    _last_column at 2 and 3 rows, Gaussian elimination with partial
    pivoting at 1 and at 4 or more.

    _schur_blocks evaluates the same 2- and 3-row expressions, so its
    values are schur's bit for bit.  The loop keeps to the float
    range: a pivot search whose abs() overflows raises OverflowError, and
    so does a pivot whose reciprocal comes out 0.
    """
    m = len(rows)
    if m in (2, 3):
        *firsts, last = zip(*rows)
        return _last_column(firsts[0] if m == 2 else _minors(*firsts), last)
    a = [list(row) for row in rows]
    det: complex = 1.0
    for col in range(m - 1):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1.0 / a[col][col]
        if inv == 0:
            raise OverflowError("pivot reciprocal underflows to 0")
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
            if parts[0] > 0:
                return 0.0
            raise ValueError("negative weights need nonzero arguments")
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


def _support(head: int, m: int, depth: int) -> Iterator[list[tuple[int, ...]]]:
    """The support of a torus sum in sum order, one block per first part:
    the weakly decreasing heads of `head` parts in [0, depth], padded with
    zeros to m parts, in descending lexicographic order, so a block holds
    the C(a + head - 1, head - 1) weights of first part a = depth, ..., 0.
    At head 0 the one block is the zero weight."""
    zeros = (0,) * (m - head)
    if not head:
        yield [zeros]
        return
    for a in range(depth, -1, -1):
        yield [(a, *rest, *zeros) for rest in weakly_decreasing_tuples(head - 1, 0, a)]


def _shell_size(head: int, depth: int) -> int:
    """The number of weights with first part depth on the support of
    `head` parts in [0, depth]: the first block of _support, and none at
    head 0, whose one weight is zero."""
    return comb(depth + head - 1, head - 1) if head else 0


@cache
def _support_exponents(head: int, depth: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The modular exponent at rank `head` and the size |f| of each weight
    of _support(head, head, depth), in its order.  The block of first part
    a is a followed by each weight of head - 1 parts in [0, a]: the last
    C(a + head - 1, head - 1) weights of head - 1 parts in [0, depth],
    whose rank-(head - 1) coefficients are one less than their rank-head
    ones.  The tuples are shared by every caller, so they are immutable."""
    if not head:
        return (0,), (0,)
    exponents, sizes = _support_exponents(head - 1, depth)
    tails = tuple(map(add, exponents, sizes))  # the rank-head exponent of (0, *tail)
    out_e: list[int] = []
    out_t: list[int] = []
    for a in range(depth, -1, -1):
        start = len(sizes) - comb(a + head - 1, head - 1)
        out_e += map(((1 - head) * a).__add__, tails[start:])
        out_t += map(a.__add__, sizes[start:])
    return tuple(out_e), tuple(out_t)


def _schur_support(xs: Sequence[complex], head: int, depth: int) -> Iterator[complex]:
    """schur(f, xs) for f along _support(head, len(xs), depth), in order,
    computed a block at a time (_schur_blocks)."""
    return chain.from_iterable(_schur_blocks(tuple(xs), head, depth))


def _schur_blocks(xs: tuple[complex, ...], head: int, depth: int) -> Iterator[list[complex]]:
    """The blocks of _schur_support: schur's values on each block of
    _support, bit for bit.

    At 1 to 3 distinct arguments and head 1 or more, the powers x_i^k for
    k < depth + len(xs), the Vandermonde and the product of the arguments
    are computed once here, with the operations schur performs per call,
    and each value evaluates the cofactor forms of _det (_minors and
    _last_column) on the columns of that power table inline, with schur's
    central factor 1.0, which can change the sign of a zero.  At 3
    arguments the minors of the first two columns are taken once per pair
    of leading parts.  A constant weight is a power of the product and
    reads no column.  Nearly coincident arguments, overflowing powers,
    head 0 and ranks 0 and 4 and up take schur itself, weight by weight;
    at 4 and up schur's determinant is _det's elimination loop, which
    raises OverflowError on a pivot outside the float range.  The
    Vandermonde cannot vanish past _coincident: each of its at most 3
    factors has modulus at least COINCIDENCE_SPREAD = 1e-12, so |den| >=
    1e-36, and a NaN argument makes it NaN, not 0.
    """
    m = len(xs)
    try:
        direct = head > 0 and m <= 3 and not _coincident(xs)
        if direct:
            den = _vandermonde(xs)
            powers = [[x**k for k in range(depth + m)] for x in xs]
    except OverflowError:
        direct = False
    if not direct:
        for block in _support(head, m, depth):
            yield [schur(f, xs) for f in block]
        return
    prod = _product(xs)
    has_zero = any(x == 0 for x in xs)
    # A weight (a, b) has the power columns x^(a+1) and x^b, and a weight
    # (a, b, c) the columns x^(a+2), x^(b+1) and x^c.  The last part falls
    # from the one before it to 0 when it is in the head, and is 0 otherwise.
    columns = list(zip(*powers))
    descending = columns[::-1]  # descending[-1 - c] is columns[c]
    lasts = [descending[-1 - b:] if head == m else columns[:1] for b in range(depth + 1)]
    for a in range(depth, -1, -1):
        if m == 2:
            p, q = columns[a + 1]
            block = [1.0 * ((p * d - y * q) / den) for y, d in lasts[a]]
        elif m == 3:
            a0, a1, a2 = columns[a + 2]
            block = [
                1.0 * ((c0 * m0 - c1 * m1 + c2 * m2) / den)
                for b in (range(a, -1, -1) if head > 1 else (0,))
                for b0, b1, b2 in [columns[b + 1]]
                for m0, m1, m2 in [(a1 * b2 - b1 * a2, a0 * b2 - b0 * a2, a0 * b1 - b0 * a1)]
                for c0, c1, c2 in lasts[b]
            ]
        else:
            block = [1.0]
        if a == 0 or head == m:  # the first weight is constant: (a, ..., a)
            block[0] = 1.0 if a == 0 else 0.0 if has_zero else prod**a
        yield block


def _modular_coefficients(m: int) -> range:
    """The coefficients c_i = 2i - m - 1 (i = 1..m) with delta(diag(pi^f))
    = q^e for e = sum_i c_i f_i."""
    return range(1 - m, m, 2)


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
    if half and e % 2:
        root = fraction_sqrt(q)
        if root is None:
            raise ValueError(f"q^(1/2) not exact for q={q} with odd exponent {e}")
        return root**e
    return q ** (e // 2 if half else e)


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

    The values are schur's bit for bit (_schur_blocks), added one by one in
    the order of weakly_decreasing_tuples.
    """
    xs = _check_in_disk(xs)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total: complex = 0.0
    for value in _schur_support(xs, len(xs), depth):
        total += value
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
