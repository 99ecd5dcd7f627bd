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
bialternant values bit for bit on the weights of its contract, stated in
its docstring; at nearly coincident arguments, and at 4 or more
arguments, it hands every weight to schur itself.  schur's
determinants go through _det: at 2 and 3 rows a cofactor expansion along
the last column, with the 2x2 minors of the first two columns at 3 rows,
and at 1 and at 4 or more rows a pivoted elimination loop, which raises
OverflowError where a pivot leaves the float range.  The table evaluates
the same cofactor expressions on its power columns, a run at a time: it
takes a run of weights that differ in one part only, given by its top
(_run_weights, _run_tops), and returns their values in one list.  The
torus sums and macdonald_sum walk their weights in these runs.  Along a
run of fixed leading parts (a, b) only the last column changes, so the
rank-3 run takes the minors once and each weight pays the last column's
three products.  _modular_weight is delta_weight as a function of the
modular exponent, which the torus sums tabulate in a _Memo.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, repeat
from operator import ge, mul
from typing import Callable, Iterable, Iterator, Sequence

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

    _schur_table evaluates the same 2- and 3-row expressions, so the
    table's values are schur's bit for bit.  The loop keeps to the float
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


def _run_weights(top: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """The weights of the run of top at length m, in the order of the run.

    A top is a weakly decreasing tuple of at most m parts, the head of the
    run's first weight.  The run lowers its last part to 0 and pads with
    zeros: top[:-1] + (c,) + (0,) * (m - len(top)) for c = top[-1], ...,
    0.  The run of the empty top is the one zero weight."""
    zeros = (0,) * (m - len(top))
    if not top:
        return [zeros]
    prefix = top[:-1]
    return [prefix + (c,) + zeros for c in range(top[-1], -1, -1)]


def _run_tops(head: int, depth: int) -> Iterator[tuple[int, ...]]:
    """The tops of the runs that cover the weakly decreasing heads of
    `head` parts in [0, depth]: each prefix of head - 1 parts, in the
    order of weakly_decreasing_tuples, followed by its largest last part,
    the prefix's last part or depth.  Walked run by run, the heads come in
    descending lexicographic order.  At head 0 the one top is empty."""
    if head == 0:
        return iter([()])
    return (p + (p[-1] if p else depth,) for p in weakly_decreasing_tuples(head - 1, 0, depth))


#: the values of a run, from its top
_Run = Callable[[tuple[int, ...]], list[complex]]


def _schur_table(xs: Sequence[complex], max_part: int) -> _Run:
    """schur(parts, xs) as a function of a run of weights: the run of a
    top is the list of values on _run_weights(top, len(xs)).

    The weight contract: every weight of a run has len(xs) weakly
    decreasing parts in [0, max_part].  _torus_sum and macdonald_sum pass
    no other runs, and the table checks none of this.

    At 1 to 3 distinct arguments the powers x_i^k for k < max_part +
    len(xs), the Vandermonde and the product of the arguments are computed
    once here, with the operations schur performs per call.  At ranks 2
    and 3 the runs evaluate the cofactor forms of _det on the columns of
    that power table, so every value is bit-identical to schur's
    bialternant.  A constant weight is a power of the product and reads no
    column.  Nearly coincident arguments, overflowing powers and ranks 0
    and 4 and up make the table schur itself, weight by weight; at 4 and
    up schur's determinant is _det's elimination loop, which raises
    OverflowError on a pivot outside the float range.  The
    Vandermonde cannot vanish past _coincident: each of its at most 3
    factors has modulus at least COINCIDENCE_SPREAD = 1e-12, so |den| >=
    1e-36, and a NaN argument makes it NaN, not 0.
    """
    xs = tuple(xs)
    m = len(xs)

    def runs_of(value: Callable[[Sequence[int]], complex]) -> _Run:
        def run(top: tuple[int, ...]) -> list[complex]:
            return [value(parts) for parts in _run_weights(top, m)]

        return run

    def per_call(parts: Sequence[int]) -> complex:
        return schur(parts, xs)

    schur_itself = runs_of(per_call)
    if not 1 <= m <= 3:
        return schur_itself
    try:
        if _coincident(xs):
            return schur_itself
        den = _vandermonde(xs)
        powers = [[x**k for k in range(max_part + m)] for x in xs]
    except OverflowError:
        return schur_itself
    prod = _product(xs)
    has_zero = any(x == 0 for x in xs)

    def value(parts: Sequence[int]) -> complex:
        """Constant weights."""
        if parts[0] == 0:
            return 1.0
        return 0.0 if has_zero else prod ** parts[0]

    if m == 1:
        return runs_of(value)
    # A weight (a, b) has the power columns x^(a+1) and x^b, and a weight
    # (a, b, c) the columns x^(a+2), x^(b+1) and x^c.
    columns = list(zip(*powers))
    last = len(columns) - 1
    descending = columns[::-1]  # descending[last - c] is columns[c]

    # A run varies one power column, and schur's central factor 1.0 stays
    # below: it can change the sign of a zero.  When its top is a whole
    # weight that is the last column: at rank 2 the first column stays
    # fixed, and at rank 3 the minors of the first two.  At rank 3 a top
    # (a, b) gives the weights (a, c, 0), whose last column is x^0 and whose
    # minors move with c.  A top (a,) gives (c, 0) or (c, 0, 0) for c = a,
    # ..., 1, whose first column moves, and then the zero weight, whose
    # value is the 1.0 that schur returns; so do () and, at rank 3, (0, 0).
    # The expressions are those of _minors and _last_column.
    def run2(parts: tuple[int, ...]) -> list[complex]:
        if len(parts) < 2:
            y, d = columns[0]
            firsts = descending[last - sum(parts) - 1:last - 1]
            return [1.0 * ((p * d - y * q) / den) for p, q in firsts] + [1.0]
        a, b = parts
        p, q = columns[a + 1]
        values = [1.0 * ((p * d - y * q) / den) for y, d in descending[last - b:]]
        if a == b:
            values[0] = value(parts)
        return values

    def run3(parts: tuple[int, ...]) -> list[complex]:
        if len(parts) == 3:
            a, b, c = parts
            m0, m1, m2 = _minors(columns[a + 2], columns[b + 1])
            values = [
                1.0 * ((c0 * m0 - c1 * m1 + c2 * m2) / den) for c0, c1, c2 in descending[last - c:]
            ]
            if a == c:
                values[0] = value(parts)
            return values
        c0, c1, c2 = columns[0]
        if len(parts) == 2 and parts[0]:
            a, b = parts
            moving = map(_minors, repeat(columns[a + 2]), descending[last - b - 1:last])
            zero = []
        else:
            moving = map(_minors, descending[last - sum(parts) - 2:last - 2], repeat(columns[1]))
            zero = [1.0]
        return [1.0 * ((c0 * m0 - c1 * m1 + c2 * m2) / den) for m0, m1, m2 in moving] + zero

    return run2 if m == 2 else run3


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

    The values come from one _schur_table per call, run by run, so they
    are schur's bit for bit, added in the order of
    weakly_decreasing_tuples.
    """
    xs = _check_in_disk(xs)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    run = _schur_table(xs, depth)
    total: complex = 0.0
    for top in _run_tops(len(xs), depth):
        for value in run(top):
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
