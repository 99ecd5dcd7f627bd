"""Schur polynomial evaluation and related symmetric-function machinery.

Two independent evaluation routes are kept deliberately: the bialternant
ratio (fast, valid for distinct arguments) and the Jacobi-Trudi
determinant in complete homogeneous polynomials (valid always, used when
arguments nearly collide).  A truncated product-free summation of Schur
values over partitions serves as the series side of the closed product
identity checked by the verification suites.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .numerics import RatLike, fraction_sqrt

#: below this pairwise spread the bialternant denominator is treated as singular
COINCIDENCE_SPREAD = 1e-12


class DivergenceError(ValueError):
    """Raised when a series argument lies outside the open unit disk."""


def is_weakly_decreasing(parts: Sequence[int]) -> bool:
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def _det(rows: list[list[complex]]) -> complex:
    """Determinant by Gaussian elimination with partial pivoting."""
    m = len(rows)
    a = [row[:] for row in rows]
    det: complex = 1.0
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
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
    return det


def complete_homogeneous(max_degree: int, xs: Sequence[complex]) -> list[complex]:
    """[h_0, ..., h_max_degree] evaluated at xs."""
    h: list[complex] = [1.0] + [0.0] * max_degree
    for x in xs:
        for k in range(1, max_degree + 1):
            h[k] += x * h[k - 1]
    return h


def schur_bialternant(parts: Sequence[int], xs: Sequence[complex]) -> complex:
    """det(x_i^(lambda_j + m - j)) / Vandermonde(x).  Arguments must be distinct."""
    m = len(xs)
    if len(parts) != m:
        raise ValueError("weight length must match number of arguments")
    num = _det([[xs[i] ** (parts[j] + m - 1 - j) for j in range(m)] for i in range(m)])
    den: complex = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            den *= xs[i] - xs[j]
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
        prod: complex = 1.0
        for x in xs:
            prod *= x
        return prod ** parts[0]
    shift = parts[-1] if parts[-1] < 0 else 0
    lam = [p - shift for p in parts]
    central: complex = 1.0
    if shift:
        if any(x == 0 for x in xs):
            raise ValueError("negative weights need nonzero arguments")
        prod: complex = 1.0
        for x in xs:
            prod *= x
        central = prod**shift
    spread = min(
        (abs(xs[i] - xs[j]) for i in range(m) for j in range(i + 1, m)),
        default=float("inf"),
    )
    if spread < COINCIDENCE_SPREAD:
        return central * schur_jacobi_trudi(lam, xs)
    return central * schur_bialternant(lam, xs)


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
    m = len(parts)
    e = -sum(lam * (m + 1 - 2 * i) for i, lam in enumerate(parts, start=1))
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
    """All weakly decreasing integer tuples with entries in [lo, hi]."""
    if length == 0:
        yield ()
        return
    def rec(prefix: tuple[int, ...], bound: int, left: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield prefix
            return
        for part in range(bound, lo - 1, -1):
            yield from rec(prefix + (part,), part, left - 1)
    yield from rec((), hi, length)


def _check_in_disk(xs: Iterable[complex]) -> tuple[complex, ...]:
    xs = tuple(xs)
    if any(abs(x) >= 1 for x in xs):
        raise DivergenceError("series requires |x_i| < 1")
    return xs


def macdonald_sum(xs: Sequence[complex], depth: int) -> complex:
    """Truncated sum of s_lambda(xs) over all partitions with lambda_1 <= depth."""
    xs = _check_in_disk(xs)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total: complex = 0.0
    for lam in partitions_in_box(len(xs), depth):
        total += schur(lam, xs)
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
