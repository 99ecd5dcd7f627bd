"""Exact matrix layer over the quadratic-extension scalar model: group and
Lie-algebra membership, congruence-subgroup predicates, Cayley maps,
sign-valued transfer factors, regular semisimplicity, conjugation
invariants, the block-rescaling bijection, and the norm-one quotient map.

Congruences mod pi^c are valuation conditions; no truncated p-adics appear
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .numerics import QuadExt, RatLike, qe_valuation

EntryLike = QuadExt | RatLike


class NonRegularError(ValueError):
    """A computation required a regular (semisimple) element."""


class EMat:
    """Immutable rectangular matrix over Q(sqrt(u))."""

    __slots__ = ("rows", "u")

    def __init__(self, rows: Sequence[Sequence[EntryLike]], u: int):
        coerced = tuple(tuple(QuadExt.of(x, u) for x in row) for row in rows)
        if not coerced or not coerced[0]:
            raise ValueError("matrix must be nonempty")
        width = len(coerced[0])
        if any(len(row) != width for row in coerced):
            raise ValueError("rows must have equal length")
        object.__setattr__(self, "rows", coerced)
        object.__setattr__(self, "u", u)

    def __setattr__(self, *_args):
        raise AttributeError("EMat is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int, u: int) -> "EMat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], u)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, u: int) -> "EMat":
        return cls([[0] * ncols for _ in range(nrows)], u)

    @classmethod
    def diagonal(cls, entries: Sequence[EntryLike], u: int) -> "EMat":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], u)

    # -- shape ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int) -> QuadExt:
        return self.rows[i][j]

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "EMat":
        return EMat([row[c0:c1] for row in self.rows[r0:r1]], self.u)

    # -- arithmetic -------------------------------------------------------

    def _same_field(self, other: "EMat") -> None:
        if self.u != other.u:
            raise ValueError("field context mismatch")

    def __add__(self, other: "EMat") -> "EMat":
        self._same_field(other)
        return EMat(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.u
        )

    def __sub__(self, other: "EMat") -> "EMat":
        self._same_field(other)
        return EMat(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.u
        )

    def __neg__(self) -> "EMat":
        return EMat([[-a for a in row] for row in self.rows], self.u)

    def __mul__(self, scalar: EntryLike) -> "EMat":
        s = QuadExt.of(scalar, self.u)
        return EMat([[a * s for a in row] for row in self.rows], self.u)

    __rmul__ = __mul__

    def __matmul__(self, other: "EMat") -> "EMat":
        self._same_field(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        zero = QuadExt.of(0, self.u)
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return EMat(out, self.u)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EMat):
            return NotImplemented
        return self.u == other.u and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows, self.u))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(a) for a in row) for row in self.rows)
        return f"EMat[{body}]"

    # -- involutions --------------------------------------------------------

    def conj(self) -> "EMat":
        return EMat([[a.conj() for a in row] for row in self.rows], self.u)

    def transpose(self) -> "EMat":
        return EMat(list(zip(*self.rows)), self.u)

    def conj_t(self) -> "EMat":
        return self.conj().transpose()

    # -- exact linear algebra -----------------------------------------------

    def trace(self) -> QuadExt:
        if not self.is_square():
            raise ValueError("trace of a square matrix")
        acc = QuadExt.of(0, self.u)
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def det(self) -> QuadExt:
        if not self.is_square():
            raise ValueError("determinant of a square matrix")
        n = self.nrows
        a = [list(row) for row in self.rows]
        det = QuadExt.of(1, self.u)
        for col in range(n):
            piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if piv is None:
                return QuadExt.of(0, self.u)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det = det * a[col][col]
            inv = QuadExt.of(1, self.u) / a[col][col]
            for r in range(col + 1, n):
                if a[r][col].is_zero():
                    continue
                f = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] = a[r][c] - f * a[col][c]
        return det

    def inv(self) -> "EMat":
        if not self.is_square():
            raise ValueError("inverse of a square matrix")
        n = self.nrows
        a = [list(row) + [QuadExt.of(1 if i == j else 0, self.u) for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            inv = QuadExt.of(1, self.u) / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r == col or a[r][col].is_zero():
                    continue
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return EMat([row[n:] for row in a], self.u)

    def charpoly(self) -> tuple[QuadExt, ...]:
        """Coefficients (1, c_1, ..., c_n) of t^n + c_1 t^(n-1) + ... + c_n,
        by the trace recursion (exact: only integer divisions occur)."""
        if not self.is_square():
            raise ValueError("characteristic polynomial of a square matrix")
        n = self.nrows
        coeffs = [QuadExt.of(1, self.u)]
        m = EMat.identity(n, self.u)
        for k in range(1, n + 1):
            m = self @ m
            ck = -(m.trace()) / k
            coeffs.append(ck)
            m = m + EMat.diagonal([ck] * n, self.u)
        return tuple(coeffs)

    # -- integrality ----------------------------------------------------------

    def is_integral(self, p: int) -> bool:
        return all(qe_valuation(a, p) >= 0 for row in self.rows for a in row)


def herm_form_j(n: int, c: int, p: int, u: int) -> EMat:
    """The diagonal hermitian matrix with n ones and a last slot of depth c."""
    return EMat.diagonal([1] * n + [Fraction(p**c)], u)


# ---------------------------------------------------------------------------
# membership predicates


def in_lie_u(x: EMat, j: EMat) -> bool:
    """J x + conj(x)^t J = 0."""
    return (j @ x + x.conj_t() @ j) == EMat.zeros(x.nrows, x.ncols, x.u)


def in_group_u(g: EMat, j: EMat) -> bool:
    """conj(g)^t J g = J."""
    return (g.conj_t() @ j @ g) == j


def in_s_lie(x: EMat) -> bool:
    """x + conj(x) = 0 (entrywise Galois conjugate)."""
    return (x + x.conj()) == EMat.zeros(x.nrows, x.ncols, x.u)


def in_s_variety(s: EMat) -> bool:
    """s * conj(s) = 1."""
    return (s @ s.conj()) == EMat.identity(s.nrows, s.u)


def in_bmk_tilde(x: EMat, c: int, p: int) -> bool:
    """Integral entries with the top-right column block divisible by pi^c."""
    if not x.is_integral(p):
        return False
    n = x.nrows - 1
    return all(qe_valuation(x.entry(i, n), p) >= c for i in range(n))


def in_bmk(x: EMat, c: int, p: int) -> bool:
    """As the tilde version, with the corner entry congruent to 1 mod pi^c."""
    if not in_bmk_tilde(x, c, p):
        return False
    n = x.nrows - 1
    return qe_valuation(x.entry(n, n) - 1, p) >= c


def _det_is_unit(g: EMat, p: int) -> bool:
    d = g.det()
    return (not d.is_zero()) and qe_valuation(d, p) == 0


def in_kprime(g: EMat, c: int, p: int) -> bool:
    """Depth-c mirahoric subgroup: congruence block shape and unit determinant."""
    return in_bmk(g, c, p) and _det_is_unit(g, p)


def in_k_s(s: EMat, c: int, p: int) -> bool:
    """Integral points of the norm-one variety inside the congruence block."""
    return in_bmk(s, c, p) and in_s_variety(s)


def in_k_tilde_lie(x: EMat, c: int, p: int, j: EMat) -> bool:
    """Lie-algebra congruence lattice: anti-hermitian for j, integral, with
    the depth-c divisibility on the top-right block."""
    return in_lie_u(x, j) and in_bmk_tilde(x, c, p)


# ---------------------------------------------------------------------------
# Cayley maps


def cayley(x: EMat, xi: QuadExt) -> EMat:
    """xi (1 + x)(1 - x)^(-1); requires det(1 - x) != 0 and a norm-one xi.
    A singular 1 - x raises ZeroDivisionError from the inversion."""
    if QuadExt.of(xi, x.u).norm() != 1:
        raise ValueError("xi must have norm 1")
    one = EMat.identity(x.nrows, x.u)
    return ((one + x) @ (one - x).inv()) * xi


def cayley_inv(g: EMat, xi: QuadExt) -> EMat:
    """(g - xi)(g + xi)^(-1), inverse to `cayley` where both are defined.
    A singular g + xi raises ZeroDivisionError from the inversion."""
    if QuadExt.of(xi, g.u).norm() != 1:
        raise ValueError("xi must have norm 1")
    one = EMat.identity(g.nrows, g.u)
    return (g - one * xi) @ (g + one * xi).inv()


def norm_one_units(u: int, height: int = 3):
    """Small-height norm-one elements z/conj(z), 1 first; the Cayley
    parameters xi that the cayley-lattice-stability checks draw from."""
    seen = set()
    out = [QuadExt.of(1, u)]
    seen.add((Fraction(1), Fraction(0)))
    for a in range(1, height + 1):
        for b in range(1, height + 1):
            z = QuadExt(Fraction(a), Fraction(b), u)
            if z.norm() == 0:
                continue
            for cand in (z / z.conj(), z.conj() / z):
                key = (cand.a, cand.b)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
    return out


# ---------------------------------------------------------------------------
# transfer factor, regularity, matching


def _krylov(a: EMat, v: EMat, k: int) -> EMat:
    """The matrix with columns v, a v, ..., a^(k-1) v for a column v.  A row
    stack w, w a, ... is its transpose _krylov(a^t, w^t, k), with the same
    determinant."""
    cols = [v]
    for _ in range(k - 1):
        cols.append(a @ cols[-1])
    return EMat([[col.rows[i][0] for col in cols] for i in range(v.nrows)], a.u)


def transfer_factor(y: EMat, p: int) -> int:
    """Sign (-1)^v(det of the last-row Krylov stack e*, e* y, ...); raises on
    non-regular input where the determinant vanishes.  The same formula
    serves the Lie and group variants."""
    m = y.nrows
    d = _krylov(y.transpose(), EMat.identity(m, y.u).block(0, m, m - 1, m), m).det()
    if d.is_zero():
        raise NonRegularError("Krylov stack is singular; element not regular")
    v = qe_valuation(d, p)
    return -1 if int(v) % 2 else 1


def _blocks(x: EMat) -> tuple[EMat, EMat, EMat, QuadExt]:
    n = x.nrows - 1
    if n < 1:
        raise ValueError("need size >= 2 for block decomposition")
    return (
        x.block(0, n, 0, n),
        x.block(0, n, n, n + 1),
        x.block(n, n + 1, 0, n),
        x.entry(n, n),
    )


def is_regular_semisimple(x: EMat) -> bool:
    """Cyclic-vector criterion: the column Krylov family of the top-right
    column and the row Krylov family of the bottom row both span."""
    a, b, z, _ = _blocks(x)
    n = a.nrows
    if _krylov(a, b, n).det().is_zero():
        return False
    return not _krylov(a.transpose(), z.transpose(), n).det().is_zero()


def matching_invariants(
    x: EMat,
) -> tuple[tuple[QuadExt, ...], tuple[QuadExt, ...], QuadExt]:
    """Complete conjugation-invariant tuple of a block element: the
    characteristic polynomial, the moments z a^i b for i < n, and the corner
    entry.  The corner entry is included because the characteristic
    polynomial and moments alone do not separate orbits already in the
    2 x 2 case."""
    a, b, z, w = _blocks(x)
    return x.charpoly(), (z @ _krylov(a, b, a.nrows)).rows[0], w


def iota_c(x: EMat, c: int, p: int) -> EMat:
    """Rescale the top-right column block by pi^(-c); transports the depth-c
    congruence lattice onto the depth-0 one and commutes with conjugation by
    block-diagonal elements."""
    n = x.nrows - 1
    scale = QuadExt.of(Fraction(1, p**c), x.u)
    rows = [list(row) for row in x.rows]
    for i in range(n):
        rows[i][n] = rows[i][n] * scale
    return EMat(rows, x.u)


def r_map(g: EMat) -> EMat:
    """g * conj(g)^(-1); lands in the norm-one variety."""
    return g @ g.conj().inv()


def det_stack_identity_check(x: EMat) -> bool:
    """Exact comparison of det((x^i e)_{0<=i<=m}) with (-1)^m det((a^i b)_{0<=i<m})
    for the block decomposition with corner column e."""
    m = x.nrows - 1
    e = EMat.identity(m + 1, x.u).block(0, m + 1, m, m + 1)
    lhs = _krylov(x, e, m + 1).det()
    a, b, _, _ = _blocks(x)
    rhs = _krylov(a, b, m).det()
    if m % 2:
        rhs = -rhs
    return lhs == rhs
