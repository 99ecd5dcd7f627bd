"""Exact matrix layer over the quadratic-extension scalar model: group and
Lie-algebra membership, congruence-subgroup predicates, Cayley maps,
sign-valued transfer factors, regular semisimplicity, conjugation
invariants, the block-rescaling bijection, and the norm-one quotient map.

Entries are ``QuadExt``s, but products, determinants and inverses run on
plain integers: each row or column goes over the lcm of its denominators, a
product entry is two integer dot products over the two denominators, and a
determinant or an inverse is Bareiss's fraction-free elimination on
Z[sqrt(u)] pairs, in its Gaussian or its Gauss-Jordan form.  Only the
results become ``QuadExt``s again, so they are the same exact values the
``QuadExt`` loops give.

Congruences mod pi^c are valuation conditions; no truncated p-adics appear
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Sequence

from .numerics import QuadExt, RatLike, qe_valuation

EntryLike = QuadExt | RatLike


class NonRegularError(ValueError):
    """A computation required a regular (semisimple) element."""


def _over_common_denominator(entries: Sequence[QuadExt]) -> tuple[list[int], list[int], int]:
    """Integers ps, qs and d > 0, the lcm of the entries' denominators, with
    entry k = (ps[k] + qs[k] sqrt(u)) / d."""
    d = lcm(*(x.a.denominator for x in entries), *(x.b.denominator for x in entries))
    return (
        [x.a.numerator * (d // x.a.denominator) for x in entries],
        [x.b.numerator * (d // x.b.denominator) for x in entries],
        d,
    )


def _bareiss(
    a: list[list[tuple[int, int]]], u: int, jordan: bool
) -> tuple[int, tuple[int, int]] | None:
    """Fraction-free elimination, in place, of the rows a of pairs (p, q) for
    p + q sqrt(u) in Z[sqrt(u)], on pivot columns 0 to len(a) - 1.

    Step k pivots on the first nonzero entry at or below the diagonal and
    sets a_ij to (a_kk a_ij - a_ik a_kj) / prev for j > k and every row i
    below k, or, with jordan, every row i other than k; prev is the last
    step's pivot.  Returns the sign of the row swaps and the last pivot,
    or None when a pivot column has no nonzero entry left."""
    sign, prev_p, prev_q = 1, 1, 0
    for k in range(len(a)):
        piv = next((r for r in range(k, len(a)) if a[r][k] != (0, 0)), None)
        if piv is None:
            return None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        kp, kq = pivot_row[k]
        norm = prev_p * prev_p - u * prev_q * prev_q
        for row in (a[:k] + a[k + 1:]) if jordan else a[k + 1:]:
            ip, iq = row[k]
            for j in range(k + 1, len(row)):
                xp, xq = row[j]
                yp, yq = pivot_row[j]
                sp = kp * xp + u * kq * xq - ip * yp - u * iq * yq
                sq = kp * xq + kq * xp - ip * yq - iq * yp
                # exact division by prev: times conj(prev), then by the integer N(prev)
                row[j] = ((sp * prev_p - u * sq * prev_q) // norm,
                          (sq * prev_p - sp * prev_q) // norm)
        prev_p, prev_q = kp, kq
    return sign, (prev_p, prev_q)


class EMat:
    """Immutable rectangular matrix over Q(sqrt(u))."""

    __slots__ = ("rows", "u")

    def __init__(self, rows: Sequence[Sequence[EntryLike]], u: int):
        if u >= 0 and isqrt(u) ** 2 == u:
            raise ValueError(f"u={u} is a square, so Q(sqrt(u)) is not a field")
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

    def _same_shape(self, other: "EMat") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "EMat") -> "EMat":
        self._same_shape(other)
        return EMat(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.u
        )

    def __sub__(self, other: "EMat") -> "EMat":
        self._same_shape(other)
        return EMat(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.u
        )

    def __mul__(self, scalar: EntryLike) -> "EMat":
        s = QuadExt.of(scalar, self.u)
        return EMat([[a * s for a in row] for row in self.rows], self.u)

    __rmul__ = __mul__

    def __matmul__(self, other: "EMat") -> "EMat":
        """Entry (i, j) is (sum p p' + u sum q q') + (sum p q' + sum q p') sqrt(u)
        over d_i d'_j, with row i of self and column j of other over their
        common denominators d_i and d'_j."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        u = self.u
        if other.u != u:
            raise ValueError(f"field context mismatch: {u} vs {other.u}")
        cols = [_over_common_denominator(col) for col in zip(*other.rows)]
        out = []
        for row in self.rows:
            ps, qs, d = _over_common_denominator(row)
            out_row = []
            for ps2, qs2, d2 in cols:
                rat = sum(map(mul, ps, ps2)) + u * sum(map(mul, qs, qs2))
                irr = sum(map(mul, ps, qs2)) + sum(map(mul, qs, ps2))
                out_row.append(QuadExt(Fraction(rat, d * d2), Fraction(irr, d * d2), u))
            out.append(out_row)
        return EMat(out, u)

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
        """Bareiss elimination on the rows over their common denominators d_i:
        det = sign a_(n-1)(n-1) / prod d_i."""
        if not self.is_square():
            raise ValueError("determinant of a square matrix")
        u = self.u
        a, scale = [], 1
        for row in self.rows:
            ps, qs, d = _over_common_denominator(row)
            a.append(list(zip(ps, qs)))
            scale *= d
        eliminated = _bareiss(a, u, jordan=False)
        if eliminated is None:
            return QuadExt.of(0, u)
        sign, (p, q) = eliminated
        return QuadExt(Fraction(sign * p, scale), Fraction(sign * q, scale), u)

    def inv(self) -> "EMat":
        """Fraction-free Gauss-Jordan on [P | I], with self = D^(-1) P for the
        rows' common denominators D = diag(d_i): the right half ends as
        pivot P^(-1), so entry (i, j) of the inverse is R_ij d_j / pivot."""
        if not self.is_square():
            raise ValueError("inverse of a square matrix")
        n, u = self.nrows, self.u
        a, scales = [], []
        for i, row in enumerate(self.rows):
            ps, qs, d = _over_common_denominator(row)
            a.append(list(zip(ps, qs)) + [(1 if i == j else 0, 0) for j in range(n)])
            scales.append(d)
        eliminated = _bareiss(a, u, jordan=True)
        if eliminated is None:
            raise ZeroDivisionError("singular matrix")
        _, (pp, pq) = eliminated
        # 1 / pivot = conj(pivot) / N(pivot)
        norm = pp * pp - u * pq * pq
        out = []
        for row in a:
            out_row = []
            for (rp, rq), d in zip(row[n:], scales):
                out_row.append(QuadExt(Fraction((rp * pp - u * rq * pq) * d, norm),
                                       Fraction((rq * pp - rp * pq) * d, norm), u))
            out.append(out_row)
        return EMat(out, u)

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


def in_kprime(g: EMat, c: int, p: int) -> bool:
    """Depth-c mirahoric subgroup: congruence block shape and unit determinant."""
    return in_bmk(g, c, p) and qe_valuation(g.det(), p) == 0


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


def norm_one_units(u: int) -> list[QuadExt]:
    """The norm-one elements z/conj(z) and conj(z)/z for z = a + b sqrt(u)
    with 1 <= a, b <= 3, 1 first; the Cayley parameters xi that the
    cayley-lattice-stability checks draw from.  u is a non-square, so no
    such z has norm a^2 - u b^2 = 0."""
    seen = set()
    out = [QuadExt.of(1, u)]
    seen.add((Fraction(1), Fraction(0)))
    for a in range(1, 4):
        for b in range(1, 4):
            z = QuadExt(Fraction(a), Fraction(b), u)
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
    column and the row Krylov family of the bottom row both span.  At 2 x 2
    this says that both off-diagonal entries are nonzero."""
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
