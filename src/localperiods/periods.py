"""Truncated-sum evaluation of the three local integrals (the twisted
base-field period, the inner-product norm, and the pairing integral) with
tail control, together with their closed forms and comparison checks.

All three share one summation convention: an integral over the unipotent
quotient of GL_m of a right-lattice-invariant function equals the lattice
volume times the sum over diagonal exponent tuples of the integrand
weighted by the inverse modular character.  _torus_sum alone applies it:
each truncated period passes only its integrand values, which carry
neither the weight nor the volume.  Sums run over the support of the
integrand only: weakly decreasing tuples f_1 >= ... >= f_head >= 0
padded with zeros, where head is the unramified-part rank r for
integrands with a newform-line (essential) factor and the full torus
rank for purely spherical ones.  Off that support the integrands vanish
identically by the torus-value support conditions, so a sum at depth d
has exactly C(d + head, head) terms, and an integrand tests no support
itself.  No value is tested for zero either: a zero term adds 0.

Every sum walks its support once, in one order (symfunc._support), and
each integrand is one product per term over vectors in that order: the
Schur values of each parameter set (symfunc._schur_support, streamed a
block at a time), and weight vectors that depend only on the shape of
the sum and are built once per process from integers: the inverse
modular character and the half modular weights (_weights), the
determinant-size powers of a newform-line factor (_size_powers) and the
signs (-1)^|f| (_signs), all from the integer exponents and sizes of
symfunc._support_exponents.  symfunc alone knows the order of the
support; this module only reads the vectors it gives.  The lattice
volume of a sum shape is cached the same way (_volume).  Each value
multiplies its factors in the order of spherical_value and
essential_value, so the sums are bit-identical to sums over those
reference evaluators.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from math import isqrt
from operator import mul
from typing import Callable, Iterable, NamedTuple

from .lfactors import _square_base_root, asai_lfactor, pair_dual_lfactor, rs_lfactor
from .report import VerificationReport, hard_check
from .reps import GenericRep, SatakeSet
from .symfunc import _product, _schur_support, _shell_size, _support_exponents
from .volumes import vol_gl
from .whittaker import _essential_on_torus
from .whittaker import essential_value  # noqa: F401  (bench/tests probe it in this namespace)


class TruncResult(NamedTuple):
    value: complex
    tail_estimate: float


def _half_power(q: int, h: int) -> float:
    """q^(h/2), correctly rounded: an integer power converts to float, and
    its reciprocal divides as integers, both correctly rounded, so this is
    float(_modular_weight(h, q, half=True)) bit for bit."""
    base, k = (q, h // 2) if h % 2 == 0 else (isqrt(q), h)
    if h % 2 and base * base != q:
        raise ValueError(f"q^(1/2) not exact for q={q} with odd exponent {h}")
    return float(base**k) if k >= 0 else 1 / base**-k


def _along(keys: tuple[int, ...], value: Callable[[int], float]) -> tuple[float, ...]:
    """value(key) for each key, computed once per distinct key: the tuple
    holds references to shared floats, and is immutable, since the
    cached vectors below are shared by every sum of their shape."""
    values = {key: value(key) for key in set(keys)}
    return tuple(map(values.__getitem__, keys))


@cache
def _weights(q: int, k: int, rank: int, head: int, depth: int) -> tuple[float, ...]:
    """q^(k e / 2) along the support of `head` parts in [0, depth], in sum
    order, with e the modular exponent of each tuple padded to `rank`
    parts: 1/delta at k = -2, and spherical_value's half modular weight at
    k = 1."""
    exponents, sizes = _support_exponents(head, depth)
    if rank != head:
        exponents = tuple(e + (head - rank) * t for e, t in zip(exponents, sizes))
    return _along(exponents, lambda e: _half_power(q, k * e))


@cache
def _size_powers(rank: int, head: int, depth: int, q_e: int) -> tuple[float, ...]:
    """essential_value's determinant-size power float(q_e) ** (-(m - r) *
    |f| / 2) along the support, in sum order, for a rank-(rank + 1)
    representation with unramified-part rank r = head."""
    sizes = _support_exponents(head, depth)[1]
    return _along(sizes, lambda t: float(q_e) ** (-(rank + 1 - head) * t / 2))


@cache
def _signs(odd: int, head: int, depth: int) -> tuple[int, ...]:
    """(-1)^(odd * |f|) along the support, in sum order."""
    return tuple(-1 if odd and t % 2 else 1 for t in _support_exponents(head, depth)[1])


@cache
def _volume(rank: int, q: int) -> float:
    """vol(GL_rank(O)) at residue size q as a float, once per process: like
    the weight vectors, it depends only on the shape of a sum."""
    return float(vol_gl(rank, q))


def _torus_sum(rank: int, head: int, depth: int, q: int, values: Iterable[complex]) -> TruncResult:
    """The torus integral vol(GL_rank(O)) * sum_f integrand(f) / delta(f),
    truncated at depth, with the modular character and the lattice volume
    both taken at residue size q.  This is the only place that applies the
    convention: an integrand carries neither 1/delta nor the volume.

    The sum runs over the support only: f runs over the rank-length tuples
    whose first `head` entries are weakly decreasing in [0, depth] and whose
    other entries are zero, in descending lexicographic order
    (symfunc._support), so a sum has C(depth + head, head) terms.  values
    holds the integrand on these tuples, in this order; each is multiplied
    by 1/delta and added, none is tested for zero: a zero one adds 0 to the
    total and to the shell.  The tail estimate is the outermost shell's
    (f_1 = depth, the first symfunc._shell_size terms) total
    weighted magnitude amplified by a geometric factor, scaled by the same
    volume.  The terms are added one by one in the order above, never by
    sum(), whose float compensation since Python 3.12 would change the
    bits."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    terms = map(mul, values, _weights(q, -2, rank, head, depth))
    total: complex = 0.0
    shell = 0.0
    for t in islice(terms, _shell_size(head, depth)):
        total += t
        shell += abs(t)
    for t in terms:
        total += t
    vol = _volume(rank, q)
    geo = 1.0 / (1.0 - float(q) ** -0.5)
    return TruncResult(vol * total, vol * (shell * geo))


def beta_truncated(rep: GenericRep, q_f: int, depth: int) -> TruncResult:
    """Twisted base-field period of the normalized newform-line vector of a
    ramified rank-(n+1) representation, summed over the diagonal torus of
    GL_n up to the truncation depth."""
    n, q_e = rep.rank - 1, q_f**2
    r, schur_u = _essential_on_torus(rep, q_e, depth)
    half, size = _weights(q_e, 1, r, r, depth), _size_powers(n, r, depth, q_e)
    values = (
        h * s * z * sign for s, h, z, sign in zip(schur_u, half, size, _signs(n % 2, r, depth))
    )
    return _torus_sum(n, r, depth, q_f, values)


def beta_closed(rep: GenericRep, q_f: int) -> complex:
    """Closed form of the same period: the GL_n lattice volume times the
    twisted tensor factor of the unramified part at the edge point, with
    sign (-1)^n."""
    n = rep.rank - 1
    sign = -1 if n % 2 else 1
    return _volume(n, q_f) * asai_lfactor(rep.unramified_part(q_f**2), sign).value(1)


def beta_spherical_truncated(sigma_n: SatakeSet, depth: int) -> TruncResult:
    """Twisted base-field period of the normalized spherical vector of an
    unramified rank-n representation, summed over the GL_{n-1} torus at the
    base-field residue size q_F, the square root of sigma_n's base."""
    n, q_f = len(sigma_n), _square_base_root(sigma_n.base)
    schur = _schur_support(sigma_n.params, n - 1, depth)
    half = _weights(sigma_n.base, 1, n, n - 1, depth)  # the rank-n exponent of f + (0,)
    values = (h * s * sign for s, h, sign in zip(schur, half, _signs((n - 1) % 2, n - 1, depth)))
    return _torus_sum(n - 1, n - 1, depth, q_f, values)


def beta_spherical_closed(sigma_n: SatakeSet) -> complex:
    """Closed form of the same period: the GL_{n-1} lattice volume times the
    twisted tensor factor at the edge, sign (-1)^(n-1), times the factor
    (1 - det(sigma_n) q_F^(-n)) that drops the partitions of length n from
    the Littlewood series (Macdonald, Symmetric Functions and Hall
    Polynomials, I.4; the full series is I.5, Example 4)."""
    n, q_f = len(sigma_n), _square_base_root(sigma_n.base)
    sign = -1 if (n - 1) % 2 else 1
    length_term = 1 - _product(sigma_n.params) * float(q_f) ** -n
    return _volume(n - 1, q_f) * asai_lfactor(sigma_n, sign).value(1) * length_term


def theta_truncated(sigma: SatakeSet, depth: int) -> TruncResult:
    """Norm of the normalized spherical vector of an unramified rank-k
    representation under the GL_{k-1} inner-product integral."""
    k = len(sigma)
    half = _weights(sigma.base, 1, k, k - 1, depth)  # the rank-k exponent of f + (0,)
    values = (abs(h * s) ** 2 for s, h in zip(_schur_support(sigma.params, k - 1, depth), half))
    return _torus_sum(k - 1, k - 1, depth, sigma.base, values)


def theta_closed(sigma: SatakeSet) -> complex:
    """Closed form of the norm integral: GL_{k-1} lattice volume times the
    conjugate-pairing factor at the edge point times the factor
    (1 - |det sigma|^2 q_E^(-k)) that drops the partitions of length k from
    the Cauchy series of sigma against its conjugate (Macdonald, Symmetric
    Functions and Hall Polynomials, I.4)."""
    k = len(sigma)
    length_term = 1 - abs(_product(sigma.params)) ** 2 * float(sigma.base) ** -k
    return _volume(k - 1, sigma.base) * pair_dual_lfactor(sigma).value(1) * length_term


def lambda_truncated(sigma_n: SatakeSet, rep: GenericRep, depth: int) -> TruncResult:
    """Pairing integral of the spherical vector of sigma_n against the
    newform-line vector of the ramified rank-(n+1) representation over the
    GL_n torus.  An unramified representation raises ValueError, from
    whittaker._unramified_part."""
    n = len(sigma_n)
    if rep.rank != n + 1:
        raise ValueError("rank mismatch: need rank(rep) = len(sigma_n) + 1")
    q_e = sigma_n.base
    r, schur_u = _essential_on_torus(rep, q_e, depth)
    schur_n, size = _schur_support(sigma_n.params, r, depth), _size_powers(n, r, depth, q_e)
    # the half weights of the rank-n exponent of f and of the rank-r one of its head
    half, half_u = _weights(q_e, 1, n, r, depth), _weights(q_e, 1, r, r, depth)
    values = (
        h * s * (h_u * s_u * z) for s, s_u, h, h_u, z in zip(schur_n, schur_u, half, half_u, size)
    )
    return _torus_sum(n, r, depth, q_e, values)


def lambda_closed(sigma_n: SatakeSet, rep: GenericRep) -> complex:
    """Closed form: GL_n lattice volume over the extension times the pairing
    factor of sigma_n with the unramified part, at the center."""
    sigma_u = rep.unramified_part(sigma_n.base)
    return _volume(len(sigma_n), sigma_n.base) * rs_lfactor(sigma_n, sigma_u).value(0.5)


# ---------------------------------------------------------------------------
# report-producing comparisons

def check_beta(rep: GenericRep, q_f: int, depth: int) -> VerificationReport:
    """Hard check: truncated period equals its closed form (self-contained
    chain, exact in-convention)."""
    got = beta_truncated(rep, q_f, depth)
    want = beta_closed(rep, q_f)
    params = {"q_f": q_f, "rep": rep.to_json(), "depth": depth}
    return hard_check("beta", params, got.value, want, tail_estimate=got.tail_estimate)


def check_beta_spherical(sigma_n: SatakeSet, depth: int) -> VerificationReport:
    """Hard check of the spherical period against beta_spherical_closed,
    whose factor (1 - det(sigma_n) q_F^(-n)) drops the length-n partitions
    that the GL_{n-1} torus does not reach (Macdonald I.4)."""
    got = beta_spherical_truncated(sigma_n, depth)
    want = beta_spherical_closed(sigma_n)
    params = {
        "q_f": _square_base_root(sigma_n.base),
        "satake": [[a.real, a.imag] for a in sigma_n],
        "depth": depth,
    }
    return hard_check("beta-spherical", params, got.value, want, tail_estimate=got.tail_estimate)


def check_theta(sigma: SatakeSet, depth: int) -> VerificationReport:
    """Hard check of the norm integral against theta_closed, whose factor
    (1 - |det sigma|^2 q_E^(-k)) drops the length-k partitions that the
    GL_{k-1} torus does not reach (Macdonald I.4)."""
    got = theta_truncated(sigma, depth)
    want = theta_closed(sigma)
    params = {
        "q_e": sigma.base,
        "satake": [[a.real, a.imag] for a in sigma],
        "depth": depth,
    }
    return hard_check("theta", params, got.value, want, tail_estimate=got.tail_estimate)


def check_lambda(sigma_n: SatakeSet, rep: GenericRep, depth: int) -> VerificationReport:
    """Hard check of the pairing-integral identity."""
    got = lambda_truncated(sigma_n, rep, depth)
    want = lambda_closed(sigma_n, rep)
    params = {
        "q_e": sigma_n.base,
        "satake": [[a.real, a.imag] for a in sigma_n],
        "rep": rep.to_json(),
        "depth": depth,
    }
    return hard_check("lambda", params, got.value, want, tail_estimate=got.tail_estimate)


def ratio_spread(ratios: list[complex]) -> float:
    """Max deviation of a family of ratios from their mean, relative to the
    mean's magnitude; used for parameter-independence checks.  It is
    purely relative: a zero mean has no scale, and its spread is inf, which
    fails every tolerance."""
    if not ratios:
        raise ValueError("ratio_spread needs at least one ratio")
    mean = sum(ratios) / len(ratios)
    scale = abs(mean)
    if scale == 0:
        return float("inf")
    return max(abs(r - mean) for r in ratios) / scale
