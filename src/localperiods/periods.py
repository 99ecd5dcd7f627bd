"""Truncated-sum evaluation of the three local integrals (the twisted
base-field period, the inner-product norm, and the pairing integral) with
tail control, together with their closed forms and comparison checks.

All three share one summation convention: an integral over the unipotent
quotient of GL_m of a right-lattice-invariant function equals the lattice
volume times the sum over diagonal exponent tuples of the integrand
weighted by the inverse modular character.  _torus_sum alone applies it:
each truncated period passes only its integrand, as a run function,
which carries neither the weight nor the volume.  Sums run over the
support of the integrand only: weakly decreasing tuples
f_1 >= ... >= f_head >= 0 padded with zeros,
where head is the unramified-part rank r for integrands with a
newform-line (essential) factor and the full torus rank for purely
spherical ones.  Off that support the integrands vanish identically by the
torus-value support conditions, so a sum at depth d has exactly
C(d + head, head) terms, and an integrand tests no support itself.  No
value is tested for zero either: a zero term adds 0.

Each truncated period builds one run function, its integrand on a run of
support tuples, from factors built once per sum: one table of half
modular weights by modular exponent at q_E (_half_weights), shared by
every parameter set of the sum, the Schur runs of those parameter sets
(symfunc._schur_table), and for a newform-line factor the
determinant-size powers of _essential_on_torus.  A run holds the tuples
that share their first head - 1 parts, with the last head part falling
from its largest value to 0, so _torus_sum asks for one list of values
per prefix.  Per run each side takes the modular exponent once and steps
it by the coefficient of the last head part; a run function derives the
exponent of every other rank it needs from it.  Each value multiplies
the factors in the order of spherical_value and essential_value, so the
sums are bit-identical to sums over those reference evaluators.
"""

from __future__ import annotations

from itertools import count, repeat
from operator import mul
from typing import NamedTuple

from .lfactors import _square_base_root, asai_lfactor, pair_dual_lfactor, rs_lfactor
from .report import VerificationReport, hard_check
from .reps import GenericRep, SatakeSet
from .symfunc import _Memo, _modular_coefficients, _modular_weight, _product, _Run, _run_tops
from .symfunc import _schur_table
from .volumes import vol_gl
from .whittaker import _essential_on_torus
from .whittaker import essential_value  # noqa: F401  (bench/tests probe it in this namespace)


class TruncResult(NamedTuple):
    value: complex
    tail_estimate: float


def _exponents(top: tuple[int, ...], coefficients: range) -> count:
    """The modular exponents along the run of top, for the given rank's
    coefficients: the exponent of top, stepped down by the coefficient of
    its last part as that part falls by one."""
    step = coefficients[len(top) - 1] if top else 0
    return count(sum(map(mul, top, coefficients)), -step)


def _torus_sum(rank: int, head: int, depth: int, q: int, run: _Run) -> TruncResult:
    """The torus integral vol(GL_rank(O)) * sum_f integrand(f) / delta(f),
    truncated at depth, with the modular character and the lattice volume
    both taken at residue size q.  This is the only place that applies the
    convention: an integrand carries neither 1/delta nor the volume.

    The sum runs over the support only: f runs over the rank-length tuples
    whose first `head` entries are weakly decreasing in [0, depth] and whose
    other entries are zero, in descending lexicographic order, so a sum has
    C(depth + head, head) terms.  It takes them in runs of one prefix of
    head - 1 parts, from the tops of symfunc._run_tops: run(top) is the
    list of integrand values on the heads top[:-1] + (c,), c = top[-1],
    ..., 0 (at head 0, on the one zero tuple).  The integrand is evaluated
    on these tuples alone and tests no support itself.  The modular
    exponent is taken once per run and stepped along it.  Every value is
    weighted and added, none is tested for zero: a zero one adds 0 to the
    total and to the shell.  The tail estimate is the outermost shell's
    (f_1 = depth) total weighted magnitude amplified by a geometric factor,
    scaled by the same volume.  The terms are added one by one in
    the order above, never by sum(), whose float compensation since
    Python 3.12 would change the bits."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    coefficients = _modular_coefficients(rank)
    delta_inv = _Memo(lambda e: float(1 / _modular_weight(e, q)))
    total: complex = 0.0
    shell = 0.0
    for top in _run_tops(head, depth):
        # f_1 along the run: at head 1 the part that falls, else fixed
        leads = count(depth, -1) if head == 1 else repeat(top[0] if top else 0)
        for w, e, lead in zip(run(top), _exponents(top, coefficients), leads):
            t = w * delta_inv[e]
            total += t
            if lead == depth:
                shell += abs(t)
    vol = float(vol_gl(rank, q))
    geo = 1.0 / (1.0 - float(q) ** -0.5)
    return TruncResult(vol * total, vol * (shell * geo))


def _half_weights(q_e: int) -> _Memo:
    """The half modular weights float(q_e^(e/2)) by modular exponent e, the
    factor of spherical_value beside the Schur value, each computed on
    first use."""
    return _Memo(lambda e: float(_modular_weight(e, q_e, half=True)))


def beta_truncated(rep: GenericRep, q_f: int, depth: int) -> TruncResult:
    """Twisted base-field period of the normalized newform-line vector of a
    ramified rank-(n+1) representation, summed over the diagonal torus of
    GL_n up to the truncation depth."""
    n = rep.rank - 1
    r, schur_run, size = _essential_on_torus(rep, q_f**2, depth)
    half = _half_weights(q_f**2)
    coefficients = _modular_coefficients(r)  # of the head alone
    parity = (1, -1 if n % 2 else 1)  # the sign (-1)^n to the power |f|

    def run(top: tuple[int, ...]) -> list[complex]:
        exponents, totals = _exponents(top, coefficients), count(sum(top), -1)
        return [
            half[e] * s * size[t] * parity[t % 2]
            for s, e, t in zip(schur_run(top), exponents, totals)
        ]

    return _torus_sum(n, r, depth, q_f, run)


def beta_closed(rep: GenericRep, q_f: int) -> complex:
    """Closed form of the same period: the GL_n lattice volume times the
    twisted tensor factor of the unramified part at the edge point, with
    sign (-1)^n."""
    n = rep.rank - 1
    sign = -1 if n % 2 else 1
    return float(vol_gl(n, q_f)) * asai_lfactor(rep.unramified_part(q_f**2), sign).value(1)


def beta_spherical_truncated(sigma_n: SatakeSet, depth: int) -> TruncResult:
    """Twisted base-field period of the normalized spherical vector of an
    unramified rank-n representation, summed over the GL_{n-1} torus at the
    base-field residue size q_F, the square root of sigma_n's base."""
    n, q_f = len(sigma_n), _square_base_root(sigma_n.base)
    half, schur_run = _half_weights(sigma_n.base), _schur_table(sigma_n.params, depth)
    coefficients = _modular_coefficients(n)  # the rank-n exponent of f + (0,)
    parity = (1, -1 if (n - 1) % 2 else 1)

    def run(top: tuple[int, ...]) -> list[complex]:
        exponents, totals = _exponents(top, coefficients), count(sum(top), -1)
        return [
            half[e] * s * parity[t % 2] for s, e, t in zip(schur_run(top), exponents, totals)
        ]

    return _torus_sum(n - 1, n - 1, depth, q_f, run)


def beta_spherical_closed(sigma_n: SatakeSet) -> complex:
    """Closed form of the same period: the GL_{n-1} lattice volume times the
    twisted tensor factor at the edge, sign (-1)^(n-1), times the factor
    (1 - det(sigma_n) q_F^(-n)) that drops the partitions of length n from
    the Littlewood series (Macdonald, Symmetric Functions and Hall
    Polynomials, I.4; the full series is I.5, Example 4)."""
    n, q_f = len(sigma_n), _square_base_root(sigma_n.base)
    sign = -1 if (n - 1) % 2 else 1
    length_term = 1 - _product(sigma_n.params) * float(q_f) ** -n
    return float(vol_gl(n - 1, q_f)) * asai_lfactor(sigma_n, sign).value(1) * length_term


def theta_truncated(sigma: SatakeSet, depth: int) -> TruncResult:
    """Norm of the normalized spherical vector of an unramified rank-k
    representation under the GL_{k-1} inner-product integral."""
    k = len(sigma)
    half, schur_run = _half_weights(sigma.base), _schur_table(sigma.params, depth)
    coefficients = _modular_coefficients(k)  # the rank-k exponent of f + (0,)

    def run(top: tuple[int, ...]) -> list[complex]:
        exponents = _exponents(top, coefficients)
        return [abs(half[e] * s) ** 2 for s, e in zip(schur_run(top), exponents)]

    return _torus_sum(k - 1, k - 1, depth, sigma.base, run)


def theta_closed(sigma: SatakeSet) -> complex:
    """Closed form of the norm integral: GL_{k-1} lattice volume times the
    conjugate-pairing factor at the edge point times the factor
    (1 - |det sigma|^2 q_E^(-k)) that drops the partitions of length k from
    the Cauchy series of sigma against its conjugate (Macdonald, Symmetric
    Functions and Hall Polynomials, I.4)."""
    k = len(sigma)
    length_term = 1 - abs(_product(sigma.params)) ** 2 * float(sigma.base) ** -k
    return float(vol_gl(k - 1, sigma.base)) * pair_dual_lfactor(sigma).value(1) * length_term


def lambda_truncated(sigma_n: SatakeSet, rep: GenericRep, depth: int) -> TruncResult:
    """Pairing integral of the spherical vector of sigma_n against the
    newform-line vector of the ramified rank-(n+1) representation over the
    GL_n torus.  An unramified representation raises ValueError, from
    whittaker._unramified_part."""
    n = len(sigma_n)
    if rep.rank != n + 1:
        raise ValueError("rank mismatch: need rank(rep) = len(sigma_n) + 1")
    q_e = sigma_n.base
    r, schur_u_run, size = _essential_on_torus(rep, q_e, depth)
    half, schur_run = _half_weights(q_e), _schur_table(sigma_n.params, depth)
    coefficients = _modular_coefficients(n)
    # On f = lambda + zeros the rank-j exponent of lambda is
    # e + (n - j) * |lambda|, e the rank-n one; both factors read `half`.

    def newform_pairing(top: tuple[int, ...]) -> list[complex]:
        exponents, totals = _exponents(top, coefficients), count(sum(top), -1)
        return [
            half[e] * s * (half[e + (n - r) * t] * s_u * size[t])
            for s, s_u, e, t in zip(schur_run(top), schur_u_run(top), exponents, totals)
        ]

    return _torus_sum(n, r, depth, q_e, newform_pairing)


def lambda_closed(sigma_n: SatakeSet, rep: GenericRep) -> complex:
    """Closed form: GL_n lattice volume over the extension times the pairing
    factor of sigma_n with the unramified part, at the center."""
    sigma_u = rep.unramified_part(sigma_n.base)
    return float(vol_gl(len(sigma_n), sigma_n.base)) * rs_lfactor(sigma_n, sigma_u).value(0.5)


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
