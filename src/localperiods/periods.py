"""Truncated-sum evaluation of the three local integrals (the twisted
base-field period, the inner-product norm, and the pairing integral) with
tail control, together with their closed forms and comparison checks.

All three share one summation convention: an integral over the unipotent
quotient of GL_m of a right-lattice-invariant function equals the lattice
volume times the sum over diagonal exponent tuples of the integrand
weighted by the inverse modular character.  Sums run over the support of
the integrand only: weakly decreasing tuples f_1 >= ... >= f_head >= 0
padded with zeros, where head is the unramified-part rank r for integrands
with a newform-line (essential) factor and the full torus rank for purely
spherical ones.  Off that support the integrands vanish identically by the
torus-value support conditions, so a sum at depth d has exactly
C(d + head, head) terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .lfactors import asai_lfactor, pair_dual_lfactor, rs_lfactor
from .report import VerificationReport, hard_check, soft_check
from .reps import GenericRep, SatakeSet
from .symfunc import delta_weight, partitions_in_box
from .volumes import vol_gl
from .whittaker import _essential_on_torus, spherical_value
from .whittaker import essential_value  # noqa: F401  (bench/tests probe it in this namespace)


@dataclass(frozen=True)
class TruncationCfg:
    depth: int = 40

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


DEFAULT_TRUNC = TruncationCfg()


class TruncResult(NamedTuple):
    value: complex
    tail_estimate: float


def _torus_sum(
    rank: int,
    head: int,
    trunc: TruncationCfg,
    q: int,
    term: Callable[[tuple[int, ...]], complex],
) -> TruncResult:
    """Sum `term` over the rank-length tuples whose first `head` entries are
    weakly decreasing in [0, depth] and whose other entries are zero, in
    descending lexicographic order.  The tail estimate is the outermost
    shell's (f_1 = depth) total magnitude amplified by a geometric factor."""
    total: complex = 0.0
    shell = 0.0
    depth = trunc.depth
    zeros = (0,) * (rank - head)
    for lam in partitions_in_box(head, depth):
        f = lam + zeros
        t = term(f)
        if t == 0:
            continue
        total += t
        if f and f[0] == depth:
            shell += abs(t)
    geo = 1.0 / (1.0 - float(q) ** -0.5)
    return TruncResult(total, shell * geo)


def _delta_inv(f: tuple[int, ...], q: int) -> float:
    return float(1 / delta_weight(f, q))


def beta_truncated(rep: GenericRep, q_f: int, trunc: TruncationCfg = DEFAULT_TRUNC) -> TruncResult:
    """Twisted base-field period of the normalized newform-line vector of a
    ramified rank-(n+1) representation, summed over the diagonal torus of
    GL_n up to the truncation depth."""
    if not rep.is_ramified():
        raise ValueError("representation is unramified; use beta_spherical_truncated")
    q_e = q_f**2
    n = rep.rank - 1
    sign = -1 if n % 2 else 1
    r, newform = _essential_on_torus(rep, q_e)

    def term(f: tuple[int, ...]) -> complex:
        w = newform(f)
        if w == 0:
            return 0.0
        return w * _delta_inv(f, q_f) * sign ** (sum(f) % 2)

    res = _torus_sum(n, r, trunc, q_f, term)
    vol = float(vol_gl(n, q_f))
    return TruncResult(vol * res.value, vol * res.tail_estimate)


def beta_closed(rep: GenericRep, q_f: int) -> complex:
    """Closed form of the same period: the GL_n lattice volume times the
    twisted tensor factor of the unramified part at the edge point, with
    sign (-1)^n."""
    q_e = q_f**2
    n = rep.rank - 1
    _, sigma_u = rep.unramified_part(q_e)
    if len(sigma_u) == 0:
        return float(vol_gl(n, q_f))
    sign = -1 if n % 2 else 1
    return float(vol_gl(n, q_f)) * asai_lfactor(sigma_u, sign).value(1)


def beta_spherical_truncated(
    sigma_n: SatakeSet, q_f: int, trunc: TruncationCfg = DEFAULT_TRUNC
) -> TruncResult:
    """Twisted base-field period of the normalized spherical vector of an
    unramified rank-n representation, summed over the GL_{n-1} torus."""
    n = len(sigma_n)
    sign = -1 if (n - 1) % 2 else 1

    def term(f: tuple[int, ...]) -> complex:
        w = spherical_value(sigma_n.params, f + (0,), sigma_n.base)
        if w == 0:
            return 0.0
        return w * _delta_inv(f, q_f) * sign ** (sum(f) % 2)

    res = _torus_sum(n - 1, n - 1, trunc, q_f, term)
    vol = float(vol_gl(n - 1, q_f))
    return TruncResult(vol * res.value, vol * res.tail_estimate)


def beta_spherical_closed(sigma_n: SatakeSet, q_f: int) -> complex:
    """Literature closed form compared against in soft mode: the GL_{n-1}
    lattice volume times the twisted tensor factor at the edge, sign
    (-1)^(n-1)."""
    n = len(sigma_n)
    if n == 0:
        return 1.0
    sign = -1 if (n - 1) % 2 else 1
    return float(vol_gl(n - 1, q_f)) * asai_lfactor(sigma_n, sign).value(1)


def theta_truncated(
    sigma: SatakeSet, trunc: TruncationCfg = DEFAULT_TRUNC
) -> TruncResult:
    """Norm of the normalized spherical vector of an unramified rank-k
    representation under the GL_{k-1} inner-product integral."""
    k = len(sigma)
    q_e = sigma.base

    def term(f: tuple[int, ...]) -> complex:
        w = spherical_value(sigma.params, f + (0,), q_e)
        if w == 0:
            return 0.0
        return abs(w) ** 2 * _delta_inv(f, q_e)

    res = _torus_sum(k - 1, k - 1, trunc, q_e, term)
    vol = float(vol_gl(k - 1, q_e))
    return TruncResult(vol * res.value, vol * res.tail_estimate)


def theta_closed(sigma: SatakeSet) -> complex:
    """Reference closed form: GL_{k-1} lattice volume times the
    conjugate-pairing factor at the edge point."""
    k = len(sigma)
    return float(vol_gl(k - 1, sigma.base)) * pair_dual_lfactor(sigma).value(1)


def lambda_truncated(
    sigma_n: SatakeSet,
    rep: GenericRep,
    trunc: TruncationCfg = DEFAULT_TRUNC,
    s: float = 0.0,
) -> TruncResult:
    """Pairing integral of the spherical vector of sigma_n against the
    newform-line vector of the rank-(n+1) representation over the GL_n
    torus.  The s parameter shifts by |det|^s and exists for convergence
    experiments only; the identity checks use s = 0."""
    n = len(sigma_n)
    if rep.rank != n + 1:
        raise ValueError("rank mismatch: need rank(rep) = len(sigma_n) + 1")
    q_e = sigma_n.base

    if rep.is_ramified():
        head, w_big = _essential_on_torus(rep, q_e)
    else:
        head = n
        gamma = rep.unramified_part(q_e)[1]

        def w_big(f: tuple[int, ...]) -> complex:
            return spherical_value(gamma.params, f + (0,), q_e)

    def term(f: tuple[int, ...]) -> complex:
        w1 = spherical_value(sigma_n.params, f, q_e)
        if w1 == 0:
            return 0.0
        w2 = w_big(f)
        if w2 == 0:
            return 0.0
        extra = float(q_e) ** (-s * sum(f)) if s else 1.0
        return w1 * w2 * _delta_inv(f, q_e) * extra

    res = _torus_sum(n, head, trunc, q_e, term)
    vol = float(vol_gl(n, q_e))
    return TruncResult(vol * res.value, vol * res.tail_estimate)


def lambda_closed(sigma_n: SatakeSet, rep: GenericRep) -> complex:
    """Closed form: GL_n lattice volume over the extension times the pairing
    factor of sigma_n with the unramified part, at the center."""
    q_e = sigma_n.base
    _, sigma_u = rep.unramified_part(q_e)
    if len(sigma_u) == 0:
        return float(vol_gl(len(sigma_n), q_e))
    return float(vol_gl(len(sigma_n), q_e)) * rs_lfactor(sigma_n, sigma_u).value(0.5)


# ---------------------------------------------------------------------------
# report-producing comparisons

def check_beta(
    rep: GenericRep, q_f: int, trunc: TruncationCfg = DEFAULT_TRUNC, tol: float = 1e-8
) -> VerificationReport:
    """Hard check: truncated period equals its closed form (self-contained
    chain, exact in-convention)."""
    got = beta_truncated(rep, q_f, trunc)
    want = beta_closed(rep, q_f)
    params = {"q_f": q_f, "rep": rep.to_json(), "depth": trunc.depth}
    return hard_check("beta", params, got.value, want,
                      max(tol, got.tail_estimate), tail_estimate=got.tail_estimate)


def check_beta_spherical(
    sigma_n: SatakeSet, q_f: int, trunc: TruncationCfg = DEFAULT_TRUNC, tol: float = 1e-8
) -> VerificationReport:
    """Soft check: measured constant against the literature normalization is
    recorded, never patched."""
    got = beta_spherical_truncated(sigma_n, q_f, trunc)
    want = beta_spherical_closed(sigma_n, q_f)
    params = {
        "q_f": q_f,
        "satake": [[a.real, a.imag] for a in sigma_n],
        "depth": trunc.depth,
    }
    return soft_check("beta-spherical", params, got.value, want, tol,
                      tail_estimate=got.tail_estimate)


def check_theta(
    sigma: SatakeSet, trunc: TruncationCfg = DEFAULT_TRUNC, tol: float = 1e-8
) -> VerificationReport:
    """Soft check of the norm integral against the reference constant."""
    got = theta_truncated(sigma, trunc)
    want = theta_closed(sigma)
    params = {
        "q_e": sigma.base,
        "satake": [[a.real, a.imag] for a in sigma],
        "depth": trunc.depth,
    }
    return soft_check("theta", params, got.value, want, tol,
                      tail_estimate=got.tail_estimate)


def check_lambda(
    sigma_n: SatakeSet,
    rep: GenericRep,
    trunc: TruncationCfg = DEFAULT_TRUNC,
    tol: float = 1e-8,
    hard: bool = True,
) -> VerificationReport:
    """Pairing-integral identity; hard at low rank, soft where only
    constant-tracking is claimed."""
    got = lambda_truncated(sigma_n, rep, trunc)
    want = lambda_closed(sigma_n, rep)
    params = {
        "q_e": sigma_n.base,
        "satake": [[a.real, a.imag] for a in sigma_n],
        "rep": rep.to_json(),
        "depth": trunc.depth,
    }
    fn = hard_check if hard else soft_check
    return fn("lambda", params, got.value, want, max(tol, got.tail_estimate),
              tail_estimate=got.tail_estimate)


def ratio_spread(ratios: list[complex]) -> float:
    """Max pairwise deviation of a family of ratios, relative to their mean
    magnitude; used for parameter-independence checks."""
    if not ratios:
        return 0.0
    mean = sum(ratios) / len(ratios)
    scale = abs(mean)
    if scale == 0:
        return max(abs(r) for r in ratios)
    return max(abs(r - mean) for r in ratios) / scale
