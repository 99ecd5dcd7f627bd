"""Closed-form and component-wise assembly of the two local characters, the
constants tying them together, and the bridge identity between them.

The volume prefactors entering the closed-form expressions use the raw
product formula for lattice volumes (including at rank zero, where it
returns the local zeta value rather than 1): that is the convention the
closed-form algebra telescopes with, and the bridge identity pins it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lfactors import _square_base_root, asai_lfactor, pair_dual_lfactor, rs_lfactor
from .numerics import ensure_finite
from .periods import beta_truncated, lambda_truncated
from .reps import GenericRep, SatakeSet
from .volumes import c1, constant_c_main, l_eta, vol_gl, vol_gl_formula, vol_kprime_c


@dataclass(frozen=True)
class PairData:
    """Complete arithmetic context of one verification instance: the
    unramified parameter set sigma_n and the ramified representation rep it
    pairs with.  The rank n = len(sigma_n), the conductor c of rep, the
    extension residue size q_e (the base of sigma_n) and the base-field
    residue size q_f are derived; q_f rejects a base that is not a square."""

    sigma_n: SatakeSet
    rep: GenericRep

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if self.q_f <= self.n:
            raise ValueError("q_f must exceed n")
        if self.rep.rank != self.n + 1:
            raise ValueError("rep must have rank n + 1")

    @property
    def n(self) -> int:
        return len(self.sigma_n)

    @property
    def c(self) -> int:
        return self.rep.conductor()

    @property
    def q_e(self) -> int:
        return self.sigma_n.base

    @property
    def q_f(self) -> int:
        return _square_base_root(self.sigma_n.base)

    def sigma_u(self) -> SatakeSet:
        return self.rep.unramified_part(self.q_e)


def _l_quotient_pre_cancellation(d: PairData) -> complex:
    """L(1/2, pairing) * conj(L(1, As')) * conj(L(1, As'')) over the two
    conjugate-pairing edge values, exactly as the closed form groups them."""
    sigma_u = d.sigma_u()
    eps_n = -1 if (d.n - 1) % 2 else 1          # sign (-1)^(n-1) for sigma_n
    eps_u = -1 if d.n % 2 else 1                # sign (-1)^n for sigma_u
    num = rs_lfactor(d.sigma_n, sigma_u).value(0.5)
    num *= asai_lfactor(d.sigma_n, eps_n).value(1).conjugate()
    # an empty L-factor is the float 1.0, but a complex times 1.0 is a full
    # complex product that can flip the sign of a zero part, so complex
    # products here and in j_main skip the factors of an empty sigma_u
    if len(sigma_u):
        num *= asai_lfactor(sigma_u, eps_u).value(1).conjugate()
    den = pair_dual_lfactor(d.sigma_n).value(1)
    if len(sigma_u):
        den *= pair_dual_lfactor(sigma_u).value(1)
    return num / den


def i_closed(d: PairData) -> complex:
    """Closed form of the pairing character at the congruence-subgroup
    indicator: explicit volumes times the pre-cancellation L-quotient."""
    vols = (
        vol_gl(d.n, d.q_e)
        * vol_kprime_c(d.n, d.c, d.q_e)
        * vol_gl_formula(d.n - 1, d.q_f)
        * vol_gl(d.n, d.q_f)
        / vol_gl_formula(d.n - 1, d.q_e)
    )
    return ensure_finite(float(vols) * _l_quotient_pre_cancellation(d))


def i_assembled(d: PairData, depth: int) -> complex:
    """Component-wise assembly: congruence volume times the squared
    normalization constants times the pairing integral times the conjugated
    base-field periods.

    Only the squared moduli of the normalization constants enter (their
    phases cancel between the pairing and the periods).  The pairing
    integral and the ramified-side period are truncated sums to depth; the
    spherical-side period uses its closed form, whose normalization
    constant is part of the same convention.
    """
    sigma_u = d.sigma_u()
    vol_kprime = vol_gl(d.n, d.q_e) * vol_kprime_c(d.n, d.c, d.q_e)
    # |c_n|^-2 and |c_{n+1}|^-2 from the norm-one normalization
    cn_sq_inv = float(vol_gl_formula(d.n - 1, d.q_e)) * pair_dual_lfactor(d.sigma_n).value(1)
    cn1_sq_inv = float(vol_gl(d.n, d.q_e)) * pair_dual_lfactor(sigma_u).value(1)
    lam = lambda_truncated(d.sigma_n, d.rep, depth).value
    beta_big = beta_truncated(d.rep, d.q_f, depth).value
    eps_n = -1 if (d.n - 1) % 2 else 1
    beta_small = float(vol_gl_formula(d.n - 1, d.q_f)) * asai_lfactor(d.sigma_n, eps_n).value(1)
    value = (
        float(vol_kprime)
        / (cn_sq_inv * cn1_sq_inv)
        * lam
        * (beta_small * beta_big).conjugate()
    )
    return ensure_finite(value)


def _j_main_terms(d: PairData) -> tuple[Fraction, int, int, complex, complex, complex | None]:
    """The factors of `j_main`: the constant, the two edge-value signs, the
    central pairing value and the two edge values.  The unramified-part edge
    value is None when that part is empty."""
    sigma_u = d.sigma_u()
    eps_n = -1 if d.n % 2 else 1                # sign (-1)^n
    eps_u = -1 if (d.n + 1) % 2 else 1          # sign (-1)^(n+1)
    l_rs = rs_lfactor(d.sigma_n, sigma_u).value(0.5)
    l_n = asai_lfactor(d.sigma_n, eps_n).value(1)
    l_u = asai_lfactor(sigma_u, eps_u).value(1) if len(sigma_u) else None
    return constant_c_main(d.n, d.c, d.q_f), eps_n, eps_u, l_rs, l_n, l_u


def j_main(d: PairData) -> complex:
    """The main closed formula: the explicit constant times the central
    pairing value over the two twisted tensor edge values."""
    c_const, _, _, num, den, l_u = _j_main_terms(d)
    if l_u is not None:
        den *= l_u
    return ensure_finite(float(c_const) * num / den)


def j_via_bridge(d: PairData) -> complex:
    """The same character through the matching route: the edge value of the
    quadratic-character factor times the matching constant times the
    pairing-character closed form."""
    vol_form, _ = c1(d.n, d.c, d.q_f)
    return ensure_finite(float(l_eta(d.q_f)) * float(vol_form) * i_closed(d))
