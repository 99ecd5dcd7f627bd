"""Haar-measure volumes of the compact groups in play, and the two matching
constants they assemble into, as exact rationals in the residue size.

Everything here is a function of the integer residue size alone; identity
checks run over a grid of prime powers rather than symbolically.
"""

from __future__ import annotations

from fractions import Fraction


def zeta1(q: int) -> Fraction:
    """Local zeta value at 1: (1 - q^-1)^-1."""
    return 1 / (1 - Fraction(1, q))


def l_eta(q: int) -> Fraction:
    """Edge value of the quadratic-character L-factor: (1 + q^-1)^-1."""
    return 1 / (1 + Fraction(1, q))


def vol_gl_formula(m: int, q: int) -> Fraction:
    """Raw product formula zeta(1) * prod_{i<=m} (1 - q^-i), valid for m >= 0.

    At m = 0 this returns zeta(1), which is the value the closed-form
    assembly algebra telescopes with; `vol_gl` applies the trivial-group
    convention instead.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    out = zeta1(q)
    for i in range(1, m + 1):
        out *= 1 - Fraction(1, q**i)
    return out


def vol_gl(m: int, q: int) -> Fraction:
    """Volume of the integral points of GL_m; the empty group has volume 1."""
    if m == 0:
        return Fraction(1)
    return vol_gl_formula(m, q)


def vol_kprime_c(n: int, c: int, q: int) -> Fraction:
    """Volume of the depth-c congruence subgroup of GL_{n+1} over a field of
    residue size q: zeta(1) q^{-c(n+1)} prod_{i<=n} (1 - q^-i).  At q_E it is
    the mirahoric group over the extension, at q_F the base-field points of
    the congruence block group.  Derived only for c >= 1."""
    if c < 1:
        raise ValueError("formula requires c >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return vol_gl_formula(n, q) / q ** (c * (n + 1))


def vol_unitary_w(m: int, q: int) -> Fraction:
    """Volume of the integral points of the unitary group of the rank-m
    self-dual lattice: L(1,eta) prod_{i<=m} (1 - (-q)^-i)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = l_eta(q)
    for i in range(1, m + 1):
        out *= 1 - Fraction((-1) ** i, q**i)
    return out


def vol_unitary_v(n: int, c: int, q: int) -> Fraction:
    """Volume of the integral points of the unitary group of the rank-(n+1)
    lattice with a depth-c last slot: q^{-cn} (1 + q^-1) times the rank-n
    self-dual value."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return vol_unitary_w(n, q) * Fraction(1, q ** (c * n)) * (1 + Fraction(1, q))


def vol_u_lie(n: int, c: int, q: int) -> Fraction:
    """Self-dual-measure volume of the integral anti-hermitian matrices for
    the depth-c form: q^{-cn}."""
    return Fraction(1, q ** (c * n))


def vol_k0(n: int, c: int, q: int) -> Fraction:
    """Volume of the principal congruence core of the Lie lattice:
    q^{-cn - n^2 - 1}."""
    return Fraction(1, q ** (c * n + n * n + 1))


def c1(n: int, c: int, q_f: int) -> tuple[Fraction, Fraction]:
    """The matching constant, in both displayed shapes: the volume quotient
    and the zeta-product form.  Returned separately so their equality can be
    asserted as an exact rational identity."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    q_e = q_f**2
    vol_form = vol_unitary_w(n, q_f) ** 2 / (
        vol_gl(n, q_f) * vol_gl(n, q_e) * vol_kprime_c(n, c, q_f)
    )
    prod_form = (
        l_eta(q_f) ** 2
        * zeta1(q_f) ** -2
        * zeta1(q_e) ** -1
        * Fraction(q_f ** (c * (n + 1)))
    )
    for i in range(1, n + 1):
        prod_form *= (1 - Fraction((-1) ** i, q_f**i)) ** 2 / (
            (1 - Fraction(1, q_f**i)) ** 3 * (1 + Fraction(1, q_f**i))
        )
    return vol_form, prod_form


def constant_c_main(n: int, c: int, q_f: int) -> Fraction:
    """The constant in front of the main L-value quotient:
    vol(K_n)^2 L(1,eta) q_F^{-c(n+1)} (1 + q_F^{-n})."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        vol_unitary_w(n, q_f) ** 2
        * l_eta(q_f)
        * Fraction(1, q_f ** (c * (n + 1)))
        * (1 + Fraction(1, q_f**n))
    )
