"""Rank-one orbital integrals, both sides of the matching, and the
exhaustive exact verification of the transfer identity between them.

At rank one the twisted orbital integral collapses to a finite alternating
sum over valuation shells of the multiplicative group (each of unit
volume), and the unitary side to a single membership bit, so every
identity here is checked in integer arithmetic with zero tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .hermitian import (
    EMat,
    cayley,
    herm_form_j,
    in_bmk_tilde,
    in_group_u,
    in_k_tilde_lie,
    in_lie_u,
    in_s_lie,
    is_regular_semisimple,
    matching_invariants,
    transfer_factor,
)
from .numerics import (
    QuadExt,
    RatLike,
    fraction_sqrt,
    qe_valuation,
    validate_field_context,
)
from .report import VerificationReport, exact_check


def rank_one_element(
    a: RatLike, d: RatLike, y12: RatLike, y21: RatLike, u: int
) -> EMat:
    """Trace-zero 2x2 element with all entries rational multiples of
    sqrt(u): diag entries a, d and off-diagonal entries y12, y21."""
    root = QuadExt.sqrt_u(u)
    return EMat(
        [[root * Fraction(a), root * Fraction(y12)], [root * Fraction(y21), root * Fraction(d)]],
        u,
    )


def _require_rank_one_rs(y: EMat) -> None:
    if y.nrows != 2 or not in_s_lie(y):
        raise ValueError("expected a trace-zero 2x2 element of the twisted Lie model")
    if not is_regular_semisimple(y):
        raise ValueError("element is not regular semisimple (vanishing off-diagonal)")


def orb_s2(y: EMat, c: int, p: int) -> int:
    """Twisted orbital integral of the depth-c congruence-lattice indicator
    against the quadratic character, over the rank-one torus.

    Conjugation by the shell pi^k O^* moves the off-diagonal valuations by
    (-k, +k) and fixes the diagonal, so the integral is the alternating sum
    of (-1)^k over the shells where the conjugate lies in the lattice.
    """
    _require_rank_one_rs(y)
    if c < 0:
        raise ValueError("c must be >= 0")
    if qe_valuation(y.entry(0, 0), p) < 0 or qe_valuation(y.entry(1, 1), p) < 0:
        return 0
    v12 = int(qe_valuation(y.entry(0, 1), p))
    v21 = int(qe_valuation(y.entry(1, 0), p))
    lo, hi = -v21, v12 - c
    if lo > hi:
        return 0
    length = hi - lo + 1
    if length % 2 == 0:
        return 0
    return -1 if lo % 2 else 1


def orb_u2(x: EMat, c: int, p: int) -> int:
    """Conjugation orbital integral on the unitary side: the norm-one torus
    is compact of volume one and preserves the congruence lattice, so the
    integral is the membership bit of x itself."""
    j = herm_form_j(1, c, p, x.u)
    if not in_lie_u(x, j):
        raise ValueError("x is not anti-hermitian for the depth-c form")
    if not is_regular_semisimple(x):
        raise ValueError("x is not regular semisimple")
    return 1 if in_bmk_tilde(x, c, p) else 0


def _norm_solution(target: Fraction, u: int) -> QuadExt | None:
    """A z with z1^2 - u z2^2 = target in the exact rational model, on one of
    the two pure axes z2 = 0 and z1 = 0, or None.

    None can come where a p-adic solution exists; callers treat it as
    'representative not available exactly'.  The targets of the
    fl_check_rank1 grid are -u times a square, which the second axis solves.
    """
    s = fraction_sqrt(target)
    if s is not None:
        return QuadExt(s, Fraction(0), u)
    s = fraction_sqrt(target / Fraction(-u))
    if s is not None:
        return QuadExt(Fraction(0), s, u)
    return None


def match_rank1(y: EMat, c: int, p: int) -> tuple[int, EMat | None]:
    """Which unitary form the orbit of y transfers to, and an explicit
    matched representative on the quasi-diagonal side when one exists in
    the rational model.

    The side is decided by the parity of v(y12 * y21) - c; on side 0 the
    representative [[a, -pi^c conj(z)], [z, d]] must satisfy
    -pi^c Nm(z) = Y12 * Y21 with the same diagonal."""
    _require_rank_one_rs(y)
    u = y.u
    v12 = int(qe_valuation(y.entry(0, 1), p))
    v21 = int(qe_valuation(y.entry(1, 0), p))
    side = 0 if (v12 + v21 - c) % 2 == 0 else 1
    if side == 1:
        return 1, None
    prod = y.entry(0, 1) * y.entry(1, 0)  # rational: in_s_lie makes both sqrt(u) multiples
    target = -prod.a / Fraction(p**c)
    z = _norm_solution(target, u)
    if z is None:
        return 0, None
    b = -(Fraction(p**c)) * z.conj()
    x = EMat([[y.entry(0, 0), b], [z, y.entry(1, 1)]], u)
    return 0, x


def fl_check_rank1(p: int, c: int, vmax: int, u: int = -1) -> list[VerificationReport]:
    """Exhaustive exact check of the rank-one transfer identity over the
    valuation grid: on side 0 the sign-weighted twisted integral equals the
    unitary membership bit of the matched representative, and the two
    elements have the same matching_invariants; on side 1 the twisted
    integral vanishes.

    Both elements of a pair go through the same charpoly and _krylov, so
    an error inside those would cancel; the invariants see a matched
    representative whose diagonal or off-diagonal product is wrong."""
    validate_field_context(p, u)
    if vmax < 0 or c < 0:
        raise ValueError("grid bounds must be >= 0")
    reports = []
    diag_choices = [
        (Fraction(0), Fraction(0), "integral"),
        (Fraction(1, p), Fraction(0), "non-integral"),
    ]
    for v12 in range(vmax + 1):
        for v21 in range(vmax + 1):
            for a, d, tag in diag_choices:
                y = rank_one_element(a, d, Fraction(p**v12), Fraction(p**v21), u)
                side, x = match_rank1(y, c, p)
                params = {"p": p, "c": c, "v12": v12, "v21": v21, "diag": tag, "side": side}
                if side == 1:
                    lhs = orb_s2(y, c, p)
                    rep = exact_check("fl-rank1", params, lhs, 0, lhs == 0)
                elif x is None:
                    params["reason"] = "no exact matched representative"
                    rep = exact_check("fl-rank1", params, 0, 0, False)
                else:
                    lhs = transfer_factor(y, p) * orb_s2(y, c, p)
                    rhs = orb_u2(x, c, p)
                    ok = lhs == rhs and matching_invariants(x) == matching_invariants(y)
                    rep = exact_check("fl-rank1", params, lhs, rhs, ok)
                reports.append(rep)
    return reports


def group_transport_check(p: int, c: int, u: int = -1, seed: int = 0) -> list[VerificationReport]:
    """Spot-check of the group-side reduction: whenever the Cayley
    denominator det(1 - x) is a unit, x lies in the depth-c congruence
    lattice exactly when its Cayley image lies in the depth-c congruence
    group.  Instances mix lattice members with non-integral elements; 50
    are checked, from at most 10,000 draws."""
    validate_field_context(p, u)
    rng = random.Random(seed)
    j = herm_form_j(1, c, p, u)
    one = QuadExt.of(1, u)
    root = QuadExt.sqrt_u(u)
    reports: list[VerificationReport] = []
    attempts = 0
    while len(reports) < 50 and attempts < 10_000:
        attempts += 1
        # anti-hermitian for diag(1, p^c): purely imaginary diagonal and
        # b = -p^c conj(z); occasional p-denominators on z leave the lattice
        # (such draws survive the unit-denominator filter once c >= 2)
        zden = rng.choice([1, 1, 1, p])
        z = QuadExt(Fraction(rng.randint(-6, 6), zden), Fraction(rng.randint(-6, 6), zden), u)
        x = EMat(
            [
                [root * Fraction(rng.randint(-6, 6)), -(Fraction(p**c)) * z.conj()],
                [z, root * Fraction(rng.randint(-6, 6))],
            ],
            u,
        )
        if qe_valuation((EMat.identity(2, u) - x).det(), p) != 0:
            continue
        g = cayley(x, one)
        in_lattice = in_k_tilde_lie(x, c, p, j)
        in_group = in_group_u(g, j) and in_bmk_tilde(g, c, p)
        reports.append(
            exact_check(
                "fl-rank1-group-transport",
                {"p": p, "c": c, "index": len(reports), "in_lattice": in_lattice},
                int(in_lattice),
                int(in_group),
                in_lattice == in_group,
            )
        )
    return reports
