"""Torus values of the normalized spherical and essential Whittaker functions.

spherical_value and essential_value are the reference evaluators: they
take plain exponent tuples, the spherical one the full diagonal exponent
vector, the essential one the first m-1 exponents with a trailing 1
understood in the last diagonal slot, and check their support on every
call.  Values off the stated support are exactly zero.

A torus sum evaluates one parameter set at thousands of weights, and
periods._torus_sum passes only weights on the support: a weakly
decreasing head of nonnegative parts followed by zeros.  So
_essential_on_torus gives it the per-sum factors of essential_value with
no support test: the unramified-part rank, the Schur runs of the
unramified part and the determinant-size powers by total exponent.  The
half modular weights, shared by every factor of a sum, are the sum's own
table in periods.
"""

from __future__ import annotations

from typing import Sequence

from .reps import GenericRep, SatakeSet
from .symfunc import _Memo, _Run, _schur_table, delta_weight, is_weakly_decreasing, schur


def spherical_value(params: Sequence[complex], exponents: Sequence[int], q_e: int) -> complex:
    """Value at the torus point with the given exponents: zero unless the
    tuple is weakly decreasing, else the half modular weight times the
    Schur value at the parameters."""
    params = tuple(params)
    exponents = tuple(exponents)
    if len(exponents) != len(params):
        raise ValueError("exponent tuple length must equal the rank")
    if not is_weakly_decreasing(exponents):
        return 0.0
    return float(delta_weight(exponents, q_e, half=True)) * schur(exponents, params)


def essential_value(rep: GenericRep, exponents: Sequence[int], q_e: int) -> complex:
    """Newform-line Whittaker value of a ramified generic representation at
    diag(pi^f_1, ..., pi^f_{m-1}, 1).

    Supported only on f_1 >= ... >= f_r >= 0 with all later exponents zero,
    where r is the unramified-part rank; there it is the spherical value of
    the unramified part scaled by the (m-r)/2 power of the determinant size.
    """
    exponents = tuple(exponents)
    m = rep.rank
    if len(exponents) != m - 1:
        raise ValueError("expected m-1 exponents for a rank-m representation")
    sigma_u = _unramified_part(rep, q_e)
    r = len(sigma_u)
    head = exponents[:r]
    if any(exponents[r:]) or not is_weakly_decreasing(head) or (head and head[-1] < 0):
        return 0.0
    return spherical_value(sigma_u.params, head, q_e) * float(q_e) ** (-(m - r) * sum(head) / 2)


def _essential_on_torus(rep: GenericRep, q_e: int, max_part: int) -> tuple[int, _Run, _Memo]:
    """The factors of essential_value for one sum over exponents with parts
    up to max_part: the unramified-part rank r, the Schur runs of the
    unramified part, and the determinant-size power by total exponent t,
    float(q_e) ** (-(m - r) * t / 2).  On its support, a weakly decreasing
    head of r nonnegative parts followed by zeros, the value is
    float(_modular_weight(e, q_e, half=True)) * schur_u(head) * size[|head|],
    e the modular exponent of the head, and schur_run(top) gives schur_u
    on the heads of the run of top.  The unramified part is computed once
    here, not once per tuple."""
    m = rep.rank
    sigma_u = _unramified_part(rep, q_e)
    r = len(sigma_u)
    size = _Memo(lambda t: float(q_e) ** (-(m - r) * t / 2))
    return r, _schur_table(sigma_u.params, max_part), size


def _unramified_part(rep: GenericRep, q_e: int) -> SatakeSet:
    """The unramified part of a ramified representation of rank >= 2, the
    only ones with a newform-line vector here.  The beta and lambda sums
    take their newform-line factor through _essential_on_torus, so an
    unramified representation raises here for both."""
    if not rep.is_ramified():
        raise ValueError("representation is unramified; its newform is the spherical vector")
    if rep.rank < 2:
        raise ValueError("rank must be >= 2")
    return rep.unramified_part(q_e)
