"""Torus values of the normalized spherical and essential Whittaker functions.

spherical_value and essential_value are the reference evaluators: they
take plain exponent tuples, the spherical one the full diagonal exponent
vector, the essential one the first m-1 exponents with a trailing 1
understood in the last diagonal slot, and check their support on every
call.  Values off the stated support are exactly zero.

A torus sum evaluates one parameter set at thousands of weights, and
periods._torus_sum passes only weights on the support: a weakly
decreasing head of nonnegative parts followed by zeros.  So
_essential_on_torus gives it the factor of essential_value that depends
on the representation, with no support test: the unramified-part rank
and the Schur values of the unramified part along the support.  The half
modular weights and the determinant-size powers depend only on the shape
of the sum, and are weight vectors in periods.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .reps import GenericRep, SatakeSet
from .symfunc import _schur_support, delta_weight, is_weakly_decreasing, schur


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


def _essential_on_torus(rep: GenericRep, q_e: int, depth: int) -> tuple[int, Iterator[complex]]:
    """The unramified-part rank r of a ramified representation and the
    Schur values of its unramified part along the support of r parts in
    [0, depth], in sum order (symfunc._support): the factor of
    essential_value that depends on the representation beyond r.  The
    unramified part is computed once here, not once per tuple."""
    sigma_u = _unramified_part(rep, q_e)
    return len(sigma_u), _schur_support(sigma_u.params, len(sigma_u), depth)


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
