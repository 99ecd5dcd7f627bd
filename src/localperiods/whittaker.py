"""Torus values of the normalized spherical and essential Whittaker functions.

Both evaluators take plain exponent tuples: the spherical one the full
diagonal exponent vector, the essential one the first m-1 exponents with a
trailing 1 understood in the last diagonal slot.  Values off the stated
support are exactly zero.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .reps import GenericRep
from .symfunc import delta_weight, is_weakly_decreasing, schur


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
    if len(exponents) != rep.rank - 1:
        raise ValueError("expected m-1 exponents for a rank-m representation")
    return _essential_on_torus(rep, q_e)[1](exponents)


def _essential_on_torus(
    rep: GenericRep, q_e: int
) -> tuple[int, Callable[[tuple[int, ...]], complex]]:
    """The unramified-part rank r of a ramified representation, and its
    essential_value as a function of the exponent tuple alone.  The
    unramified part is computed once here, not once per tuple, so a torus
    sum over the returned function pays for it once."""
    m = rep.rank
    if not rep.is_ramified():
        raise ValueError("representation is unramified; use spherical_value")
    if m < 2:
        raise ValueError("rank must be >= 2")
    r, sigma_u = rep.unramified_part(q_e)

    def value(exponents: tuple[int, ...]) -> complex:
        head, tail = exponents[:r], exponents[r:]
        if any(f != 0 for f in tail):
            return 0.0
        if not is_weakly_decreasing(head) or (head and head[-1] < 0):
            return 0.0
        total = sum(head)
        return spherical_value(sigma_u.params, head, q_e) * float(q_e) ** (-(m - r) * total / 2)

    return r, value
