"""Local L-factors as finite multisets of inverse roots over a residue-size
base, with the standard product constructions (Rankin-Selberg pairing, the
two twisted tensor factors, conjugate-dual pairing) and the cancellation
identity relating them at the edge point."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any

from .numerics import ensure_finite
from .report import VerificationReport, hard_check, rejected
from .reps import SatakeSet, selfdual_unit_defect

POLE_EPS = 1e-12


class PoleError(ArithmeticError):
    """Evaluation hit a pole; carries the offending (gamma, degree) factor."""

    def __init__(self, factor: tuple[complex, int], s: complex):
        self.factor = factor
        self.s = s
        super().__init__(f"pole at s={s}: factor gamma={factor[0]}, degree={factor[1]}")


def _canonical(factors) -> tuple[tuple[complex, int], ...]:
    cleaned = []
    for gamma, d in factors:
        gamma = complex(gamma)
        ensure_finite(gamma)
        if d < 1:
            raise ValueError("factor degree must be >= 1")
        if gamma != 0:
            cleaned.append((gamma, int(d)))
    cleaned.sort(key=lambda f: (f[1], f[0].real, f[0].imag))
    return tuple(cleaned)


@dataclass(frozen=True)
class LocalLFactor:
    """Product over stored factors of (1 - gamma * base^(-d*s))^(-1)."""

    base: int
    factors: tuple[tuple[complex, int], ...]

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("base must be >= 2")
        object.__setattr__(self, "factors", _canonical(self.factors))

    def value(self, s: complex) -> complex:
        out: complex = 1.0
        for gamma, d in self.factors:
            term = 1 - gamma * cmath.exp(-d * s * math.log(self.base))
            if abs(term) <= POLE_EPS:
                raise PoleError((gamma, d), s)
            out /= term
        return ensure_finite(out)

    def to_json(self) -> dict[str, Any]:
        return {"base": self.base, "factors": [[g.real, g.imag, d] for g, d in self.factors]}



def rs_lfactor(sigma: SatakeSet, tau: SatakeSet) -> LocalLFactor:
    """Pairing factor with inverse roots alpha_i * beta_j, degree 1, over the
    common base."""
    if sigma.base != tau.base:
        raise ValueError("both parameter sets must share the same base")
    return LocalLFactor(sigma.base, tuple((a * b, 1) for a in sigma for b in tau))


def _square_base_root(q_e: int) -> int:
    q_f = math.isqrt(q_e)
    if q_f * q_f != q_e or q_f < 2:
        raise ValueError(f"base {q_e} is not the square of a residue size")
    return q_f


def asai_lfactor(sigma: SatakeSet, sign: int) -> LocalLFactor:
    """Twisted tensor factor over the base field: linear factors alpha_i
    (sign +) or -alpha_i (sign -), plus degree-2 factors alpha_i*alpha_j for
    i < j.  The parameter set lives over the square base."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    q_f = _square_base_root(sigma.base)
    params = sigma.params
    factors = [(a if sign == 1 else -a, 1) for a in params]
    factors += [(params[i] * params[j], 2) for i in range(len(params)) for j in range(i + 1, len(params))]
    return LocalLFactor(q_f, tuple(factors))


def pair_dual_lfactor(sigma: SatakeSet) -> LocalLFactor:
    """Conjugate-pairing factor: all ordered products alpha_i * conj(alpha_j)."""
    return LocalLFactor(sigma.base, tuple((a * b.conjugate(), 1) for a in sigma for b in sigma))


def asai_cancellation_check(sigma: SatakeSet, n_parity: int) -> VerificationReport:
    """Check conj(L(1, As^(eps'))) / L(1, sigma x conj-dual) = L(1, As^(eps))^-1
    where eps = (-1)^n and eps' = (-1)^(n-1), for conjugate-self-dual
    unit-circle parameters."""
    params = {
        "satake": [[a.real, a.imag] for a in sigma.params],
        "base": sigma.base,
        "n_parity": n_parity % 2,
    }
    defect = selfdual_unit_defect(sigma)
    if defect:
        return rejected("asai-cancel", params, defect)
    eps = -1 if n_parity % 2 else 1
    lhs = asai_lfactor(sigma, -eps).value(1).conjugate() / pair_dual_lfactor(sigma).value(1)
    rhs = 1 / asai_lfactor(sigma, eps).value(1)
    return hard_check("asai-cancel", params, lhs, rhs)
