"""Uniform result records for identity checks, with the JSON encoding shared
by the library API and the command line."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_REJECTED = "rejected-input"

#: relative tolerance of each float check family, by check name; the exact
#: checks (exact_check) need none
TOLERANCES: dict[str, float] = {
    "macdonald": 1e-9,
    "main-theorem-bridge": 1e-9,
    "i-assembled-vs-closed": 1e-9,
    "beta": 1e-8,
    "beta-spherical": 1e-8,
    "theta": 1e-8,
    "lambda": 1e-8,
    "theta-constant": 1e-8,
    "lambda-constant": 1e-8,
    "theta-ratio-independence": 1e-7,
    "lambda-ratio-independence": 1e-7,
    "asai-cancel": 1e-10,
}


def rel_error(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale == 0:
        return 0.0
    return abs(lhs - rhs) / scale


@dataclass
class VerificationReport:
    check: str
    params: dict[str, Any] = field(default_factory=dict)
    lhs: complex = 0j
    rhs: complex = 0j
    rel_err: float = 0.0
    status: str = STATUS_PASS
    tail_estimate: float | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "check": self.check,
            "params": self.params,
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "rel_err": self.rel_err,
            "status": self.status,
        }
        if self.tail_estimate is not None:
            out["tail_estimate"] = self.tail_estimate
        return out

    def __str__(self) -> str:
        return f"[{self.status.upper()}] {self.check} {self.params} rel_err={self.rel_err:.3e}"


def hard_check(
    check: str,
    params: dict[str, Any],
    lhs: complex,
    rhs: complex,
    tail_estimate: float | None = None,
) -> VerificationReport:
    """Pass/fail comparison at the check's relative tolerance in TOLERANCES."""
    err = rel_error(lhs, rhs)
    status = STATUS_PASS if err <= TOLERANCES[check] else STATUS_FAIL
    return VerificationReport(check, params, complex(lhs), complex(rhs), err, status,
                              tail_estimate=tail_estimate)


def exact_check(
    check: str, params: dict[str, Any], lhs: complex, rhs: complex, ok: bool
) -> VerificationReport:
    """Pass/fail record of an identity decided exactly by the caller:
    rel_err is 0.0 on a pass and 1.0 on a failure."""
    return VerificationReport(check, params, complex(lhs), complex(rhs), 0.0 if ok else 1.0,
                              STATUS_PASS if ok else STATUS_FAIL)


def rejected(check: str, params: dict[str, Any], reason: str) -> VerificationReport:
    params = dict(params)
    params["reason"] = reason
    return VerificationReport(check, params, status=STATUS_REJECTED)
