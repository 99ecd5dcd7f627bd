import json
import math
from pathlib import Path

import pytest

from localperiods.report import (
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_REJECTED,
    TOLERANCES,
    exact_check,
    hard_check,
    rel_error,
)

GOLDEN = Path(__file__).parent / "golden"

#: the checks recorded by exact_check, which need no tolerance
EXACT_CHECKS = {
    "c1-identity", "cayley-lattice-stability", "cayley-unitarity-equivariance",
    "det-stack", "fl-rank1", "fl-rank1-group-transport", "r-map-congruence",
    "transfer-factor-iota", "volume-sanity",
}


def test_exact_check_pass():
    rep = exact_check("c1-identity", {"q": 3}, 9, 9, True)
    assert (rep.lhs, rep.rhs, rep.rel_err, rep.status) == (9 + 0j, 9 + 0j, 0.0, STATUS_PASS)
    assert rep.to_json() == {
        "check": "c1-identity", "params": {"q": 3}, "lhs": [9.0, 0.0], "rhs": [9.0, 0.0],
        "rel_err": 0.0, "status": STATUS_PASS,
    }


def test_exact_check_fail():
    rep = exact_check("det-stack", {"index": 0}, 1, 0, False)
    assert (rep.lhs, rep.rhs, rep.rel_err, rep.status) == (1 + 0j, 0j, 1.0, STATUS_FAIL)
    assert isinstance(rep.lhs, complex) and isinstance(rep.rhs, complex)


def at_rel_error(err: float) -> tuple[complex, complex]:
    """lhs and rhs whose rel_error is err exactly: they differ by err in the
    imaginary part, and the larger modulus rounds to 1."""
    re = 1.0
    while abs(complex(re, err)) > 1.0:
        re = math.nextafter(re, 0.0)
    lhs, rhs = complex(re, 0.0), complex(re, err)
    assert rel_error(lhs, rhs) == err
    return lhs, rhs


@pytest.mark.parametrize("check", sorted(TOLERANCES))
def test_tolerance_is_inclusive_to_the_ulp(check):
    tol = TOLERANCES[check]
    at = at_rel_error(tol)
    above = at_rel_error(math.nextafter(tol, math.inf))
    assert hard_check(check, {}, *at).status == STATUS_PASS
    assert hard_check(check, {}, *above).status == STATUS_FAIL


def test_unknown_check_name_raises():
    with pytest.raises(KeyError):
        hard_check("no-such-check", {}, 1.0, 1.0)


def golden_records() -> list[dict]:
    return [rec for path in sorted(GOLDEN.glob("*.json")) for rec in json.loads(path.read_text())]


def test_golden_statuses_agree_with_the_table():
    records = golden_records()
    assert {rec["status"] for rec in records} <= {STATUS_PASS, STATUS_FAIL, STATUS_REJECTED}
    compared = [rec for rec in records
                if rec["check"] in TOLERANCES and rec["status"] != STATUS_REJECTED]
    assert compared
    for rec in compared:
        passed = rec["rel_err"] <= TOLERANCES[rec["check"]]
        assert (rec["status"] == STATUS_PASS) == passed, rec


def test_every_float_check_in_the_goldens_has_a_tolerance():
    names = {rec["check"] for rec in golden_records()}
    assert not EXACT_CHECKS & set(TOLERANCES)
    assert names - EXACT_CHECKS == set(TOLERANCES)
