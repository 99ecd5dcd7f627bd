from localperiods.report import STATUS_FAIL, STATUS_PASS, exact_check


def test_exact_check_pass():
    rep = exact_check("c1-identity", {"q": 3}, 9, 9, True)
    assert (rep.lhs, rep.rhs, rep.rel_err, rep.status) == (9 + 0j, 9 + 0j, 0.0, STATUS_PASS)
    assert not rep.is_hard_failure
    assert rep.to_json() == {
        "check": "c1-identity", "params": {"q": 3}, "lhs": [9.0, 0.0], "rhs": [9.0, 0.0],
        "rel_err": 0.0, "status": STATUS_PASS,
    }


def test_exact_check_fail():
    rep = exact_check("det-stack", {"index": 0}, 1, 0, False)
    assert (rep.lhs, rep.rhs, rep.rel_err, rep.status) == (1 + 0j, 0j, 1.0, STATUS_FAIL)
    assert rep.is_hard_failure
    assert isinstance(rep.lhs, complex) and isinstance(rep.rhs, complex)
