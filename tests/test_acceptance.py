"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, in the assertions.  The whole module is
expected to run in well under five minutes.
"""

import random

from helpers import satake
from localperiods.assembly import PairData, i_assembled, i_closed, j_main, j_via_bridge
from localperiods.suites import (
    RunConfig,
    run_asai_cancel,
    run_c1,
    run_macdonald,
    run_matrix_identities,
    run_volumes,
)
from localperiods.draws import conj_selfdual_unit, random_ramified_rep, unit_circle
from localperiods.lfactors import pair_dual_lfactor, rs_lfactor
from localperiods.orbital import fl_check_rank1
from localperiods.periods import (
    beta_closed,
    beta_truncated,
    lambda_closed,
    lambda_truncated,
    ratio_spread,
    theta_truncated,
)
from localperiods.report import STATUS_PASS, rel_error
from localperiods.reps import is_conjugate_selfdual
from localperiods.volumes import vol_gl


def announce(number: int, name: str, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[ACCEPTANCE {number:>2}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed"


def test_01_macdonald_identity():
    reports = run_macdonald(RunConfig(), random.Random(101))
    ok = len(reports) == 20 and all(r.status == STATUS_PASS and r.rel_err <= 1e-9 for r in reports)
    announce(1, "truncated Schur sum vs closed product (depth 60, rel 1e-9)", ok)


def test_02_beta_period_chain():
    rng = random.Random(202)
    depth = 25
    worst = 0.0
    ok = True
    for n in (1, 2, 3):
        for r in range(n + 1):
            for _ in range(10):
                q_f = rng.choice([5, 7]) if n == 3 else rng.choice([3, 5])
                rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 3))
                got = beta_truncated(rep, q_f, depth).value
                want = beta_closed(rep, q_f)
                err = rel_error(got, want)
                worst = max(worst, err)
                ok = ok and err <= 1e-8
    announce(2, "ramified period sum equals closed form (rel 1e-8, n<=3)", ok,
             f"worst rel err {worst:.2e}")


def test_03_essential_vector_pairing_identity():
    rng = random.Random(303)
    depth = 25
    ok = True
    worst = 0.0
    for n in (1, 2):
        for r in range(n + 1):
            for _ in range(5):
                rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 3))
                sigma = satake(unit_circle(rng, n), 25)
                got = lambda_truncated(sigma, rep, depth).value
                want = lambda_closed(sigma, rep)
                err = rel_error(got, want)
                worst = max(worst, err)
                ok = ok and err <= 1e-8
    # rank three: the ratio to the central pairing value must not depend on
    # the parameters, and it is the lattice volume of GL_3 over the extension
    ratios = []
    for _ in range(10):
        rep = random_ramified_rep(rng, 4, rng.randint(0, 3), rng.randint(1, 2))
        sigma = satake(unit_circle(rng, 3), 25)
        got = lambda_truncated(sigma, rep, depth).value
        ratios.append(got / rs_lfactor(sigma, rep.unramified_part(25)).value(0.5))
    spread = ratio_spread(ratios)
    ok = ok and spread <= 1e-7
    over_volume = sum(ratios) / len(ratios) / float(vol_gl(3, 25))
    ok = ok and abs(over_volume - 1) <= 1e-8
    announce(
        3,
        "pairing integral vs central L-value (rel 1e-8 for n<=2; n=3 spread 1e-7, "
        "constant/volume 1e-8)",
        ok,
        f"worst rel err {worst:.2e}; n=3 spread {spread:.2e}; "
        f"n=3 constant/volume = {abs(over_volume):.12f}",
    )


def test_04_theta_norm_ratio():
    rng = random.Random(404)
    depth = 30
    ok = True
    notes = []
    for k in (2, 3):
        ratios = []
        for _ in range(5):
            sigma = satake(unit_circle(rng, k), 9)
            ratios.append(theta_truncated(sigma, depth).value / pair_dual_lfactor(sigma).value(1))
        spread = ratio_spread(ratios)
        # the constant is vol(GL_{k-1}) (1 - q_E^-k) = vol(GL_k) on the unit circle
        over_volume = sum(ratios) / len(ratios) / float(vol_gl(k, 9))
        ok = ok and spread <= 1e-7 and abs(over_volume - 1) <= 1e-8
        notes.append(f"k={k}: spread {spread:.2e}, constant/volume = {abs(over_volume):.12f}")
    announce(4, "norm-integral ratio parameter independence and constant (k in {2,3})", ok,
             "; ".join(notes))


def test_05_asai_cancellation():
    reports = run_asai_cancel(RunConfig(), random.Random(505))
    ok = bool(reports) and all(
        r.status == STATUS_PASS and r.rel_err <= 1e-10 for r in reports
    )
    announce(5, "edge-point cancellation identity (rel 1e-10, both parities, m<=4)", ok)


def test_06_matching_constant_identity():
    reports = run_c1(RunConfig(), random.Random(0))
    ok = bool(reports) and all(r.status == STATUS_PASS and r.rel_err == 0.0 for r in reports)
    announce(6, "matching constant: both closed forms agree exactly on the grid", ok)


def test_07_main_theorem_algebra():
    rng = random.Random(707)
    depth = 40
    ok = True
    worst_bridge = 0.0
    worst_assembled = 0.0
    for _ in range(20):
        n = rng.randint(1, 3)
        q_f = 3 if n < 3 else rng.choice([5, 7])
        c = rng.randint(1, 4)
        d = PairData(
            satake(conj_selfdual_unit(rng, n), q_f**2),
            random_ramified_rep(rng, n + 1, rng.randint(0, n), c),
        )
        lhs, rhs = j_main(d), j_via_bridge(d)
        err = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        worst_bridge = max(worst_bridge, err)
        ok = ok and err <= 1e-9
        if n <= 2:
            ia, ic = i_assembled(d, depth), i_closed(d)
            err2 = abs(ia - ic) / max(abs(ia), abs(ic))
            worst_assembled = max(worst_assembled, err2)
            ok = ok and err2 <= 1e-9
    announce(
        7,
        "main identity via the matching bridge (rel 1e-9, 20 draws)",
        ok,
        f"bridge worst {worst_bridge:.2e}; assembly worst {worst_assembled:.2e}",
    )


def test_08_rank_one_transfer_exhaustive():
    ok = True
    total = 0
    for p in (3, 7):
        for c in range(4):
            reports = fl_check_rank1(p, c, vmax=4)
            total += len(reports)
            ok = ok and all(r.status == STATUS_PASS for r in reports)
    announce(8, "rank-one transfer identity, exhaustive exact grid", ok, f"{total} orbits")


def test_09_matrix_identity_suite():
    reports = run_matrix_identities(RunConfig(), random.Random(909))
    by_check = {}
    for r in reports:
        by_check.setdefault(r.check, []).append(r)
    expected = {
        "det-stack": 200,
        "cayley-unitarity-equivariance": 100,
        "cayley-lattice-stability": 100,
        "transfer-factor-iota": 100,
        "r-map-congruence": 100,
    }
    ok = True
    for name, count in expected.items():
        got = by_check.get(name, [])
        ok = ok and len(got) == count and all(r.status == STATUS_PASS for r in got)
    announce(9, "exact matrix identity suite (all five families)", ok)


def test_10_volume_sanity():
    reports = run_volumes(RunConfig(), random.Random(0))
    ok = bool(reports) and all(r.status == STATUS_PASS for r in reports)
    announce(10, "volume formulas: unit normalizations, positivity, dual lattice", ok)


def test_11_satake_symmetry():
    rng = random.Random(1111)
    ok = True
    for _ in range(30):
        m = rng.randint(1, 5)
        params = conj_selfdual_unit(rng, m)
        ok = ok and is_conjugate_selfdual(params)
        perturbed = list(params)
        idx = rng.randrange(m)
        bump = 1e-3
        if abs(perturbed[idx].imag) > 0.1:
            perturbed[idx] *= complex(1.0, bump) / abs(complex(1.0, bump))
        else:
            perturbed[idx] *= 1 + bump
        ok = ok and not is_conjugate_selfdual(tuple(perturbed))
    announce(11, "parameter-set symmetry detection and 1e-3 perturbation rejection", ok)
