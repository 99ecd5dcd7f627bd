"""The verification suites: ten seeded families of checks, defined once
here and shared by the command line and the tests.  A suite takes a
RunConfig and a random source and returns its records; _run_suites gives
each suite its own random.Random(cfg.seed)."""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .assembly import PairData, i_assembled, i_closed, j_main, j_via_bridge
from .draws import (
    conj_selfdual_unit,
    off_unit_circle,
    random_anti_hermitian,
    random_integral_emat,
    random_kprime_element,
    random_ramified_rep,
    unit_circle,
)
from .hermitian import (
    EMat,
    cayley,
    cayley_inv,
    det_stack_identity_check,
    herm_form_j,
    in_bmk_tilde,
    in_group_u,
    in_k_s,
    iota_c,
    norm_one_units,
    r_map,
    transfer_factor,
)
from .lfactors import asai_cancellation_check, pair_dual_lfactor, rs_lfactor
from .numerics import QuadExt, qe_valuation, validate_field_context
from .orbital import fl_check_rank1, group_transport_check
from .periods import (
    check_beta,
    check_beta_spherical,
    check_lambda,
    check_theta,
    lambda_truncated,
    ratio_spread,
)
from .report import STATUS_FAIL, STATUS_PASS, TOLERANCES, VerificationReport, exact_check, hard_check
from .reps import SatakeSet
from .symfunc import macdonald_closed, macdonald_sum
from .volumes import (
    c1,
    constant_c_main,
    vol_gl,
    vol_kprime_c,
    vol_u_lie,
    vol_unitary_v,
    vol_unitary_w,
)

Q_GRID = (3, 5, 7, 9, 27)


#: every option of the command line, by field; _SUITE_OPTIONS names those each suite reads
@dataclass
class RunConfig:
    q_f: int = 3
    p: int = 3
    u: int = -1
    n: int | None = None
    c: int | None = None
    satake: list[complex] = field(default_factory=list)
    satake2: list[complex] = field(default_factory=list)
    segments_file: str | None = None
    depth: int = 40
    seed: int = 0
    vmax: int = 4
    s: float | None = None
    asai: str | None = None
    pair_dual: bool = False
    weight: list[int] | None = None
    json_path: str | None = None

    @property
    def q_e(self) -> int:
        return self.q_f**2


def _ratio_pair(
    name: str, params: dict, ratios: list[complex], constant: Fraction
) -> list[VerificationReport]:
    """Hard checks that the ratios agree across the draws and that their
    mean equals the constant they should all equal."""
    params = {**params, "draws": len(ratios)}
    spread = ratio_spread(ratios)
    check = f"{name}-ratio-independence"
    status = STATUS_PASS if spread <= TOLERANCES[check] else STATUS_FAIL
    mean = sum(ratios) / len(ratios)
    return [
        VerificationReport(check, params, complex(spread), 0j, spread, status),
        hard_check(f"{name}-constant", dict(params), mean, complex(float(constant))),
    ]


def run_macdonald(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for k in range(20):
        r = rng.randint(1, 3)
        xs = tuple(0.6 * rng.random() * cmath.exp(2j * math.pi * rng.random()) for _ in range(r))
        got = macdonald_sum(xs, 60)
        want = macdonald_closed(xs)
        params = {"draw": k, "r": r, "x": [[z.real, z.imag] for z in xs]}
        reports.append(hard_check("macdonald", params, got, want))
    return reports


def run_beta(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for n in range(1, min(3, cfg.q_f - 1) + 1):
        for r in range(n + 1):
            for k in range(10):
                rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 3))
                rep_report = check_beta(rep, cfg.q_f, cfg.depth)
                rep_report.params.update({"n": n, "r": r, "draw": k})
                reports.append(rep_report)
    for n in range(1, 4):
        for k in range(5):
            sigma_n = SatakeSet(unit_circle(rng, n), cfg.q_e)
            sph_report = check_beta_spherical(sigma_n, cfg.depth)
            sph_report.params.update({"n": n, "draw": k})
            reports.append(sph_report)
    return reports


def run_theta(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for k_rank in (2, 3):
        ratios = []
        for k in range(5):
            sigma = SatakeSet(unit_circle(rng, k_rank), cfg.q_e)
            reports.append(check_theta(sigma, cfg.depth))
            ratios.append(reports[-1].lhs / pair_dual_lfactor(sigma).value(1))
        reports.extend(_ratio_pair("theta", {"k": k_rank}, ratios, vol_gl(k_rank, cfg.q_e)))
    # Off the unit circle |det sigma| differs from 1, so that these draws see
    # the length factor of theta_closed; their ratios depend on |det sigma|
    # through it, so they stay out of the ratio family.
    off = random.Random(rng.getrandbits(64))
    for k_rank in (2, 3):
        for _ in range(3):
            sigma = SatakeSet(off_unit_circle(off, k_rank, cfg.q_e), cfg.q_e)
            reports.append(check_theta(sigma, cfg.depth))
    return reports


def run_lambda(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for n in (1, 2):
        for k in range(5):
            r = rng.randint(0, n)
            rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 3))
            sigma_n = SatakeSet(unit_circle(rng, n), cfg.q_e)
            rep_report = check_lambda(sigma_n, rep, cfg.depth)
            rep_report.params.update({"n": n, "r": r, "draw": k})
            reports.append(rep_report)
    n = 3
    if cfg.q_f > n:
        ratios = []
        for k in range(10):
            r = rng.randint(0, n)
            rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 3))
            sigma_n = SatakeSet(unit_circle(rng, n), cfg.q_e)
            got = lambda_truncated(sigma_n, rep, cfg.depth).value
            ratios.append(got / rs_lfactor(sigma_n, rep.unramified_part(cfg.q_e)).value(0.5))
        reports.extend(_ratio_pair("lambda", {"n": n}, ratios, vol_gl(n, cfg.q_e)))
    return reports


def run_volumes(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for q in Q_GRID:
        ok = vol_gl(1, q) == 1 and vol_unitary_w(1, q) == 1
        params = {"q": q, "claim": "rank-one volumes are 1"}
        reports.append(exact_check("volume-sanity", params, float(vol_gl(1, q)), 1, ok))
        for n in range(1, 5):
            for c in range(1, 4):
                values = [
                    vol_gl(n, q),
                    vol_kprime_c(n, c, q * q),
                    vol_unitary_w(n, q),
                    vol_unitary_v(n, c, q),
                    constant_c_main(n, c, q),
                ]
                positive = all(v > 0 for v in values)
                ok = positive and vol_u_lie(n, c, q) == Fraction(1, q ** (c * n))
                params = {"q": q, "n": n, "c": c, "claim": "positivity and dual lattice"}
                reports.append(exact_check("volume-sanity", params, 1, int(ok), ok))
    return reports


def run_c1(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for q in Q_GRID:
        for n in range(1, 5):
            for c in range(1, 6):
                left, right = c1(n, c, q)
                params = {"q": q, "n": n, "c": c}
                reports.append(
                    exact_check("c1-identity", params, float(left), float(right), left == right)
                )
    return reports


def run_asai_cancel(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for k in range(20):
        m = rng.randint(1, 4)
        sigma = SatakeSet(conj_selfdual_unit(rng, m), cfg.q_e)
        for parity in (0, 1):
            rep = asai_cancellation_check(sigma, parity)
            rep.params["draw"] = k
            reports.append(rep)
    return reports


def run_main_theorem(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for k in range(20):
        n = cfg.n if cfg.n is not None else rng.randint(1, 3)
        q_f = cfg.q_f if cfg.q_f > n else rng.choice([5, 7])
        c = cfg.c if cfg.c is not None else rng.randint(1, 4)
        r = rng.randint(0, n)
        rep = random_ramified_rep(rng, n + 1, r, c)
        d = PairData(SatakeSet(conj_selfdual_unit(rng, n), q_f**2), rep)
        params = {"draw": k, "n": n, "c": c, "q_f": q_f, "r": r}
        reports.append(hard_check("main-theorem-bridge", params, j_main(d), j_via_bridge(d)))
        if n <= 2:
            lhs = i_assembled(d, cfg.depth)
            reports.append(hard_check("i-assembled-vs-closed", params, lhs, i_closed(d)))
    return reports


def run_fl_rank1(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    cs = [cfg.c] if cfg.c is not None else [0, 1, 2, 3]
    reports = []
    for c in cs:
        reports.extend(fl_check_rank1(cfg.p, c, cfg.vmax, cfg.u))
        reports.extend(group_transport_check(cfg.p, c, cfg.u, seed=cfg.seed))
    return reports


def run_matrix_identities(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    p, u = cfg.p, cfg.u
    validate_field_context(p, u)
    reports = []

    def record(check: str, index: int, ok: bool, extra: dict) -> None:
        reports.append(exact_check(check, {"index": index, "p": p, **extra}, 1, int(ok), ok))

    for idx in range(200):
        m = rng.randint(1, 4)
        x = random_integral_emat(rng, m + 1, u)
        record("det-stack", idx, det_stack_identity_check(x), {"m": m})

    def hundred(
        check: str, max_n: int, min_c: int, draw: Callable[[int, int], bool | None]
    ) -> None:
        """Records draw(n, c) under check for n in [1, max_n] and c in
        [min_c, 2] drawn at random, until 100 are recorded; a draw that
        returns None is drawn again."""
        done = 0
        while done < 100:
            n, c = rng.randint(1, max_n), rng.randint(min_c, 2)
            ok = draw(n, c)
            if ok is not None:
                record(check, done, ok, {"n": n, "c": c})
                done += 1

    def cayley_unitarity_equivariance(n: int, c: int) -> bool | None:
        x = random_anti_hermitian(rng, n, c, p, u)
        try:
            g = cayley(x, QuadExt.of(1, u))
        except ZeroDivisionError:
            return None
        ok = in_group_u(g, herm_form_j(n, c, p, u))
        h = random_integral_emat(rng, n + 1, u, span=2)
        try:
            h_inv = h.inv()
        except ZeroDivisionError:
            return ok
        # det(1 - h x h^-1) = det(1 - x) != 0, so this Cayley transform exists
        return ok and cayley(h @ x @ h_inv, QuadExt.of(1, u)) == h @ g @ h_inv

    hundred("cayley-unitarity-equivariance", 2, 0, cayley_unitarity_equivariance)
    xis = norm_one_units(u)

    def cayley_lattice_stability(n: int, c: int) -> bool | None:
        one = EMat.identity(n + 1, u)
        factors = []
        for _ in range(2):
            x = random_anti_hermitian(rng, n, c, p, u)
            if not x.is_integral(p) or qe_valuation((one - x).det(), p) != 0:
                return None
            factors.append(cayley(x, QuadExt.of(1, u)))
        g = factors[0] @ factors[1]
        if not in_bmk_tilde(g, c, p):
            return None
        xi = rng.choice(xis)
        if qe_valuation((g + one * xi).det(), p) != 0:
            return None
        return in_bmk_tilde(cayley_inv(g, xi), c, p)

    hundred("cayley-lattice-stability", 2, 0, cayley_lattice_stability)
    root = QuadExt.sqrt_u(u)

    def transfer_factor_iota(n: int, c: int) -> bool | None:
        y = random_integral_emat(rng, n + 1, u, span=3) * root
        y = y - y.conj()  # entrywise trace-zero model element
        try:
            return transfer_factor(iota_c(y, c, p), p) == transfer_factor(y, p)
        except ValueError:
            return None

    hundred("transfer-factor-iota", 3, 0, transfer_factor_iota)

    def r_map_congruence(n: int, c: int) -> bool | None:
        g = random_kprime_element(rng, n, c, p, u)
        return None if g is None else in_k_s(r_map(g), c, p)

    hundred("r-map-congruence", 2, 1, r_map_congruence)
    return reports


SUITES: dict[str, Callable[[RunConfig, random.Random], list[VerificationReport]]] = {
    "macdonald": run_macdonald,
    "beta": run_beta,
    "theta": run_theta,
    "lambda": run_lambda,
    "volumes": run_volumes,
    "c1": run_c1,
    "asai-cancel": run_asai_cancel,
    "main-theorem": run_main_theorem,
    "fl-rank1": run_fl_rank1,
    "matrix-identities": run_matrix_identities,
}

#: the RunConfig fields each suite reads besides seed and json_path
_SUITE_OPTIONS: dict[str, tuple[str, ...]] = {
    "macdonald": (), "c1": (), "asai-cancel": ("q_f",), "volumes": (),
    "beta": ("q_f", "depth"), "theta": ("q_f", "depth"), "lambda": ("q_f", "depth"),
    "main-theorem": ("q_f", "n", "c", "depth"),
    "fl-rank1": ("p", "u", "c", "vmax"), "matrix-identities": ("p", "u"),
}


def _run_suites(cfg: RunConfig, names: Iterable[str]) -> list[VerificationReport]:
    """The records of the named suites, in order, each suite drawing from
    its own random.Random(cfg.seed)."""
    return [rep for name in names for rep in SUITES[name](cfg, random.Random(cfg.seed))]
