"""Command-line front end: batch verification suites, single-value
computations, and the exact constants table, all with deterministic seeded
draws and JSON reporting."""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from .assembly import PairData, ParityError, i_assembled, i_closed, j_main, j_via_bridge
from .hermitian import (
    EMat,
    cayley,
    cayley_inv,
    det_stack_identity_check,
    herm_form_j,
    in_bmk_tilde,
    in_group_u,
    in_k_s,
    in_kprime,
    iota_c,
    norm_one_units,
    r_map,
    transfer_factor,
)
from .lfactors import (
    PoleError,
    asai_cancellation_check,
    asai_lfactor,
    pair_dual_lfactor,
    rs_lfactor,
)
from .numerics import (
    QuadExt,
    ToleranceCfg,
    is_prime,
    is_prime_power,
    qe_valuation,
    validate_field_context,
)
from .orbital import fl_check_rank1, group_transport_check
from .periods import (
    TruncationCfg,
    check_beta,
    check_lambda,
    check_theta,
    lambda_truncated,
    ratio_spread,
    theta_truncated,
)
from .report import STATUS_FAIL, STATUS_PASS, VerificationReport, hard_check, soft_check
from .reps import GenericRep, RamCusp, SatakeSet, Segment, UnramChar
from .symfunc import macdonald_closed, macdonald_sum
from .volumes import (
    c1,
    constant_c_main,
    vol_bmk_glf,
    vol_gl,
    vol_k0,
    vol_kprime_c,
    vol_u_lie,
    vol_unitary_v,
    vol_unitary_w,
)
from .whittaker import essential_value, spherical_value

Q_GRID = (3, 5, 7, 9, 27)


@dataclass
class RunConfig:
    q_f: int = 3
    p: int = 3
    u: int = -1
    n: int | None = None
    c: int | None = None
    eps: int | None = None
    satake: list[complex] = field(default_factory=list)
    satake2: list[complex] = field(default_factory=list)
    segments_file: str | None = None
    depth: int = 40
    seed: int = 0
    vmax: int = 4
    s: float | None = None
    asai: str | None = None
    pair_dual: bool = False
    json_path: str | None = None

    @property
    def q_e(self) -> int:
        return self.q_f**2

    @property
    def trunc(self) -> TruncationCfg:
        return TruncationCfg(self.depth)

    def validate(self) -> None:
        if not is_prime_power(self.q_f) or self.q_f < 3 or self.q_f % 2 == 0:
            raise UsageError(f"--qf must be an odd prime power >= 3, got {self.q_f}")
        if not is_prime(self.p) or self.p == 2:
            raise UsageError(f"--p must be an odd prime, got {self.p}")
        if self.n is not None and self.q_f <= self.n:
            raise UsageError(f"--qf must exceed --n (got qf={self.q_f}, n={self.n})")
        if self.depth < 1:
            raise UsageError("--depth must be >= 1")


class UsageError(ValueError):
    pass


def parse_complex_list(text: str) -> list[complex]:
    """Comma-separated complex values; accepts 'i' for the imaginary unit."""
    out = []
    for token in text.split(","):
        token = token.strip().replace("i", "j")
        if not token:
            continue
        try:
            out.append(complex(token))
        except ValueError as exc:
            raise UsageError(f"cannot parse complex value {token!r}") from exc
    return out


def load_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines, '#' comments; keys mirror the long flags."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_").lstrip("_")] = val.strip().strip("\"'")
    return values


def load_rep(cfg: RunConfig) -> GenericRep:
    if not cfg.segments_file:
        raise UsageError("--segments-file is required for this command")
    with open(cfg.segments_file) as fh:
        return GenericRep.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# random draws


def unit_circle(rng: random.Random, m: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * math.pi * rng.random()) for _ in range(m))


def conj_selfdual_unit(rng: random.Random, m: int) -> tuple[complex, ...]:
    """Unit-circle multiset stable under inversion: rotation pairs plus a
    self-inverse +-1 when the size is odd."""
    out: list[complex] = []
    if m % 2:
        out.append(complex(rng.choice([1.0, -1.0])))
    while len(out) < m:
        z = cmath.exp(2j * math.pi * rng.random())
        out.extend([z, 1 / z])
    rng.shuffle(out)
    return tuple(out)


def random_ramified_rep(
    rng: random.Random, rank: int, r: int, cond: int
) -> GenericRep:
    """Rank-`rank` representation with r unramified-character supports on
    the unit circle (conjugate-self-dual) and one opaque ramified support
    carrying the whole conductor."""
    if not (0 <= r < rank):
        raise ValueError("need 0 <= r < rank")
    params = conj_selfdual_unit(rng, r)
    segments = [Segment(UnramChar(a)) for a in params]
    segments.append(Segment(RamCusp(dim=rank - r, cond=cond)))
    return GenericRep(tuple(segments))


# ---------------------------------------------------------------------------
# verification suites


def run_macdonald(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for k in range(20):
        r = rng.randint(1, 3)
        xs = tuple(0.6 * rng.random() * cmath.exp(2j * math.pi * rng.random()) for _ in range(r))
        got = macdonald_sum(xs, 60)
        want = macdonald_closed(xs)
        params = {"draw": k, "r": r, "x": [[z.real, z.imag] for z in xs]}
        reports.append(hard_check("macdonald", params, got, want, 1e-9))
    return reports


def run_beta(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for n in range(1, min(3, cfg.q_f - 1) + 1):
        for r in range(n + 1):
            for k in range(10):
                rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 3))
                rep_report = check_beta(rep, cfg.q_f, cfg.trunc, tol=1e-8)
                rep_report.params.update({"n": n, "r": r, "draw": k})
                reports.append(rep_report)
    return reports


def run_theta(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for k_rank in (2, 3):
        ratios = []
        for k in range(5):
            sigma = SatakeSet(unit_circle(rng, k_rank), cfg.q_e)
            ratios.append(
                theta_truncated(sigma, cfg.trunc).value / pair_dual_lfactor(sigma).value(1)
            )
            reports.append(check_theta(sigma, cfg.trunc, tol=1e-8))
        spread = ratio_spread(ratios)
        mean = sum(ratios) / len(ratios)
        reports.append(
            VerificationReport(
                "theta-ratio-independence",
                {"k": k_rank, "draws": len(ratios)},
                complex(spread),
                0j,
                spread,
                STATUS_PASS if spread <= 1e-7 else STATUS_FAIL,
            )
        )
        reports.append(
            soft_check(
                "theta-constant",
                {"k": k_rank, "draws": len(ratios)},
                mean,
                complex(float(vol_gl(k_rank - 1, cfg.q_e))),
                1e-8,
            )
        )
    return reports


def run_lambda(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for n in (1, 2):
        if cfg.q_f <= n:
            continue
        for k in range(5):
            r = rng.randint(0, n)
            rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 3))
            sigma_n = SatakeSet(unit_circle(rng, n), cfg.q_e)
            rep_report = check_lambda(sigma_n, rep, cfg.trunc, tol=1e-8, hard=True)
            rep_report.params.update({"n": n, "r": r, "draw": k})
            reports.append(rep_report)
    n = 3
    if cfg.q_f > n:
        ratios = []
        for k in range(10):
            r = rng.randint(0, n)
            rep = random_ramified_rep(rng, n + 1, r, rng.randint(1, 3))
            sigma_n = SatakeSet(unit_circle(rng, n), cfg.q_e)
            got = lambda_truncated(sigma_n, rep, cfg.trunc).value
            _, sigma_u = rep.unramified_part(cfg.q_e)
            lval = rs_lfactor(sigma_n, sigma_u).value(0.5) if len(sigma_u) else 1.0
            ratios.append(got / lval)
        spread = ratio_spread(ratios)
        reports.append(
            VerificationReport(
                "lambda-ratio-independence",
                {"n": n, "draws": len(ratios)},
                complex(spread),
                0j,
                spread,
                STATUS_PASS if spread <= 1e-7 else STATUS_FAIL,
            )
        )
        reports.append(
            soft_check(
                "lambda-constant",
                {"n": n, "draws": len(ratios)},
                sum(ratios) / len(ratios),
                complex(float(vol_gl(n, cfg.q_e))),
                1e-8,
            )
        )
    return reports


def run_volumes(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for q in Q_GRID:
        ok_gl1 = vol_gl(1, q) == 1
        ok_u1 = vol_unitary_w(1, q) == 1
        reports.append(
            VerificationReport(
                "volume-sanity",
                {"q": q, "claim": "rank-one volumes are 1"},
                complex(float(vol_gl(1, q))),
                complex(1),
                0.0 if (ok_gl1 and ok_u1) else 1.0,
                STATUS_PASS if (ok_gl1 and ok_u1) else STATUS_FAIL,
            )
        )
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
                dual_ok = vol_u_lie(n, c, q) == Fraction(1, q ** (c * n))
                ok = positive and dual_ok
                reports.append(
                    VerificationReport(
                        "volume-sanity",
                        {"q": q, "n": n, "c": c, "claim": "positivity and dual lattice"},
                        complex(1),
                        complex(1) if ok else complex(0),
                        0.0 if ok else 1.0,
                        STATUS_PASS if ok else STATUS_FAIL,
                    )
                )
    return reports


def run_c1(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for q in Q_GRID:
        for n in range(1, 5):
            for c in range(1, 6):
                left, right = c1(n, c, q)
                ok = left == right
                reports.append(
                    VerificationReport(
                        "c1-identity",
                        {"q": q, "n": n, "c": c},
                        complex(float(left)),
                        complex(float(right)),
                        0.0 if ok else 1.0,
                        STATUS_PASS if ok else STATUS_FAIL,
                    )
                )
    return reports


def run_asai_cancel(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for k in range(20):
        m = rng.randint(1, 4)
        sigma = SatakeSet(conj_selfdual_unit(rng, m), cfg.q_e)
        for parity in (0, 1):
            rep = asai_cancellation_check(sigma, parity, ToleranceCfg(1e-10, 1e-12))
            rep.params["draw"] = k
            reports.append(rep)
    return reports


def run_main_theorem(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    if cfg.c is not None and cfg.c < 1:
        raise UsageError("main-theorem checks require c >= 1")
    reports = []
    for k in range(20):
        n = cfg.n if cfg.n is not None else rng.randint(1, 3)
        q_f = cfg.q_f if cfg.q_f > n else rng.choice([5, 7])
        c = cfg.c if cfg.c is not None else rng.randint(1, 4)
        eps = c % 2
        r = rng.randint(0, n)
        rep = random_ramified_rep(rng, n + 1, r, c)
        sigma_n = SatakeSet(conj_selfdual_unit(rng, n), q_f**2)
        d = PairData(n=n, c=c, eps=eps, q_f=q_f, sigma_n=sigma_n, rep=rep)
        lhs = j_main(d)
        rhs = j_via_bridge(d)
        params = {"draw": k, "n": n, "c": c, "q_f": q_f, "r": r}
        reports.append(hard_check("main-theorem-bridge", params, lhs, rhs, 1e-9))
        if n <= 2:
            reports.append(
                hard_check(
                    "i-assembled-vs-closed",
                    params,
                    i_assembled(d, cfg.trunc),
                    i_closed(d),
                    1e-9,
                )
            )
    return reports


def run_fl_rank1(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    validate_field_context(cfg.p, cfg.u)
    cs = [cfg.c] if cfg.c is not None else [0, 1, 2, 3]
    reports = []
    for c in cs:
        reports.extend(fl_check_rank1(cfg.p, c, cfg.vmax, cfg.u))
        reports.extend(group_transport_check(cfg.p, c, cfg.u, count=50, seed=cfg.seed))
    return reports


def _random_integral_emat(rng: random.Random, size: int, u: int, span: int = 4) -> EMat:
    return EMat(
        [
            [
                QuadExt(Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span)), u)
                for _ in range(size)
            ]
            for _ in range(size)
        ],
        u,
    )


def _random_anti_hermitian(rng: random.Random, n: int, c: int, p: int, u: int) -> EMat:
    """Integral anti-hermitian matrix for the form diag(1,...,1,p^c)."""
    root = QuadExt.sqrt_u(u)
    a = [[QuadExt.of(0, u)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = root * Fraction(rng.randint(-3, 3))
        for jj in range(i + 1, n):
            val = QuadExt(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)), u)
            a[i][jj] = val
            a[jj][i] = -val.conj()
    z = [QuadExt(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)), u) for _ in range(n)]
    w = root * Fraction(rng.randint(-3, 3))
    rows = [list(a[i]) + [-(Fraction(p**c)) * z[i].conj()] for i in range(n)]
    rows.append(list(z) + [w])
    return EMat(rows, u)


def run_matrix_identities(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    p, u = cfg.p, cfg.u
    validate_field_context(p, u)
    reports = []

    def record(check: str, index: int, ok: bool, extra: dict | None = None) -> None:
        params = {"index": index, "p": p}
        if extra:
            params.update(extra)
        reports.append(
            VerificationReport(
                check, params, complex(1), complex(1) if ok else complex(0),
                0.0 if ok else 1.0, STATUS_PASS if ok else STATUS_FAIL,
            )
        )

    for idx in range(200):
        m = rng.randint(1, 4)
        x = _random_integral_emat(rng, m + 1, u)
        record("det-stack", idx, det_stack_identity_check(x), {"m": m})

    done = 0
    while done < 100:
        n = rng.randint(1, 2)
        c = rng.randint(0, 2)
        x = _random_anti_hermitian(rng, n, c, p, u)
        one = EMat.identity(n + 1, u)
        if (one - x).det().is_zero():
            continue
        j = herm_form_j(n, c, p, u)
        g = cayley(x, QuadExt.of(1, u))
        ok = in_group_u(g, j)
        h = _random_integral_emat(rng, n + 1, u, span=2)
        if not h.det().is_zero() and not (one - h @ x @ h.inv()).det().is_zero():
            lhs = cayley(h @ x @ h.inv(), QuadExt.of(1, u))
            ok = ok and lhs == h @ g @ h.inv()
        record("cayley-unitarity-equivariance", done, ok, {"n": n, "c": c})
        done += 1

    xis = norm_one_units(u)
    done = 0
    while done < 100:
        n = rng.randint(1, 2)
        c = rng.randint(0, 2)
        one = EMat.identity(n + 1, u)
        factors = []
        for _ in range(2):
            x = _random_anti_hermitian(rng, n, c, p, u)
            if not x.is_integral(p) or (one - x).det().is_zero():
                break
            if qe_valuation((one - x).det(), p) != 0:
                break
            factors.append(cayley(x, QuadExt.of(1, u)))
        if len(factors) < 2:
            continue
        g = factors[0] @ factors[1]
        if not in_bmk_tilde(g, c, p):
            continue
        xi = rng.choice(xis)
        den = (g + one * xi).det()
        if den.is_zero() or qe_valuation(den, p) != 0:
            continue
        back = cayley_inv(g, xi)
        record("cayley-lattice-stability", done, in_bmk_tilde(back, c, p), {"n": n, "c": c})
        done += 1

    root = QuadExt.sqrt_u(u)
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        c = rng.randint(0, 2)
        y = _random_integral_emat(rng, n + 1, u, span=3) * root
        y = y - y.conj()  # entrywise trace-zero model element
        try:
            lhs = transfer_factor(iota_c(y, c, p), p)
            rhs = transfer_factor(y, p)
        except ValueError:
            continue
        record("transfer-factor-iota", done, lhs == rhs, {"n": n, "c": c})
        done += 1

    done = 0
    while done < 100:
        n = rng.randint(1, 2)
        c = rng.randint(1, 2)
        a = _random_integral_emat(rng, n, u, span=2)
        det_a = a.det()
        if det_a.is_zero() or qe_valuation(det_a, p) != 0:
            continue
        y_col = [[Fraction(p**c) * QuadExt(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)), u)] for _ in range(n)]
        z_row = [QuadExt(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)), u) for _ in range(n)]
        w = QuadExt.of(1, u) + Fraction(p**c) * QuadExt(
            Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)), u
        )
        rows = [list(a.rows[i]) + [y_col[i][0]] for i in range(n)]
        rows.append(z_row + [w])
        g = EMat(rows, u)
        if not in_kprime(g, c, p):
            continue
        record("r-map-congruence", done, in_k_s(r_map(g), c, p), {"n": n, "c": c})
        done += 1

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


# ---------------------------------------------------------------------------
# compute targets


def fmt_value(z: complex) -> str:
    if abs(z.imag) < 1e-14:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def compute_lfactor(cfg: RunConfig) -> str:
    if not cfg.satake:
        raise UsageError("--satake is required")
    s = cfg.s if cfg.s is not None else 1.0
    if cfg.asai is not None:
        sign = 1 if cfg.asai in ("+", "plus", "1") else -1
        lf = asai_lfactor(SatakeSet(tuple(cfg.satake), cfg.q_e), sign)
    elif cfg.pair_dual:
        lf = pair_dual_lfactor(SatakeSet(tuple(cfg.satake), cfg.q_e))
    elif cfg.satake2:
        lf = rs_lfactor(
            SatakeSet(tuple(cfg.satake), cfg.q_e), SatakeSet(tuple(cfg.satake2), cfg.q_e)
        )
    else:
        raise UsageError("choose one of --asai/--pair-dual/--satake2")
    val = lf.value(s)
    return f"L(s={s}) = {fmt_value(val)}\nfactors = {json.dumps(lf.to_json())}"


def compute_whittaker(cfg: RunConfig, weight: list[int]) -> str:
    if cfg.segments_file:
        rep = load_rep(cfg)
        val = essential_value(rep, tuple(weight), cfg.q_e)
        return f"W_ess({weight}) = {fmt_value(val)}"
    if not cfg.satake:
        raise UsageError("--satake is required")
    val = spherical_value(tuple(cfg.satake), tuple(weight), cfg.q_e)
    return f"W0({weight}) = {fmt_value(val)}"


def _pair_data(cfg: RunConfig) -> PairData:
    if cfg.n is None or cfg.c is None:
        raise UsageError("--n and --c are required")
    eps = cfg.eps if cfg.eps is not None else cfg.c % 2
    if not cfg.satake:
        raise UsageError("--satake (the unramified-side parameters) is required")
    rep = load_rep(cfg)
    return PairData(
        n=cfg.n,
        c=cfg.c,
        eps=eps,
        q_f=cfg.q_f,
        sigma_n=SatakeSet(tuple(cfg.satake), cfg.q_e),
        rep=rep,
    )


def compute_j_main(cfg: RunConfig) -> str:
    d = _pair_data(cfg)
    sigma_u = d.sigma_u()
    eps_n = -1 if d.n % 2 else 1
    eps_u = -1 if (d.n + 1) % 2 else 1
    c_const = constant_c_main(d.n, d.c, d.q_f)
    l_rs = rs_lfactor(d.sigma_n, sigma_u).value(0.5) if len(sigma_u) else 1.0
    l_n = asai_lfactor(d.sigma_n, eps_n).value(1)
    l_u = asai_lfactor(sigma_u, eps_u).value(1) if len(sigma_u) else 1.0
    lines = [
        f"C = {c_const}",
        f"L(1/2, pairing) = {fmt_value(l_rs)}",
        f"L(1, As^[{eps_n:+d}], unramified side) = {fmt_value(l_n)}",
        f"L(1, As^[{eps_u:+d}], unramified part) = {fmt_value(l_u)}",
        f"J = {fmt_value(j_main(d))}",
    ]
    return "\n".join(lines)


def compute_i_closed(cfg: RunConfig) -> str:
    d = _pair_data(cfg)
    return f"I = {fmt_value(i_closed(d))}"


# ---------------------------------------------------------------------------
# entry points


def _emit(reports: list[VerificationReport], json_path: str | None) -> int:
    reports.sort(key=lambda r: (r.check, json.dumps(r.params, sort_keys=True, default=str)))
    counts = {"pass": 0, "fail": 0, "soft-discrepancy": 0, "rejected-input": 0}
    for rep in reports:
        counts[rep.status] = counts.get(rep.status, 0) + 1
    for rep in reports:
        if rep.status != STATUS_PASS:
            print(rep)
    print(
        f"{len(reports)} checks: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['soft-discrepancy']} soft, {counts['rejected-input']} rejected"
    )
    if json_path:
        payload = [rep.to_json() for rep in reports]
        Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 1 if any(rep.is_hard_failure for rep in reports) else 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    cfg.validate()
    names = list(SUITES) if suite == "all" else [suite]
    if suite not in SUITES and suite != "all":
        raise UsageError(f"unknown suite {suite!r}")
    if "main-theorem" in names and cfg.c is not None and cfg.c < 1:
        raise UsageError("main-theorem checks require c >= 1")
    reports: list[VerificationReport] = []
    for name in names:
        rng = random.Random(cfg.seed)
        reports.extend(SUITES[name](cfg, rng))
    if suite in ("volumes", "all") and cfg.n is not None and cfg.c is not None and cfg.c >= 1:
        left, _ = c1(cfg.n, cfg.c, cfg.q_f)
        print(f"c1 = {left}")
        print(f"C = {constant_c_main(cfg.n, cfg.c, cfg.q_f)}")
    return _emit(reports, cfg.json_path)


def cmd_volumes(cfg: RunConfig) -> int:
    cfg.validate()
    if cfg.n is None or cfg.c is None:
        raise UsageError("--n and --c are required")
    if cfg.c < 1:
        raise UsageError("volume table requires c >= 1")
    n, c, q = cfg.n, cfg.c, cfg.q_f
    left, right = c1(n, c, q)
    rows = [
        ("vol(GL_n(O_F))", vol_gl(n, q)),
        ("vol(GL_n(O_E))", vol_gl(n, q * q)),
        ("vol(K'^c_{n+1})", vol_kprime_c(n, c, q * q)),
        ("vol(K^c-block GL_{n+1}(O_F))", vol_bmk_glf(n, c, q)),
        ("vol(U(W)(O_F))", vol_unitary_w(n, q)),
        ("vol(U(V)(O_F))", vol_unitary_v(n, c, q)),
        ("vol(u(V)(O_F))", vol_u_lie(n, c, q)),
        ("vol(k_0)", vol_k0(n, c, q)),
        ("c1 (volume form)", left),
        ("c1 (product form)", right),
        ("C", constant_c_main(n, c, q)),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localperiods",
        description="verification suites and calculators for local period identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file; flags override")
        p.add_argument("--qf", type=int, dest="q_f")
        p.add_argument("--p", type=int)
        p.add_argument("--u", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--c", type=int)
        p.add_argument("--eps", type=int, choices=(0, 1))
        p.add_argument("--satake", type=str)
        p.add_argument("--satake2", type=str)
        p.add_argument("--segments-file", dest="segments_file")
        p.add_argument("--depth", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--vmax", type=int)
        p.add_argument("--s", type=float)
        p.add_argument("--json", dest="json_path")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=["all", *SUITES])
    add_common(p_verify)

    p_compute = sub.add_parser("compute", help="evaluate a single quantity")
    p_compute.add_argument("target", choices=["lfactor", "whittaker", "j-main", "i-closed"])
    p_compute.add_argument("--asai", choices=["+", "-"])
    p_compute.add_argument("--pair-dual", action="store_true", dest="pair_dual")
    p_compute.add_argument("--lambda", dest="weight", type=str, help="comma-separated exponents")
    add_common(p_compute)

    p_vol = sub.add_parser("volumes", help="print the exact constants table")
    add_common(p_vol)

    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = load_config_file(args.config)
    converters = {
        "q_f": int, "p": int, "u": int, "n": int, "c": int, "eps": int,
        "depth": int, "seed": int, "vmax": int,
        "s": float,
        "satake": parse_complex_list, "satake2": parse_complex_list,
        "segments_file": str, "json_path": str,
    }
    aliases = {"qf": "q_f", "json": "json_path", "segments-file": "segments_file"}
    for key, raw in file_values.items():
        key = aliases.get(key, key)
        if key not in converters:
            raise UsageError(f"unknown config key {key!r}")
        setattr(cfg, key, converters[key](raw))
    for key, conv in converters.items():
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, conv(val) if isinstance(val, str) else val)
    if getattr(args, "asai", None) is not None:
        cfg.asai = args.asai
    if getattr(args, "pair_dual", False):
        cfg.pair_dual = True
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        if args.command == "volumes":
            return cmd_volumes(cfg)
        if args.command == "compute":
            cfg.validate()
            if args.target == "lfactor":
                print(compute_lfactor(cfg))
            elif args.target == "whittaker":
                if not getattr(args, "weight", None):
                    raise UsageError("--lambda (the exponent tuple) is required")
                weight = [int(t) for t in args.weight.split(",") if t.strip()]
                print(compute_whittaker(cfg, weight))
            elif args.target == "j-main":
                print(compute_j_main(cfg))
            elif args.target == "i-closed":
                print(compute_i_closed(cfg))
            return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParityError, PoleError, ValueError) as exc:
        print(f"rejected input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
