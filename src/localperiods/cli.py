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

from .assembly import (
    PairData,
    ParityError,
    _j_main_terms,
    i_assembled,
    i_closed,
    j_main,
    j_via_bridge,
)
from .draws import (
    conj_selfdual_unit,
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
from .lfactors import (
    PoleError,
    asai_cancellation_check,
    asai_lfactor,
    pair_dual_lfactor,
    rs_lfactor,
)
from .numerics import (
    QuadExt,
    is_prime,
    is_prime_power,
    qe_valuation,
    validate_field_context,
)
from .orbital import fl_check_rank1, group_transport_check
from .periods import (
    check_beta,
    check_lambda,
    check_theta,
    lambda_truncated,
    ratio_spread,
    theta_truncated,
)
from .report import (
    STATUS_FAIL,
    STATUS_PASS,
    TOLERANCES,
    VerificationReport,
    exact_check,
    hard_check,
    soft_check,
)
from .reps import GenericRep, SatakeSet
from .symfunc import macdonald_closed, macdonald_sum
from .volumes import (
    c1,
    constant_c_main,
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    values: dict[str, str] = {}
    for raw in text.splitlines():
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
    path = cfg.segments_file
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read segments file {path!r}: {exc.strerror}") from exc
    try:
        return GenericRep.from_json(data)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad segments file {path!r}: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# verification suites


def _ratio_pair(
    name: str, params: dict, ratios: list[complex], constant: Fraction
) -> list[VerificationReport]:
    """Hard check that the ratios agree across the draws, and soft check of
    their mean against the constant they should all equal."""
    params = {**params, "draws": len(ratios)}
    spread = ratio_spread(ratios)
    check = f"{name}-ratio-independence"
    status = STATUS_PASS if spread <= TOLERANCES[check] else STATUS_FAIL
    mean = sum(ratios) / len(ratios)
    return [
        VerificationReport(check, params, complex(spread), 0j, spread, status),
        soft_check(f"{name}-constant", dict(params), mean, complex(float(constant))),
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
    return reports


def run_theta(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    reports = []
    for k_rank in (2, 3):
        ratios = []
        for k in range(5):
            sigma = SatakeSet(unit_circle(rng, k_rank), cfg.q_e)
            ratios.append(
                theta_truncated(sigma, cfg.depth).value / pair_dual_lfactor(sigma).value(1)
            )
            reports.append(check_theta(sigma, cfg.depth))
        reports.extend(_ratio_pair("theta", {"k": k_rank}, ratios, vol_gl(k_rank - 1, cfg.q_e)))
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
            _, sigma_u = rep.unramified_part(cfg.q_e)
            lval = rs_lfactor(sigma_n, sigma_u).value(0.5) if len(sigma_u) else 1.0
            ratios.append(got / lval)
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
        params = {"draw": k, "n": n, "c": c, "q_f": q_f, "r": r}
        reports.append(hard_check("main-theorem-bridge", params, j_main(d), j_via_bridge(d)))
        if n <= 2:
            lhs = i_assembled(d, cfg.depth)
            reports.append(hard_check("i-assembled-vs-closed", params, lhs, i_closed(d)))
    return reports


def run_fl_rank1(cfg: RunConfig, rng: random.Random) -> list[VerificationReport]:
    validate_field_context(cfg.p, cfg.u)
    cs = [cfg.c] if cfg.c is not None else [0, 1, 2, 3]
    reports = []
    for c in cs:
        reports.extend(fl_check_rank1(cfg.p, c, cfg.vmax, cfg.u))
        reports.extend(group_transport_check(cfg.p, c, cfg.u, count=50, seed=cfg.seed))
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

    done = 0
    while done < 100:
        n = rng.randint(1, 2)
        c = rng.randint(0, 2)
        x = random_anti_hermitian(rng, n, c, p, u)
        try:
            g = cayley(x, QuadExt.of(1, u))
        except ZeroDivisionError:
            continue
        ok = in_group_u(g, herm_form_j(n, c, p, u))
        h = random_integral_emat(rng, n + 1, u, span=2)
        try:
            h_inv = h.inv()
        except ZeroDivisionError:
            pass
        else:
            # det(1 - h x h^-1) = det(1 - x) != 0, so this Cayley transform exists
            ok = ok and cayley(h @ x @ h_inv, QuadExt.of(1, u)) == h @ g @ h_inv
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
            x = random_anti_hermitian(rng, n, c, p, u)
            if not x.is_integral(p):
                break
            det_x = (one - x).det()
            if det_x.is_zero() or qe_valuation(det_x, p) != 0:
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
        y = random_integral_emat(rng, n + 1, u, span=3) * root
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
        g = random_kprime_element(rng, n, c, p, u)
        if g is None:
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

#: the RunConfig fields each suite reads besides seed and json_path; volumes
#: reads q_f, n and c only for the c1 and C lines that cmd_verify prints
_SUITE_OPTIONS: dict[str, tuple[str, ...]] = {
    "macdonald": (), "c1": (), "asai-cancel": ("q_f",),
    "beta": ("q_f", "depth"), "theta": ("q_f", "depth"), "lambda": ("q_f", "depth"),
    "volumes": ("q_f", "n", "c"), "main-theorem": ("q_f", "n", "c", "depth"),
    "fl-rank1": ("p", "u", "c", "vmax"), "matrix-identities": ("p", "u"),
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
        sign = 1 if cfg.asai == "+" else -1
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
    j = j_main(d)
    c_const, eps_n, eps_u, l_rs, l_n, l_u = _j_main_terms(d)
    lines = [
        f"C = {c_const}",
        f"L(1/2, pairing) = {fmt_value(l_rs)}",
        f"L(1, As^[{eps_n:+d}], unramified side) = {fmt_value(l_n)}",
        f"L(1, As^[{eps_u:+d}], unramified part) = {fmt_value(1.0 if l_u is None else l_u)}",
        f"J = {fmt_value(j)}",
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
        try:
            Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --json report {json_path!r}: {exc.strerror}") from exc
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
        ("vol(K^c-block GL_{n+1}(O_F))", vol_kprime_c(n, c, q)),
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

    # each subcommand parses only the options it reads, and only by their
    # full names: an abbreviation such as --s would otherwise reach --seed
    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file; flags override")
        p.add_argument("--qf", type=int, dest="q_f")
        p.add_argument("--n", type=int)
        p.add_argument("--c", type=int)

    p_verify = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    p_verify.add_argument("suite", choices=["all", *SUITES])
    add_shared(p_verify)
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--u", type=int)
    p_verify.add_argument("--depth", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--vmax", type=int)
    p_verify.add_argument("--json", dest="json_path")

    p_compute = sub.add_parser("compute", help="evaluate a single quantity", allow_abbrev=False)
    p_compute.add_argument("target", choices=["lfactor", "whittaker", "j-main", "i-closed"])
    p_compute.add_argument("--asai", choices=["+", "-"])
    p_compute.add_argument("--pair-dual", action="store_true", dest="pair_dual")
    p_compute.add_argument("--lambda", dest="weight", type=str, help="comma-separated exponents")
    add_shared(p_compute)
    p_compute.add_argument("--eps", type=int, choices=(0, 1))
    p_compute.add_argument("--satake", type=str)
    p_compute.add_argument("--satake2", type=str)
    p_compute.add_argument("--segments-file", dest="segments_file")
    p_compute.add_argument("--s", type=float)

    p_vol = sub.add_parser("volumes", help="print the exact constants table", allow_abbrev=False)
    add_shared(p_vol)

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
    aliases = {"qf": "q_f", "json": "json_path"}
    # verify parses every suite's options, and rejects those its suites ignore
    reads, reader = set(converters), repr(args.command)
    if args.command == "verify":
        names = SUITES if args.suite == "all" else [args.suite]
        reads = {"seed", "json_path"}.union(*(_SUITE_OPTIONS[name] for name in names))
        reader = f"'verify {args.suite}'"
    for key, raw in file_values.items():
        name = aliases.get(key, key)
        if name not in converters:
            raise UsageError(f"unknown config key {key!r}")
        # the subcommand's parser sets an attribute for each option it reads
        if not hasattr(args, name) or name not in reads:
            raise UsageError(f"config key {key!r} is not read by {reader}")
        setattr(cfg, name, converters[name](raw))
    for key, conv in converters.items():
        val = getattr(args, key, None)
        if val is not None:
            if key not in reads:
                raise UsageError(f"--{'qf' if key == 'q_f' else key} is not read by {reader}")
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
