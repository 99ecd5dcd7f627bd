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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from .assembly import (
    PairData,
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
    ensure_finite,
    is_prime,
    is_prime_power,
    qe_valuation,
    validate_field_context,
)
from .orbital import fl_check_rank1, group_transport_check
from .periods import (
    check_beta,
    check_beta_spherical,
    check_lambda,
    check_theta,
    lambda_truncated,
    ratio_spread,
)
from .report import (
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_REJECTED,
    TOLERANCES,
    VerificationReport,
    exact_check,
    hard_check,
)
from .reps import GenericRep, SatakeSet, selfdual_unit_defect
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
        token = token.strip()
        if not token:
            continue
        try:
            out.append(complex(token.replace("i", "j")))
        except ValueError as exc:
            raise UsageError(f"cannot parse complex value {token!r}") from exc
    return out


def exponent_list(text: str) -> list[int]:
    """A comma-separated list of integers, such as the --lambda exponents."""
    return [int(t) for t in text.split(",") if t.strip()]


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
            sph_report = check_beta_spherical(sigma_n, cfg.q_f, cfg.depth)
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
    validate_field_context(cfg.p, cfg.u)
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


# ---------------------------------------------------------------------------
# compute targets


def fmt_value(z: complex) -> str:
    if abs(z.imag) < 1e-14:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def compute_lfactor(cfg: RunConfig) -> str:
    if not cfg.satake:
        raise UsageError("--satake is required")
    if [cfg.asai is not None, cfg.pair_dual, bool(cfg.satake2)].count(True) != 1:
        raise UsageError("choose one of --asai/--pair-dual/--satake2")
    s = cfg.s if cfg.s is not None else 1.0
    sigma = SatakeSet(tuple(cfg.satake), cfg.q_e)
    if cfg.asai is not None:
        lf = asai_lfactor(sigma, 1 if cfg.asai == "+" else -1)
    elif cfg.pair_dual:
        lf = pair_dual_lfactor(sigma)
    else:
        lf = rs_lfactor(sigma, SatakeSet(tuple(cfg.satake2), cfg.q_e))
    val = lf.value(s)
    return f"L(s={s}) = {fmt_value(val)}\nfactors = {json.dumps(lf.to_json())}"


def compute_whittaker(cfg: RunConfig) -> str:
    if not cfg.weight:
        raise UsageError("--lambda (the exponent tuple) is required")
    weight = cfg.weight
    if cfg.satake and cfg.segments_file:
        raise UsageError("choose one of --satake/--segments-file")
    if cfg.segments_file:
        rep = load_rep(cfg)
        val = ensure_finite(essential_value(rep, tuple(weight), cfg.q_e))
        return f"W_ess({weight}) = {fmt_value(val)}"
    if not cfg.satake:
        raise UsageError("--satake is required")
    sigma = SatakeSet(tuple(cfg.satake), cfg.q_e)
    val = ensure_finite(spherical_value(sigma.params, tuple(weight), cfg.q_e))
    return f"W0({weight}) = {fmt_value(val)}"


def _pair_data(cfg: RunConfig) -> PairData:
    if not cfg.satake:
        raise UsageError("--satake (the unramified-side parameters) is required")
    n, rep = len(cfg.satake), load_rep(cfg)
    if cfg.q_f <= n:
        raise UsageError(f"--qf {cfg.q_f} must exceed n = {n}, the number of --satake values")
    if rep.rank != n + 1:
        raise UsageError(f"segments file {cfg.segments_file!r} has rank {rep.rank}, "
                         f"but {n} --satake values need rank {n + 1}")
    if rep.conductor() < 1:
        raise UsageError(f"segments file {cfg.segments_file!r} has conductor {rep.conductor()}, "
                         "but the pair needs a ramified representation (conductor >= 1)")
    return PairData(SatakeSet(tuple(cfg.satake), cfg.q_e), rep)


def compute_j_main(cfg: RunConfig) -> str:
    d = _pair_data(cfg)
    # the formula's hypothesis, on both sides of the pair
    sides = (("--satake", d.sigma_n), ("--segments-file unramified characters", d.sigma_u()))
    for where, sigma in sides:
        defect = selfdual_unit_defect(sigma)
        if defect:
            raise UsageError(f"{where}: {defect}")
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


#: each compute target's function and the options it reads, by RunConfig
#: field; weight is --lambda
_PAIR_OPTIONS = ("q_f", "satake", "segments_file")
_COMPUTE_TARGETS: dict[str, tuple[Callable[[RunConfig], str], tuple[str, ...]]] = {
    "lfactor": (compute_lfactor, ("q_f", "satake", "satake2", "asai", "pair_dual", "s")),
    "whittaker": (compute_whittaker, ("q_f", "weight", "satake", "segments_file")),
    "j-main": (compute_j_main, _PAIR_OPTIONS),
    "i-closed": (compute_i_closed, _PAIR_OPTIONS),
}


# ---------------------------------------------------------------------------
# entry points


def _emit(reports: list[VerificationReport], json_path: str | None) -> int:
    reports.sort(key=lambda r: (r.check, json.dumps(r.params, sort_keys=True, default=str)))
    counts = Counter(rep.status for rep in reports)
    for rep in reports:
        if rep.status != STATUS_PASS:
            print(rep)
    print(f"{len(reports)} checks: {counts[STATUS_PASS]} pass, {counts[STATUS_FAIL]} fail, "
          f"{counts[STATUS_REJECTED]} rejected")
    if json_path:
        payload = [rep.to_json() for rep in reports]
        try:
            Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --json report {json_path!r}: {exc.strerror}") from exc
    return 1 if counts[STATUS_FAIL] else 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    names = list(SUITES) if suite == "all" else [suite]
    if "main-theorem" in names and cfg.c is not None and cfg.c < 1:
        raise UsageError("main-theorem checks require c >= 1")
    reports: list[VerificationReport] = []
    for name in names:
        rng = random.Random(cfg.seed)
        reports.extend(SUITES[name](cfg, rng))
    return _emit(reports, cfg.json_path)


def cmd_volumes(cfg: RunConfig) -> int:
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


#: each option once, by RunConfig field: its flag and the argparse keywords
#: that convert its value, from the command line and a config file alike
_OPTIONS: dict[str, tuple[str, dict]] = {
    "q_f": ("--qf", {"type": int}),
    "p": ("--p", {"type": int}),
    "u": ("--u", {"type": int}),
    "n": ("--n", {"type": int}),
    "c": ("--c", {"type": int}),
    "depth": ("--depth", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "vmax": ("--vmax", {"type": int}),
    "s": ("--s", {"type": float}),
    "satake": ("--satake", {"type": parse_complex_list}),
    "satake2": ("--satake2", {"type": parse_complex_list}),
    "segments_file": ("--segments-file", {}),
    "json_path": ("--json", {}),
    "weight": ("--lambda", {"type": exponent_list, "help": "comma-separated exponents"}),
    "asai": ("--asai", {"choices": ["+", "-"]}),
    "pair_dual": ("--pair-dual", {"action": "store_true"}),
}


def _reads(command: str) -> dict[str | None, set[str]]:
    """The options that each choice of a subcommand reads; `verify all`
    reads those of every suite, and `volumes` has the one choice None."""
    if command == "verify":
        reads = {name: {"seed", "json_path", *opts} for name, opts in _SUITE_OPTIONS.items()}
        return {"all": set().union(*reads.values()), **reads}
    if command == "compute":
        return {name: set(opts) for name, (_, opts) in _COMPUTE_TARGETS.items()}
    return {None: {"q_f", "n", "c"}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localperiods",
        description="verification suites and calculators for local period identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, positional, help_text in (
        ("verify", "suite", "run a verification suite"),
        ("compute", "target", "evaluate a single quantity"),
        ("volumes", None, "print the exact constants table"),
    ):
        # each subcommand parses only the options that one of its choices
        # reads, and only by their full names: an abbreviation such as --s
        # would otherwise reach --seed
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        reads = _reads(command)
        if positional:
            p.add_argument(positional, choices=list(reads))
        p.add_argument("--config", help="flat key = value config file; flags override")
        parsed = set().union(*reads.values())
        for name, (flag, kw) in _OPTIONS.items():
            if name in parsed:
                p.add_argument(flag, dest=name, **kw)
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    # a config key is the flag's name, or the RunConfig field behind --qf or
    # --json; a flag that takes no value has no key
    keys = {flag[2:].replace("-", "_"): name for name, (flag, kw) in _OPTIONS.items()
            if "action" not in kw}
    keys.update(q_f="q_f", json_path="json_path")
    choice = getattr(args, "suite", None) or getattr(args, "target", None)
    reads = _reads(args.command)[choice]
    reader = repr(f"{args.command} {choice}" if choice else args.command)
    cfg = RunConfig()
    for key, raw in (load_config_file(args.config) if args.config else {}).items():
        if key not in keys:
            raise UsageError(f"unknown config key {key!r}")
        name = keys[key]
        if name not in reads:
            raise UsageError(f"config key {key!r} is not read by {reader}")
        kw = _OPTIONS[name][1]
        try:
            val = kw.get("type", str)(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
        if "choices" in kw and val not in kw["choices"]:
            choices = ", ".join(map(repr, kw["choices"]))
            raise UsageError(f"config key {key!r}: invalid choice: {raw!r} (choose from {choices})")
        setattr(cfg, name, val)
    for name, (flag, _) in _OPTIONS.items():
        val = getattr(args, name, None)
        if val is None or val is False:
            continue
        if name not in reads:
            raise UsageError(f"{flag} is not read by {reader}")
        setattr(cfg, name, val)
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        cfg.validate()
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        if args.command == "volumes":
            return cmd_volumes(cfg)
        compute, _ = _COMPUTE_TARGETS[args.target]
        print(compute(cfg))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, OverflowError, ValueError) as exc:
        print(f"rejected input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
