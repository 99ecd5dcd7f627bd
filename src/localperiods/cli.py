"""Command-line front end: it parses flags and config files into a checked
RunConfig, runs the suites of ``suites``, a single computation or the
exact constants table, prints the records and writes the JSON report.
Input it cannot use exits 2 with one line."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

from .assembly import PairData, _j_main_terms, i_closed, j_main
from .lfactors import PoleError, asai_lfactor, pair_dual_lfactor, rs_lfactor
from .numerics import ensure_finite, is_prime, is_prime_power
from .report import STATUS_FAIL, STATUS_PASS, STATUS_REJECTED, VerificationReport
from .reps import GenericRep, SatakeSet, selfdual_unit_defect
from .suites import _SUITE_OPTIONS, _run_suites

# bench/ reaches the suites through this module: it reads SUITES, RunConfig,
# run_lambda, run_macdonald, macdonald_sum and macdonald_closed here
from .suites import (  # noqa: F401
    SUITES,
    RunConfig,
    macdonald_closed,
    macdonald_sum,
    run_lambda,
    run_macdonald,
)
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


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Input the program cannot use; as an ArgumentTypeError, a flag's
    converter that raises it has argparse print its message."""


def _values(text: str, convert: Callable[[str], object], kind: str) -> list:
    """The comma-separated tokens of text, stripped and converted; an empty
    token, or one that convert rejects, is an error that names it."""
    tokens = [token.strip() for token in text.split(",")]
    if "" in tokens:
        raise UsageError(f"empty value in {text!r}")
    out = []
    for token in tokens:
        try:
            out.append(convert(token))
        except ValueError as exc:
            raise UsageError(f"cannot parse {kind} value {token!r}") from exc
    return out


def parse_complex_list(text: str) -> list[complex]:
    """Comma-separated complex values; accepts 'i' for the imaginary unit."""
    return _values(text, lambda token: complex(token.replace("i", "j")), "complex")


def exponent_list(text: str) -> list[int]:
    """A comma-separated list of integers, such as the --lambda exponents."""
    return _values(text, int, "integer")


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
    return _emit(_run_suites(cfg, names), cfg.json_path)


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
    """The RunConfig of the parsed arguments, over the config file's values,
    with every value checked; a bad one raises UsageError."""
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
        convert = kw.get("type", str)
        try:
            val = convert(raw)
        except UsageError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
        except ValueError as exc:  # worded as argparse words a bad flag value
            raise UsageError(
                f"config key {key!r}: invalid {convert.__name__} value: {raw!r}") from exc
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
    if not is_prime_power(cfg.q_f) or cfg.q_f < 3 or cfg.q_f % 2 == 0:
        raise UsageError(f"--qf must be an odd prime power >= 3, got {cfg.q_f}")
    if not is_prime(cfg.p) or cfg.p == 2:
        raise UsageError(f"--p must be an odd prime, got {cfg.p}")
    if cfg.n is not None and cfg.n < 1:
        raise UsageError(f"--n must be >= 1, got {cfg.n}")
    if cfg.n is not None and cfg.q_f <= cfg.n:
        raise UsageError(f"--qf must exceed --n (got qf={cfg.q_f}, n={cfg.n})")
    if cfg.depth < 1:
        raise UsageError("--depth must be >= 1")
    if cfg.vmax < 0:
        raise UsageError(f"--vmax must be >= 0, got {cfg.vmax}")
    if cfg.c is not None and cfg.c < 0:
        raise UsageError(f"--c must be >= 0, got {cfg.c}")
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
