"""Benchmark of the localperiods verifier.

Usage (from the repository root):

    python3 bench/run.py --workload {torus,exact,series} --seed N \
        --seconds S --trace {0,1}

A closed loop with one client: every pass is a fresh interpreter
(``passrun.py``) that runs all ``verify`` calls of the workload for one
seed, and the next pass starts only when the previous one has ended.

The seed picks the draws, the CLI seeds of the passes: ``--seed`` itself
and seeds derived from it, as far as the workload accepts them.  Every run
times each draw of its workload once and then repeats draws in turn while
the next pass fits in ``--seconds``.  Pass time depends on the draw, so a
run reports the median over its draws of each draw's median; a faster
program repeats more but never sees other draws.

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mib``, ``digits_agreed``).  ``--trace 1`` pairs an untraced and
a traced pass per draw, checks that their ``--json`` reports are
byte-identical, and reports the per-layer metrics of ``tracer.py``.

Every pass is gated: each call must exit 0 and leave a report that parses
and has no ``fail`` or ``rejected-input`` status.  The last line printed
is one JSON object with ``correct``, ``attempted``, ``failed`` (counted in
checks) and ``metrics``; the exit code is 0 only when it is correct.
Scratch files, compiled bytecode and the trace go under ``.bench_build``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
BENCH_DIR = Path(__file__).resolve().parent

import tracer  # noqa: E402  (sits next to this file)
from passrun import MARKER  # noqa: E402


@dataclass(frozen=True)
class Workload:
    calls: tuple[tuple[str, ...], ...]
    draws: int
    #: which CLI seeds the workload accepts as draws
    accept: Callable[[int], bool] = lambda seed: True


#: number of rank-3 draws a `series` seed must give `verify macdonald`
SERIES_RANK3 = 7


def macdonald_rank3_draws(seed: int) -> int:
    """How many of the 20 draws of ``verify macdonald --seed SEED`` sum a
    rank-3 series.  Replays the suite's draws: r = randint(1, 3), then two
    uniforms per argument.  Each rank-3 series sums 41,664 Schur values
    and takes about 1 s, while ranks 1 and 2 take under 0.05 s, so their
    number (binomial, mean 6.7) would otherwise swing a pass between 5 and
    10 s from one seed to the next."""
    rng = random.Random(seed)
    count = 0
    for _ in range(20):
        r = rng.randint(1, 3)
        count += r == 3
        for _ in range(2 * r):
            rng.random()
    return count


WORKLOADS = {
    # rank-1 to rank-3 truncated pairing integrals: symfunc, reps, whittaker, periods
    "torus": Workload((("lambda", "--qf", "5", "--depth", "25"),), draws=2),
    # pure exact arithmetic: fractions, QuadExt, hermitian, orbital
    "exact": Workload((("matrix-identities",), ("fl-rank1",)), draws=5),
    # Schur series off the unit circle plus the closed forms
    "series": Workload(
        (
            ("macdonald",),
            ("main-theorem", "--qf", "3"),
            ("asai-cancel", "--qf", "3"),
            ("volumes",),
            ("c1",),
        ),
        draws=4,
        accept=lambda seed: macdonald_rank3_draws(seed) == SERIES_RANK3,
    ),
}

SETUP_SAMPLES = 31
#: a run that has not finished by then stops its pass and reports failure
DEADLINE_S = 165.0
FAILING = ("fail", "rejected-input")
#: rel_err floor for digits_agreed: one unit in the last place of 1.0
REL_ERR_FLOOR = 2.0**-52
IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import localperiods.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(RuntimeError):
    pass


def draw_seeds(seed: int, workload: Workload) -> list[int]:
    """The CLI seeds of a run: `seed` itself, then seeds derived from it,
    keeping those the workload accepts."""
    rng = random.Random(seed)
    candidate, out = seed, []
    while len(out) < workload.draws:
        if workload.accept(candidate):
            out.append(candidate)
        candidate = rng.randrange(1, 2**31)
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# correctness gate


def read_report(path: Path) -> list[dict]:
    """Parse one ``--json`` report; raise ValueError if it is not a list of
    check records with a status."""
    data = json.loads(path.read_text())
    if not isinstance(data, list) or not all(isinstance(r, dict) and "status" in r for r in data):
        raise ValueError(f"{path} is not a verification report")
    return data


@dataclass
class Gate:
    checks: int = 0
    failed: int = 0
    max_pass_err: float = 0.0
    ok: bool = True


def gate(codes: list[int] | None, report_paths: list[Path]) -> Gate:
    """Count the checks of one pass and those that failed.  A pass that
    exited non-zero, raised, or left a missing or malformed report counts
    every check it reported as failed, and at least one."""
    g = Gate()
    for path in report_paths:
        try:
            reports = read_report(path)
        except (OSError, ValueError) as exc:
            print(f"gate: {exc}", file=sys.stderr)
            g.ok = False
            continue
        g.checks += len(reports)
        g.failed += sum(r["status"] in FAILING for r in reports)
        errs = [r["rel_err"] for r in reports if r["status"] == "pass"]
        g.max_pass_err = max([g.max_pass_err, *errs])
    if codes is None or len(codes) != len(report_paths) or any(codes):
        g.ok = False
    if not g.ok:
        g.checks = max(g.checks, 1)
        g.failed = g.checks
    return g


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    draw: int
    wall_s: float
    rss_mib: float
    gate: Gate
    reports: list[bytes] = field(default_factory=list)
    trace: dict | None = None


class Runner:
    def __init__(self, name: str, seed: int, seconds: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.seeds = draw_seeds(seed, self.workload)
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.monotonic()
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def run_pass(self, draw: int, traced: bool = False) -> Pass:
        self.count += 1
        out = self.workdir / f"pass-{self.count}"
        out.mkdir()
        trace_file = out / "trace.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "passrun.py"),
            "--src", str(SRC),
            "--calls", json.dumps(self.workload.calls),
            "--seed", str(self.seeds[draw]),
            "--out", str(out),
        ]
        if traced:
            cmd += ["--trace", str(trace_file), "--pass-id", f"{self.name}-{self.count}"]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {self.count} did not finish before the deadline") from None
        result = None
        for line in reversed(proc.stdout.splitlines()):
            if line.startswith(MARKER):
                result = json.loads(line[len(MARKER):])
                break
        if proc.returncode != 0 or result is None:
            sys.stderr.write(proc.stderr[-2000:])
        paths = [out / f"{i}.json" for i in range(len(self.workload.calls))]
        g = gate(result["codes"] if result and proc.returncode == 0 else None, paths)
        p = Pass(
            draw=draw,
            wall_s=result["wall_s"] if result else math.nan,
            rss_mib=result["maxrss_kib"] / 1024 if result else math.nan,
            gate=g,
            reports=[path.read_bytes() if path.exists() else b"" for path in paths],
        )
        if traced and trace_file.exists():
            p.trace = json.loads(trace_file.read_text())
        shutil.rmtree(out)
        return p

    def loop(self, step, first: int) -> list:
        """Call ``step(draw)`` for the first `first` draws, then for the draws
        in turn while another step fits in ``--seconds``; stop early on
        failure."""
        results, costs = [], []
        start = time.monotonic()
        i = 0
        while True:
            t0 = time.monotonic()
            results.append(step(i % len(self.seeds)))
            costs.append(time.monotonic() - t0)
            i += 1
            if not all_ok(results[-1]):
                break
            if i >= first:
                elapsed = time.monotonic() - start
                if elapsed + statistics.median(costs) > self.seconds:
                    break
        return results


def all_ok(item) -> bool:
    passes = item if isinstance(item, tuple) else (item,)
    return all(p.gate.ok and p.gate.failed == 0 for p in passes)


def per_draw(passes: list[Pass], value) -> float:
    """Median over draws of each draw's median of ``value(pass)``."""
    by_draw: dict[int, list[float]] = {}
    for p in passes:
        by_draw.setdefault(p.draw, []).append(value(p))
    return statistics.median(statistics.median(v) for v in by_draw.values())


def digits(p: Pass) -> float:
    return -math.log10(max(p.gate.max_pass_err, REL_ERR_FLOOR))


# ---------------------------------------------------------------------------
# metrics


def import_times(samples: int) -> list[float]:
    """Seconds for a fresh interpreter to import localperiods.cli and build
    its parser; one unrecorded import first fills the bytecode cache."""
    out = []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, str(SRC)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-500:]}")
        if i:
            out.append(float(proc.stdout.strip()))
    return out


def end_to_end_metrics(setup: list[float], passes: list[Pass]) -> dict[str, tuple[float, str]]:
    timed = [p for p in passes if not math.isnan(p.wall_s)]
    if not timed:
        raise BenchError("no pass completed")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (per_draw(timed, lambda p: p.wall_s), "s"),
        "peak_rss_mib": (per_draw(timed, lambda p: p.rss_mib), "MiB"),
        "digits_agreed": (per_draw(timed, digits), "digits"),
    }


def traced_metrics(pairs: list[tuple[Pass, Pass]]) -> tuple[dict[str, tuple[float, str]], bool]:
    """Per-layer metrics (median over traced passes) and whether every
    traced report matched its untraced twin byte for byte."""
    identical = all(plain.reports == traced.reports for plain, traced in pairs)
    per_pass = []
    for plain, traced in pairs:
        if traced.trace is None or math.isnan(plain.wall_s):
            continue
        if traced.trace["missing"]:
            print(f"probes not found: {traced.trace['missing']}", file=sys.stderr)
        per_pass.append(
            tracer.layer_metrics(
                traced.trace, traced.gate.checks, traced.gate.failed,
                overhead=traced.wall_s / plain.wall_s,
            )
        )
    if not per_pass:
        raise BenchError("no traced pass completed")
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    return metrics, identical


# ---------------------------------------------------------------------------
# entry point


def measure(runner: Runner) -> tuple[dict, list[Pass], bool]:
    setup = import_times(SETUP_SAMPLES)
    passes = runner.loop(runner.run_pass, first=len(runner.seeds))
    metrics = end_to_end_metrics(setup, passes)
    walls = sorted(p.wall_s for p in passes if not math.isnan(p.wall_s))
    print(f"setup_s: median of {len(setup)} fresh imports; min {min(setup):.4f} s, max {max(setup):.4f} s")
    print("passes (draw, wall_s):", [(p.draw, round(p.wall_s, 3)) for p in passes])
    print(
        f"wall_s: median over {len(runner.seeds)} draws of each draw's median; "
        f"over all {len(walls)} passes median {statistics.median(walls):.3f} s, "
        f"max {walls[-1]:.3f} s (a tail percentile needs more than 10 passes)"
    )
    return metrics, passes, True


def trace(runner: Runner) -> tuple[dict, list[Pass], bool]:
    pairs = runner.loop(
        lambda draw: (runner.run_pass(draw), runner.run_pass(draw, traced=True)), first=1
    )
    passes = [p for pair in pairs for p in pair]
    metrics, identical = traced_metrics(pairs)
    if not identical:
        print("traced and untraced --json reports differ", file=sys.stderr)
    out = BUILD / "trace"
    out.mkdir(parents=True, exist_ok=True)
    dump = [p.trace for _, p in pairs if p.trace is not None]
    path = out / f"{runner.name}-seed{runner.seed}.json"
    path.write_text(json.dumps(dump))
    print(f"trace of {len(dump)} traced passes written to {path.relative_to(ROOT)}")
    return metrics, passes, identical


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "localperiods" / "cli.py").is_file():
        print(f"no localperiods sources under {SRC}", file=sys.stderr)
        return 2

    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    runner = Runner(args.workload, args.seed, args.seconds, workdir)
    try:
        metrics, passes, identical = (trace if args.trace else measure)(runner)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.gate.checks for p in passes)
    failed = sum(p.gate.failed for p in passes)
    correct = failed == 0 and identical and all(p.gate.ok for p in passes)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
        f"draw seeds {runner.seeds}, checks attempted {attempted}, failed {failed}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
