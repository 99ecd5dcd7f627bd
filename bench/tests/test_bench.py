"""Self-tests of the benchmark: declared metric names, draws, self time on
a synthetic call tree, the correctness gate, and probe installation.

Run from the repository root: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def fake_pass(draw: int, wall: float, err: float) -> run.Pass:
    g = run.Gate(checks=3, max_pass_err=err)
    return run.Pass(draw=draw, wall_s=wall, rss_mib=20.0, gate=g)


def test_end_to_end_names_match_declaration():
    passes = [fake_pass(0, 2.0, 1e-15), fake_pass(1, 4.0, 0.0), fake_pass(0, 3.0, 1e-15),
              fake_pass(3, 9.0, 0.0)]
    # a pass that died before reporting its timing is left out
    passes.append(run.Pass(draw=2, wall_s=math.nan, rss_mib=math.nan, gate=run.Gate(ok=False)))
    metrics = run.end_to_end_metrics([0.05, 0.04, 0.06], passes)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")
    # draw medians 2.5, 4.0 and 9.0: the median over draws
    assert metrics["wall_s"][0] == pytest.approx(4.0)
    assert metrics["setup_s"][0] == pytest.approx(0.05)


def test_per_layer_names_match_declaration():
    empty = {"agg": [], "counts": {}, "spans": [], "missing": []}
    metrics = tracer.layer_metrics(empty, checks=10, failed=0, overhead=1.5)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")


def test_draws_are_deterministic_and_series_is_stratified():
    torus = run.draw_seeds(7, run.WORKLOADS["torus"])
    assert torus[0] == 7 and torus == run.draw_seeds(7, run.WORKLOADS["torus"])
    series = run.draw_seeds(7, run.WORKLOADS["series"])
    assert len(set(series)) == run.WORKLOADS["series"].draws
    assert all(run.macdonald_rank3_draws(s) == run.SERIES_RANK3 for s in series)


def test_rank3_replay_matches_the_suite(monkeypatch):
    from localperiods import cli

    # the series sums are not needed to see which ranks the suite draws
    monkeypatch.setattr(cli, "macdonald_sum", lambda xs, depth: 1.0)
    monkeypatch.setattr(cli, "macdonald_closed", lambda xs: 1.0)
    for seed in (7, 11, 12345):
        reports = cli.run_macdonald(cli.RunConfig(), random.Random(seed))
        assert sum(r.params["r"] == 3 for r in reports) == run.macdonald_rank3_draws(seed)


def test_declared_workloads_and_command():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert DECLARED["command"] == ["python3", "bench/run.py"]
    assert DECLARED["paths"] == ["bench"]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def test_self_time_on_synthetic_tree():
    clock = FakeClock()
    t = tracer.Tracer("p0", clock=clock)

    def leaf():
        clock.tick(2)

    def rec(n):
        clock.tick(1)
        if n:
            rec_w(n - 1)

    def mid():
        clock.tick(1)
        leaf_w()
        clock.tick(1)
        leaf_w()
        rec_w(2)
        clock.tick(3)

    def root():
        clock.tick(4)
        mid_w()
        clock.tick(1)

    leaf_w = t.timed("leaf", leaf)
    rec_w = t.timed("rec", rec)
    mid_w = t.timed("mid", mid, tracer.SPAN)
    root_w = t.timed("root", root, tracer.SPAN)
    root_w()

    tot = tracer.totals(t.dump())
    # root 4 + mid (1+2+1+2+3+3) + 1 = 17; mid = 12, of which leaves 4 and rec 3
    assert tot["root"] == {"calls": 1, "busy": 17.0, "self": 5.0, "zeros": 0}
    assert tot["mid"] == {"calls": 1, "busy": 12.0, "self": 5.0, "zeros": 0}
    assert tot["leaf"] == {"calls": 2, "busy": 4.0, "self": 4.0, "zeros": 0}
    # recursion: three calls, busy counted once, self summed over the chain
    assert tot["rec"] == {"calls": 3, "busy": 3.0, "self": 3.0, "zeros": 0}
    parents = {(name, parent) for name, parent, *_ in t.dump()["agg"]}
    assert ("leaf", "mid") in parents and ("rec", "rec") in parents
    spans = {s[1]: s for s in t.dump()["spans"]}
    assert spans["root"][4] is None
    assert spans["mid"][4] == spans["root"][0]
    assert spans["mid"][6] == 5.0 and spans["mid"][5] == "p0"


def test_zero_share_and_terms():
    t = tracer.Tracer()
    f = t.timed("f", lambda x: x, tracer.ZEROS)
    for x in (0, 1, 0.0, 2j):
        f(x)
    assert tracer.totals(t.dump())["f"]["zeros"] == 2

    def torus_sum(rank, cfg, q, term):
        return sum(term((i,)) for i in range(rank))

    d = t.term_counted("periods.terms", torus_sum)
    assert d(5, None, 3, lambda f: f[0] % 2) == 2
    counts = t.dump()["counts"]
    assert counts["periods.terms"] == 5 and counts["periods.terms_nonzero"] == 2


@pytest.fixture(scope="module")
def volumes_report(tmp_path_factory) -> Path:
    from localperiods import cli

    path = tmp_path_factory.mktemp("report") / "volumes.json"
    assert cli.main(["verify", "volumes", "--seed", "7", "--json", str(path)]) == 0
    return path


@pytest.mark.parametrize("status", ["fail", "rejected-input"])
def test_gate_counts_doctored_report_as_failed(volumes_report, tmp_path, status):
    clean = run.gate([0], [volumes_report])
    assert clean.ok and clean.failed == 0 and clean.checks > 1

    reports = json.loads(volumes_report.read_text())
    reports[3]["status"] = status
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(reports))
    g = run.gate([0], [doctored])
    assert g.checks == clean.checks and g.failed == 1


def test_gate_counts_failed_pass_whole(volumes_report, tmp_path):
    g = run.gate([1], [volumes_report])
    assert not g.ok and g.failed == g.checks > 1
    g = run.gate(None, [tmp_path / "missing.json"])
    assert not g.ok and g.failed == g.checks == 1


def test_probes_wrap_every_importing_namespace_and_restore():
    from localperiods import cli, periods, symfunc, whittaker

    originals = (symfunc.schur, whittaker.schur, periods.essential_value, cli.SUITES["lambda"])
    assert originals[0] is originals[1]
    t = tracer.Tracer()
    t.install()
    try:
        assert not t.missing
        assert whittaker.schur is symfunc.schur is not originals[0]
        assert periods.essential_value is not originals[2]
        assert cli.SUITES["lambda"] is cli.run_lambda is not originals[3]
    finally:
        t.uninstall()
    assert (symfunc.schur, whittaker.schur, periods.essential_value, cli.SUITES["lambda"]) == originals


def test_traced_reports_are_byte_identical(tmp_path):
    from localperiods import cli

    def report(name: str) -> bytes:
        path = tmp_path / name
        assert cli.main(["verify", "main-theorem", "--seed", "3", "--json", str(path)]) == 0
        return path.read_bytes()

    plain = report("plain.json")
    t = tracer.Tracer()
    t.install()
    try:
        traced = report("traced.json")
    finally:
        t.uninstall()
    assert traced == plain
    tot = tracer.totals(t.dump())
    assert tot["cli.main-theorem"]["calls"] == 1
    assert tot["assembly.i_assembled"]["calls"] > 0
