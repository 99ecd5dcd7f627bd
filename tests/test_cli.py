import dataclasses
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import beta_spherical_literature, ssyt_schur
from localperiods import cli, report, suites
from localperiods.assembly import PairData, j_via_bridge
from localperiods.cli import main, parse_complex_list
from localperiods.lfactors import pair_dual_lfactor
from localperiods.reps import GenericRep, SatakeSet
from localperiods.symfunc import delta_weight
from localperiods.volumes import vol_gl


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_module_entry_point_runs_a_suite():
    """python -m localperiods imports the whole CLI chain from a fresh
    interpreter; the package root itself imports no module."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "localperiods", "verify", "c1", "--seed", "1"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "100 checks: 100 pass, 0 fail, 0 rejected"


class TestParsing:
    def test_complex_list(self):
        assert parse_complex_list("1, -1") == [1 + 0j, -1 + 0j]
        assert parse_complex_list("0.5+0.5i") == [0.5 + 0.5j]

    def test_bad_token_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "lfactor", "--satake", "xyz", "--qf", "3"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "argument --satake: " in err


class TestVerify:
    def test_fl_rank1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "fl-rank1", "--p", "3", "--c", "1")
        assert code == 0
        assert "0 fail" in out

    def test_main_theorem_rejects_c0(self, capsys):
        code, _, err = run(capsys, "verify", "main-theorem", "--qf", "3", "--n", "1", "--c", "0")
        assert code == 2

    def test_qf_must_exceed_n(self, capsys):
        code, _, err = run(capsys, "volumes", "--qf", "3", "--n", "3", "--c", "1")
        assert code == 2 and "--qf must exceed --n" in err

    def test_c1_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "c1")
        assert code == 0 and "0 fail" in out

    def test_c1_suite_fails_on_unequal_halves(self, capsys, monkeypatch):
        monkeypatch.setattr(suites, "c1", lambda n, c, q: (Fraction(1), Fraction(2)))
        code, out, _ = run(capsys, "verify", "c1")
        assert code == 1
        assert "[FAIL] c1-identity" in out and "rel_err=1.000e+00" in out
        assert "100 checks: 0 pass, 100 fail" in out

    def test_scaled_theta_integrand_fails(self, capsys, monkeypatch):
        """5% more norm integrand fails each theta record and each constant
        derived from them; the two spreads do not see a common factor."""
        from localperiods import periods

        real = periods._torus_sum

        def scaled(rank, head, depth, q, run):
            return real(rank, head, depth, q, lambda top: [1.05 * v for v in run(top)])

        monkeypatch.setattr(periods, "_torus_sum", scaled)
        code, out, _ = run(capsys, "verify", "theta", "--qf", "3")
        assert code == 1
        assert out.count("[FAIL] theta ") == 16 and out.count("[FAIL] theta-constant ") == 2
        assert out.splitlines()[-1] == "20 checks: 2 pass, 18 fail, 0 rejected"

    @pytest.mark.parametrize("qf", ["3", "5"])
    def test_unit_determinant_in_theta_closed_fails(self, capsys, monkeypatch, qf):
        """theta_closed with 1 - q_E^-k in place of 1 - |det sigma|^2 q_E^-k
        fails each of the six draws off the unit circle, and only those."""
        from localperiods import periods

        def unit_det(sigma):
            k = len(sigma)
            return (float(vol_gl(k - 1, sigma.base)) * pair_dual_lfactor(sigma).value(1)
                    * (1 - float(sigma.base) ** -k))

        monkeypatch.setattr(periods, "theta_closed", unit_det)
        code, out, _ = run(capsys, "verify", "theta", "--qf", qf)
        assert code == 1
        assert out.count("[FAIL] theta ") == 6
        assert out.splitlines()[-1] == "20 checks: 14 pass, 6 fail, 0 rejected"

    def test_flipped_sign_in_beta_spherical_closed_fails(self, capsys, monkeypatch):
        """The spherical period's closed form with the twisted tensor sign
        flipped fails every beta-spherical record and no beta record."""
        from localperiods import periods

        def flipped(sigma_n):
            return beta_spherical_literature(sigma_n, 1 if (len(sigma_n) - 1) % 2 else -1)

        monkeypatch.setattr(periods, "beta_spherical_closed", flipped)
        code, out, _ = run(capsys, "verify", "beta", "--qf", "3", "--depth", "25")
        assert code == 1
        assert out.count("[FAIL] beta-spherical ") == 15
        assert out.splitlines()[-1] == "65 checks: 50 pass, 15 fail, 0 rejected"

    def test_swapped_diagonal_in_match_rank1_fails(self, capsys, monkeypatch):
        """A matched representative with its diagonal entries swapped has
        the same integral and membership bit, but not the same corner entry:
        the matching invariants fail the 50 non-integral side-0 records."""
        from localperiods import orbital
        from localperiods.hermitian import EMat

        real = orbital.match_rank1

        def swapped(y, c, p):
            side, x = real(y, c, p)
            if x is None:
                return side, x
            (a, b), (z, d) = x.rows
            return side, EMat([[d, b], [z, a]], x.u)

        monkeypatch.setattr(orbital, "match_rank1", swapped)
        code, out, _ = run(capsys, "verify", "fl-rank1")
        assert code == 1
        failed = out.splitlines()[:-1]
        assert len(failed) == 50
        assert all(line.startswith("[FAIL] fl-rank1 ") and "'diag': 'non-integral'" in line
                   and "'side': 0" in line for line in failed)
        assert out.splitlines()[-1] == "400 checks: 350 pass, 50 fail, 0 rejected"

    def test_json_output_is_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, _, _ = run(
                capsys, "verify", "asai-cancel", "--qf", "3", "--seed", "11", "--json", str(f)
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_seed_changes_draws(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "asai-cancel", "--seed", "1", "--json", str(f1))
        run(capsys, "verify", "asai-cancel", "--seed", "2", "--json", str(f2))
        assert f1.read_bytes() != f2.read_bytes()

    def test_report_schema(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        run(capsys, "verify", "fl-rank1", "--p", "3", "--c", "0", "--json", str(out_file))
        reports = json.loads(out_file.read_text())
        assert reports
        for r in reports:
            assert set(r) >= {"check", "params", "lhs", "rhs", "rel_err", "status"}
            assert len(r["lhs"]) == 2 and len(r["rhs"]) == 2


class TestCompute:
    def test_lfactor_asai_plus(self, capsys):
        code, out, _ = run(
            capsys, "compute", "lfactor", "--asai", "+", "--satake", "1", "--qf", "3"
        )
        assert code == 0
        assert "1.5" in out

    def test_lfactor_requires_kind(self, capsys):
        code, _, err = run(capsys, "compute", "lfactor", "--satake", "1", "--qf", "3")
        assert code == 2

    def test_lfactor_pole_is_rejected(self, capsys):
        code, _, err = run(
            capsys, "compute", "lfactor", "--asai", "+", "--satake", "1", "--qf", "3",
            "--s", "0",
        )
        assert code == 2 and "rejected" in err

    def test_whittaker_spherical(self, capsys):
        code, out, _ = run(
            capsys, "compute", "whittaker", "--lambda", "1,0", "--satake", "1,1", "--qf", "3"
        )
        assert code == 0
        # q_E^(-1/2) (a + b) with a = b = 1 over q_E = 9
        assert "0.666666666667" in out

    def test_j_main_echoes_constants(self, capsys, tmp_path):
        seg = tmp_path / "rep.json"
        seg.write_text(
            json.dumps(
                {
                    "segments": [
                        {"type": "unram", "alpha": [1.0, 0.0], "k": 1},
                        {"type": "ram", "dim": 1, "cond": 1, "k": 1},
                    ]
                }
            )
        )
        code, out, _ = run(
            capsys, "compute", "j-main", "--qf", "3",
            "--satake", "1", "--segments-file", str(seg),
        )
        assert code == 0
        assert "C = 1/9" in out
        assert "L(1/2" in out and out.count("L(1,") == 2
        assert "J = 0.148148" in out

    def test_i_closed(self, capsys, tmp_path):
        seg = tmp_path / "rep.json"
        seg.write_text(
            json.dumps(
                {
                    "segments": [
                        {"type": "unram", "alpha": [1.0, 0.0], "k": 1},
                        {"type": "ram", "dim": 1, "cond": 1, "k": 1},
                    ]
                }
            )
        )
        code, out, _ = run(
            capsys, "compute", "i-closed", "--qf", "3",
            "--satake", "1", "--segments-file", str(seg),
        )
        assert code == 0
        assert "0.0219478737997" in out  # 16/729


class TestConfigFile:
    def test_file_values_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qf = 5\nn = 1\nc = 2\n# comment\n")
        code, out, _ = run(capsys, "volumes", "--config", str(cfg), "--c", "1")
        assert code == 0
        assert "c1 (volume form)" in out
        # c overridden to 1: the depth-one congruence volume for q_e = 25
        assert "1/625" in out

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        code, _, err = run(capsys, "volumes", "--config", str(cfg), "--n", "1", "--c", "1")
        assert code == 2

    def test_removed_tolerance_key_is_unknown(self, capsys, tmp_path):
        # the suites pin their tolerances, so tol_rel and tol_abs had no effect
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol_rel = 1e-3\n")
        code, _, err = run(capsys, "verify", "volumes", "--config", str(cfg))
        assert code == 2 and "tol_rel" in err


#: each subcommand parses only the options it reads: name -> (argv, flag)
UNREAD_FLAGS = {
    "volumes-json": (["volumes", "--n", "1", "--c", "1", "--json", "{out}"], "--json"),
    "lfactor-json": (["compute", "lfactor", "--satake", "1", "--asai", "+", "--json", "{out}"],
                     "--json"),
    "verify-satake": (["verify", "c1", "--satake", "1"], "--satake"),
    "verify-s": (["verify", "c1", "--s", "0.3"], "--s"),
    "verify-lambda": (["verify", "c1", "--lambda", "1"], "--lambda"),
    "compute-seed": (["compute", "lfactor", "--satake", "1", "--asai", "+", "--seed", "3"],
                     "--seed"),
    "volumes-depth": (["volumes", "--n", "1", "--c", "1", "--depth", "5"], "--depth"),
    # the pair targets derive n and c from --satake and the segments file
    "j-main-n": (["compute", "j-main", "--n", "1", "--satake", "1", "--qf", "3"], "--n"),
    "i-closed-c": (["compute", "i-closed", "--c", "1", "--satake", "1", "--qf", "3"], "--c"),
}


@pytest.mark.parametrize("name", sorted(UNREAD_FLAGS))
def test_unread_flags_exit_2(name, capsys, tmp_path):
    argv, flag = UNREAD_FLAGS[name]
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([a.format(out=out) for a in argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
    assert not out.exists()


#: config-file keys outside the subcommand's options: name -> (argv, key)
UNREAD_KEYS = {
    "volumes-seed": (["volumes", "--n", "1", "--c", "1"], "seed"),
    "volumes-json": (["volumes", "--n", "1", "--c", "1"], "json"),
    "verify-satake": (["verify", "c1"], "satake"),
    "verify-asai": (["verify", "c1"], "asai"),
    "compute-depth": (["compute", "lfactor", "--satake", "1", "--asai", "+"], "depth"),
}


@pytest.mark.parametrize("name", sorted(UNREAD_KEYS))
def test_unread_config_keys_exit_2(name, capsys, tmp_path):
    argv, key = UNREAD_KEYS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: config key {key!r} is not read by")


#: verify parses every suite's options, but a suite that ignores one rejects
#: it: name -> (argv, the option named in the error)
SUITE_UNREAD = {
    "torus-p": (["verify", "lambda", "--p", "5"], "--p"),
    "main-theorem-vmax": (["verify", "main-theorem", "--vmax", "2"], "--vmax"),
    "asai-cancel-depth": (["verify", "asai-cancel", "--depth", "5"], "--depth"),
    "volumes-vmax": (["verify", "volumes", "--vmax", "9"], "--vmax"),
    "c1-depth": (["verify", "c1", "--depth", "3"], "--depth"),
    "macdonald-p": (["verify", "macdonald", "--p", "5"], "--p"),
    "fl-rank1-qf": (["verify", "fl-rank1", "--qf", "5"], "--qf"),
    "matrix-identities-c": (["verify", "matrix-identities", "--c", "1"], "--c"),
    "c1-depth-key": (["verify", "c1", "--config", "{cfg}"], "config key 'depth'"),
}


@pytest.mark.parametrize("name", sorted(SUITE_UNREAD))
def test_options_the_suite_ignores_exit_2(name, capsys, tmp_path):
    argv, what = SUITE_UNREAD[name]
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.json"
    cfg.write_text("depth = 3\n")
    code, stdout, err = run(capsys, *(a.format(cfg=cfg) for a in argv), "--json", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"usage error: {what} is not read by 'verify {argv[1]}'\n"
    assert not out.exists()


def test_every_suite_lists_its_options():
    """Every option that a command reads is a row of the option table, every
    row is read by some command, and every row is a RunConfig field."""
    assert set(suites._SUITE_OPTIONS) == set(suites.SUITES)
    commands = ("verify", "compute", "volumes")
    read = set().union(*(reads for cmd in commands for reads in cli._reads(cmd).values()))
    assert read == set(cli._OPTIONS)
    assert read <= {f.name for f in dataclasses.fields(suites.RunConfig)}


def test_suites_are_defined_once_in_the_suites_module():
    """Every suite is defined in localperiods.suites, cli defines none, and
    each name that cli keeps for bench/ is the suites module's own object."""
    runs = [fn for name, fn in vars(suites).items() if name.startswith("run_")]
    for fn in [*suites.SUITES.values(), *runs]:
        assert fn.__module__ == "localperiods.suites", fn
    assert not [name for name, fn in vars(cli).items()
                if name.startswith("run_") and fn.__module__ == "localperiods.cli"]
    pins = ("SUITES", "RunConfig", "run_lambda", "run_macdonald", "macdonald_sum",
            "macdonald_closed")
    for name in pins:
        assert getattr(cli, name) is getattr(suites, name), name


#: compute parses every target's options, but a target that ignores one
#: rejects it: name -> (argv, the option named in the error); compute parses
#: no --n or --c, so argparse rejects those as unrecognized arguments
TARGET_UNREAD = {
    "whittaker-s-n": (["whittaker", "--lambda", "1", "--satake", "1", "--qf", "3",
                       "--s", "0.5", "--n", "1"], "unrecognized arguments: --n 1"),
    "lfactor-lambda": (["lfactor", "--satake", "1", "--pair-dual", "--lambda", "3,1"], "--lambda"),
    "lfactor-n-c": (["lfactor", "--satake", "1", "--pair-dual", "--n", "3", "--c", "2"],
                    "unrecognized arguments: --n 3 --c 2"),
    "whittaker-pair-dual": (["whittaker", "--lambda", "1", "--satake", "1", "--pair-dual"],
                            "--pair-dual"),
    "lfactor-segments": (["lfactor", "--satake", "1", "--asai", "+", "--segments-file", "x"],
                         "--segments-file"),
    "i-closed-asai": (["i-closed", "--asai", "+"], "--asai"),
    "j-main-s-key": (["j-main", "--config", "{cfg}"], "config key 's'"),
}


@pytest.mark.parametrize("name", sorted(TARGET_UNREAD))
def test_options_the_target_ignores_exit_2(name, capsys, tmp_path):
    argv, what = TARGET_UNREAD[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 0.5\n")
    try:
        code = main(["compute", *(a.format(cfg=cfg) for a in argv)])
    except SystemExit as exc:
        code = exc.code
    stdout, err = capsys.readouterr()
    assert (code, stdout) == (2, "")
    if what.startswith("unrecognized"):
        assert err.endswith(f"localperiods: error: {what}\n")
    else:
        assert err == f"usage error: {what} is not read by 'compute {argv[0]}'\n"


#: option pairs of which compute would read only one: name -> (argv, error)
REP = {"segments": [{"type": "unram", "alpha": [1.0, 0.0], "k": 1},
                    {"type": "ram", "dim": 1, "cond": 1, "k": 1}]}
LFACTOR_KIND = "choose one of --asai/--pair-dual/--satake2"
EXCLUSIVE = {
    "lfactor-asai-pair-dual": (["lfactor", "--satake", "1", "--asai", "+", "--pair-dual"],
                               LFACTOR_KIND),
    "lfactor-asai-satake2": (["lfactor", "--satake", "1", "--asai", "+", "--satake2", "0.5"],
                             LFACTOR_KIND),
    "lfactor-pair-dual-satake2": (["lfactor", "--satake", "1", "--pair-dual", "--satake2", "0.5"],
                                  LFACTOR_KIND),
    "whittaker-satake-segments": (["whittaker", "--lambda", "1", "--satake", "5,7",
                                   "--segments-file", "{rep}"],
                                  "choose one of --satake/--segments-file"),
}


@pytest.mark.parametrize("name", sorted(EXCLUSIVE))
def test_options_of_which_compute_reads_one_exit_2(name, capsys, tmp_path):
    argv, what = EXCLUSIVE[name]
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(REP))
    code, stdout, err = run(capsys, "compute", *(a.format(rep=rep) for a in argv), "--qf", "3")
    assert (code, stdout, err) == (2, "", f"usage error: {what}\n")


def test_whittaker_bad_lambda_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "whittaker", "--lambda", "1,x", "--satake", "1,1", "--qf", "3"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "argument --lambda: invalid exponent_list value: '1,x'" in err


@pytest.mark.parametrize("flag, value, kind", [
    ("--satake", "1,,2", "parse_complex_list"),
    ("--satake", ",1", "parse_complex_list"),
    ("--lambda", "1,,0", "exponent_list"),
    ("--lambda", "1,0,", "exponent_list"),
])
def test_empty_token_in_a_flag_exits_2(flag, value, kind, capsys):
    argv = ["compute", "whittaker", "--qf", "3", "--lambda", "1,0", "--satake", "1,1"]
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"argument {flag}: invalid {kind} value: {value!r}" in err


@pytest.mark.parametrize("weight, satake", [
    ((2, 1, 0, 0), (0.5, 0.3, -0.2, 0.7)),  # distinct: the bialternant
    ((3, 1, 1, 0), (0.6 + 0.8j, 0.6 - 0.8j, -0.5, 0.9)),
    ((2, 1, 1, 1), (1, 1, 1, 1)),  # coincident: a 4-row Jacobi-Trudi matrix
    ((3, 2, 1, 1), (0.5, 0.5, 0.5, 2)),
])
def test_whittaker_at_rank_4_matches_the_tableau_oracle(weight, satake, capsys):
    """compute whittaker at rank 4, where _det runs its elimination loop,
    against the semistandard-tableau sum times the half modular weight."""
    text = ",".join(str(x).strip("()").replace("j", "i") for x in satake)
    code, out, err = run(capsys, "compute", "whittaker", "--qf", "3",
                         "--lambda", ",".join(map(str, weight)), "--satake", text)
    assert (code, err) == (0, "")
    got = complex(out.split(" = ")[1].strip().replace("i", "j"))
    want = float(delta_weight(weight, 9, half=True)) * ssyt_schur(weight, satake)
    assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("suite", ["fl-rank1", "matrix-identities"])
def test_bad_field_context_exits_2(suite, capsys):
    code, out, err = run(capsys, "verify", suite, "--u", "1")
    assert (code, out) == (2, "")
    assert err == "rejected input: u=1 must be a p-unit non-square mod p=3\n"


@pytest.mark.parametrize("flag", ["--n", "--c", "--qf"])
def test_verify_volumes_reads_no_options(flag, capsys, tmp_path):
    out = tmp_path / "out.json"
    code, stdout, stderr = run(capsys, "verify", "volumes", flag, "3", "--seed", "1",
                               "--json", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == f"usage error: {flag} is not read by 'verify volumes'\n"
    assert not out.exists()


#: config values convert as their flags do: name -> (argv, config text, stdout
#: or the usage error)
CONFIG_VALUES = {
    "qf-not-int": (["volumes", "--n", "1", "--c", "1"], "qf = x\n",
                   "config key 'qf': invalid literal for int() with base 10: 'x'"),
    "asai-bad-choice": (["compute", "lfactor", "--satake", "1"], "asai = *\n",
                        "config key 'asai': invalid choice: '*' (choose from '+', '-')"),
    "satake-bad-token": (["compute", "lfactor", "--asai", "+"], "satake = xyz\n",
                         "config key 'satake': cannot parse complex value 'xyz'"),
    # the error names the token as typed, before 'i' is read as the imaginary unit
    "satake-inf": (["compute", "lfactor", "--asai", "+", "--qf", "3"], "satake = inf\n",
                   "config key 'satake': cannot parse complex value 'inf'"),
    "asai": (["compute", "lfactor"], "asai = +\nsatake = 1\n", "L(s=1.0) = 1.5\n"),
    "lambda": (["compute", "whittaker", "--satake", "1,1"], "lambda = 1,0\n",
               "W0([1, 0]) = 0.666666666667\n"),
}


@pytest.mark.parametrize("name", sorted(CONFIG_VALUES))
def test_config_values_convert_as_flags(name, capsys, tmp_path):
    argv, text, want = CONFIG_VALUES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    if want.endswith("\n"):
        assert (code, out.splitlines(keepends=True)[0], err) == (0, want, "")
    else:
        assert (code, out, err) == (2, "", f"usage error: {want}\n")


@pytest.mark.parametrize("argv, want", [
    (["volumes", "--seed", "7"], {"seed": 7}),
    (["all", "--depth", "5", "--vmax", "2", "--p", "5", "--u", "2"],
     {"depth": 5, "vmax": 2, "p": 5, "u": 2}),
    # main-theorem reads a lone --n, so verify all takes one
    (["all", "--qf", "5", "--n", "2"], {"q_f": 5, "n": 2, "c": None}),
])
def test_options_a_suite_reads_are_accepted(argv, want, capsys, monkeypatch):
    seen = []
    for name in suites.SUITES:
        monkeypatch.setitem(suites.SUITES, name, lambda cfg, rng: seen.append(cfg) or [])
    code, _, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert seen and all(getattr(cfg, k) == v for cfg in seen for k, v in want.items())


@pytest.mark.parametrize("flag", ["--tol-rel", "--tol-abs"])
def test_removed_tolerance_flags_exit_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "volumes", flag, "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


#: segment files for the pinned compute targets: rank 2 with one unramified
#: character; rank 3 with one unramified character off the real axis, which
#: is not conjugate-self-dual; and rank 3 with a conjugate-self-dual pair
REP1 = {"segments": [{"type": "unram", "alpha": [1.0, 0.0], "k": 1},
                     {"type": "ram", "dim": 1, "cond": 1, "k": 1}]}
REP2 = {"segments": [{"type": "unram", "alpha": [0.6, 0.8], "k": 1},
                     {"type": "ram", "dim": 2, "cond": 1, "k": 1}]}
REP3 = {"segments": [{"type": "unram", "alpha": [0.8, 0.6], "k": 1},
                     {"type": "unram", "alpha": [0.8, -0.6], "k": 1},
                     {"type": "ram", "dim": 1, "cond": 2, "k": 1}]}
#: rank 2 with two unramified characters and no ramified segment: conductor 0
REP0 = {"segments": [{"type": "unram", "alpha": [1.0, 0.0], "k": 1},
                     {"type": "unram", "alpha": [-1.0, 0.0], "k": 1}]}
N1 = ["--qf", "3", "--satake", "1"]
N2 = ["--qf", "5", "--satake", "0.6+0.8i,0.6-0.8i"]

#: name -> (argv, segments file or None, the exact stdout)
STDOUT_PINS = {
    "j-main-n1": (["compute", "j-main", *N1], REP1, (
        "C = 1/9\n"
        "L(1/2, pairing) = 1.5\n"
        "L(1, As^[-1], unramified side) = 0.75\n"
        "L(1, As^[+1], unramified part) = 1.5\n"
        "J = 0.148148148148\n"
    )),
    "j-main-n2": (["compute", "j-main", *N2], REP3, (
        "C = 2496/48828125\n"
        "L(1/2, pairing) = 1.46575984991\n"
        "L(1, As^[+1], unramified side) = 1.30208333333\n"
        "L(1, As^[-1], unramified part) = 0.765931372549\n"
        "J = 7.51291916488e-05\n"
    )),
    # i-closed has no self-duality hypothesis
    "i-closed-n1": (["compute", "i-closed", *N1], REP1, "I = 0.0219478737997\n"),
    "i-closed-n2": (["compute", "i-closed", *N2], REP2, "I = 5.87938073149e-05\n"),
    "volumes": (["volumes", "--qf", "3", "--n", "2", "--c", "1"], None, (
        "vol(GL_n(O_F))               = 8/9\n"
        "vol(GL_n(O_E))               = 80/81\n"
        "vol(K'^c_{n+1})              = 80/59049\n"
        "vol(K^c-block GL_{n+1}(O_F)) = 8/243\n"
        "vol(U(W)(O_F))               = 8/9\n"
        "vol(U(V)(O_F))               = 32/243\n"
        "vol(u(V)(O_F))               = 1/9\n"
        "vol(k_0)                     = 1/2187\n"
        "c1 (volume form)             = 2187/80\n"
        "c1 (product form)            = 2187/80\n"
        "C                            = 160/6561\n"
    )),
}


@pytest.mark.parametrize("name", sorted(STDOUT_PINS))
def test_stdout_is_pinned(name, capsys, tmp_path):
    argv, rep, want = STDOUT_PINS[name]
    if rep is not None:
        seg = tmp_path / "rep.json"
        seg.write_text(json.dumps(rep))
        argv = [*argv, "--segments-file", str(seg)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, want, "")


def test_j_main_pin_matches_the_bridge():
    """The pinned rank-3 J is the main formula at conjugate-self-dual
    parameters on the unit circle, where it equals the bridge route."""
    argv, rep, want = STDOUT_PINS["j-main-n2"]
    d = PairData(SatakeSet(tuple(parse_complex_list(argv[-1])), 25), GenericRep.from_json(rep))
    j = complex(want.rsplit("J = ", 1)[1].strip().replace("i", "j"))
    assert abs(j - j_via_bridge(d)) <= 1e-9 * abs(j)


#: bad input files and pairs: name -> (files to write under tmp_path, argv
#: with {tmp}, what the error names)
I_CLOSED = ["compute", "i-closed", *N1]
J_MAIN = ["compute", "j-main", "--segments-file", "{tmp}/rep.json"]
BAD_INPUTS = {
    "segments-missing": ({}, [*I_CLOSED, "--segments-file", "{tmp}/missing.json"],
                         "segments file"),
    "segments-directory": ({}, [*I_CLOSED, "--segments-file", "{tmp}"], "segments file"),
    "segments-no-alpha": ({"rep.json": '{"segments": [{"type": "unram"}]}'},
                          [*I_CLOSED, "--segments-file", "{tmp}/rep.json"], "segments file"),
    "segments-no-key": ({"rep.json": '{"foo": 1}'}, [*I_CLOSED, "--segments-file", "{tmp}/rep.json"],
                        "segments file"),
    "segments-a-list": ({"rep.json": "[1, 2]"}, [*I_CLOSED, "--segments-file", "{tmp}/rep.json"],
                        "segments file"),
    "config-missing": ({}, ["volumes", "--config", "{tmp}/missing.cfg"], "config file"),
    # rejected before any suite runs, not by the draws of main-theorem
    "n-negative": ({}, ["verify", "main-theorem", "--n", "-2"], "--n"),
    "n-zero-all": ({}, ["verify", "all", "--n", "0"], "--n"),
    "n-zero-volumes": ({}, ["volumes", "--n", "0", "--c", "1"], "--n"),
    "vmax-negative-all": ({}, ["verify", "all", "--vmax", "-1"], "--vmax must be >= 0, got -1"),
    "c-negative-fl-rank1": ({}, ["verify", "fl-rank1", "--c", "-1"], "--c must be >= 0, got -1"),
    # the checks run first; the report cannot be written after them
    "json-unwritable": ({}, ["verify", "c1", "--json", "{tmp}/no/dir/out.json"], "--json"),
    # j-main's formula needs conjugate-self-dual parameters on the unit
    # circle on both sides; i-closed does not
    "j-main-unramified-part-not-selfdual": ({"rep.json": json.dumps(REP2)}, [*J_MAIN, *N2],
                                            "--segments-file"),
    "j-main-satake-not-selfdual": ({"rep.json": json.dumps(REP1)},
                                   [*J_MAIN, "--qf", "3", "--satake", "0.6+0.8i"], "--satake"),
    "j-main-satake-off-circle": ({"rep.json": json.dumps(REP3)},
                                 [*J_MAIN, "--qf", "5", "--satake", "2,0.5"], "--satake"),
    # a pair of which the flags give n = 3 values: q_f must exceed n, and
    # the segments file must have rank n + 1
    "pair-qf-not-above-n": ({"rep.json": json.dumps(REP1)},
                            [*J_MAIN, "--qf", "3", "--satake", "1,1,1"], "--qf"),
    "pair-rank-mismatch": ({"rep.json": json.dumps(REP1)},
                           ["compute", "i-closed", "--segments-file", "{tmp}/rep.json",
                            "--qf", "5", "--satake", "1,1,1"], "has rank 2, but 3 --satake"),
    # the pair needs a ramified representation
    "j-main-conductor-0": ({"rep.json": json.dumps(REP0)}, [*J_MAIN, *N1],
                           "rep.json' has conductor 0"),
    "i-closed-conductor-0": ({"rep.json": json.dumps(REP0)},
                             [*I_CLOSED, "--segments-file", "{tmp}/rep.json"],
                             "rep.json' has conductor 0"),
    # an empty token in a list value is an error, not a value dropped
    "config-satake-empty-token": ({"run.cfg": "satake = 1,,2\n"},
                                  ["compute", "lfactor", "--asai", "+", "--config",
                                   "{tmp}/run.cfg"],
                                  "config key 'satake': empty value in '1,,2'"),
    "config-satake2-trailing-comma": ({"run.cfg": "satake2 = 0.5,\n"},
                                      ["compute", "lfactor", "--satake", "1", "--config",
                                       "{tmp}/run.cfg"],
                                      "config key 'satake2': empty value in '0.5,'"),
    "config-lambda-empty-token": ({"run.cfg": "lambda = 1,,0\n"},
                                  ["compute", "whittaker", "--satake", "1,1", "--config",
                                   "{tmp}/run.cfg"],
                                  "config key 'lambda': empty value in '1,,0'"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_files_exit_2(name, capsys, tmp_path):
    files, argv, named = BAD_INPUTS[name]
    for fname, text in files.items():
        (tmp_path / fname).write_text(text)
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert named in err


#: values that compute whittaker must reject: name -> (segments file or None, argv)
WHITTAKER = ["compute", "whittaker", "--qf", "3"]
BAD_VALUES = {
    "overflowing-satake": (None, [*WHITTAKER, "--lambda", "2,0", "--satake", "1e200,1"]),
    "nan-satake": (None, [*WHITTAKER, "--lambda", "1,0", "--satake", "nan,1"]),
    "overflowing-alpha": (
        {"segments": [{"type": "unram", "alpha": [1e200, 0], "k": 1},
                      {"type": "unram", "alpha": [1.0, 0], "k": 1},
                      {"type": "ram", "dim": 1, "cond": 1, "k": 1}]},
        [*WHITTAKER, "--lambda", "3,0"],
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_whittaker_bad_values_exit_2(name, capsys, tmp_path):
    rep, argv = BAD_VALUES[name]
    if rep is not None:
        seg = tmp_path / "rep.json"
        seg.write_text(json.dumps(rep))
        argv = [*argv, "--segments-file", str(seg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("rejected input: ") and err.count("\n") == 1


def test_run_theta_sums_each_draw_once(monkeypatch):
    """run_theta takes each draw's ratio from its check's lhs, so the 10
    draws on the unit circle and the 6 off it evaluate 16 truncated sums,
    not 26."""
    from localperiods import periods

    calls = [0]
    real = periods.theta_truncated

    def counted(sigma, depth):
        calls[0] += 1
        return real(sigma, depth)

    monkeypatch.setattr(periods, "theta_truncated", counted)
    cfg = suites.RunConfig(q_f=3, depth=5)
    reports = suites.run_theta(cfg, random.Random(7))
    assert calls[0] == 16
    assert len(reports) == 20


#: the README's "Command line" section, up to the next heading
README_CLI = (Path(__file__).resolve().parents[1] / "README.md").read_text().split(
    "## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_are_accepted():
    """Every example command in the README parses and validates; none runs."""
    block = README_CLI.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("localperiods ")]
    assert len(lines) >= 5
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        cli.make_config(args)


def test_readme_option_tables_match_what_each_choice_reads():
    """The README's verify and compute tables list exactly the options that
    each suite and target reads; verify's --seed and --json are stated apart."""
    tables: dict[str, dict[str, set[str]]] = {}
    for first, second in re.findall(r"^ *\| (.+?) \| (.+?) \|$", README_CLI, re.M):
        if second == "options":
            table = tables.setdefault({"suite": "verify", "target": "compute"}[first], {})
            continue
        for name in re.findall(r"`([^`]+)`", first):
            table[name] = set(re.findall(r"--[\w-]+", second))
    flags = {name: flag for name, (flag, _) in cli._OPTIONS.items()}
    for command, shared in (("verify", {"--seed", "--json"}), ("compute", set())):
        reads = {choice: {flags[o] for o in opts} - shared
                 for choice, opts in cli._reads(command).items() if choice != "all"}
        assert tables[command] == reads


def test_readme_report_format_matches_the_report_module():
    """The README's status list is report's STATUS_* constants, and its
    report example uses only keys that to_json writes."""
    listed = README_CLI.split("with `status` one of ", 1)[1].split(".", 1)[0]
    constants = {value for name, value in vars(report).items() if name.startswith("STATUS_")}
    assert set(re.findall(r"`([^`]+)`", listed)) == constants
    example = README_CLI.split("verification reports serialize as", 1)[1].split("```", 2)[1]
    keys = set(re.findall(r'"(\w+)":', example))
    written = report.VerificationReport("check", tail_estimate=0.0).to_json()
    assert keys and keys <= set(written)
