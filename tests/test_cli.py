import json
from fractions import Fraction

import pytest

from localperiods import cli
from localperiods.cli import main, parse_complex_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_complex_list(self):
        assert parse_complex_list("1, -1") == [1 + 0j, -1 + 0j]
        assert parse_complex_list("0.5+0.5i") == [0.5 + 0.5j]

    def test_bad_token_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "lfactor", "--satake", "xyz", "--qf", "3")
        assert code == 2 and "usage error" in err


class TestVerify:
    def test_volumes_prints_constants(self, capsys):
        code, out, _ = run(capsys, "verify", "volumes", "--qf", "3", "--n", "1", "--c", "1")
        assert code == 0
        assert "c1 = 9" in out
        assert "C = 1/9" in out

    def test_fl_rank1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "fl-rank1", "--p", "3", "--c", "1")
        assert code == 0
        assert "0 fail" in out

    def test_main_theorem_rejects_c0(self, capsys):
        code, _, err = run(capsys, "verify", "main-theorem", "--qf", "3", "--n", "1", "--c", "0")
        assert code == 2

    def test_qf_must_exceed_n(self, capsys):
        code, _, err = run(capsys, "verify", "volumes", "--qf", "3", "--n", "3", "--c", "1")
        assert code == 2

    def test_c1_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "c1")
        assert code == 0 and "0 fail" in out

    def test_c1_suite_fails_on_unequal_halves(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "c1", lambda n, c, q: (Fraction(1), Fraction(2)))
        code, out, _ = run(capsys, "verify", "c1")
        assert code == 1
        assert "[FAIL] c1-identity" in out and "rel_err=1.000e+00" in out
        assert "100 checks: 0 pass, 100 fail" in out

    def test_soft_discrepancies_do_not_fail(self, capsys, tmp_path):
        out_file = tmp_path / "theta.json"
        code, out, _ = run(
            capsys, "verify", "theta", "--qf", "3", "--depth", "25",
            "--seed", "2", "--json", str(out_file),
        )
        assert code == 0
        reports = json.loads(out_file.read_text())
        statuses = {r["status"] for r in reports}
        assert "soft-discrepancy" in statuses
        assert "fail" not in statuses

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
            capsys, "compute", "j-main", "--qf", "3", "--n", "1", "--c", "1",
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
            capsys, "compute", "i-closed", "--qf", "3", "--n", "1", "--c", "1",
            "--satake", "1", "--segments-file", str(seg),
        )
        assert code == 0
        assert "0.0219478737997" in out  # 16/729

    def test_j_main_parity_mismatch(self, capsys, tmp_path):
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
        code, _, err = run(
            capsys, "compute", "j-main", "--qf", "3", "--n", "1", "--c", "1", "--eps", "0",
            "--satake", "1", "--segments-file", str(seg),
        )
        assert code == 2 and "rejected" in err


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
    "verify-eps": (["verify", "c1", "--eps", "1"], "--eps"),
    "compute-seed": (["compute", "lfactor", "--satake", "1", "--asai", "+", "--seed", "3"],
                     "--seed"),
    "volumes-depth": (["volumes", "--n", "1", "--c", "1", "--depth", "5"], "--depth"),
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
    "verify-eps": (["verify", "c1"], "eps"),
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
    assert set(cli._SUITE_OPTIONS) == set(cli.SUITES)


@pytest.mark.parametrize("argv, want", [
    (["volumes", "--qf", "3", "--n", "1", "--c", "1", "--seed", "7"],
     {"q_f": 3, "n": 1, "c": 1, "seed": 7}),
    (["all", "--depth", "5", "--vmax", "2", "--p", "5", "--u", "2"],
     {"depth": 5, "vmax": 2, "p": 5, "u": 2}),
])
def test_options_a_suite_reads_are_accepted(argv, want, capsys, monkeypatch):
    seen = []
    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, lambda cfg, rng: seen.append(cfg) or [])
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
#: character, and rank 3 with one unramified character off the real axis
REP1 = {"segments": [{"type": "unram", "alpha": [1.0, 0.0], "k": 1},
                     {"type": "ram", "dim": 1, "cond": 1, "k": 1}]}
REP2 = {"segments": [{"type": "unram", "alpha": [0.6, 0.8], "k": 1},
                     {"type": "ram", "dim": 2, "cond": 1, "k": 1}]}
N1 = ["--qf", "3", "--n", "1", "--c", "1", "--satake", "1"]
N2 = ["--qf", "5", "--n", "2", "--c", "1", "--satake", "0.6+0.8i,0.6-0.8i"]

#: name -> (argv, segments file or None, the exact stdout)
STDOUT_PINS = {
    "j-main-n1": (["compute", "j-main", *N1], REP1, (
        "C = 1/9\n"
        "L(1/2, pairing) = 1.5\n"
        "L(1, As^[-1], unramified side) = 0.75\n"
        "L(1, As^[+1], unramified part) = 1.5\n"
        "J = 0.148148148148\n"
    )),
    "j-main-n2": (["compute", "j-main", *N2], REP2, (
        "C = 2496/390625\n"
        "L(1/2, pairing) = 1.14583333333+0.208333333333i\n"
        "L(1, As^[+1], unramified side) = 1.30208333333\n"
        "L(1, As^[-1], unramified part) = 0.875-0.125i\n"
        "J = 0.0061341696+0.0020447232i\n"
    )),
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


#: bad input files: name -> (files to write under tmp_path, argv with {tmp})
I_CLOSED = ["compute", "i-closed", *N1]
BAD_INPUTS = {
    "segments-missing": ({}, [*I_CLOSED, "--segments-file", "{tmp}/missing.json"]),
    "segments-directory": ({}, [*I_CLOSED, "--segments-file", "{tmp}"]),
    "segments-no-alpha": ({"rep.json": '{"segments": [{"type": "unram"}]}'},
                          [*I_CLOSED, "--segments-file", "{tmp}/rep.json"]),
    "segments-no-key": ({"rep.json": '{"foo": 1}'}, [*I_CLOSED, "--segments-file", "{tmp}/rep.json"]),
    "segments-a-list": ({"rep.json": "[1, 2]"}, [*I_CLOSED, "--segments-file", "{tmp}/rep.json"]),
    "config-missing": ({}, ["volumes", "--config", "{tmp}/missing.cfg"]),
    # the checks run first; the report cannot be written after them
    "json-unwritable": ({}, ["verify", "c1", "--json", "{tmp}/no/dir/out.json"]),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_files_exit_2(name, capsys, tmp_path):
    files, argv = BAD_INPUTS[name]
    for fname, text in files.items():
        (tmp_path / fname).write_text(text)
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("usage error: ") and err.count("\n") == 1
