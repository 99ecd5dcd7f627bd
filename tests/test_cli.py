import json

import pytest

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
        cfg.write_text("qf = 5\nn = 1\nc = 2\nseed = 3\n# comment\n")
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


@pytest.mark.parametrize("flag", ["--tol-rel", "--tol-abs"])
def test_removed_tolerance_flags_exit_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "volumes", flag, "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
