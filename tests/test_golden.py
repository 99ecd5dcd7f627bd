"""Fresh --json reports against golden copies, byte for byte.

The golden files hold the reports of the per-call Schur and Whittaker
evaluation, which the per-sum tables must reproduce exactly.  A
restructuring change leaves them unchanged; a change meant to move a
float result regenerates them with the arguments below and records the
largest drift.
"""

from pathlib import Path

import pytest

from localperiods import cli

GOLDEN = Path(__file__).parent / "golden"

#: golden file name -> the verify arguments that write it
REPORTS = {
    **{
        f"{suite}-qf5-seed7-depth25.json": [suite, "--qf", "5", "--seed", "7", "--depth", "25"]
        for suite in ("lambda", "beta", "theta", "main-theorem")
    },
    # these five cover every suite that bench/run.py's series workload runs
    "macdonald-seed7.json": ["macdonald", "--seed", "7"],
    "main-theorem-qf3-seed7.json": ["main-theorem", "--qf", "3", "--seed", "7"],
    "asai-cancel-qf3-seed7.json": ["asai-cancel", "--qf", "3", "--seed", "7"],
    "volumes-seed7.json": ["volumes", "--seed", "7"],
    "c1-seed7.json": ["c1", "--seed", "7"],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli.main(["verify", *REPORTS[name], "--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
