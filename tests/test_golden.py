"""Fresh --json reports against golden copies, byte for byte.

Every suite has one.  Each file was written by the commit before a change
that rewrote how its suite computes or records, such as the per-sum Schur
and Whittaker tables or the shared exact-check records.  A restructuring
change leaves them unchanged; a change meant to move a float result, or to
add records, rewrites the goldens it moves from the arguments in REPORTS,

    PYTHONPATH=src python tests/test_golden.py NAME...

and records the largest drift.  Only the named files are rewritten.
"""

import sys
from pathlib import Path

import pytest

from localperiods import cli, suites

GOLDEN = Path(__file__).parent / "golden"

#: golden file name -> the verify arguments that write it
REPORTS = {
    **{
        f"{suite}-qf5-seed7-depth25.json": [suite, "--qf", "5", "--seed", "7", "--depth", "25"]
        for suite in ("lambda", "beta", "theta", "main-theorem")
    },
    # a second draw and depth of the torus sums and of the Macdonald series,
    # written before the sums walked their support as one ordered product
    **{
        f"{suite}-qf3-seed11-depth40.json": [suite, "--qf", "3", "--seed", "11", "--depth", "40"]
        for suite in ("lambda", "beta", "theta")
    },
    "macdonald-seed11.json": ["macdonald", "--seed", "11"],
    # these five cover every suite that bench/run.py's series workload runs
    "macdonald-seed7.json": ["macdonald", "--seed", "7"],
    "main-theorem-qf3-seed7.json": ["main-theorem", "--qf", "3", "--seed", "7"],
    "asai-cancel-qf3-seed7.json": ["asai-cancel", "--qf", "3", "--seed", "7"],
    "volumes-seed7.json": ["volumes", "--seed", "7"],
    "c1-seed7.json": ["c1", "--seed", "7"],
    # the two exact suites, which bench/run.py's exact workload runs
    "fl-rank1-seed7.json": ["fl-rank1", "--seed", "7"],
    "matrix-identities-seed7.json": ["matrix-identities", "--seed", "7"],
    # a second draw of each, written before products and determinants moved
    # to integers over a common denominator
    "fl-rank1-seed11.json": ["fl-rank1", "--seed", "11"],
    "matrix-identities-seed11.json": ["matrix-identities", "--seed", "11"],
    # the exact suites off p = 3, u = -1, written before the Cayley maps lost
    # their norm-one parameter and rank-one matching its second norm axis
    "fl-rank1-seed7-p5-u2.json": ["fl-rank1", "--seed", "7", "--p", "5", "--u", "2"],
    "matrix-identities-seed7-p5-u2.json": ["matrix-identities", "--seed", "7", "--p", "5", "--u", "2"],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli.main(["verify", *REPORTS[name], "--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_every_suite_has_a_golden():
    assert set(suites.SUITES) <= {args[0] for args in REPORTS.values()}


def rewrite(names: list[str]) -> int:
    """Rewrite the named goldens from REPORTS; an unknown or missing name
    rewrites nothing."""
    unknown = [name for name in names if name not in REPORTS]
    if not names or unknown:
        print(f"usage: test_golden.py NAME..., each one of: {' '.join(sorted(REPORTS))}"
              + (f"\nunknown: {' '.join(unknown)}" if unknown else ""), file=sys.stderr)
        return 2
    for name in names:
        code = cli.main(["verify", *REPORTS[name], "--json", str(GOLDEN / name)])
        print(f"wrote {name} (verify exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(rewrite(sys.argv[1:]))
