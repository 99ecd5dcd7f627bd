"""The reach ledger: every function defined in src/localperiods runs under
`verify all` or one of the CLI commands below, or UNREACHED lists it with
its reason.

The commands run in process at reduced settings, since the ledger asserts
reach, not results: at --depth 3 the torus checks fail, so `verify all`
also prints failure records.  The test fails on a function that nothing
reaches and UNREACHED does not list, and on a listed one that is reached
or no longer defined.
"""

from __future__ import annotations

import json

from helpers import called_definitions, src_definitions
from localperiods.cli import main

PROBE = "a bench/tracer.py probe target; bench/tests assert that none is missing"
REPR = "debugging and test failure messages"
OVERFLOW = "_det's float-overflow path at 4 or more rows, which no draw reaches"

#: the functions that no command reaches, each with why it stays
UNREACHED = {
    "numerics:QuadExt.__pow__": PROBE,
    "numerics:QuadExt.__rsub__": PROBE,
    "numerics:QuadExt.__rtruediv__": PROBE,
    "numerics:QuadExt.__bool__": "value protocol: without it a zero QuadExt is truthy",
    "hermitian:EMat.__hash__": "value protocol: __eq__ alone would make EMat unhashable",
    "numerics:QuadExt.__repr__": REPR,
    "hermitian:EMat.__repr__": REPR,
    "hermitian:EMat.__setattr__": "the immutability guard: it runs only on an attempt to assign",
    "report:rejected": "the rejected-input record of asai_cancellation_check's input check; "
                       "the asai-cancel suite draws only valid input",
    "symfunc:_modulus": OVERFLOW,
    "symfunc:_scaled_quotient": OVERFLOW,
    "symfunc:_scaled_quotient.scaled": OVERFLOW,
}

#: rank 2: one unramified character and one ramified segment of conductor 1
REP = {"segments": [{"type": "unram", "alpha": [1.0, 0.0], "k": 1},
                    {"type": "ram", "dim": 1, "cond": 1, "k": 1}]}
PAIR = ["--qf", "3", "--satake", "1", "--segments-file", "{rep}"]

#: (argv, exit code); {rep}, {cfg} and {out} are files under tmp_path
COMMANDS = [
    # the config file sets --qf 5; at --depth 3 the torus checks fail: exit 1
    (["verify", "all", "--seed", "7", "--config", "{cfg}", "--depth", "3", "--vmax", "1",
      "--json", "{out}"], 1),
    (["volumes", "--qf", "3", "--n", "2", "--c", "1"], 0),
    (["compute", "lfactor", "--asai", "+", "--satake", "1", "--qf", "3"], 0),
    # a pole: PoleError, exit 2
    (["compute", "lfactor", "--asai", "+", "--satake", "1", "--qf", "3", "--s", "0"], 2),
    # distinct parameters take the bialternant, equal ones Jacobi-Trudi
    (["compute", "whittaker", "--lambda", "1,0", "--satake", "0.6+0.8i,0.6-0.8i"], 0),
    (["compute", "whittaker", "--lambda", "1,0", "--satake", "1,1"], 0),
    (["compute", "whittaker", "--lambda", "1", "--segments-file", "{rep}"], 0),
    (["compute", "j-main", *PAIR], 0),
    (["compute", "i-closed", *PAIR], 0),
]


def test_unreached_definitions_are_the_listed_ones(tmp_path, capsys):
    files = {"rep": tmp_path / "rep.json", "cfg": tmp_path / "run.cfg", "out": tmp_path / "o.json"}
    files["rep"].write_text(json.dumps(REP))
    files["cfg"].write_text("qf = 5\n")
    codes = []

    def run_all() -> None:
        for argv, _ in COMMANDS:
            codes.append(main([a.format(**files) for a in argv]))

    reached = called_definitions(run_all)
    assert codes == [code for _, code in COMMANDS]
    defined = set(src_definitions().values())
    unreached = defined - reached
    problems = {
        "reached by nothing and not listed": unreached - set(UNREACHED),
        "listed but reached": set(UNREACHED) & reached,
        "listed but not defined": set(UNREACHED) - defined,
    }
    assert not any(problems.values()), "; ".join(
        f"{what}: {', '.join(sorted(names))}" for what, names in problems.items() if names)
