"""The reach ledger: every statement line of every function defined in
src/localperiods runs under `verify all` or one of the CLI commands below,
or UNREACHED lists it with its reason.

A line is keyed by its function, module:qualname, and its stripped source
text, not by its number, so an edit elsewhere in the file does not move it.
Statement lines are the first lines of statements in function bodies,
docstrings excluded; raise statements are exempt, since bad input and
broken invariants are what they are for.

The commands run in process at reduced settings, since the ledger asserts
reach, not results: at --depth 3 the torus checks fail, so `verify all`
also prints failure records.  The test fails on a line that nothing
reaches and UNREACHED does not list, and on a listed one that is reached
or no longer defined.
"""

from __future__ import annotations

import json

from helpers import unreached_lines
from localperiods.cli import main

PROBE = "a bench/tracer.py probe target; bench/tests assert that none is missing"
REPR = "debugging and test failure messages"
REJECTED = ("the rejected-input record of asai_cancellation_check's input check; "
            "the asai-cancel suite draws only valid input")
AXIS = ("no matched representative on either axis: the fl-rank1 grid's norm targets are "
        "-u times squares, which the second axis solves")

#: the statement lines that no command reaches, by (function, text), each
#: with why it stays
UNREACHED = {
    **{("numerics:QuadExt.__pow__", line): PROBE for line in (
        "if k < 0:", "return (QuadExt.of(1, self.u) / self) ** (-k)",
        "out = QuadExt.of(1, self.u)", "base = self", "while k:", "if k & 1:",
        "out = out * base", "base = base * base", "k >>= 1", "return out")},
    ("numerics:QuadExt.__rsub__", "return QuadExt.of(other, self.u) - self"): PROBE,
    ("numerics:QuadExt.__rtruediv__", "return QuadExt.of(other, self.u) / self"): PROBE,
    ("numerics:QuadExt.__bool__", "return not self.is_zero()"):
        "value protocol: without it a zero QuadExt is truthy",
    ("hermitian:EMat.__eq__", "return NotImplemented"):
        "value protocol: an EMat compared with another type",
    ("hermitian:EMat.__hash__", "return hash((self.rows, self.u))"):
        "value protocol: __eq__ alone would make EMat unhashable",
    ("numerics:QuadExt.__repr__", 'sign = "+" if self.b >= 0 else "-"'): REPR,
    ("numerics:QuadExt.__repr__", 'return f"({self.a}{sign}{abs(self.b)}*sqrt({self.u}))"'): REPR,
    ("hermitian:EMat.__repr__",
     'body = "; ".join(", ".join(repr(a) for a in row) for row in self.rows)'): REPR,
    ("hermitian:EMat.__repr__", 'return f"EMat[{body}]"'): REPR,
    ("lfactors:asai_cancellation_check", 'return rejected("asai-cancel", params, defect)'):
        REJECTED,
    ("report:rejected", "params = dict(params)"): REJECTED,
    ("report:rejected", 'params["reason"] = reason'): REJECTED,
    ("report:rejected", "return VerificationReport(check, params, status=STATUS_REJECTED)"):
        REJECTED,
    ("orbital:_norm_solution", "return None"): AXIS,
    ("orbital:match_rank1", "return 0, None"): AXIS,
    ("orbital:fl_check_rank1", 'params["reason"] = "no exact matched representative"'): AXIS,
    ("orbital:fl_check_rank1", 'rep = exact_check("fl-rank1", params, 0, 0, False)'): AXIS,
    ("numerics:fraction_sqrt", "return None"):
        "a nonnegative non-square: q_E is q_F^2, and the fl-rank1 targets are -u times squares",
    ("hermitian:in_bmk", "return False"):
        "a matrix outside the tilde lattice: the elements that reach it all lie inside",
    ("hermitian:is_regular_semisimple", "return False"):
        "a non-regular element: the fl-rank1 grid's off-diagonal entries are all nonzero",
    ("suites:run_matrix_identities.cayley_unitarity_equivariance", "return None"):
        "a draw with det(1 - x) = 0, which has no Cayley transform; seed 7 draws none",
    ("suites:run_matrix_identities.cayley_lattice_stability", "return None"):
        "a product of Cayley images outside the tilde lattice; seed 7 draws none",
    ("periods:_torus_sum", "continue"): "a Schur value of exactly 0; no drawn parameters give one",
    ("periods:ratio_spread", 'return float("inf")'): "a family of ratios with mean 0",
    ("report:rel_error", "return 0.0"): "two sides that are both exactly 0",
    ("reps:GenericRep.to_json", 'entry["label"] = seg.base.label'):
        "only a segments file labels a segment, and no command writes a representation it "
        "read; tests/test_reps.py round-trips a label",
    ("symfunc:_schur_table", "return schur_itself"):
        "nearly coincident or overflowing arguments in a torus sum or a Macdonald series",
    ("symfunc:schur", "if parts[0] > 0:"):
        "a constant weight at a zero argument: Satake parameters are nonzero",
    ("symfunc:schur", "return 0.0"):
        "a constant weight at a zero argument: Satake parameters are nonzero",
    ("symfunc:schur_jacobi_trudi", "return 1.0"):
        "the zero weight, which schur evaluates itself; tests call the route directly",
    ("symfunc:schur_jacobi_trudi", "return 0.0"):
        "a weight longer than the arguments; schur's weights have one part per argument",
}

#: rank 2: one unramified character and one ramified segment of conductor 1
REP = {"segments": [{"type": "unram", "alpha": [1.0, 0.0], "k": 1},
                    {"type": "ram", "dim": 1, "cond": 1, "k": 1}]}
#: rank 3: a conjugate-self-dual pair of unramified characters, conductor 2
REP3 = {"segments": [{"type": "unram", "alpha": [0.8, 0.6], "k": 1},
                     {"type": "unram", "alpha": [0.8, -0.6], "k": 1},
                     {"type": "ram", "dim": 1, "cond": 2, "k": 1}]}
PAIR = ["--qf", "3", "--satake", "1", "--segments-file", "{rep}"]
WHITTAKER = ["compute", "whittaker", "--lambda"]

#: (argv, exit code); {rep}, {rep3}, {cfg}, {bad} and {out} are files under
#: tmp_path
COMMANDS = [
    # the config file sets --qf 5; at --depth 3 the torus checks fail: exit 1
    (["verify", "all", "--seed", "7", "--config", "{cfg}", "--depth", "3", "--vmax", "1",
      "--json", "{out}"], 1),
    # an odd prime and a prime power above it take the trial-division loops
    (["verify", "fl-rank1", "--p", "5", "--u", "2", "--vmax", "1"], 0),
    (["volumes", "--qf", "3", "--n", "2", "--c", "1"], 0),
    (["volumes", "--qf", "9", "--n", "2", "--c", "1"], 0),
    (["compute", "lfactor", "--asai", "+", "--satake", "1", "--qf", "3"], 0),
    (["compute", "lfactor", "--pair-dual", "--satake", "0.5,0.2i", "--qf", "3"], 0),
    (["compute", "lfactor", "--satake", "1", "--satake2", "0.5i", "--qf", "3"], 0),
    # a pole: PoleError, exit 2
    (["compute", "lfactor", "--asai", "+", "--satake", "1", "--qf", "3", "--s", "0"], 2),
    # distinct parameters take the bialternant, equal ones Jacobi-Trudi: its
    # determinant has 2, 3 or 4 rows; at 4 rows _det runs its loop
    ([*WHITTAKER, "1,0", "--satake", "0.6+0.8i,0.6-0.8i"], 0),
    ([*WHITTAKER, "1,0", "--satake", "1,1"], 0),
    ([*WHITTAKER, "2,1,0", "--satake", "0.5,0.3,-0.2"], 0),
    ([*WHITTAKER, "2,1,0,0", "--satake", "0.5,0.3,-0.2,0.7"], 0),
    ([*WHITTAKER, "2,1,1,1", "--satake", "1,1,1,1"], 0),
    # at 1, -1, 1, -1 every odd h_k vanishes, and these 4-row Jacobi-Trudi
    # matrices are singular: a zero column, and a zero last pivot
    ([*WHITTAKER, "3,2,1,1", "--satake", "1,-1,1,-1"], 0),
    ([*WHITTAKER, "2,1,1,1", "--satake", "1,-1,1,-1"], 0),
    # the zero weight, a Laurent weight and weights off the support
    ([*WHITTAKER, "0,0", "--satake", "0.5,2"], 0),
    ([*WHITTAKER, "1,-2", "--satake", "0.5,2"], 0),
    ([*WHITTAKER, "0,1", "--satake", "0.5,2"], 0),
    ([*WHITTAKER, "1", "--segments-file", "{rep}"], 0),
    ([*WHITTAKER, "-1", "--segments-file", "{rep}"], 0),
    (["compute", "j-main", *PAIR], 0),
    (["compute", "i-closed", *PAIR], 0),
    # bad input: usage errors and rejected input, exit 2
    (["verify", "fl-rank1", "--p", "25"], 2),
    (["verify", "fl-rank1", "--p", "4"], 2),
    (["verify", "fl-rank1", "--p", "1"], 2),
    (["verify", "fl-rank1", "--u", "3"], 2),
    (["volumes", "--qf", "1", "--n", "1", "--c", "1"], 2),
    (["compute", "lfactor", "--satake", "1", "--config", "{bad}"], 2),
    (["compute", "j-main", "--qf", "3", "--satake", "2", "--segments-file", "{rep}"], 2),
    (["compute", "j-main", "--qf", "5", "--satake", "2,0.5", "--segments-file", "{rep3}"], 2),
]


def test_unreached_definitions_are_the_listed_ones(tmp_path, capsys):
    files = {name: tmp_path / name for name in ("rep", "rep3", "cfg", "bad", "out")}
    files["rep"].write_text(json.dumps(REP))
    files["rep3"].write_text(json.dumps(REP3))
    files["cfg"].write_text("qf = 5\n")
    files["bad"].write_text("# an invalid choice\n\nasai = *\n")
    codes = []

    def run_all() -> None:
        for argv, _ in COMMANDS:
            codes.append(main([a.format(**files) for a in argv]))

    defined, unreached = unreached_lines(run_all)
    assert codes == [code for _, code in COMMANDS]
    problems = {
        "reached by nothing and not listed": unreached - set(UNREACHED),
        "listed but reached": (set(UNREACHED) & defined) - unreached,
        "listed but not defined": set(UNREACHED) - defined,
    }
    assert not any(problems.values()), "\n".join(
        f"{what}:\n" + "".join(f"    {key!r},\n" for key in sorted(keys))
        for what, keys in problems.items() if keys)
