"""Per-layer tracing of a benchmark pass, installed from outside the program.

Each probe names a function or method of a ``localperiods`` module.  The
wrapper replaces the original in every module namespace, and every
module-level dict such as the CLI suite registry, that holds the original
object, so names pulled in with ``from .module import name`` are wrapped
too.  ``uninstall`` puts every original back.

Probe kinds:

* ``SPAN``: coarse boundaries (suites, truncated sums, assembly, the
  rank-one grid, the Macdonald series).  Every call keeps a span
  ``(id, name, start, end, parent span id, pass id, self time)``.
* ``AGG``: fine-grained functions that run up to millions of times per
  pass.  Calls, busy (inclusive) time and self time are summed in place
  per (name, parent name), so memory stays bounded.
* ``ZEROS``: ``AGG`` that also counts calls returning zero.
* ``COUNT``: constructors, counted without timing.
* ``TERMS``: the torus summation loop; counts the integrands it
  evaluates and how many of them are nonzero.

Self time is a frame's duration minus the durations of the wrapped calls
made directly inside it.  Busy time counts only the outermost call of a
name, so recursion is not counted twice.  Leaf helpers that are not
wrapped (``is_weakly_decreasing``, ``_det``, ...) count as self time of
the wrapped caller.

A probe whose target no longer exists is skipped and listed in
``missing``; the metrics that depend on it read 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

SPAN, AGG, ZEROS, COUNT, TERMS = "span", "agg", "zeros", "count", "terms"

QUADEXT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)
TRUNCATED = ("lambda_truncated", "beta_truncated", "theta_truncated", "beta_spherical_truncated")
PERIODS_FINE = (
    "beta_closed", "beta_spherical_closed", "theta_closed", "lambda_closed",
    "check_beta", "check_beta_spherical", "check_theta", "check_lambda", "ratio_spread",
)
LFACTOR_BUILDERS = ("rs_lfactor", "asai_lfactor", "pair_dual_lfactor")
CLOSED_FORMS = ("j_main", "j_via_bridge", "i_closed")
#: suites that some workload runs; each gets a ``cli.<suite>.busy_s`` metric
CLI_SUITES = (
    "lambda", "matrix-identities", "fl-rank1", "macdonald",
    "main-theorem", "asai-cancel", "volumes", "c1",
)

P = "localperiods."

#: (probe name, target, kind).  A target is ``module:function``,
#: ``module:Class.method`` or ``module:*`` for every public function
#: defined in the module.  The CLI suites are added from ``cli.SUITES``.
PROBES: list[tuple[str, str, str]] = [
    ("cli.main", P + "cli:main", SPAN),
    *[(f"periods.{f}", P + f"periods:{f}", SPAN) for f in TRUNCATED],
    *[(f"periods.{f}", P + f"periods:{f}", AGG) for f in PERIODS_FINE],
    ("periods.terms", P + "periods:_torus_sum", TERMS),
    ("whittaker.spherical_value", P + "whittaker:spherical_value", AGG),
    ("whittaker.essential_value", P + "whittaker:essential_value", ZEROS),
    ("reps.unramified_part", P + "reps:GenericRep.unramified_part", AGG),
    ("symfunc.schur", P + "symfunc:schur", AGG),
    ("symfunc.schur_bialternant", P + "symfunc:schur_bialternant", AGG),
    ("symfunc.schur_jacobi_trudi", P + "symfunc:schur_jacobi_trudi", AGG),
    ("symfunc.delta_weight", P + "symfunc:delta_weight", AGG),
    ("symfunc.macdonald_closed", P + "symfunc:macdonald_closed", AGG),
    ("symfunc.macdonald_sum", P + "symfunc:macdonald_sum", SPAN),
    ("lfactors.value", P + "lfactors:LocalLFactor.value", AGG),
    *[(f"lfactors.{f}", P + f"lfactors:{f}", AGG) for f in LFACTOR_BUILDERS],
    ("lfactors.asai_cancellation_check", P + "lfactors:asai_cancellation_check", AGG),
    ("volumes", P + "volumes:*", AGG),
    ("assembly.i_assembled", P + "assembly:i_assembled", SPAN),
    *[(f"assembly.{f}", P + f"assembly:{f}", AGG) for f in CLOSED_FORMS],
    *[(f"numerics.quadext.{op}", P + f"numerics:QuadExt.{op}", AGG) for op in QUADEXT_OPS],
    ("numerics.qe_valuation", P + "numerics:qe_valuation", AGG),
    ("numerics.quadext_built", P + "numerics:QuadExt.__post_init__", COUNT),
    ("numerics.fractions_built", "fractions:Fraction.__new__", COUNT),
    ("hermitian.det", P + "hermitian:EMat.det", AGG),
    ("hermitian.inv", P + "hermitian:EMat.inv", AGG),
    ("hermitian.matmul", P + "hermitian:EMat.__matmul__", AGG),
    ("hermitian.emat_built", P + "hermitian:EMat.__init__", COUNT),
    ("orbital.fl_check_rank1", P + "orbital:fl_check_rank1", SPAN),
    ("orbital.group_transport_check", P + "orbital:group_transport_check", AGG),
    ("orbital.match_rank1", P + "orbital:match_rank1", AGG),
]


class Tracer:
    """Wraps probe targets and records what the wrapped calls do."""

    def __init__(self, pass_id: str = "", clock: Callable[[], float] = time.perf_counter):
        self.pass_id = pass_id
        self.clock = clock
        # frames: [name, time covered by wrapped children, span id or None]
        self.stack: list[list[Any]] = [["<pass>", 0.0, None]]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, busy, self, zeros]
        self.active: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counts: dict[str, list[int]] = {}
        self.missing: list[str] = []
        self._next_span = [0]
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn: Callable, kind: str = AGG) -> Callable:
        stack, agg, active, clock = self.stack, self.agg, self.active, self.clock
        spans, next_span, pass_id = self.spans, self._next_span, self.pass_id
        is_span, zeros = kind == SPAN, kind == ZEROS

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, None]
            if is_span:
                frame[2] = next_span[0]
                next_span[0] += 1
                parent_span = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] = depth
                duration = end - start
                parent[1] += duration
                rec = agg.get((name, parent[0]))
                if rec is None:
                    rec = agg[(name, parent[0])] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                if depth == 0:
                    rec[1] += duration
                self_time = duration - frame[1]
                rec[2] += self_time
                if is_span:
                    spans.append((frame[2], name, start, end, parent_span, pass_id, self_time))
            if zeros and result == 0:
                rec[3] += 1
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def term_counted(self, name: str, fn: Callable) -> Callable:
        """Wrap a summation loop so that every callable argument (the
        integrand) counts its evaluations and its nonzero values."""
        evaluated = self.counts.setdefault(name, [0])
        nonzero = self.counts.setdefault(name + "_nonzero", [0])

        def count_terms(term: Callable) -> Callable:
            def counted_term(f):
                value = term(f)
                evaluated[0] += 1
                if value != 0:
                    nonzero[0] += 1
                return value

            return counted_term

        def wrapper(*args, **kwargs):
            args = [count_terms(a) if callable(a) else a for a in args]
            kwargs = {k: count_terms(v) if callable(v) else v for k, v in kwargs.items()}
            return fn(*args, **kwargs)

        return wrapper

    def _make(self, name: str, fn: Callable, kind: str) -> Callable:
        if kind == COUNT:
            return self.counted(name, fn)
        if kind == TERMS:
            return self.term_counted(name, fn)
        return self.timed(name, fn, kind)

    # -- installation ----------------------------------------------------------

    def _replace_everywhere(self, original: Any, wrapper: Callable) -> None:
        """Swap `original` for `wrapper` in every localperiods namespace and
        module-level dict that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "localperiods" or mod_name.startswith(P)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._undo.append((value, dkey, original))

    def _install_one(self, name: str, target: str, kind: str) -> None:
        mod_name, _, path = target.partition(":")
        try:
            mod = importlib.import_module(mod_name)
        except ImportError:
            self.missing.append(target)
            return
        if path == "*":
            for attr, value in list(vars(mod).items()):
                if callable(value) and not attr.startswith("_") and not isinstance(value, type) \
                        and getattr(value, "__module__", None) == mod_name:
                    self._replace_everywhere(value, self._make(f"{name}.{attr}", value, kind))
            return
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            if original is None:
                self.missing.append(target)
                return
            fn = original.__func__ if isinstance(original, staticmethod) else original
            setattr(owner, attr, self._make(name, fn, kind))
            self._undo.append((owner, attr, original))
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(target)
            return
        self._replace_everywhere(original, self._make(name, original, kind))

    def install(self) -> None:
        cli = importlib.import_module(P + "cli")
        for suite, fn in list(cli.SUITES.items()):
            self._replace_everywhere(fn, self.timed(f"cli.{suite}", fn, SPAN))
        for probe in PROBES:
            self._install_one(*probe)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if type(owner) is dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- output -----------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        return {
            "pass_id": self.pass_id,
            "spans": [list(s) for s in self.spans],
            "agg": [[name, parent, *rec] for (name, parent), rec in self.agg.items()],
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "missing": self.missing,
        }


def totals(trace: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Sum a dumped trace's aggregates over parents, per probe name."""
    out: dict[str, dict[str, float]] = {}
    for name, _parent, calls, busy, self_time, zeros in trace["agg"]:
        t = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "zeros": 0})
        t["calls"] += calls
        t["busy"] += busy
        t["self"] += self_time
        t["zeros"] += zeros
    return out


def layer_metrics(
    trace: dict[str, Any], checks: int, failed: int, overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    tot = totals(trace)
    counts = trace["counts"]

    def get(name: str, field: str) -> float:
        return tot.get(name, {}).get(field, 0)

    def over(prefix: str, field: str) -> float:
        return sum(t[field] for n, t in tot.items() if n.startswith(prefix))

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    m: dict[str, tuple[float, str]] = {}
    suites = [n for n in tot if n.startswith("cli.") and n != "cli.main"]
    for suite in CLI_SUITES:
        m[f"cli.{suite}.busy_s"] = (get(f"cli.{suite}", "busy"), "s")
    m["cli.overhead_s"] = (get("cli.main", "busy") - sum(get(s, "busy") for s in suites), "s")
    m["report.checks"] = (checks, "count")
    m["report.failed"] = (failed, "count")
    terms = counts.get("periods.terms", 0)
    truncated_busy = sum(get(f"periods.{f}", "busy") for f in TRUNCATED)
    m["periods.tuples"] = (terms, "count")
    m["periods.term_yield"] = (share(counts.get("periods.terms_nonzero", 0), terms), "ratio")
    m["periods.us_per_term"] = (1e6 * share(truncated_busy, terms), "us")
    m["periods.lambda_truncated.busy_s"] = (get("periods.lambda_truncated", "busy"), "s")
    m["periods.beta_truncated.busy_s"] = (get("periods.beta_truncated", "busy"), "s")
    m["periods.self_s"] = (over("periods.", "self"), "s")
    for f in ("spherical_value", "essential_value"):
        m[f"whittaker.{f}.calls"] = (get(f"whittaker.{f}", "calls"), "count")
        m[f"whittaker.{f}.self_s"] = (get(f"whittaker.{f}", "self"), "s")
    m["whittaker.essential_value.zero_share"] = (
        share(get("whittaker.essential_value", "zeros"), get("whittaker.essential_value", "calls")),
        "ratio",
    )
    m["reps.unramified_part.calls"] = (get("reps.unramified_part", "calls"), "count")
    m["reps.unramified_part.self_s"] = (get("reps.unramified_part", "self"), "s")
    m["symfunc.schur.calls"] = (get("symfunc.schur", "calls"), "count")
    m["symfunc.schur.busy_s"] = (get("symfunc.schur", "busy"), "s")
    m["symfunc.schur.self_s"] = (get("symfunc.schur", "self"), "s")
    m["symfunc.schur_bialternant.calls"] = (get("symfunc.schur_bialternant", "calls"), "count")
    m["symfunc.schur_bialternant.self_s"] = (get("symfunc.schur_bialternant", "self"), "s")
    m["symfunc.schur_jacobi_trudi.calls"] = (get("symfunc.schur_jacobi_trudi", "calls"), "count")
    m["symfunc.delta_weight.calls"] = (get("symfunc.delta_weight", "calls"), "count")
    m["symfunc.delta_weight.self_s"] = (get("symfunc.delta_weight", "self"), "s")
    m["symfunc.macdonald_sum.busy_s"] = (get("symfunc.macdonald_sum", "busy"), "s")
    m["lfactors.value.calls"] = (get("lfactors.value", "calls"), "count")
    m["lfactors.value.self_s"] = (get("lfactors.value", "self"), "s")
    m["lfactors.build.calls"] = (sum(get(f"lfactors.{f}", "calls") for f in LFACTOR_BUILDERS), "count")
    m["volumes.calls"] = (over("volumes.", "calls"), "count")
    m["volumes.self_s"] = (over("volumes.", "self"), "s")
    m["assembly.i_assembled.busy_s"] = (get("assembly.i_assembled", "busy"), "s")
    m["assembly.i_assembled.self_s"] = (get("assembly.i_assembled", "self"), "s")
    m["assembly.closed.calls"] = (sum(get(f"assembly.{f}", "calls") for f in CLOSED_FORMS), "count")
    m["numerics.quadext_ops"] = (over("numerics.quadext.", "calls"), "count")
    m["numerics.quadext_ops.self_s"] = (over("numerics.quadext.", "self"), "s")
    m["numerics.quadext_built"] = (counts.get("numerics.quadext_built", 0), "count")
    m["numerics.fractions_built"] = (counts.get("numerics.fractions_built", 0), "count")
    m["numerics.qe_valuation.calls"] = (get("numerics.qe_valuation", "calls"), "count")
    for f in ("det", "inv", "matmul"):
        m[f"hermitian.{f}.calls"] = (get(f"hermitian.{f}", "calls"), "count")
        m[f"hermitian.{f}.self_s"] = (get(f"hermitian.{f}", "self"), "s")
    m["hermitian.emat_built"] = (counts.get("hermitian.emat_built", 0), "count")
    m["orbital.fl_check_rank1.busy_s"] = (get("orbital.fl_check_rank1", "busy"), "s")
    m["orbital.group_transport_check.busy_s"] = (get("orbital.group_transport_check", "busy"), "s")
    m["orbital.match_rank1.calls"] = (get("orbital.match_rank1", "calls"), "count")
    m["trace.overhead"] = (overhead, "ratio")
    return m
