"""One benchmark pass in a fresh interpreter.

Runs a workload's ``verify`` calls for one seed through
``localperiods.cli.main``, each writing its ``--json`` report into
``--out``, and prints one line ``BENCH_PASS {...}`` with the pass's wall
time, exit codes and peak resident set size.  With ``--trace FILE`` the
probes of ``tracer.py`` are installed around the calls and the trace is
written to FILE.

Usage: python3 bench/passrun.py --src SRC --calls JSON --seed N --out DIR
       [--trace FILE --pass-id ID]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

MARKER = "BENCH_PASS "


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--calls", required=True, help="JSON list of verify argument lists")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default="")
    ap.add_argument("--pass-id", default="")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from localperiods import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()
    out = Path(args.out)
    codes = []
    start = time.perf_counter()
    for i, call in enumerate(json.loads(args.calls)):
        argv = ["verify", *call, "--seed", str(args.seed), "--json", str(out / f"{i}.json")]
        codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        Path(args.trace).write_text(json.dumps(tracer.dump()))
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(MARKER + json.dumps({"wall_s": wall, "maxrss_kib": maxrss_kib, "codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
