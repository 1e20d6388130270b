"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--spans PATH]

Imports ``k3pencil.cli`` from ``src/`` next to this directory, issues the
pass's commands one after the other through ``k3pencil.cli.main`` (a closed
loop with one client), timing each with ``time.perf_counter``.  Reports go
to memory and are checked against ``expected`` only after the last command,
so checking costs no latency.  Prints one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import expected  # noqa: E402  (sibling module; the script directory is on sys.path)
from workloads import pass_commands  # noqa: E402


def run_pass(workload: str, seed: int, trace: bool, spans_path: str | None) -> dict:
    from k3pencil import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    commands = pass_commands(workload, seed)
    outcomes = []
    first = last = None
    for kind, argv in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except Exception as exc:  # a valid command that raises is a failure, a probe a misrejection
                rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        first = t0 if first is None else first
        last = t1
        outcomes.append((kind, argv, rc, out.getvalue(), err.getvalue(), t1 - t0))

    latencies, errors = [], []
    failed = probes = misrejected = reported = 0
    for kind, argv, rc, out, err, dt in outcomes:
        if kind == "probe":
            probes += 1
            misrejected += not expected.check_probe(rc, err)
            continue
        latencies.append(dt)
        problems = expected.check_command(argv, rc, out)
        if problems:
            failed += 1
            errors.append(f"{' '.join(argv)}: {'; '.join(problems)}")
        elif argv[0] == "identities":
            reported += len(json.loads(out)["checks"])
    result = {
        "pass_s": last - first,
        "latencies_s": latencies,
        "valid": len(latencies),
        "failed": failed,
        "errors": errors[:5],
        "probes": probes,
        "misrejected": misrejected,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.summary()
        layers["identities.reported"] = reported
        result["layers"] = layers
        if spans_path:
            tracer.dump(spans_path)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced pass's spans to this file")
    args = ap.parse_args()
    result = run_pass(args.workload, args.seed, bool(args.trace), args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
