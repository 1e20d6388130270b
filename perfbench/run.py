"""k3pencil benchmark: how long a user waits for a verdict.

    python3 perfbench/run.py --workload {locus,configuration,queries} \\
        --seed N --seconds S --trace 0|1

Run from the root of a k3pencil checkout (``src/k3pencil`` and
``BENCHMARK.json`` must be there).  The workloads are described in
``workloads.py`` and, with the reason for each, in ``BENCHMARK.json``.

A run first times set-up (fresh interpreters completing a trivial command),
then runs passes of the workload, each in a fresh interpreter
(``worker.py``), until ``--seconds`` of passes have been measured.  Every
command's output is checked against ``expected.py``.

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced passes alternate; the
per-layer metrics come from the traced ones (``tracer.py``) and
``trace_overhead_ratio`` compares the two.  The spans of the first traced
pass are written to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit and sample count, and the run's
metadata.  Exit code 0 on a completed run (even if an output was wrong: that
is ``correct: false``), 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from math import ceil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
TRACES = os.path.join(HERE, "traces")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters timed for setup_s (after one untimed run that fills the
# bytecode cache, which users keep between runs).
SETUP_SAMPLES = 11
SETUP_ARGV = ["-m", "k3pencil.cli", "lattice", "--spec", "U"]
# A run must end within 180 s; no pass is started that could end after this.
RUN_LIMIT_S = 165.0


class CheckoutError(Exception):
    pass


def child_env() -> dict:
    """The environment of every k3pencil process: ``src`` importable, the
    jet-order override cleared, and a fixed hash seed so that call counts
    repeat exactly between runs."""
    env = dict(os.environ)
    env.pop("K3PENCIL_JET_ORDER", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> tuple[list[float], int]:
    """Wall times of fresh interpreters importing k3pencil.cli and answering
    ``lattice --spec U``; and how many of them gave a wrong answer."""
    cmd = [sys.executable, *SETUP_ARGV]
    times, wrong = [], 0
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        try:
            data = json.loads(proc.stdout)["data"]
            ok = proc.returncode == 0 and data["rank"] == 2 and data["signature"] == [1, 1, 0]
        except (ValueError, KeyError):
            ok = False
        if i == 0 and not ok:
            raise CheckoutError(f"k3pencil does not run here: {proc.stderr.strip()[-500:]}")
        if i > 0:
            times.append(dt)
            wrong += not ok
    return times, wrong


def run_worker(workload: str, seed: int, trace: bool, env: dict, timeout: float, spans: str | None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {timeout:.0f} s"}
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        pass
    return {"crashed": f"pass exited {proc.returncode}: {proc.stderr.strip()[-800:]}"}


def run_passes(workload: str, seed: int, seconds: int, trace: bool, env: dict, started: float):
    """Passes until ``seconds`` of them are measured (at least one; with
    tracing, untraced and traced alternate and at least one of each runs)."""
    plain, traced = [], []
    t_begin = time.perf_counter()
    longest = 0.0
    if trace:
        os.makedirs(TRACES, exist_ok=True)
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            left = RUN_LIMIT_S - (time.perf_counter() - started)
            spans = None
            if is_traced and not traced:
                spans = os.path.join(TRACES, f"{workload}-seed{seed}.tsv")
            t0 = time.perf_counter()
            res = run_worker(workload, seed, is_traced, env, max(left, 1.0), spans)
            longest = max(longest, time.perf_counter() - t0)
            (traced if is_traced else plain).append(res)
            if "crashed" in res:
                return plain, traced
        now = time.perf_counter()
        if now - t_begin >= seconds:
            return plain, traced
        per_round = longest * (2 if trace else 1)
        if (now - started) + 1.5 * per_round > RUN_LIMIT_S:
            return plain, traced


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(ceil(q * len(ordered)) - 1, 0)]


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics and, per metric, the samples it rests on."""
    latencies = [t for p in passes for t in p["latencies_s"]]
    pass_times = [p["pass_s"] for p in passes]
    p90 = nearest_rank(latencies, 0.9)
    above = sum(1 for t in latencies if t > p90)
    metrics = {
        "verdict_s": statistics.median(pass_times),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * p90,
        "queries_per_s": len(latencies) / sum(pass_times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "verdict_s": f"median of {len(pass_times)} passes: {', '.join(f'{t:.3f}' for t in pass_times)}",
        "latency_p50_ms": f"median of {len(latencies)} commands",
        "latency_p90_ms": f"{len(latencies)} commands, {above} above p90"
        + ("" if above >= 10 else "; fewer than 10 above, so indicative only"),
        "queries_per_s": f"{len(latencies)} commands in {sum(pass_times):.3f} s of passes",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": f"median over {len(passes)} pass processes",
    }
    return metrics, notes


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Median over the traced passes of each traced statistic, plus the
    derived ratios.  A function never called reads 0."""
    names = sorted({k for p in traced for k in p["layers"]})
    layers = {k: statistics.median(p["layers"].get(k, 0) for p in traced) for k in names}
    out = dict(layers)
    out["picard.assignments"] = layers.get("picard.enumerate_and_filter.assignments", 0)
    out["picard.survivors"] = layers.get("picard.enumerate_and_filter.survivors", 0)
    out["picard.survivor_ratio"] = out["picard.survivors"] / out["picard.assignments"] if out["picard.assignments"] else 0
    out["identities.computed"] = sum(
        v for k, v in layers.items() if k.startswith("identities.") and k.endswith("_check.calls")
    )
    out["identities.useful_ratio"] = (
        layers.get("identities.reported", 0) / out["identities.computed"] if out["identities.computed"] else 0
    )
    out["trace_overhead_ratio"] = statistics.median(p["pass_s"] for p in traced) / statistics.median(
        p["pass_s"] for p in plain
    )
    return out


def metadata(seed: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "k3pencil")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs": os.cpu_count() or 1,
        "K3PENCIL_JET_ORDER": "cleared",
        "PYTHONHASHSEED": "0",
        "query_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="k3pencil time-to-verdict benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if not os.path.isfile(os.path.join(SRC, "k3pencil", "cli.py")):
            raise CheckoutError(f"no k3pencil sources under {SRC}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        env = child_env()
        setup, setup_wrong = measure_setup(env)
    except (CheckoutError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2

    plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), env, started)
    crashed = [p["crashed"] for p in plain + traced if "crashed" in p]
    done = [p for p in plain + traced if "crashed" not in p]
    attempted = len(setup) + sum(p["valid"] for p in done)
    failed = setup_wrong + sum(p["failed"] for p in done) + len(crashed)
    probes = sum(p["probes"] for p in done)
    misrejected = sum(p["misrejected"] for p in done)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# meta {json.dumps(metadata(args.seed), sort_keys=True)}")
    for msg in crashed + [e for p in done for e in p["errors"]]:
        print(f"# FAILED {msg}")
    ok_plain = [p for p in plain if "crashed" not in p]
    ok_traced = [p for p in traced if "crashed" not in p]
    metrics = {}
    if not ok_plain or (args.trace and not ok_traced):
        print("# no pass completed; no metrics")
    elif args.trace:
        values = per_layer(ok_plain, ok_traced)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
            print(f"{m['name']} = {values.get(m['name'], 0):.6g} {m['unit']}")
    else:
        values, notes = end_to_end(ok_plain, setup)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']} ({notes[m['name']]})")
    print(f"failed_ratio = {failed / max(attempted, 1):.6g} ratio ({failed}/{attempted} valid commands failed)")
    if probes:
        print(f"misrejected_ratio = {misrejected / probes:.6g} ratio ({misrejected}/{probes} malformed requests not answered with exit 2)")
    result = {"correct": failed == 0 and bool(metrics), "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
