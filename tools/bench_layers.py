"""A/B timing of two k3pencil checkouts: `k3pencil all` end to end, the
runtime_ms of each of its checks, and coefficient-layer, polyops-layer and
lattice-layer microbenchmarks.

    python3 tools/bench_layers.py BASE_SRC CHANGE_SRC > BENCH.json

BASE_SRC and CHANGE_SRC are the ``src`` directories of the two checkouts,
best two clean ``git archive`` copies.  Each measurement runs in a fresh
interpreter with that directory on PYTHONPATH and the side's own
PYTHONPYCACHEPREFIX, empty when the script starts, so neither side reads
byte code that the other side, or a test run in its checkout, left behind.
The two sides alternate, run by run, RUNS times, each run being one
`k3pencil all` and one pass of the microbenchmarks.  A side whose
`k3pencil all` exits non-zero (a crash, or a check with status "fail")
stops the script, so only passing reports are timed.  Reported per side,
every microbenchmark as its value in each run and their median:

* ``all_wall_s``: wall time of ``python3 -m k3pencil.cli all``, every run
  and the median;
* ``check_runtime_ms``: the median over the runs of each check's
  ``runtime_ms`` in that report;
* ``coefficient_us``: microseconds per FieldElement mul/add/sub/inv over
  QQ, QQ(sqrt(2)), QQ(s) and QQ(m), and over QQ(m) on a pair whose
  denominators are powers of 1 - m^2 (the best of five timeit repeats),
  built only through the public constructors, so any two versions compare;
* ``polyops_us``: microseconds per ``gcd_poly`` over QQ of two polynomials
  of degree 5 and 4 with rational coefficients and a common quadratic
  factor, per ``resultant`` in x over QQ of two polynomials in x, y of
  x-degree 5 and 4 with coefficients of degree at most 5 in y (the Z[y]
  path, at the size of the singular-locus eliminations), and per
  ``resultant`` in x over QQ(s) of two polynomials in x, y of x-degree 2
  and 3 (best of five timeit repeats);
* ``lattice_us``: microseconds per ``rank_signature`` and
  ``smith_normal_form`` on the rows of the Gram matrix of the first
  surviving sheet assignment of the generic fibre (23 x 23, rank 19), and
  per ``disc_forms_isomorphic`` of its discriminant form against that of
  the Picard model U + E8(-1)^2 + <-12> (best of five timeit repeats).
  ``rank_signature`` takes the rows, so a base checkout whose
  ``rank_signature`` takes a ``GramLattice`` cannot run this pass.

``ratio_change_over_base`` is change over base of the medians.  For the
wall time and each microbenchmark it is ``{"ratio": r, "unresolved": u}``
with u true when the ranges of the two sides' runs overlap: the runs then
do not tell the two sides apart.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

RUNS = 7
FIELDS = ("QQ", "QQ(sqrt(2))", "QQ(s)", "QQ(m)", "QQ(m) (1-m^2)^k")
OPS = ("mul", "add", "sub", "inv")
LATTICE_OPS = ("rank_signature", "smith_normal_form", "disc_forms_isomorphic")
POLYOPS_OPS = ("gcd_poly QQ", "resultant QQ", "resultant QQ(s)")


def _us_per_call(fn) -> float:
    """Microseconds per call of fn: the best of five timeit repeats."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return round(min(timer.repeat(5, number)) / number * 1e6, 3)


def coefficient_micro() -> dict:
    """Per field and operation, microseconds per call of the k3pencil on
    sys.path."""
    from fractions import Fraction as F

    from k3pencil.field import QQ, QS, QSA, quadratic_field

    K = quadratic_field(2)
    s = QS.s()
    xs, ys = (s * s - 3 * s + 2) / (s + 5), (2 * s - 1) / (s * s + 1)
    sm, am = QSA.s(), QSA.alpha()
    pairs = {
        "QQ": (QQ.from_rat(F(3, 7)), QQ.from_rat(F(-5, 11))),
        "QQ(sqrt(2))": (K.from_rat(F(3, 7)) + K.alpha() * F(2, 5), K.from_rat(F(-5, 11)) + K.alpha() * F(1, 3)),
        "QQ(s)": (xs, ys),
        "QQ(m)": (QSA.coerce(xs) + QSA.alpha() * 3, QSA.coerce(ys) - QSA.alpha()),
        # denominators (1 - m^2)^3 and (1 - m^2)^4, the common shape of
        # QQ(m) operands in the generic fibre: s = 1/(1 - m^2)
        "QQ(m) (1-m^2)^k": (sm * sm * (sm * 3 - am * 2 + 1), sm * sm * sm * (am - 5)),
    }
    out = {}
    for name in FIELDS:
        x, y = pairs[name]
        calls = {"mul": lambda: x * y, "add": lambda: x + y, "sub": lambda: x - y, "inv": x.inv}
        out[name] = {op: _us_per_call(calls[op]) for op in OPS}
    return out


def polyops_micro() -> dict:
    """Per polyops kernel, microseconds per call of the k3pencil on sys.path."""
    from fractions import Fraction as F

    from k3pencil import QQ, QS, parse_poly
    from k3pencil.polyops import gcd_poly, resultant

    a = parse_poly("(3*x^2 - 2*x + 5)*(7*x^3 + x - 4)", QQ, ("x",)) * F(1, 6)
    b = parse_poly("(3*x^2 - 2*x + 5)*(2*x^2 + 9*x - 1)", QQ, ("x",)) * F(-2, 35)
    f = parse_poly(
        "(y^2 - 3)*x^5 + (2*y^3 + y)*x^4 - (y^5 - 4*y + 1)*x^3 + 7*y^4*x^2 + (y^3 - 2*y^2 + 5)*x + y^5 - 6*y",
        QQ, ("x", "y"),
    ) * F(1, 3)
    g = parse_poly(
        "3*y*x^4 + (y^4 - 2)*x^3 - (5*y^5 + y)*x^2 + (2*y^2 - 7)*x + y^4 + 3*y^3 - 1", QQ, ("x", "y")
    ) * F(-2, 5)
    p = parse_poly("s*x^2 + (s - 1)*x*y + 2*y^2 + s^2", QS, ("x", "y"))
    q = parse_poly("x^3 - s*x*y + (s + 3)*y^2 - 1", QS, ("x", "y"))
    calls = {
        "gcd_poly QQ": lambda: gcd_poly(a, b),
        "resultant QQ": lambda: resultant(f, g, "x"),
        "resultant QQ(s)": lambda: resultant(p, q, "x"),
    }
    return {op: _us_per_call(calls[op]) for op in POLYOPS_OPS}


def lattice_micro() -> dict:
    """Per lattice kernel, microseconds per call of the k3pencil on sys.path,
    on the generic survivor Gram matrix and its fingerprint."""
    from k3pencil import lattice as lat
    from k3pencil.picard import FIBER_MODELS, build_divisor_config, enumerate_and_filter

    m = enumerate_and_filter(build_divisor_config("generic")).completions[0]
    form = lat.lattice_invariants(lat.GramLattice.from_rows(m)).disc_form
    model = lat.lattice_invariants(lat.standard_lattice(FIBER_MODELS["generic"][0])).disc_form
    calls = {
        "rank_signature": lambda: lat.rank_signature(m),
        "smith_normal_form": lambda: lat.smith_normal_form(m),
        "disc_forms_isomorphic": lambda: lat.disc_forms_isomorphic(form, model),
    }
    return {op: _us_per_call(calls[op]) for op in LATTICE_OPS}


def _env(src: str, cache: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=cache)


def run_all(src: str, cache: str) -> tuple[float, dict]:
    """Wall seconds of one passing `k3pencil all` and its checks' runtime_ms."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "all.json")
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "k3pencil.cli", "all", "--out", out],
            env=_env(src, cache), stdout=subprocess.DEVNULL, check=True,
        )
        wall = time.perf_counter() - t0
        with open(out) as fh:
            report = json.load(fh)
    return wall, {c["check_id"]: c["runtime_ms"] for c in report["checks"]}


def run_micro(src: str, cache: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--micro"],
        env=_env(src, cache), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def _median(runs: list, keep_runs: bool = False):
    """The median of each leaf over a list of equally shaped nested dicts;
    with keep_runs, each leaf is {"runs": [...], "median": m}."""
    if isinstance(runs[0], dict):
        return {key: _median([run[key] for run in runs], keep_runs) for key in runs[0]}
    return {"runs": runs, "median": statistics.median(runs)} if keep_runs else statistics.median(runs)


def _ratio(base: dict, change: dict) -> dict:
    """Change over base of the medians of two {"runs", "median"} leaves,
    unresolved when the ranges of their runs overlap."""
    overlap = min(change["runs"]) <= max(base["runs"]) and min(base["runs"]) <= max(change["runs"])
    return {"ratio": round(change["median"] / base["median"], 3), "unresolved": overlap}


def measure(sides: dict) -> dict:
    walls = {name: [] for name in sides}
    checks = {name: [] for name in sides}
    micros = {name: [] for name in sides}
    with tempfile.TemporaryDirectory() as tmp:
        caches = {name: os.path.join(tmp, name) for name in sides}
        for _ in range(RUNS):
            for name, src in sides.items():
                wall, ms = run_all(src, caches[name])
                walls[name].append(round(wall, 3))
                checks[name].append(ms)
                micros[name].append(run_micro(src, caches[name]))
    out = {}
    for name in sides:
        out[name] = {
            "all_wall_s": _median(walls[name], keep_runs=True),
            "check_runtime_ms": _median(checks[name]),
            **_median(micros[name], keep_runs=True),
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--micro", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.micro:
        print(json.dumps({
            "coefficient_us": coefficient_micro(),
            "polyops_us": polyops_micro(),
            "lattice_us": lattice_micro(),
        }))
        return
    if not (args.base and args.change):
        ap.error("BASE_SRC and CHANGE_SRC are required")
    sides = measure({"base": args.base, "change": args.change})
    base, change = sides["base"], sides["change"]
    ratio = {
        "all_wall_s": _ratio(base["all_wall_s"], change["all_wall_s"]),
        "check_runtime_ms_sum": round(
            sum(change["check_runtime_ms"].values()) / sum(base["check_runtime_ms"].values()), 3
        ),
        "coefficient_us": {
            f: {op: _ratio(base["coefficient_us"][f][op], change["coefficient_us"][f][op]) for op in OPS}
            for f in FIELDS
        },
        "polyops_us": {op: _ratio(base["polyops_us"][op], change["polyops_us"][op]) for op in POLYOPS_OPS},
        "lattice_us": {op: _ratio(base["lattice_us"][op], change["lattice_us"][op]) for op in LATTICE_OPS},
    }
    report = {
        "command": "python3 tools/bench_layers.py BASE_SRC CHANGE_SRC",
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpus": os.cpu_count(),
            "system": platform.system(),
        },
        "runs": RUNS,
        **sides,
        "ratio_change_over_base": ratio,
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
