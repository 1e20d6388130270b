"""A/B timing of two k3pencil checkouts: `k3pencil all` end to end, the
runtime_ms of each of its checks, and coefficient-layer, MPoly-layer,
polyops-layer, rational-substitution, annihilation, lattice-layer,
Picard-filter and geometry-layer microbenchmarks.

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
* ``mpoly_us``: microseconds per ``MPoly`` multiply of two cubics in
  x, y, z over QQ(s), and per substitution into their product, a sextic:
  ``set_var`` of z by an element of QQ(s), ``set_var_poly`` of z by a
  linear form (a restriction to a line), ``subst_polys`` of a linear change
  of coordinates and ``translate`` to a point with one zero coordinate
  (best of five timeit repeats), built only through ``parse_poly``, so any
  two versions compare;
* ``polyops_us``: microseconds per ``gcd_poly`` over QQ of two polynomials
  of degree 5 and 4 with rational coefficients and a common quadratic
  factor, per ``resultant`` in x over QQ of two polynomials in x, y of
  x-degree 5 and 4 with coefficients of degree at most 5 in y (the Z[y]
  path, at the size the singular-locus eliminations had), and per
  ``resultant`` in x over QQ(s) of two polynomials in x, y of x-degree 2
  and 3 (best of five timeit repeats);
* ``series_us``: microseconds per ``substitute`` of the Cayley bindings
  x -> (1+x)/(1-x), y -> (1+y)/(1-y), z -> (1+z)/(1-z) into the cleared
  numerator of G = sum 1/(x^2-1) over QQ and of 1 + s + G over QQ(s), and
  per ``annihilation_check`` of the Apery operator on the Apery numbers to
  order 200 and of the stated Domb operator on the Domb numbers to order 50,
  which fails at 2, and per prefix A_0..A_200 of ``apery`` and b_0..b_200 of
  ``domb`` (best of five timeit repeats);
* ``lattice_us``: microseconds per ``rank_signature`` and
  ``smith_normal_form`` on the rows of the Gram matrix of the first
  surviving sheet assignment of the generic fibre (23 x 23, rank 19), and
  per ``disc_forms_isomorphic`` of its discriminant form against that of
  the Picard model U + E8(-1)^2 + <-12> (best of five timeit repeats).
  ``rank_signature`` takes the rows: on a checkout whose ``rank_signature``
  takes a ``GramLattice`` the pass is skipped, its ``lattice_us`` is null and
  the ratio says why;
* ``picard_us``: per fibre (generic, s1, s-1), microseconds per
  ``enumerate_and_filter`` of the fibre's ``build_divisor_config``, built
  before the timing, and per ``filter``: the same call with rank bound -1,
  below every rank, which runs the rank filter on every sheet assignment
  and ends in its "no assignment satisfies the rank bound" ValueError, so
  it times the filter alone (best of five timeit repeats), through public
  functions only, so any two versions compare;
* ``geometry_us``: microseconds per ``milnor_ade_classify`` at the radical
  quartic's A3 point (0:0:0:1) and at its A2 point (0:1:1:0), each on the
  chart ``ProjPoint.affine`` gives, per ``double_cover_type`` of the
  generic branch sextic over QQ(s) at its A5 point (1:0:0), and per
  ``verify_singular_locus`` of the radical quartic with its table of eight
  points and of the branch sextic at s = -1 with its table of five (best of
  five timeit repeats), built only through public functions, so any two
  versions compare.

Each timeit repeat makes the same number of calls, the first of 1, 2, 5,
10, 20, ... whose calls last at least REPEAT_S seconds.

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
from typing import Optional

RUNS = 7
REPEAT_S = 0.05
FIELDS = ("QQ", "QQ(sqrt(2))", "QQ(s)", "QQ(m)", "QQ(m) (1-m^2)^k")
OPS = ("mul", "add", "sub", "inv")
LATTICE_OPS = ("rank_signature", "smith_normal_form", "disc_forms_isomorphic")
POLYOPS_OPS = ("gcd_poly QQ", "resultant QQ", "resultant QQ(s)")
MPOLY_OPS = ("mul", "set_var", "set_var_poly", "subst_polys", "translate")
PICARD_FIBERS = (("generic", "generic"), ("s1", 1), ("s-1", -1))
PICARD_OPS = tuple(f"{op} {name}" for name, _ in PICARD_FIBERS for op in ("enumerate_and_filter", "filter"))
GEOMETRY_OPS = (
    "milnor_ade_classify A3", "milnor_ade_classify A2", "double_cover_type A5 QQ(s)",
    "verify_singular_locus quartic", "verify_singular_locus s=-1",
)
SERIES_OPS = (
    "substitute QQ", "substitute QQ(s)", "annihilation apery 200", "annihilation domb stated",
    "apery 0..200", "domb 0..200",
)


def _us_per_call(fn) -> float:
    """Microseconds per call of fn: the best of five timeit repeats of the
    first call count in 1, 2, 5, 10, 20, ... whose calls last REPEAT_S."""
    timer = timeit.Timer(fn)
    for number in (m * 10 ** e for e in range(9) for m in (1, 2, 5)):
        if timer.timeit(number) >= REPEAT_S:
            break
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


def mpoly_micro() -> dict:
    """Per MPoly operation, microseconds per call of the k3pencil on sys.path."""
    from k3pencil import QS, parse_poly

    xyz = ("x", "y", "z")
    g0 = parse_poly("(x^2 + y^2)*z - 2*x*y*(x + y) + (s + 1)*(2*x - z)*(2*y - z)*z", QS, xyz)
    g1 = parse_poly("(x^2 + y^2)*z - 2*x*y*(x + y) + s*(2*x - z)*(2*y - z)*z", QS, xyz)
    sextic = g0 * g1
    line = parse_poly("2*x - s*y", QS, xyz)
    change = [parse_poly(t, QS, xyz) for t in ("x + y", "x - 2*y + z", "z + s*x")]
    point = [1, 0, 2]
    value = QS.s() + 2
    calls = {
        "mul": lambda: g0 * g1,
        "set_var": lambda: sextic.set_var("z", value),
        "set_var_poly": lambda: sextic.set_var_poly("z", line),
        "subst_polys": lambda: sextic.subst_polys(change),
        "translate": lambda: sextic.translate(point),
    }
    return {op: _us_per_call(calls[op]) for op in MPOLY_OPS}


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


def series_micro() -> dict:
    """Per rational substitution, annihilation check and sequence prefix,
    microseconds per call of the k3pencil on sys.path."""
    from k3pencil import QQ, QS, parse_poly
    from k3pencil.polyops import substitute
    from k3pencil.series import annihilation_check, apery, apery_operator, domb, domb_operator

    xyz = ("x", "y", "z")
    g = "(y^2 - 1)*(z^2 - 1) + (x^2 - 1)*(z^2 - 1) + (x^2 - 1)*(y^2 - 1)"
    pencil = f"{g} + (1 + s)*(x^2 - 1)*(y^2 - 1)*(z^2 - 1)"

    def cayley(field):
        return {v: (parse_poly(f"1 + {v}", field, xyz), parse_poly(f"1 - {v}", field, xyz)) for v in xyz}

    g_qq, g_qs = parse_poly(g, QQ, xyz), parse_poly(pencil, QS, xyz)
    bind_qq, bind_qs = cayley(QQ), cayley(QS)
    calls = {
        "substitute QQ": lambda: substitute(g_qq, bind_qq),
        "substitute QQ(s)": lambda: substitute(g_qs, bind_qs),
        "annihilation apery 200": lambda: annihilation_check(apery_operator(), apery, 200),
        "annihilation domb stated": lambda: annihilation_check(domb_operator(False), domb, 50),
        "apery 0..200": lambda: [apery(i) for i in range(201)],
        "domb 0..200": lambda: [domb(i) for i in range(201)],
    }
    return {op: _us_per_call(calls[op]) for op in SERIES_OPS}


def lattice_micro() -> Optional[dict]:
    """Per lattice kernel, microseconds per call of the k3pencil on sys.path,
    on the generic survivor Gram matrix and its fingerprint; None when its
    ``rank_signature`` does not take rows."""
    from k3pencil import lattice as lat
    from k3pencil.picard import FIBER_MODELS, build_divisor_config, enumerate_and_filter

    m = enumerate_and_filter(build_divisor_config("generic")).completions[0]
    try:
        lat.rank_signature(m)
    except AttributeError:
        return None
    form = lat.lattice_invariants(lat.GramLattice.from_rows(m)).disc_form
    model = lat.lattice_invariants(lat.standard_lattice(FIBER_MODELS["generic"][0])).disc_form
    calls = {
        "rank_signature": lambda: lat.rank_signature(m),
        "smith_normal_form": lambda: lat.smith_normal_form(m),
        "disc_forms_isomorphic": lambda: lat.disc_forms_isomorphic(form, model),
    }
    return {op: _us_per_call(calls[op]) for op in LATTICE_OPS}


def picard_micro() -> dict:
    """Per fibre, microseconds per ``enumerate_and_filter`` and per run of
    its rank filter alone, of the k3pencil on sys.path."""
    from k3pencil.picard import build_divisor_config, enumerate_and_filter

    def filter_only(cfg):
        try:
            enumerate_and_filter(cfg, rank_bound=-1)
        except ValueError as e:
            if "rank bound" not in str(e):
                raise

    out = {}
    for name, fiber in PICARD_FIBERS:
        cfg = build_divisor_config(fiber)
        out[f"enumerate_and_filter {name}"] = _us_per_call(lambda: enumerate_and_filter(cfg))
        out[f"filter {name}"] = _us_per_call(lambda: filter_only(cfg))
    return out


def geometry_micro() -> dict:
    """Per classifier call and singular-locus certificate, microseconds per
    call of the k3pencil on sys.path."""
    from k3pencil import QQ, QS
    from k3pencil.pencil import (
        GENERIC_BRANCH_POINTS, QUARTIC_SINGULAR_TABLE, branch_sextic, branch_sextic_at,
        fiber_singular_table, radical_quartic,
    )
    from k3pencil.singular import ProjPoint, double_cover_type, milnor_ade_classify, verify_singular_locus

    quartic = radical_quartic()
    a3, a2 = (ProjPoint(QQ, QUARTIC_SINGULAR_TABLE[i][0]).affine(quartic) for i in (0, 1))
    sextic, a5 = branch_sextic(), ProjPoint(QS, GENERIC_BRANCH_POINTS[0][0])
    quartic_points = [ProjPoint(QQ, c) for c, _ in QUARTIC_SINGULAR_TABLE]
    fiber, fiber_points = branch_sextic_at(-1), [ProjPoint(QQ, c) for c, _ in fiber_singular_table(-1)]
    calls = {
        "milnor_ade_classify A3": lambda: milnor_ade_classify(*a3),
        "milnor_ade_classify A2": lambda: milnor_ade_classify(*a2),
        "double_cover_type A5 QQ(s)": lambda: double_cover_type(sextic, a5),
        "verify_singular_locus quartic": lambda: verify_singular_locus(quartic, quartic_points),
        "verify_singular_locus s=-1": lambda: verify_singular_locus(fiber, fiber_points),
    }
    return {op: _us_per_call(calls[op]) for op in GEOMETRY_OPS}


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
    with keep_runs, each leaf is {"runs": [...], "median": m}.  A skipped
    pass (None) stays None."""
    if runs[0] is None:
        return None
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
            "mpoly_us": mpoly_micro(),
            "polyops_us": polyops_micro(),
            "series_us": series_micro(),
            "lattice_us": lattice_micro(),
            "picard_us": picard_micro(),
            "geometry_us": geometry_micro(),
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
        "mpoly_us": {op: _ratio(base["mpoly_us"][op], change["mpoly_us"][op]) for op in MPOLY_OPS},
        "polyops_us": {op: _ratio(base["polyops_us"][op], change["polyops_us"][op]) for op in POLYOPS_OPS},
        "series_us": {op: _ratio(base["series_us"][op], change["series_us"][op]) for op in SERIES_OPS},
        "lattice_us": (
            {op: _ratio(base["lattice_us"][op], change["lattice_us"][op]) for op in LATTICE_OPS}
            if base["lattice_us"] and change["lattice_us"]
            else "skipped: a side's rank_signature does not take rows"
        ),
        "picard_us": {op: _ratio(base["picard_us"][op], change["picard_us"][op]) for op in PICARD_OPS},
        "geometry_us": {op: _ratio(base["geometry_us"][op], change["geometry_us"][op]) for op in GEOMETRY_OPS},
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
