"""Command-line front end: runs the verification checks and emits a JSON
report (schema "k3pencil/1", rationals as "p/q" strings, deterministic
apart from the timings and the header; exit code 0 when nothing failed, 1
on any failure, 2 on usage errors)."""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Optional

from . import __version__
from .claims import FLAGGED_CHECKS, claim_ref
from .field import QQ, QS
from .lattice import LATTICE_RANK_MAX, lattice_invariants, standard_lattice
from .mpoly import MPoly
from .pencil import (
    GENERIC_BRANCH_POINTS,
    QUARTIC_SINGULAR_TABLE,
    branch_cubic,
    branch_sextic_at,
    fiber_singular_table,
    radical_quartic,
)
from .singular import (
    DEFAULT_JET_ORDER,
    ProjPoint,
    branch_ade_type,
    double_cover_type,
    milnor_ade_classify,
    verify_curve_intersections,
    verify_singular_locus,
)
from .cover import (
    BranchConfig,
    REFERENCE_LINE_MATRIX,
    chain_model_check,
    cremona_pullback_check,
    even_contact_test,
    fiber_lines,
    line_matrix,
    verify_component_lift,
)
from .picard import analyze_fiber, reflection_isomorphism_check
from .series import (
    OPERATORS,
    annihilation_check,
    apery,
    apery_operator,
    domb,
    domb_operator,
    fermi_operator,
    operator_singularities,
    operator_to_recurrence,
    sum_a,
)
from .identities import (
    mandelstam_surface_check,
    pencil_parameter_map_check,
    q_surface_check,
    quartic_family_check,
    remarkable_identity_check,
    symmetry_group_check,
)

SCHEMA = "k3pencil/1"


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    return str(x)


def record(check_id: str, ok: bool, details: dict, t0: float) -> dict:
    status = "pass" if ok else "fail"
    if check_id in FLAGGED_CHECKS:
        status = "flagged" if ok else "fail"
    return {
        "check_id": check_id,
        "claim_ref": claim_ref(check_id),
        "status": status,
        "details": _jsonable(details),
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }


# ---------------------------------------------------------------------------
# the checks: each takes the Run and returns (ok, details)
# ---------------------------------------------------------------------------


class Run:
    """What the checks of one report share: the series order `--n` (50 when
    the command has none) and inputs used by several checks, each built on
    first use so that it is timed with the first check needing it."""

    def __init__(self, n: int):
        self.n = n

    @cached_property
    def branch_cubics(self):
        return branch_cubic(0), branch_cubic(1)

    @cached_property
    def generic_config(self):
        return BranchConfig.generic()

    @cached_property
    def generic_lines(self):
        return fiber_lines("generic")


def _quartic_singular_locus(run):
    Q = radical_quartic()
    pts = [ProjPoint(QQ, c) for c, _ in QUARTIC_SINGULAR_TABLE]
    rep = verify_singular_locus(Q, pts)
    rows = []
    types_ok = True
    for coords, k in QUARTIC_SINGULAR_TABLE:
        P = ProjPoint(QQ, coords)
        r = milnor_ade_classify(*P.affine(Q))
        types_ok = types_ok and r.k == k
        rows.append({"point": str(P), "type": f"A{r.k}", "milnor": r.milnor_number})
    return rep.ok and types_ok, {"complete": rep.ok, "witness": rep.witness, "rows": rows}


def _branch_generic_smooth(run):
    g0, g1 = run.branch_cubics
    r0 = verify_singular_locus(g0, [])
    r1 = verify_singular_locus(g1, [])
    return r0.ok and r1.ok, {
        "bad_parameter_values": sorted(set(r0.bad_parameter_values + r1.bad_parameter_values))
    }


def _branch_generic_intersections(run):
    claimed = [(ProjPoint(QS, c), m) for c, m in GENERIC_BRANCH_POINTS]
    rep = verify_curve_intersections(*run.branch_cubics, claimed)
    return rep.ok, {
        "witness": rep.witness,
        "rows": [{"point": str(P), "multiplicity": m} for P, m in claimed],
        "bezout": sum(m for _, m in claimed),
    }


def _branch_generic_cover_types(run):
    sex = branch_cubic(0) * branch_cubic(1)
    rows = []
    ok = True
    for coords, m in GENERIC_BRANCH_POINTS:
        P = ProjPoint(QS, coords)
        r = double_cover_type(sex, P)
        ok = ok and r.k == branch_ade_type(m)
        rows.append({"point": str(P), "type": f"A{r.k}", "milnor": r.k})
    return ok, {"rows": rows}


def _fiber_singular_locus(s0: int):
    sex = branch_sextic_at(s0)
    table = fiber_singular_table(s0)
    rep = verify_singular_locus(sex, [ProjPoint(QQ, c) for c, _ in table])
    rows = []
    ok = rep.ok
    for coords, k in table:
        r = double_cover_type(sex, ProjPoint(QQ, coords))
        ok = ok and r.k == k
        rows.append({"point": str(ProjPoint(QQ, coords)), "type": f"A{r.k}", "milnor": r.k})
    return ok, {"complete": rep.ok, "rows": rows}


def _even_contact_generic(run):
    config = run.generic_config
    rows = []
    ok = True
    for ll in run.generic_lines:
        flag, _, _ = even_contact_test(ll.line, config)
        ok = ok and flag
        rows.append({"label": ll.label, "line": str(ll.line), "even_contact": flag})
    x, y, z = MPoly.gens(config.field, ("x", "y", "z"))
    ctrl, _, _ = even_contact_test(z - x - 2 * y, config)
    return ok and not ctrl, {"rows": rows, "control_line_z=x+2y_even": ctrl}


def _component_lifts_generic(run):
    rows = []
    ok = True
    for ll in run.generic_lines:
        lift_ok, _ = verify_component_lift(ll, run.generic_config)
        ok = ok and lift_ok
        rows.append({"label": ll.label, "w": str(ll.w_formula), "ok": lift_ok})
    return ok, {"rows": rows}


def _line_matrix_generic(run):
    m = line_matrix(run.generic_lines, run.generic_config)
    match = tuple(tuple(r) for r in m) == REFERENCE_LINE_MATRIX
    return match, {"matrix": m, "matches_reference": match}


def _chain_model(run):
    chain = chain_model_check()
    return chain.ok, {"steps": chain.steps}


def _cremona_pullback(run):
    crs = [cremona_pullback_check(i) for i in (0, 1)]
    return all(c.ok and c.involution_ok for c in crs), {
        "multiplicities": [list(c.multiplicities) for c in crs],
        "exceptional": list(crs[0].exceptional),
        "involution": all(c.involution_ok for c in crs),
    }


def _picard(fiber):
    res = analyze_fiber(fiber)
    return res, {
        "survivor_count": res.survivor_count,
        "rank": res.picard.rank,
        "signature": list(res.picard.signature),
        "invariant_factors": list(res.picard.invariant_factors),
        "disc_form": res.picard.describe().get("disc_q"),
        "model": res.picard_model,
        "model_match": res.picard_match,
        "transcendental_model": res.transcendental_model,
        "transcendental_match": res.transcendental_match,
    }


def _picard_generic(run):
    res, details = _picard("generic")
    ok = res.picard_match and res.transcendental_match and res.survivor_count == 4
    ok = ok and res.picard.rank == 19 and res.picard.signature[:2] == (1, 18)
    return ok and res.picard.invariant_factors == (12,), details


def _picard_special(s0: int):
    res, details = _picard(s0)
    return res.picard_match and res.transcendental_match, details


def _reflection(pair):
    rep = reflection_isomorphism_check(pair)
    return rep.ok, {
        "pair": list(pair),
        "matrix": [[str(x) for x in row] for row in rep.matrix] if rep.matrix else None,
        "cubic_pairing": rep.pairing,
    }


def _apery_sequence(run):
    values = [apery(i) for i in range(6)]
    rec = operator_to_recurrence(apery_operator())
    seq = [apery(i) for i in range(101)]
    rec_ok = all(rec.residual(seq, m) == 0 for m in range(2, 101))
    return values[:4] == [1, 5, 73, 1445] and rec_ok, {"values": values, "recurrence": rec.describe()}


def _apery_annihilation(run):
    ok, bad = annihilation_check(apery_operator(), apery, max(run.n, 50))
    return ok, {"order": max(run.n, 50), "first_fail": bad}


def _apery_singular_points(run):
    rep = operator_singularities(apery_operator())
    pts = rep.singular_points()
    expected = ["0", "17 + 12*sqrt(2)", "17 - 12*sqrt(2)", "inf"]
    ok = sorted(pts) == sorted(expected) and rep.symbol_str == "x^2 - 34*x + 1"
    return ok, {"symbol": rep.symbol_str, "singular_points": pts}


def _apery_index_note(run):
    return apery(3) == 1445 and apery(4) == 33001 and apery(4) != 1445, {"A3": apery(3), "A4": apery(4)}


def _domb_sequence(run):
    values = [domb(i) for i in range(5)]
    prod_ok = all(domb(i) == comb(2 * i, i) * sum_a(i) for i in range(51))
    ok = values == [1, 6, 90, 1860, 44730] and prod_ok and sum_a(4) == 639
    return ok, {"values": values, "a4": sum_a(4)}


def _domb_stated_operator(run):
    pred = operator_to_recurrence(domb_operator(False)).predict(Fraction(1), 2)
    okf, bad = annihilation_check(domb_operator(False), domb, 30)
    rep = operator_singularities(domb_operator(False))
    return (not okf) and pred[2] == Fraction(825, 8), {
        "predicted_b2": pred[2],
        "first_fail": bad,
        "symbol": rep.symbol_str,
        "singular_points": rep.singular_points(),
    }


def _domb_corrected_operator(run):
    ok, bad = annihilation_check(domb_operator(True), domb, max(run.n, 50))
    rep = operator_singularities(domb_operator(True))
    pts = rep.singular_points()
    return ok and pts == ["0", "1/4", "1/36", "inf"], {
        "order": max(run.n, 50),
        "first_fail": bad,
        "symbol": rep.symbol_str,
        "singular_points": pts,
        "recurrence": operator_to_recurrence(domb_operator(True)).describe(),
    }


def _fermi_stated_operator(run):
    okf, bad = annihilation_check(fermi_operator(False), apery, 20, dilation=2)
    return (not okf) and bad == 2, {"first_fail": bad}


def _fermi_corrected_operator(run):
    ok, bad = annihilation_check(fermi_operator(True), apery, max(run.n, 40), dilation=2)
    ok_a, _ = annihilation_check(apery_operator(), apery, max(run.n, 40))
    return ok and ok_a, {"order": max(run.n, 40), "first_fail": bad, "pullback_coherent": ok == ok_a}


def _fermi_singularities_note(run):
    pts = operator_singularities(fermi_operator(True)).singular_points()
    expected = {"0", "inf", "3 + 2*sqrt(2)", "-3 - 2*sqrt(2)", "3 - 2*sqrt(2)", "-3 + 2*sqrt(2)"}
    stated = {"0", "inf", "3 + sqrt(2)", "3 - sqrt(2)", "-3 + sqrt(2)", "-3 - sqrt(2)"}
    return set(pts) == expected and set(pts) != stated, {
        "computed": pts,
        "stated_list_consistent": set(pts) == stated,
    }


def _walk_sequence_index(run):
    ok = [comb(2 * i, i) * sum_a(i) for i in range(5)] == [1, 6, 90, 1860, 44730]
    return ok, {"a_values": [sum_a(i) for i in range(6)]}


def _identity(check):
    return check.ok, check.details


# (command, selector, check_id, fn) in report order.  An entry runs for
# `k3pencil all`, and for its own command when every selector option is unset,
# "all" or the entry's value and `--only`, if given, names its check_id.  The
# lambdas look the library functions up at call time, so anything rebinding a
# module global sees every call.
_BRANCH_GENERIC = {"surface": "branch", "s_value": "generic"}
CHECKS = (
    ("singularities", {"surface": "q"}, "quartic-singular-locus", _quartic_singular_locus),
    ("singularities", _BRANCH_GENERIC, "branch-generic-smooth", _branch_generic_smooth),
    ("singularities", _BRANCH_GENERIC, "branch-generic-intersections", _branch_generic_intersections),
    ("singularities", _BRANCH_GENERIC, "branch-generic-cover-types", _branch_generic_cover_types),
    ("singularities", {"surface": "branch", "s_value": "1"}, "fiber-s1-singular-locus",
     lambda run: _fiber_singular_locus(1)),
    ("singularities", {"surface": "branch", "s_value": "-1"}, "fiber-s-1-singular-locus",
     lambda run: _fiber_singular_locus(-1)),
    # the special fibres' line tables are data only; the checks target the
    # generic configuration
    ("lines", {"s_value": "generic"}, "even-contact-generic", _even_contact_generic),
    ("lines", {"s_value": "generic"}, "component-lifts-generic", _component_lifts_generic),
    ("lines", {"s_value": "generic"}, "line-matrix-generic", _line_matrix_generic),
    ("lines", {"s_value": "generic"}, "chain-model", _chain_model),
    ("lines", {"s_value": "generic"}, "cremona-pullback", _cremona_pullback),
    ("picard", {"fiber": "generic"}, "picard-generic", _picard_generic),
    ("picard", {"fiber": "s1"}, "picard-s1", lambda run: _picard_special(1)),
    ("picard", {"fiber": "s-1"}, "picard-s-1", lambda run: _picard_special(-1)),
    # a reflection relates two fibres, so it runs only with --fiber all
    ("picard", {"fiber": "all"}, "reflection-s0-s1", lambda run: _reflection((0, 1))),
    ("picard", {"fiber": "all"}, "reflection-s2-s-1", lambda run: _reflection((2, -1))),
    ("series", {"op": "apery"}, "apery-sequence", _apery_sequence),
    ("series", {"op": "apery"}, "apery-annihilation", _apery_annihilation),
    ("series", {"op": "apery"}, "apery-singular-points", _apery_singular_points),
    ("series", {"op": "apery"}, "apery-index-note", _apery_index_note),
    ("series", {"op": "domb"}, "domb-sequence", _domb_sequence),
    ("series", {"op": "domb"}, "domb-stated-operator", _domb_stated_operator),
    ("series", {"op": "domb"}, "domb-corrected-operator", _domb_corrected_operator),
    ("series", {"op": "fermi"}, "fermi-stated-operator", _fermi_stated_operator),
    ("series", {"op": "fermi"}, "fermi-corrected-operator", _fermi_corrected_operator),
    ("series", {"op": "fermi"}, "fermi-singularities-note", _fermi_singularities_note),
    ("series", {"op": "walk"}, "walk-sequence-index", _walk_sequence_index),
    ("identities", {}, "remarkable-identity", lambda run: _identity(remarkable_identity_check())),
    ("identities", {}, "mandelstam-f2-surface", lambda run: _identity(mandelstam_surface_check())),
    ("identities", {}, "pencil-parameter-map", lambda run: _identity(pencil_parameter_map_check())),
    ("identities", {}, "radical-quartic-derivation", lambda run: _identity(q_surface_check())),
    ("identities", {}, "quartic-family-clearing", lambda run: _identity(quartic_family_check())),
    ("identities", {}, "symmetry-group-48", lambda run: _identity(symmetry_group_check())),
)


def _selected(command: str, selector: dict, check_id: str, args) -> bool:
    return (
        args.command in ("all", command)
        and all(getattr(args, option, None) in (None, "all", value) for option, value in selector.items())
        and getattr(args, "only", None) in (None, check_id)
    )


def run_check(check_id: str, fn, run: Run) -> dict:
    """Time one check; an exception becomes a `fail` record naming it."""
    t0 = time.perf_counter()
    try:
        ok, details = fn(run)
    except Exception as exc:
        traceback.print_exc()
        ok, details = False, {"error": f"{type(exc).__name__}: {exc}"}
    return record(check_id, ok, details, t0)


def series_data(op: str, n: int, corrected: bool) -> dict:
    """The data view of one operator: sequence values, recurrence coefficient
    polynomials, annihilation status, and singular points."""
    builder, seq, dilation = OPERATORS[op]
    oper = builder() if op == "apery" else builder(corrected)
    rec = operator_to_recurrence(oper)
    order = max(n, 2 * dilation)
    ok, bad = annihilation_check(oper, seq, order, dilation=dilation)
    rep = operator_singularities(oper)
    return _jsonable(
        {
            "operator": op,
            "corrected": corrected,
            "coefficients": [seq(i) for i in range(min(n, 60) + 1)],
            "recurrence": rec.describe(),
            "annihilation_status": {"annihilates": ok, "order": order, "first_fail": bad},
            "symbol": rep.symbol_str,
            "singular_points": rep.singular_points(),
        }
    )


def lines_data(s_value: str) -> dict:
    config = BranchConfig.generic() if s_value == "generic" else BranchConfig.at(Fraction(s_value))
    lines = fiber_lines("generic" if s_value == "generic" else Fraction(s_value))
    return {
        "lines": [
            {"label": ll.label, "line": str(ll.line), "w": str(ll.w_formula)} for ll in lines
        ],
        "matrix": line_matrix(lines, config),
    }


# ---------------------------------------------------------------------------
# argument parsing and report assembly
# ---------------------------------------------------------------------------


#: The largest series order `--n`.  The cost of the series checks grows
#: steeply with it: about 7 s at 500 and 90 s at 1000 on a 2-core VM.
SERIES_ORDER_MAX = 500


def _series_order(text: str) -> int:
    """The value of `--n`: an integer from 0 to SERIES_ORDER_MAX."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    if n > SERIES_ORDER_MAX:
        raise argparse.ArgumentTypeError(f"expected an order of at most {SERIES_ORDER_MAX}, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="k3pencil",
        description="Exact-arithmetic verification toolkit for the K3 pencil "
        "and its operator identities.",
    )
    p.add_argument("--version", action="version", version=f"k3pencil {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--out", help="write the JSON report to this file")
        return sp

    add("all", "run every check")
    sp = add("singularities", "singular-locus checks")
    sp.add_argument("--surface", choices=["q", "branch", "all"], default="all")
    sp.add_argument(
        "--s",
        dest="s_value",
        choices=["generic", "1", "-1", "all"],
        default="all",
        help="the generic fibre, the special fibre s = 1 or s = -1, or all",
    )
    sp = add("lines", "split lines, lifts and their matrix")
    sp.add_argument(
        "--s",
        dest="s_value",
        choices=["generic", "1", "-1"],
        default="generic",
        help="the generic fibre (checks and data) or s = 1 or s = -1 (data only; exit code 1)",
    )
    sp = add("lattice", "invariants of a standard lattice expression")
    sp.add_argument(
        "--spec",
        required=True,
        help=f'e.g. "U + E8(-1)^2 + <-12>", of total rank at most {LATTICE_RANK_MAX}',
    )
    sp = add("picard", "divisor enumeration per fibre")
    sp.add_argument("--fiber", choices=["generic", "s1", "s-1", "all"], default="all")
    sp = add("series", "operator and sequence checks")
    sp.add_argument("--op", choices=["apery", "fermi", "domb", "walk", "all"], default="all")
    sp.add_argument("--n", type=_series_order, default=50, help=f"the series order (0 to {SERIES_ORDER_MAX})")
    sp.add_argument("--corrected", action="store_true")
    sp = add("identities", "closed-form identity checks")
    sp.add_argument(
        "--only",
        choices=[check_id for command, _, check_id, _ in CHECKS if command == "identities"],
        help="run a single identity by check id",
    )
    return p


def main(argv: Optional[list[str]] = None) -> int:
    t0 = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        lattice = lattice_invariants(standard_lattice(args.spec)) if args.command == "lattice" else None
        out = open(args.out, "w") if args.out else None
    except (ValueError, OSError) as e:
        print(f"k3pencil: error: {e}", file=sys.stderr)
        return 2
    run = Run(getattr(args, "n", 50))
    checks = [
        run_check(check_id, fn, run)
        for command, selector, check_id, fn in CHECKS
        if _selected(command, selector, check_id, args)
    ]
    header = {"version": __version__, "python": sys.version.split()[0], "jet_order": DEFAULT_JET_ORDER}
    report = {"schema": SCHEMA, "header": header, "command": args.command, "checks": checks}
    extra = None
    if args.command == "singularities":
        extra = {"rows": [row for c in checks for row in c["details"].get("rows", [])]}
    elif args.command == "lines":
        extra = lines_data(args.s_value)
    elif args.command == "lattice":
        extra = {"spec": args.spec, **_jsonable(lattice.describe())}
    elif args.command == "picard" and args.fiber != "all" and checks:
        extra = checks[0]["details"]
    elif args.command == "series" and args.op in OPERATORS:
        extra = series_data(args.op, args.n, args.corrected)
    if extra:
        report["data"] = extra
    header["total_ms"] = int((time.perf_counter() - t0) * 1000)
    text = json.dumps(report, indent=2, sort_keys=False)
    if out:
        with out:
            out.write(text + "\n")
    else:
        print(text)
    if not checks and args.command != "lattice":
        print("k3pencil: error: no check ran", file=sys.stderr)
        return 1
    return 1 if any(c["status"] == "fail" for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
