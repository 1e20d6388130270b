"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime.  Criteria 1-13 run the checks of the report
(``cli.CHECKS``) by check id, as ``k3pencil all`` does with the series
order 50, and compare each record's status and details with the values
stated here.  Every tolerance is exact; the time limits are the stated
budgets."""

import random
import time

import pytest

from k3pencil import cli
from k3pencil.lattice import (
    GramLattice,
    fingerprints_match,
    lattice_invariants,
    mat_mul,
    rank_signature,
    standard_lattice,
    transpose,
)
from k3pencil.pencil import GENERIC_BRANCH_POINTS
from k3pencil.series import (
    apery,
    apery_operator,
    domb,
    domb_operator,
    fermi_operator,
    operator_to_recurrence,
)

from gram_helpers import ade_chain
from test_series import PowerSeries, theta_apply


class Stopwatch:
    def __init__(self, number, limit, label):
        self.number = number
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        in_time = elapsed < self.limit
        status = "PASS" if (exc_type is None and in_time) else "FAIL"
        print(f"ACCEPTANCE {self.number:2d}: {status} ({elapsed:6.2f} s <= {self.limit} s) {self.label}")
        if exc_type is None:
            assert in_time, f"criterion {self.number} exceeded {self.limit} s"
        return False


_RECORDS: dict = {}
_CHECK_FNS = {check_id: fn for _, _, check_id, fn in cli.CHECKS}


def _run(*check_ids) -> list[dict]:
    """The report records of the given checks, run in one ``cli.Run(50)``."""
    run = cli.Run(50)
    for check_id in check_ids:
        _RECORDS[check_id] = cli.run_check(check_id, _CHECK_FNS[check_id], run)
    return [_RECORDS[check_id] for check_id in check_ids]


def _status(record: dict, status: str = "pass") -> dict:
    """The record's details, once its status is the expected one."""
    assert record["status"] == status, (record["check_id"], record["details"])
    return record["details"]


def _types(details: dict) -> list[tuple[str, str]]:
    return [(row["point"], row["type"]) for row in details["rows"]]


@pytest.fixture(scope="module")
def picard_generic():
    """The picard-generic record of criterion 5, run here if it did not run."""
    return _RECORDS.get("picard-generic") or _run("picard-generic")[0]


def test_criterion_01_quartic_singular_locus():
    with Stopwatch(1, 10, "quartic singular locus: 8 points, A3 x1, A2 x4, A1 x3"):
        (rec,) = _run("quartic-singular-locus")
        details = _status(rec)
        assert details["complete"] is True and details["witness"] is None
        assert _types(details) == [
            ("(0 : 0 : 0 : 1)", "A3"),
            ("(0 : 1 : 1 : 0)", "A2"),
            ("(0 : 1 : -1 : 0)", "A2"),
            ("(1 : 0 : 1 : 0)", "A2"),
            ("(1 : 0 : -1 : 0)", "A2"),
            ("(1 : 1 : 0 : 1)", "A1"),
            ("(0 : 0 : 1 : 0)", "A1"),
            ("(1 : -1 : 0 : 0)", "A1"),
        ]


def test_criterion_02_generic_branch_intersections():
    with Stopwatch(2, 10, "branch cubics meet in 4 points, mult (3,3,2,1), Bezout 9"):
        (rec,) = _run("branch-generic-intersections")
        details = _status(rec)
        assert details["witness"] is None
        assert [(row["point"], row["multiplicity"]) for row in details["rows"]] == [
            ("(1 : 0 : 0)", 3),
            ("(0 : 1 : 0)", 3),
            ("(1 : 1 : 2)", 2),
            ("(1 : -1 : 0)", 1),
        ]
        assert details["bezout"] == 9


def test_criterion_03_lifted_line_identities():
    with Stopwatch(3, 5, "all 8 lifted-line identities w^2 = G0*G1 mod line"):
        (rec,) = _run("component-lifts-generic")
        rows = _status(rec)["rows"]
        assert [(row["label"], row["ok"]) for row in rows] == [(f"L{i}", True) for i in range(1, 9)]


def test_criterion_04_line_matrix():
    with Stopwatch(4, 5, "8x8 lifted-line matrix equals the reference matrix"):
        (rec,) = _run("line-matrix-generic")
        details = _status(rec)
        assert details["matches_reference"] is True
        assert details["matrix"] == [
            [-2, 0, 0, 0, 0, 0, 0, 0],
            [0, -2, 0, 0, 0, 0, 0, 0],
            [0, 0, -2, 0, 0, 0, 0, 0],
            [0, 0, 0, -2, 0, 1, 0, 1],
            [0, 0, 0, 0, -2, 0, 1, 0],
            [0, 0, 0, 1, 0, -2, 0, 1],
            [0, 0, 0, 0, 1, 0, -2, 0],
            [0, 0, 0, 1, 0, 1, 0, -2],
        ]


def test_criterion_05_generic_enumeration():
    with Stopwatch(5, 60, "128 assignments -> 4 survive; rank 19, (1,18), Z/12"):
        (rec,) = _run("picard-generic")
        details = _status(rec)
        assert details["survivor_count"] == 4
        assert details["rank"] == 19
        assert details["signature"][:2] == [1, 18]
        assert details["invariant_factors"] == [12]
        assert details["model_match"] is True
        assert details["model"] == "U + E8(-1)^2 + <-12>"


def test_criterion_06_generic_transcendental(picard_generic):
    with Stopwatch(6, 1, "transcendental fingerprint matches U + <12>"):
        details = _status(picard_generic)
        assert details["transcendental_model"] == "U + <12>"
        assert details["transcendental_match"] is True


def test_criterion_07_fiber_s1():
    with Stopwatch(7, 60, "s=1: 7 singular points; U+E8(-1)^2+<-4>+<-2>; T = <2>+<4>"):
        locus, picard = _run("fiber-s1-singular-locus", "picard-s1")
        details = _status(locus)
        assert details["complete"] is True
        assert _types(details) == [
            ("(1 : 0 : 0)", "A5"),
            ("(0 : 1 : 0)", "A5"),
            ("(1 : 1 : 2)", "A3"),
            ("(1 : -1 : 0)", "A1"),
            ("(1 : 0 : 1)", "A1"),
            ("(0 : 1 : 1)", "A1"),
            ("(1 : 1 : 1)", "A1"),
        ]
        details = _status(picard)
        assert details["model"] == "U + E8(-1)^2 + <-4> + <-2>" and details["model_match"] is True
        assert details["transcendental_model"] == "<2> + <4>" and details["transcendental_match"] is True


def test_criterion_08_fiber_sm1():
    with Stopwatch(8, 60, "s=-1: 5 singular points; U+E8(-1)^2+<-12>+<-2>; T = <2>+<12>"):
        locus, picard = _run("fiber-s-1-singular-locus", "picard-s-1")
        details = _status(locus)
        assert details["complete"] is True
        assert _types(details) == [
            ("(1 : 0 : 0)", "A5"),
            ("(0 : 1 : 0)", "A5"),
            ("(1 : 1 : 2)", "A3"),
            ("(1 : -1 : 0)", "A1"),
            ("(0 : 0 : 1)", "A1"),
        ]
        details = _status(picard)
        assert details["model"] == "U + E8(-1)^2 + <-12> + <-2>" and details["model_match"] is True
        assert details["transcendental_model"] == "<2> + <12>" and details["transcendental_match"] is True


def test_criterion_09_reflections():
    with Stopwatch(9, 10, "explicit reflections identify s=0 with s=1 and s=2 with s=-1"):
        for rec, pair in zip(_run("reflection-s0-s1", "reflection-s2-s-1"), ([0, 1], [2, -1])):
            details = _status(rec)
            assert details["pair"] == pair
            assert details["matrix"] == [["0", "-2", "2"], ["-2", "0", "2"], ["0", "0", "2"]]


def test_criterion_10_apery():
    with Stopwatch(10, 1, "Apery: values, annihilation to 50, symbol roots 17 +- 12 sqrt(2)"):
        values, annihilation, points = _run("apery-sequence", "apery-annihilation", "apery-singular-points")
        assert _status(values)["values"] == [1, 5, 73, 1445, 33001, 819005]
        assert _status(annihilation) == {"order": 50, "first_fail": None}
        details = _status(points)
        assert details["symbol"] == "x^2 - 34*x + 1"
        assert details["singular_points"] == ["0", "17 + 12*sqrt(2)", "17 - 12*sqrt(2)", "inf"]


def test_criterion_11_domb():
    with Stopwatch(11, 1, "Domb: values, stated form flagged (b2 = 825/8), corrected passes"):
        values, stated, corrected = _run("domb-sequence", "domb-stated-operator", "domb-corrected-operator")
        assert _status(values)["values"] == [1, 6, 90, 1860, 44730]
        details = _status(stated, "flagged")
        assert details["predicted_b2"] == "825/8" and details["first_fail"] == 2
        details = _status(corrected)
        assert details["order"] == 50 and details["first_fail"] is None
        assert details["singular_points"] == ["0", "1/4", "1/36", "inf"]


def test_criterion_12_fermi():
    with Stopwatch(12, 1, "Fermi: stated form flagged; doubled middle term annihilates to 40"):
        stated, corrected = _run("fermi-stated-operator", "fermi-corrected-operator")
        assert _status(stated, "flagged") == {"first_fail": 2}
        assert _status(corrected) == {"order": 50, "first_fail": None, "pullback_coherent": True}


def test_criterion_13_identities():
    with Stopwatch(13, 5, "identity suite: 6 identities, zero residuals"):
        ids = [check_id for command, _, check_id, _ in cli.CHECKS if command == "identities"]
        assert [_status(rec) for rec in _run(*ids)] == [
            {"spot_value": "151/30"},
            {"lhs_at_111_times_xyz": "4"},
            {"minus_branch_via_sign_flip": True},
            {
                "denominator_at_(1,1)": "0",
                "excluded_denominators": ["x*y + 1", "x^2*y + x*y^2 - 4*x*y + x + y"],
                "z2_at_(2,1)": "1",
            },
            {"reciprocal_matches": True},
            {"group_order": 48},
        ]


def _random_unimodular(n, rng, steps=6):
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-1, 1])
        for t in range(n):
            M[i][t] += c * M[j][t]
    return M


def test_criterion_14_property_suites():
    with Stopwatch(14, 60, "property suites: conjugation invariance, blocks, Bezout, recurrences"):
        rng = random.Random(41)
        specs = [
            "U + E8(-1)^2 + <-12>",
            "U + E8(-1)^2 + <-4> + <-2>",
            "U + E8(-1)^2 + <-12> + <-2>",
            "U + <12>",
            "<2> + <4>",
            "<2> + <12>",
        ]
        for spec in specs:
            L = standard_lattice(spec)
            base = rank_signature(L.gram)
            inv = lattice_invariants(L)
            A = [list(r) for r in L.gram]
            for trial in range(100):
                U = _random_unimodular(L.dim, rng)
                B = mat_mul(mat_mul(U, A), transpose(U))
                LB = GramLattice.from_rows(B)
                assert rank_signature(B) == base
                if trial % 10 == 0:
                    assert fingerprints_match(inv, lattice_invariants(LB))
        # Cartan blocks of the generic configuration
        from k3pencil.picard import build_divisor_config

        cfg = build_divisor_config("generic")
        ix = {l: i for i, l in enumerate(cfg.labels)}
        for point, size in ((1, 5), (2, 5), (3, 3), (4, 1)):
            labs = [l for l in cfg.labels if l.startswith(f"E{point},")]
            assert len(labs) == size
            block = [[cfg.base[ix[a]][ix[b]] for b in labs] for a in labs]
            assert block == ade_chain(size)
        # Bezout across the branch intersection table
        assert sum(m for _, m in GENERIC_BRANCH_POINTS) == 9
        # recurrence / series cross-validation for all operators
        for op, seq, dil in (
            (apery_operator(), apery, 1),
            (domb_operator(True), domb, 1),
            (fermi_operator(True), apery, 2),
        ):
            rec = operator_to_recurrence(op)
            f = PowerSeries.from_sequence(seq, 30, dil)
            res = theta_apply(op, f)
            for n in range(31):
                assert rec.residual(list(f.coeffs), n) == res.coeffs[n]
        # apery recurrence holds exactly for 1 <= n <= 100
        rec = operator_to_recurrence(apery_operator())
        u = [apery(n) for n in range(102)]
        for n in range(2, 102):
            assert rec.residual(u, n) == 0
