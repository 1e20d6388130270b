"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime.  Every tolerance is exact; the time limits are the
stated budgets."""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from k3pencil import QQ, QS
from k3pencil.cover import (
    BranchConfig,
    REFERENCE_LINE_MATRIX,
    generic_lines,
    line_matrix,
    verify_component_lift,
)
from k3pencil.identities import all_identity_checks
from k3pencil.lattice import (
    GramLattice,
    ade_chain,
    fingerprints_match,
    lattice_invariants,
    mat_mul,
    rank_signature,
    standard_lattice,
    transpose,
)
from k3pencil.pencil import (
    GENERIC_BRANCH_POINTS,
    QUARTIC_SINGULAR_TABLE,
    branch_cubic,
    branch_sextic_at,
    fiber_singular_table,
    radical_quartic,
)
from k3pencil.picard import analyze_fiber, reflection_isomorphism_check
from k3pencil.series import (
    annihilation_check,
    apery,
    apery_operator,
    domb,
    domb_operator,
    fermi_operator,
    operator_singularities,
    operator_to_recurrence,
    sum_a,
    theta_apply,
    PowerSeries,
)
from k3pencil.singular import (
    ProjPoint,
    double_cover_type,
    milnor_ade_classify,
    verify_curve_intersections,
    verify_singular_locus,
)


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


_CACHE: dict = {}


@pytest.fixture(scope="module")
def generic_fiber():
    if "generic" not in _CACHE:
        _CACHE["generic"] = analyze_fiber("generic")
    return _CACHE["generic"]


def test_criterion_01_quartic_singular_locus():
    with Stopwatch(1, 10, "quartic singular locus: 8 points, A3 x1, A2 x4, A1 x3"):
        Q = radical_quartic()
        pts = [ProjPoint(QQ, c) for c, _ in QUARTIC_SINGULAR_TABLE]
        rep = verify_singular_locus(Q, pts)
        assert rep.ok, rep.witness
        types = []
        for coords, claimed in QUARTIC_SINGULAR_TABLE:
            P = ProjPoint(QQ, coords)
            i = next(j for j, c in enumerate(P.coords) if not c.is_zero())
            chart = Q.vars[i]
            aff = Q.set_var(chart, QQ.one).drop_vars([chart])
            pc = [P.coords[j] for j in range(4) if j != i]
            got = milnor_ade_classify(aff, pc).k
            assert got == claimed, (coords, claimed, got)
            types.append(got)
        assert sorted(types) == [1, 1, 1, 2, 2, 2, 2, 3]
        assert len(QUARTIC_SINGULAR_TABLE) == 8


def test_criterion_02_generic_branch_intersections():
    with Stopwatch(2, 10, "branch cubics meet in 4 points, mult (3,3,2,1), Bezout 9"):
        g0, g1 = branch_cubic(0), branch_cubic(1)
        claimed = [(ProjPoint(QS, c), m) for c, m in GENERIC_BRANCH_POINTS]
        assert [m for _, m in claimed] == [3, 3, 2, 1]
        assert sum(m for _, m in claimed) == 9
        rep = verify_curve_intersections(g0, g1, claimed)
        assert rep.ok, rep.witness


def test_criterion_03_lifted_line_identities():
    with Stopwatch(3, 5, "all 8 lifted-line identities w^2 = G0*G1 mod line"):
        cfg = BranchConfig.generic()
        for ll in generic_lines():
            ok, residual = verify_component_lift(ll, cfg)
            assert ok, (ll.label, str(residual))


def test_criterion_04_line_matrix():
    with Stopwatch(4, 5, "8x8 lifted-line matrix equals the reference matrix"):
        cfg = BranchConfig.generic()
        m = line_matrix(generic_lines(), cfg)
        assert tuple(tuple(r) for r in m) == REFERENCE_LINE_MATRIX


def test_criterion_05_generic_enumeration():
    with Stopwatch(5, 60, "128 assignments -> 4 survive; rank 19, (1,18), Z/12"):
        res = analyze_fiber("generic")
        _CACHE["generic"] = res
        assert res.survivor_count == 4
        assert res.picard.rank == 19
        assert res.picard.signature[:2] == (1, 18)
        assert res.picard.invariant_factors == (12,)
        assert res.picard_match
        assert res.picard_model == "U + E8(-1)^2 + <-12>"


def test_criterion_06_generic_transcendental(generic_fiber):
    with Stopwatch(6, 1, "transcendental fingerprint matches U + <12>"):
        t = generic_fiber.transcendental
        assert t.rank == 3 and t.signature[:2] == (2, 1)
        assert fingerprints_match(t, lattice_invariants(standard_lattice("U + <12>")))


def test_criterion_07_fiber_s1():
    with Stopwatch(7, 60, "s=1: 7 singular points; U+E8(-1)^2+<-4>+<-2>; T = <2>+<4>"):
        sex = branch_sextic_at(1)
        table = fiber_singular_table(1)
        assert len(table) == 7
        rep = verify_singular_locus(sex, [ProjPoint(QQ, c) for c, _ in table])
        assert rep.ok, rep.witness
        for coords, k in table:
            assert double_cover_type(sex, ProjPoint(QQ, coords)).k == k
        res = analyze_fiber(1)
        assert res.picard_match and res.transcendental_match


def test_criterion_08_fiber_sm1():
    with Stopwatch(8, 60, "s=-1: 5 singular points; U+E8(-1)^2+<-12>+<-2>; T = <2>+<12>"):
        sex = branch_sextic_at(-1)
        table = fiber_singular_table(-1)
        assert len(table) == 5
        rep = verify_singular_locus(sex, [ProjPoint(QQ, c) for c, _ in table])
        assert rep.ok, rep.witness
        for coords, k in table:
            assert double_cover_type(sex, ProjPoint(QQ, coords)).k == k
        res = analyze_fiber(-1)
        assert res.picard_match and res.transcendental_match


def test_criterion_09_reflections():
    with Stopwatch(9, 10, "explicit reflections identify s=0 with s=1 and s=2 with s=-1"):
        for pair in ((0, 1), (2, -1)):
            rep = reflection_isomorphism_check(pair)
            assert rep.ok and rep.matrix is not None


def test_criterion_10_apery():
    with Stopwatch(10, 1, "Apery: values, annihilation to 50, symbol roots 17 +- 12 sqrt(2)"):
        assert [apery(n) for n in range(4)] == [1, 5, 73, 1445]
        ok, _ = annihilation_check(apery_operator(), apery, 50)
        assert ok
        rep = operator_singularities(apery_operator())
        assert rep.symbol_str == "x^2 - 34*x + 1"
        assert rep.singular_points() == ["0", "17 + 12*sqrt(2)", "17 - 12*sqrt(2)", "inf"]


def test_criterion_11_domb():
    with Stopwatch(11, 1, "Domb: values, stated form flagged (b2 = 825/8), corrected passes"):
        assert [domb(n) for n in range(5)] == [1, 6, 90, 1860, 44730]
        for n in range(51):
            assert domb(n) == comb(2 * n, n) * sum_a(n)
        rec = operator_to_recurrence(domb_operator(False))
        assert rec.predict(Fraction(1), 2)[2] == Fraction(825, 8)
        ok, _ = annihilation_check(domb_operator(False), domb, 30)
        assert not ok
        ok, _ = annihilation_check(domb_operator(True), domb, 50)
        assert ok
        rep = operator_singularities(domb_operator(True))
        assert rep.singular_points() == ["0", "1/4", "1/36", "inf"]


def test_criterion_12_fermi():
    with Stopwatch(12, 1, "Fermi: stated form flagged; doubled middle term annihilates to 40"):
        ok, bad = annihilation_check(fermi_operator(False), apery, 20, dilation=2)
        assert not ok
        ok, _ = annihilation_check(fermi_operator(True), apery, 40, dilation=2)
        assert ok
        ok_a, _ = annihilation_check(apery_operator(), apery, 40)
        assert ok_a


def test_criterion_13_identities():
    with Stopwatch(13, 5, "identity suite: 6 identities, zero residuals"):
        checks = all_identity_checks()
        assert len(checks) == 6
        for c in checks:
            assert c.ok, c.id
            if c.residual is not None:
                assert c.residual.is_zero()


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
            base = rank_signature(L)
            inv = lattice_invariants(L)
            A = [list(r) for r in L.gram]
            for trial in range(100):
                U = _random_unimodular(L.dim, rng)
                B = mat_mul(mat_mul(U, A), transpose(U))
                LB = GramLattice.from_rows(B)
                assert rank_signature(LB) == base
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
            assert tuple(map(tuple, block)) == ade_chain(size).gram
        # Bezout across the branch intersection table
        assert sum(m for _, m in GENERIC_BRANCH_POINTS) == 9
        # recurrence / series cross-validation for all operators
        for op, seq, dil in (
            (apery_operator(), apery, 1),
            (domb_operator(True), domb, 1),
            (fermi_operator(True), apery, 2),
        ):
            rec = operator_to_recurrence(op)
            f = PowerSeries.from_sequence("x", seq, 30, dil)
            res = theta_apply(op, f)
            for n in range(31):
                assert rec.residual(list(f.coeffs), n) == res.coeffs[n]
        # apery recurrence holds exactly for 1 <= n <= 100
        rec = operator_to_recurrence(apery_operator())
        u = [apery(n) for n in range(102)]
        for n in range(2, 102):
            assert rec.residual(u, n) == 0
