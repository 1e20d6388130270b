"""Differential property tests: each fast path of the elimination cascade
against the exact path it replaces or the known answer.

* resultants by the subresultant PRS on MPoly (over QQ in x, y and in
  x, y, z, and over QQ(s)) vs the test-local Sylvester determinant by
  Bareiss elimination, and resultants over QQ(s) vs the QQ resultants of
  their specializations;
* gcds over QQ (the primitive PRS in Z[x]) vs the test-local Euclid on
  Fraction coefficients, and exact division in Z[t] (_zquo);
* the QQ(s) and QQ(m) coprimality certificate in gcd_poly vs the Euclidean
  gcd;
* the A_k classifier on A_k normal forms moved by a random invertible
  linear change and translation, and its coefficient-by-coefficient lift of
  the critical section vs the test-local chord loop it replaced (a full
  evaluation at the jet order per step), on those forms over QQ and QQ(s)
  and at every corank-1 point that ``singularities`` classifies, and one
  lift and one certificate pass per order read, k + 1 or I_P;
* the integer rank and signature rank_signature (symmetric Bareiss,
  Jacobi's sign rule) vs the test-local Fraction congruence
  diagonalization fraction_rank_signature, on symmetric integer matrices,
  rank-deficient ones and zero diagonals included;
* the invariants of a degenerate even lattice from one Smith form
  (lattice_invariants) vs those of its radical quotient, on the same
  matrices made even;
* the Picard rank filter's inertias by Haynsworth additivity (the head plus
  a Schur complement on the line rows) vs rank_signature and
  fraction_rank_signature of the completed matrix, on all 288 sheet
  assignments of the three fibres and on random borders of random
  <2> + (-C_k) heads, and its certificate rejecting a changed head;
* the odd-contact certificate at CONTACT_PLACE vs the exact squarefree
  path of even_contact_test on binary forms over QQ(s)(alpha) = QQ(m), and
  the exact path alone on two odd forms of degree 5 and 4;
* the line contact by restriction vs the Fulton reduction of
  contact_oracle.py, on lines through points of plane cubics over QQ and
  QQ(sqrt 2), lines that are components of a reducible cubic included;
* the curve-curve contact by the certified branch lift vs the Fulton
  reduction, on every contact that ``picard --fiber all`` and
  ``singularities`` compute and on random pairs through the origin over QQ
  and QQ(sqrt 2) with forced tangency, and its failures: both curves
  singular, a common component, a wrong lift;
* the generator test of disc_forms_isomorphic vs a search over all
  elements and all pairs, on discriminant forms of small even lattices;
* the QQ(t) kernel (c*P/Q over Z[t], Henrici's gcds) vs the test-local
  Fraction-coefficient FracRatFunc reduced by Euclid on every operation:
  arithmetic, evaluation, conjugation, the QQ(s) -> QQ(m) coercion, str,
  sort keys and hashes.
"""

from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from k3pencil import QQ, QS, QSA, MPoly, cli, cover, parse_poly, picard, singular
from k3pencil.cover import CONTACT_PLACE, BranchConfig, _odd_at_place, even_contact_test
from k3pencil.field import QPoly, RatFunc, _zmul, _zquo, quadratic_field
from k3pencil.lattice import GramLattice, disc_forms_isomorphic, lattice_invariants, rank_signature
from k3pencil.pencil import (
    GENERIC_BRANCH_POINTS,
    QUARTIC_SINGULAR_TABLE,
    branch_cubic,
    branch_sextic,
    branch_sextic_at,
    fiber_singular_table,
    radical_quartic,
)
from k3pencil.picard import ChainPoint, DivisorConfig, _sheet_inertias, build_divisor_config, enumerate_and_filter
from k3pencil.polyops import (
    COPRIME_TEST_POINTS,
    _coprime_by_specialization,
    _dense_gcd,
    gcd_poly,
    resultant,
    specialize,
)
from k3pencil.singular import (
    DEFAULT_JET_ORDER,
    ProjPoint,
    _eval_on_section,
    _line_contact,
    branch_ade_type,
    milnor_ade_classify,
)

from contact_oracle import fulton_multiplicity
from gram_helpers import assert_matches_radical_quotient, fraction_rank_signature, row_by_row_det

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# rationals with small heights, zero a third of the time so that pivots vanish
small_int = st.integers(-4, 4)
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, small_int, st.integers(1, 5)),
    st.builds(Fraction, small_int),
)


# -- resultants by the subresultant PRS -----------------------------------------


def sylvester_rows(pc: list, qc: list, empty) -> list[list]:
    """Sylvester matrix of two polynomials given by their coefficient lists
    (index = power of the eliminated variable, leading entry nonzero)."""
    m, n = len(pc) - 1, len(qc) - 1
    rows = []
    for cs, shifts in ((pc, n), (qc, m)):
        d = len(cs) - 1
        for i in range(shifts):
            row = [empty] * (m + n)
            for k, c in enumerate(cs):
                row[i + d - k] = c
            rows.append(row)
    return rows


def bareiss_det(m: list[list[MPoly]], field, vars) -> MPoly:
    """Fraction-free (Bareiss) determinant of a square matrix of MPolys:
    step k replaces a_ij by (a_ij*a_kk - a_ik*a_kj)/p, p the previous pivot,
    an exact division by Sylvester's determinant identity."""
    m = [list(row) for row in m]
    n = len(m)
    if n == 0:
        return MPoly.const(field, vars, 1)
    sign = 1
    prev = MPoly.const(field, vars, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot is None:
                return MPoly.zero(field, vars)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = MPoly.zero(field, vars)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """The resultant by its definition: the determinant of the Sylvester
    matrix, by Bareiss elimination on MPoly entries."""
    p, q = MPoly.common(p, q)
    zero = MPoly.zero(p.field, p.vars)
    pc, qc = p.coeffs_in(var), q.coeffs_in(var)
    rows = sylvester_rows(
        [pc.get(k, zero) for k in range(p.degree_in(var) + 1)],
        [qc.get(k, zero) for k in range(q.degree_in(var) + 1)],
        zero,
    )
    return bareiss_det(rows, p.field, p.vars)


def _poly_xy(coeffs: dict) -> MPoly:
    return MPoly(QQ, ("x", "y"), {e: QQ.from_rat(c) for e, c in coeffs.items()})


poly_xy = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), rationals, min_size=1, max_size=7
).map(_poly_xy)


def _xy(text: str) -> MPoly:
    return parse_poly(text, QQ, ("x", "y"))


@SETTINGS
@given(poly_xy, poly_xy)
@example(_poly_xy({(2, 0): Fraction(1, 2), (0, 1): Fraction(3)}), _poly_xy({(2, 1): Fraction(2, 3), (0, 0): Fraction(1)}))
# a defective PRS: prem(p, q) = y - x*y drops the x-degree from 3 to 1
@example(_xy("x^4 + y"), _xy("x^3 + y"))
# a common factor: the resultant is 0
@example(_xy("(x - y)*(x + 1)"), _xy("(x - y)*(x^2 + 2)"))
# deg p < deg q, both odd: the swap flips the sign
@example(_xy("x + y"), _xy("x^3 + 2"))
@example(_xy("y*x^3 + x - 1") * Fraction(1, 2), _xy("x^5 - y^2*x^2 + 3"))
# linear inputs, constant leading coefficients
@example(_xy("2*x + 3*y"), _xy("5*x - 1"))
def test_integer_resultant_matches_generic_bareiss(p, q):
    # resultants over QQ in x and at most y: the subresultant PRS on MPoly
    # against the Sylvester determinant
    if p.degree_in("x") < 1 or q.degree_in("x") < 1:
        return
    assert resultant(p, q, "x") == sylvester_resultant(p, q, "x")


def _mpoly_strategy(field, vars, exps, coeff):
    terms = st.dictionaries(exps, coeff, min_size=1, max_size=6)
    return terms.map(lambda ts: MPoly(field, vars, {e: field.coerce(c) for e, c in ts.items()}))


# pairs over QQ(s) in x, y and over QQ in x, y, z
poly_qs_xy = _mpoly_strategy(
    QS, ("x", "y"), st.tuples(st.integers(0, 3), st.integers(0, 2)),
    st.builds(lambda a, b: QS.s() * a + b, small_int, rationals),
)
poly_xyz = _mpoly_strategy(
    QQ, ("x", "y", "z"), st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 1)), rationals
)
mpoly_resultant_pairs = st.one_of(st.tuples(poly_qs_xy, poly_qs_xy), st.tuples(poly_xyz, poly_xyz))


def _qs(text: str) -> MPoly:
    return parse_poly(text, QS, ("x", "y"))


def _xyz(text: str) -> MPoly:
    return parse_poly(text, QQ, ("x", "y", "z"))


@SETTINGS
@given(mpoly_resultant_pairs)
# defective PRS: the x-degree drops from 3 to 1, and from 4 to 1
@example((_qs("x^4 + s*y"), _qs("x^3 + y")))
@example((_xyz("x^5 + y*z"), _xyz("x^4 - z + y")))
# common factors
@example((_qs("(x - s*y)*(x + 1)"), _qs("(x - s*y)*(y*x^2 + s)")))
@example((_xyz("(x - y + z)^2"), _xyz("(x - y + z)*(x + z)")))
# deg p < deg q, both odd
@example((_qs("s*x + y"), _qs("x^3 + s^2")))
@example((_xyz("x^3 + y*z*x + 1"), _xyz("z*x^5 + y")))
# linear inputs, constant leading coefficients
@example((_qs("2*x + s*y"), _qs("5*x - s")))
@example((_xyz("x + y"), _xyz("3*x - z")))
def test_mpoly_resultant_matches_sylvester_determinant(pair):
    # over QQ(s), and over QQ with two further variables
    p, q = pair
    if p.degree_in("x") < 1 or q.degree_in("x") < 1:
        return
    assert resultant(p, q, "x") == sylvester_resultant(p, q, "x")


# -- the QQ(s) and QQ(m) coprimality certificate -------------------------------


def _t_poly(cs) -> RatFunc:
    """A polynomial in the field's parameter: s over QQ(s), m over QQ(m)."""
    return RatFunc(QPoly(cs))


T_MINUS = [_t_poly([-c, 1]) for c in COPRIME_TEST_POINTS]
coeff_t = st.lists(small_int, min_size=1, max_size=3).map(_t_poly)
dense_t = st.lists(coeff_t, min_size=2, max_size=4).filter(lambda cs: not cs[-1].is_zero())


def _mul_dense(a: list, b: list) -> list:
    out = [a[0].field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@SETTINGS
@given(
    st.sampled_from([QS, QSA]),
    dense_t,
    dense_t,
    st.one_of(st.none(), st.lists(coeff_t, min_size=2, max_size=2).filter(lambda cs: not cs[-1].is_zero())),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_qs_gcd_certificate_matches_euclid(field, a, b, common, lc_zeros, pole_zeros):
    # the leading coefficients of a, b and the common factor vanish at the
    # first lc_zeros test points, and a has a pole at the first pole_zeros of
    # them: the certificate must skip those points
    a, b = [field.from_ratfunc(c) for c in a], [field.from_ratfunc(c) for c in b]
    vanish = field.one
    for f in T_MINUS[:lc_zeros]:
        vanish = vanish * field.from_ratfunc(f)
    a = a[:-1] + [a[-1] * vanish]
    b = b[:-1] + [b[-1] * vanish]
    for f in T_MINUS[:pole_zeros]:
        a[0] = a[0] + field.from_ratfunc(f).inv()
    if common is not None:
        common = [field.from_ratfunc(common[0]), field.from_ratfunc(common[1]) * vanish]
        a, b = _mul_dense(a, common), _mul_dense(b, common)
    euclid = _dense_gcd(a, b, field)
    if _coprime_by_specialization(a, b):
        assert len(euclid) == 1
    if common is not None:
        assert not _coprime_by_specialization(a, b)
    vars = ("x",)
    pa, pb = MPoly.from_dense(field, vars, "x", a), MPoly.from_dense(field, vars, "x", b)
    assert gcd_poly(pa, pb) == MPoly.from_dense(field, vars, "x", euclid)


def test_qs_gcd_certificate_skips_bad_points():
    # lc(a) vanishes at the first test point and b has a pole at the second;
    # a and b are coprime, certified at the third point
    s = QS.s()
    s0, s1 = COPRIME_TEST_POINTS[:2]
    a = [QS.one, s - s0]
    b = [s, QS.zero, (s - s1).inv()]
    assert _coprime_by_specialization(a, b)
    # a common factor x + s is never certified away
    c = [s, QS.one]
    assert not _coprime_by_specialization(_mul_dense(a, c), _mul_dense(b, c))


# -- the A_k classifier and its critical-section lift --------------------------

VARS = ("x", "y", "z")


def _a_k_moved(field, k, c, M, P, corank_two=False):
    """X^2 + Y^2 + Z^(k+1) + c X Z^j with (X, Y, Z) = M (v - P): an A_k point
    at P.  2j > k + 1, so completing the square in X leaves the type alone
    while the critical section becomes nonlinear.  With corank_two,
    X^3 + Y^3 + Z^2 + c X Z^j instead, whose Hessian at P has rank 1."""
    gens = MPoly.gens(field, VARS)
    shifted = [g - p for g, p in zip(gens, P)]
    X, Y, Z = [sum((shifted[j] * M[i][j] for j in range(3)), MPoly.zero(field, VARS)) for i in range(3)]
    j = (k + 1) // 2 + 1
    if corank_two:
        return X ** 3 + Y ** 3 + Z * Z + X * Z ** j * c
    return X * X + Y * Y + Z ** (k + 1) + X * Z ** j * c


def _det3(M):
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


def chord_section(grads, N, field):
    """The oracle: the fixed-precision chord loop that the lift replaced.
    From phi = 0, phi_i <- phi_i - grad_i(phi) / (2 d_i), each step a full
    evaluation at jet order N, until every gradient vanishes on the section
    to order N; 2 d_i is the coefficient of x_i in grad_i.  It gains at
    least one order per step."""
    r = len(grads)
    inv2d = [g.terms[tuple(int(j == i) for j in range(r + 1))].inv() for i, g in enumerate(grads)]
    phi = [[field.zero] * (N + 1) for _ in range(r)]
    for _ in range(N + 3):
        gvals = _eval_on_section(grads, phi, N, field)
        if all(c.is_zero() for gv in gvals for c in gv):
            return phi
        phi = [[c - g * inv2d[i] for c, g in zip(phi[i], gvals[i])] for i in range(r)]
    raise AssertionError("the chord loop did not stabilize")


def classify_against_chord_loop(f, P, N=DEFAULT_JET_ORDER):
    """milnor_ade_classify(f, P).k, with the section that its one
    certificate pass receives checked against the chord loop's, and k + 1
    against the order of h on the chord loop's section.  A Morse point
    makes no pass."""
    with mock.patch.object(singular, "_eval_on_section", wraps=_eval_on_section) as spy:
        k = milnor_ade_classify(f, P, jet_order=N).k
    assert spy.call_count == (k > 1)
    if k > 1:
        (*grads, h), phi, n, field = spy.call_args.args
        chord = chord_section(grads, n, field)
        assert phi == chord
        (residual,) = _eval_on_section([h], chord, n, field)
        assert next(d for d, c in enumerate(residual) if not c.is_zero()) == k + 1
    return k


IDENTITY = [1, 0, 0, 0, 1, 0, 0, 0, 1]


@SETTINGS
@given(
    st.sampled_from([QQ, QS]),
    st.integers(1, 6),
    st.lists(rationals, min_size=9, max_size=9),
    st.lists(st.tuples(small_int, st.integers(-1, 1)), min_size=4, max_size=4),
    st.integers(0, 3),
    st.booleans(),
)
# k = 1 (a Morse point, no section), k = N - 1 at the default jet order over
# QQ and QQ(s), and X^3 + Y^3 + Z^2 (corank 2)
@example(QQ, 1, IDENTITY, [(1, 0), (0, 0), (0, 0), (0, 0)], 0, False)
@example(QQ, DEFAULT_JET_ORDER - 1, [1, 2, 0, 0, 1, -1, 3, 0, 1], [(2, 0), (1, 0), (-1, 0), (0, 0)], 0, False)
@example(QS, DEFAULT_JET_ORDER - 1, IDENTITY, [(1, 1), (0, 1), (2, 0), (0, -1)], 0, False)
@example(QQ, 2, IDENTITY, [(0, 0), (0, 0), (0, 0), (0, 0)], 0, True)
def test_series_milnor_on_moved_normal_forms(field, k, m_entries, s_entries, spare, corank_two):
    # the linear change is over QQ; the translation and the perturbation
    # carry s over QQ(s) (a generic change over QQ(s) makes the rational
    # function coefficients grow beyond what a test can wait for).  The jet
    # order is k + 1, the least that sees the kernel term, plus a spare.
    M = [[m_entries[3 * i + j] for j in range(3)] for i in range(3)]
    if _det3(M) == 0:
        return
    c, *P = [field.from_rat(a) + (field.s() * b if field.with_s else field.zero) for a, b in s_entries]
    f = _a_k_moved(field, k, c, M, P, corank_two)
    if corank_two:
        with pytest.raises(ValueError, match="corank >= 2"):
            milnor_ade_classify(f, P, jet_order=k + 1 + spare)
        return
    assert classify_against_chord_loop(f, P, k + 1 + spare) == k
    if k > 1:
        with pytest.raises(ValueError, match="jet order"):
            milnor_ade_classify(f, P, jet_order=k)


def test_section_lift_matches_chord_loop_at_the_classified_points():
    # the points of the singularities command: the quartic's over QQ, the
    # generic branch sextic's over QQ(s) and the special fibres' over QQ
    points = [(radical_quartic(), ProjPoint(QQ, c), k) for c, k in QUARTIC_SINGULAR_TABLE]
    points += [(branch_sextic(), ProjPoint(QS, c), branch_ade_type(m)) for c, m in GENERIC_BRANCH_POINTS]
    for s0 in (1, -1):
        points += [(branch_sextic_at(s0), ProjPoint(QQ, c), k) for c, k in fiber_singular_table(s0)]
    for F, P, k in points:
        assert classify_against_chord_loop(*P.affine(F)) == k
    assert sum(k > 1 for _, _, k in points) == 14


def test_certificate_rejects_a_wrong_section():
    # an A_2 point whose section is nonlinear, with the top coefficient of
    # the lifted section changed at the order read
    f = parse_poly("x^2 + y^3 + x*y^2", QQ, ("x", "y"))
    lift = singular._lift_section

    def off_at_the_top(grads, diag, read, cap, field):
        phi, m = lift(grads, diag, read, cap, field)
        phi[0][m] = phi[0][m] + field.one
        return phi, m

    assert milnor_ade_classify(f, (0, 0)).k == 2
    with mock.patch.object(singular, "_lift_section", off_at_the_top):
        with pytest.raises(ValueError, match="certificate"):
            milnor_ade_classify(f, (0, 0))


# -- the integer rank and signature --------------------------------------------


@st.composite
def symmetric_int_matrices(draw):
    """A + A^T, or B^T B with B of k <= n rows (rank at most k), then up to
    two rows and columns zeroed, and sometimes the whole diagonal zeroed as
    well."""
    n = draw(st.integers(1, 7))
    entries = st.integers(-3, 3)
    if draw(st.booleans()):
        a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        m = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    else:
        k = draw(st.integers(0, n))
        b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
        m = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
    for z in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for t in range(n):
            m[z][t] = m[t][z] = 0
    if draw(st.booleans()):
        for t in range(n):
            m[t][t] = 0
    return m


def test_rank_signature_of_empty_matrix():
    assert rank_signature([]) == (0, 0, 0, 0)


@SETTINGS
@given(symmetric_int_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
@example([[0, 0, 1], [0, 0, 0], [1, 0, 2]])
@example([[0, 2, 1], [2, 0, 3], [1, 3, 0]])
@example([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
@example([[2, 4], [4, 8]])
def test_integer_signature_matches_fraction_diagonalization(m):
    assert rank_signature(m) == fraction_rank_signature(m)


def _even(m):
    """m, doubled when a diagonal entry is odd."""
    return m if all(m[i][i] % 2 == 0 for i in range(len(m))) else [[2 * x for x in row] for row in m]


@SETTINGS
@given(symmetric_int_matrices().map(_even).filter(lambda m: rank_signature(m)[3] > 0))
@example([[2, 0], [0, 0]])
@example([[0] * 3] * 3)
def test_degenerate_invariants_match_the_radical_quotient(m):
    L = GramLattice.from_rows(m)
    assert_matches_radical_quotient(L, lattice_invariants(L))


# -- the Picard rank filter by Schur complements ---------------------------------


@pytest.fixture(scope="module")
def fiber_configs():
    return [build_divisor_config(fiber) for fiber in ("generic", 1, -1)]


def test_schur_inertias_match_both_eliminations_on_all_assignments(fiber_configs):
    seen = 0
    for cfg in fiber_configs:
        for bits, inertia in _sheet_inertias(cfg):
            m = cfg.complete(bits)
            assert inertia == rank_signature(m) == fraction_rank_signature(m)
            seen += 1
    assert seen == 288


@st.composite
def bordered_heads(draw):
    """A DivisorConfig with a random <2> + (-C_k) head (k odd, as
    ChainPoint.chain_labels gives k labels only then), a random border of
    line rows and random distinct ambiguous slots in it."""
    ks = draw(st.lists(st.sampled_from((1, 3, 5)), min_size=1, max_size=3))
    points = [ChainPoint(i, None, k, []) for i, k in enumerate(ks, start=1)]
    h, lines = 1 + sum(ks), draw(st.integers(1, 5))
    n = h + lines
    base = [[0] * n for _ in range(n)]
    base[0][0], start = 2, 1
    for k in ks:
        for a in range(k):
            base[start + a][start + a] = -2
            if a + 1 < k:
                base[start + a][start + a + 1] = base[start + a + 1][start + a] = 1
        start += k
    for i in range(h, n):
        for j in range(i + 1):
            base[i][j] = base[j][i] = draw(st.integers(-2, 2))
    cells = [(r, c) for r in range(h, n) for c in range(h)]
    free = draw(st.lists(st.sampled_from(cells), unique=True, max_size=min(8, len(cells))))
    for r, c in free:
        base[r][c] = base[c][r] = 0
    pairs = [(free[i], free[i + 1]) for i in range(0, len(free) - 1, 2)]
    labels = tuple(f"g{i}" for i in range(n))
    return DivisorConfig("test", labels, base, pairs, points, [None] * lines)


@SETTINGS
@given(bordered_heads())
def test_schur_inertias_match_the_completed_matrix(cfg):
    got = list(_sheet_inertias(cfg))
    assert len(got) == 2 ** len(cfg.ambiguous_pairs)
    for bits, inertia in got:
        m = cfg.complete(bits)
        assert inertia == rank_signature(m) == fraction_rank_signature(m)


def _altered(cfg, i, j, value):
    base = [row[:] for row in cfg.base]
    base[i][j] = base[j][i] = value
    return DivisorConfig(cfg.fiber, cfg.labels, base, cfg.ambiguous_pairs, cfg.chain_points, cfg.lines)


def test_schur_certificate_rejects_a_changed_head(fiber_configs):
    cfg = fiber_configs[0]
    ix = {label: i for i, label in enumerate(cfg.labels)}
    # a broken chain link, a chain meeting H, and an ambiguous slot already set
    (row, col), _ = cfg.ambiguous_pairs[0]
    for i, j, value in ((ix["E1,1"], ix["E1,2"], 0), (ix["H"], ix["E2,0"], 1), (row, col, 1)):
        with pytest.raises(ValueError, match="head is not"):
            enumerate_and_filter(_altered(cfg, i, j, value))


# -- line contact by restriction -----------------------------------------------

SQRT2 = quadratic_field(2)


def _element(field, pair):
    a, b = pair
    return field.from_rat(a) + (field.alpha() * b if field is SQRT2 else field.zero)


def _form(field, degree, coeffs):
    exps = [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]
    return MPoly(field, VARS, {e: _element(field, c) for e, c in zip(exps, coeffs)})


def _line_through(field, P, R):
    """The line det(P, R, X) through P and R."""
    x, y, z = MPoly.gens(field, VARS)
    p, r = P.coords, R.coords
    return x * (p[1] * r[2] - p[2] * r[1]) + y * (p[2] * r[0] - p[0] * r[2]) + z * (p[0] * r[1] - p[1] * r[0])


def _contact_or_error(fn, F, L, P):
    try:
        return fn(F, L, P)
    except ValueError as e:
        assert "common component" in str(e)
        return "common component"


coeff_pairs = st.tuples(small_int, small_int)
nonzero_pairs = st.tuples(st.integers(-4, 4).filter(bool), small_int)
points = st.lists(coeff_pairs, min_size=3, max_size=3)


@SETTINGS
@given(
    points,
    points,
    points,
    st.integers(0, 3),
    st.lists(coeff_pairs, min_size=6, max_size=6),
    st.lists(nonzero_pairs, min_size=10, max_size=10),
    st.booleans(),
)
@example([(0, 0), (0, 0), (1, 0)], [(1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)], 3, [(1, 0)] * 6, [(1, 0)] * 10, False)
@example([(1, 1), (2, 0), (1, 0)], [(1, 0), (0, 1), (0, 0)], [(0, 0), (1, 0), (3, 0)], 1, [(1, 0)] * 6, [(1, 0)] * 10, False)
@example([(1, 1), (2, 0), (1, 0)], [(1, 0), (0, 1), (0, 0)], [(0, 0), (1, 0), (3, 0)], 2, [(2, 1)] * 6, [(-1, 1)] * 10, False)
# L = x - z: the restriction keeps (x, y), and P = (0 : 1 : 0) has x = 0
@example([(0, 0), (1, 0), (0, 0)], [(1, 0), (0, 0), (1, 0)], [(0, 0), (0, 0), (1, 0)], 2, [(1, 0)] * 6, [(1, 0)] * 10, False)
def test_line_contact_matches_fulton(p, r, a, m, conic, rest, reducible):
    # the cubic L Q + A^m B through P, with A the line through P and a third
    # point: its contact with L at P is m or more (more where B(P) = 0), and
    # with B = 0 the line L is a component.  Over QQ the sqrt(2) parts drop.
    for field in (QQ, SQRT2):
        coords = [[_element(field, c) for c in pt] for pt in (p, r, a)]
        if any(all(c.is_zero() for c in pt) for pt in coords):
            continue
        P, R, S = (ProjPoint(field, pt) for pt in coords)
        L, A = _line_through(field, P, R), _line_through(field, P, S)
        if L.is_zero() or A.is_zero():
            continue
        F = L * _form(field, 2, conic)
        if not reducible:
            F = F + A ** m * _form(field, 3 - m, rest)
        expected = _contact_or_error(fulton_multiplicity, F, L, P)
        if reducible:
            assert expected == "common component"
        assert _contact_or_error(_line_contact, F, L, P) == expected
        assert _contact_or_error(_line_contact, F, L, R) == _contact_or_error(fulton_multiplicity, F, L, R)


# -- curve-curve contact by the certified branch lift -----------------------------


def test_command_contacts_match_fulton(monkeypatch, capsys):
    # every contact that picard --fiber all and singularities compute: the
    # line depths and type checks of the three fibres, and the generic
    # intersection certificate
    calls = []
    contact = singular.intersection_multiplicity

    def record(F, G, P):
        calls.append((F, G, P, contact(F, G, P)))
        return calls[-1][3]

    for module in (singular, picard):
        monkeypatch.setattr(module, "intersection_multiplicity", record)
    for argv in (["picard", "--fiber", "all"], ["singularities"]):
        assert cli.main(argv) == 0
    curve_pairs = sum(F.total_degree() > 1 and G.total_degree() > 1 for F, G, _, _ in calls)
    assert (len(calls), curve_pairs) == (78, 14)
    for F, G, P, m in calls:
        assert fulton_multiplicity(F, G, P) == m


def test_each_order_is_read_by_one_lift_and_one_certificate(monkeypatch, capsys):
    # every corank-1 classifier call and every curve-curve contact that
    # picard --fiber all and singularities make: one _lift_section, then one
    # _eval_on_section at the order read, k + 1 or I_P; a Morse point none
    log = []

    def spy(name, result):
        fn = getattr(singular, name)

        def wrapped(*args):
            out = fn(*args)
            log.append((name, result(args, out)))
            return out

        monkeypatch.setattr(singular, name, wrapped)

    spy("milnor_ade_classify", lambda args, rep: rep.k)
    spy("_branch_contact", lambda args, m: m)
    spy("_lift_section", lambda args, out: out[1])
    spy("_eval_on_section", lambda args, out: args[2])
    for argv in (["picard", "--fiber", "all"], ["singularities"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    expected, counts = [], {}
    for name, value in log:
        if name == "milnor_ade_classify":
            lifts, read = value > 1, value + 1
        elif name == "_branch_contact":
            lifts, read = True, value
        else:
            continue
        if lifts:
            expected += [("_lift_section", read), ("_eval_on_section", read)]
        expected.append((name, value))
        counts[name, lifts] = counts.get((name, lifts), 0) + 1
    assert log == expected
    assert counts == {("milnor_ade_classify", False): 10, ("milnor_ade_classify", True): 14, ("_branch_contact", True): 14}


# the Fulton reduction takes most of the time: 40 pairs, not 100
@settings(SETTINGS, max_examples=40)
@given(
    st.sampled_from(["QQ", "QQ(sqrt 2)"]),
    nonzero_pairs,
    coeff_pairs,
    st.lists(coeff_pairs, min_size=5, max_size=5),
    st.tuples(nonzero_pairs, coeff_pairs),
    st.integers(1, 5),
    st.lists(coeff_pairs, min_size=3, max_size=3),
    st.lists(coeff_pairs, min_size=3, max_size=3),
    st.booleans(),
)
# a common component: G = F * C
@example("QQ", (1, 0), (0, 0), [(1, 0)] * 5, ((1, 0), (0, 0)), 2, [(1, 0)] * 3, [(0, 0)] * 3, False)
# tangency of order 5 to a conic, the smooth curve second
@example("QQ(sqrt 2)", (1, 1), (1, 0), [(0, 0), (0, 0), (1, 0), (0, 0), (0, 0)], ((1, 0), (0, 0)), 5, [(0, 0)] * 3, [(1, 1)] * 3, True)
def test_branch_contact_matches_fulton(name, a, c, higher, line, k, cofactor, rest, swap):
    # F smooth at the origin (linear part a x + c y with a != 0 before a
    # random swap of x and y), G = F C + M^k D for a line M through the
    # origin: I_0(F, G) = I_0(F, M^k D) >= k, infinite when D = 0
    field = QQ if name == "QQ" else SQRT2
    x, y = MPoly.gens(field, ("x", "y"))
    e = [_element(field, t) for t in higher]
    F = x * _element(field, a) + y * _element(field, c)
    F = F + x * x * e[0] + x * y * e[1] + y * y * e[2] + x ** 3 * e[3] + y ** 3 * e[4]
    if swap:
        F = F.subst_polys([y, x])
    M = x * _element(field, line[0]) + y * _element(field, line[1])
    C, D = (x * t[1] + y * t[2] + t[0] for t in ([_element(field, u) for u in v] for v in (cofactor, rest)))
    G = F * C + M ** k * D
    if F.total_degree() < 2 or G.total_degree() < 2:
        return
    F, G = F.homogenize("z"), G.homogenize("z")
    P = ProjPoint(field, (0, 0, 1))
    expected = _contact_or_error(fulton_multiplicity, F, G, P)
    for pair in ((F, G), (G, F)):
        assert _contact_or_error(singular.intersection_multiplicity, *pair, P) == expected
    assert expected == "common component" or expected >= k


def test_branch_contact_certifies_its_lift(monkeypatch):
    # a lift whose top coefficient is off leaves f nonzero at w^m
    lift = singular._lift_section

    def perturbed(grads, diag, read, cap, field):
        phi, m = lift(grads, diag, read, cap, field)
        phi[0][m] = phi[0][m] + field.one
        return phi, m

    monkeypatch.setattr(singular, "_lift_section", perturbed)
    P = ProjPoint(QS, GENERIC_BRANCH_POINTS[0][0])
    with pytest.raises(ValueError, match="fails its certificate"):
        singular.intersection_multiplicity(branch_cubic(0), branch_cubic(1), P)


def test_branch_contact_needs_a_smooth_curve():
    # a cusp and a node at the origin
    F, G = parse_poly("y^2*z - x^3", QQ, VARS), parse_poly("x*y*z - x^3 - y^3", QQ, VARS)
    with pytest.raises(ValueError, match=r"both curves are singular at \(0 : 0 : 1\)"):
        singular.intersection_multiplicity(F, G, ProjPoint(QQ, (0, 0, 1)))


def test_branch_contact_detects_a_common_component():
    # the conic y z - x^2, smooth at (0 : 0 : 1), is a component of both
    F = parse_poly("(y*z - x^2)*(x + y + z)", QQ, VARS)
    G = parse_poly("(y*z - x^2)*(x - 2*y + 3*z)", QQ, VARS)
    P = ProjPoint(QQ, (0, 0, 1))
    for pair in ((F, G), (G, F)):
        with pytest.raises(ValueError, match="common component"):
            singular.intersection_multiplicity(*pair, P)


# -- discriminant-form isomorphism on generators ---------------------------------


def all_pairs_isomorphic(a, b) -> bool:
    """The search that disc_forms_isomorphic replaced: every bijective
    homomorphism given by generator images of the right orders is tested on
    q of every element and b of every pair of elements."""
    if sorted(a.orders) != sorted(b.orders):
        return False
    k = len(a.orders)
    b_elements = list(b.elements())
    candidates = [[e for e in b_elements if b.element_order(e) == d] for d in a.orders]
    a_elements = list(a.elements())
    for images in product(*candidates):
        phi = {
            g: tuple(sum(g[i] * images[i][t] for i in range(k)) % b.orders[t] for t in range(k))
            for g in a_elements
        }
        if len(set(phi.values())) != len(a_elements):
            continue
        if all(a.q_of(g) == b.q_of(phi[g]) for g in a_elements) and all(
            a.b_of(g, h) == b.b_of(phi[g], phi[h]) for g in a_elements for h in a_elements
        ):
            return True
    return False


def _block_sum(blocks):
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at : at + len(b)] = row
        at += len(b)
    return m


# <2n> and binary even forms [[2a, b], [b, 2c]]; at most two blocks and a
# group of order at most 24 keep the all-pairs search short
even_blocks = st.one_of(
    st.sampled_from([-12, -8, -6, -4, -2, 2, 4, 6, 8, 12]).map(lambda n: [[n]]),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    .map(lambda t: [[2 * t[0], t[1]], [t[1], 2 * t[2]]])
    .filter(lambda m: m[0][0] * m[1][1] != m[0][1] ** 2),
)
even_lattices = (
    st.lists(even_blocks, min_size=1, max_size=2)
    .map(_block_sum)
    .filter(lambda m: abs(row_by_row_det(m)) <= 24)
)


def _disc_form(m):
    return lattice_invariants(GramLattice.from_rows(m)).disc_form


@SETTINGS
@given(even_lattices, even_lattices, st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2))))
@example([[-12]], [[12]], [])
@example([[-2, 0], [0, 2]], [[2, 1], [1, -4]], [(0, 1, 1)])
@example([[4]], [[-4]], [])
def test_generator_isomorphism_matches_all_pairs(m, other, moves):
    fa, fb = _disc_form(m), _disc_form(other)
    assert disc_forms_isomorphic(fa, fb) == all_pairs_isomorphic(fa, fb)
    assert disc_forms_isomorphic(fa, fa.negated()) == all_pairs_isomorphic(fa, fa.negated())
    # a change of basis, row_i += c row_j and col_i += c col_j, keeps the form
    moved = [row[:] for row in m]
    n = len(moved)
    for i, j, c in moves:
        i, j = i % n, j % n
        if i != j:
            for t in range(n):
                moved[i][t] += c * moved[j][t]
            for t in range(n):
                moved[t][i] += c * moved[t][j]
    assert disc_forms_isomorphic(fa, _disc_form(moved))


# -- odd contact at a rational place -------------------------------------------

XYZ = ("x", "y", "z")
X, Y, Z = MPoly.gens(QSA, XYZ)
S, ALPHA = QSA.s(), QSA.alpha()


def _coeffs(with_alpha: bool):
    """a + b*alpha with a, b in QQ[s] of degree <= 1 (b = 0 without alpha):
    none has a pole, finitely many vanish at the place."""
    b = st.tuples(small_int, small_int) if with_alpha else st.just((0, 0))
    return st.tuples(small_int, small_int, b).map(
        lambda c: QSA.from_rat(c[0]) + S * c[1] + ALPHA * (QSA.from_rat(c[2][0]) + S * c[2][1])
    )


coeff_qsa = _coeffs(True)
nonzero_qsa = coeff_qsa.filter(lambda c: not c.is_zero())


def _binary_form(coeffs: list) -> MPoly:
    d = len(coeffs) - 1
    return sum((X ** i * Y ** (d - i) * c for i, c in enumerate(coeffs)), MPoly.zero(QSA, XYZ))


def _binary_forms(coeff, degree: int):
    return st.lists(coeff, min_size=2, max_size=degree + 1).map(_binary_form).filter(lambda q: not q.is_zero())


# q is kept linear over QQ(s) where the exact path must decide an odd form,
# which keeps these property tests short; the exact path on larger odd forms
# is pinned by the two tests at the end
quadratic_qsa = _binary_forms(coeff_qsa, 2)
linear_qs = _binary_forms(_coeffs(False), 1)
EXACT_SETTINGS = settings(SETTINGS, max_examples=30)


def _contact(form: MPoly):
    """even_contact_test on the line z = 0 of a branch curve whose restriction
    to it is the given binary form in x, y."""
    return even_contact_test(Z, BranchConfig("form", QSA, form, form, form, []))


def _exact_contact(form: MPoly):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cover, "_odd_at_place", lambda restriction, v: False)
        return _contact(form)


def _regular_at_place(form: MPoly) -> bool:
    try:
        return not specialize(form, *CONTACT_PLACE).is_zero()
    except ValueError:
        return False


def _assert_certificate(form: MPoly, result):
    flag, q, unit = result
    assert flag
    assert (q * q * unit - form).is_zero()


@EXACT_SETTINGS
@given(nonzero_qsa, quadratic_qsa)
def test_place_certificate_keeps_even_forms_even(u, q):
    # the certificate never fires, so the exact path decides
    form = q * q * u
    assert not _odd_at_place(form, "y")
    _assert_certificate(form, _contact(form))


@EXACT_SETTINGS
@given(nonzero_qsa, linear_qs, coeff_qsa)
def test_place_certificate_finds_an_odd_root(u, q, beta):
    form = q * q * u * (X - Y * beta)
    # a form of odd degree regular and nonzero at the place always has an
    # odd multiplicity there
    if _regular_at_place(form):
        assert _odd_at_place(form, "y")
    assert _contact(form) == _exact_contact(form) == (False, None, None)


@EXACT_SETTINGS
@given(nonzero_qsa, linear_qs)
def test_even_at_the_place_but_odd_generically_falls_back(u, q):
    # x - s y and x - 4/3 y meet at the place: the reduction is a square
    form = (X - Y * S) * (X - Y * CONTACT_PLACE[0]) * q * q * u
    assert not _odd_at_place(form, "y")
    assert _contact(form) == (False, None, None)


@pytest.mark.parametrize("power", [1, 2])
def test_pole_at_the_place_falls_back(power):
    # beta has a pole at s = 4/3, so the certificate cannot specialize
    beta = (S - CONTACT_PLACE[0]).inv() + ALPHA
    form = (X - Y * beta) ** power * (X + Y) ** 2
    assert not _regular_at_place(form)
    assert not _odd_at_place(form, "y")
    result = _contact(form)
    if power == 2:
        _assert_certificate(form, result)
    else:
        assert result == (False, None, None)


# u and the quadratic q below have coefficients of degree 2 in s and alpha;
# Yun's algorithm over QQ(m) decides these forms in seconds
U = S * S * 3 - S * 2 + 5 + (S - 7) * ALPHA


def test_exact_path_decides_an_odd_form_of_degree_5():
    q = X * X * (S * 2 + 1) + X * Y * (S * S - 3) + Y * Y * (S * 5 - 2)
    form = q * q * U * (X - Y * (S * 2 - 1 + ALPHA * 3))
    assert _exact_contact(form) == (False, None, None)


def test_exact_path_decides_a_form_even_at_the_place():
    # q is linear over QQ(s)(alpha); x - s y and x - 4/3 y meet at the place
    q = X * (ALPHA + 1) + Y * (S - ALPHA * 2)
    form = (X - Y * S) * (X - Y * CONTACT_PLACE[0]) * q * q * U
    assert not _odd_at_place(form, "y")
    assert _exact_contact(form) == (False, None, None)


# -- the QQ(t) kernel: c*P/Q over Z[t] -----------------------------------------


class FracPoly:
    """Dense polynomial over QQ with Fraction coefficients: the earlier
    representation of QQ[t], kept as the oracle of the integer kernel."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def is_one(self):
        return self.coeffs == (1,)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        return FracPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self):
        return FracPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return FracPoly(out)

    def scale(self, c):
        return FracPoly([x * c for x in self.coeffs])

    def divmod(self, other):
        rem, ob = list(self.coeffs), other.coeffs
        quot = [Fraction(0)] * max(len(rem) - len(ob) + 1, 0)
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + len(ob) - 1] / ob[-1]
            quot[k] = q
            for j, c in enumerate(ob):
                rem[k + j] -= q * c
        return FracPoly(quot), FracPoly(rem)

    def monic(self):
        return self.scale(1 / self.coeffs[-1])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        return str(QPoly(self.coeffs))


FP_ONE = FracPoly([1])


class FracRatFunc:
    """Reduced quotient of FracPolys with a monic denominator, reduced by the
    Euclidean gcd over QQ on every operation: the earlier QQ(t)."""

    def __init__(self, num, den=FP_ONE):
        if num.is_zero():
            den = FP_ONE
        else:
            g = num.gcd(den)
            num, den = num.divmod(g)[0], den.divmod(g)[0]
            lead = den.coeffs[-1]
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        self.num, self.den = num, den

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        return FracRatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return FracRatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FracRatFunc(self.num * other.num, self.den * other.den)

    def inv(self):
        return FracRatFunc(self.den, self.num)

    def eval(self, x):
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError("pole")
        return self.num.eval(x) / d

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        ns = f"({self.num})" if self.num.degree() > 0 else str(self.num)
        return f"{ns}/({self.den})"


def _frac_homogenize(p, num, den):
    """den^deg(p) * p(num/den)."""
    out, den_k = FracPoly([p.coeffs[-1]]), FP_ONE
    for c in reversed(p.coeffs[:-1]):
        den_k = den_k * den
        out = out * num + den_k.scale(c)
    return out


def _frac_substitute(p, q, num, den):
    """p(t)/q(t) at t = num/den."""
    if p.is_zero():
        return FracRatFunc(p)
    hp, hq = _frac_homogenize(p, num, den), _frac_homogenize(q, num, den)
    for _ in range(q.degree() - p.degree()):
        hp = hp * den
    for _ in range(p.degree() - q.degree()):
        hq = hq * den
    return FracRatFunc(hp, hq)


def _frac_reflect(p):
    return FracPoly([-c if i % 2 else c for i, c in enumerate(p.coeffs)])


def _frac_s_to_m(r):
    return _frac_substitute(r.num, r.den, FP_ONE, FracPoly([1, 0, -1]))


def _frac_m_to_s(r):
    """(a, b) over QQ(s) with r(m) = a + b*alpha, m^2 = (s - 1)/s, m = alpha/s."""
    d_neg = _frac_reflect(r.den)
    num, den = (r.num * d_neg).coeffs, (r.den * d_neg).coeffs
    t, s, den2 = FracPoly([-1, 1]), FracPoly([0, 1]), FracPoly(den[0::2])
    a = _frac_substitute(FracPoly(num[0::2]), den2, t, s)
    b = _frac_substitute(FracPoly(num[1::2]), den2, t, s)
    return a, b * FracRatFunc(FP_ONE, s)


def _frac_key_and_str(a, b):
    """FieldElement.sort_key and str of a + b*alpha, a and b FracRatFuncs."""
    key = (a.num.coeffs, a.den.coeffs, b.num.coeffs, b.den.coeffs)
    if b.is_zero():
        return key, str(a)
    if a.is_zero():
        return key, "alpha" if b == FracRatFunc(FP_ONE) else f"({b})*alpha"
    return key, f"{a} + ({b})*alpha"


def _assert_kernel_matches(new: RatFunc, old: FracRatFunc):
    # the same reduced fraction, printed alike; equal values are one canonical
    # form, so rebuilding from the oracle's form is syntactically equal
    assert new.num.coeffs == old.num.coeffs and new.den.coeffs == old.den.coeffs
    assert str(new) == str(old)
    rebuilt = RatFunc(QPoly(old.num.coeffs), QPoly(old.den.coeffs))
    assert new == rebuilt and hash(new) == hash(rebuilt)
    x = QS.from_ratfunc(new)
    assert (x.sort_key(), str(x)) == _frac_key_and_str(old, FracRatFunc(FracPoly([])))
    if len(old.num.coeffs) <= 1 and old.den.is_one():
        c = old.num.coeffs[0] if old.num.coeffs else Fraction(0)
        assert x == c and hash(x) == hash(c)


def _both(num, den):
    return RatFunc(QPoly(num), QPoly(den)), FracRatFunc(FracPoly(num), FracPoly(den))


kernel_coeff = st.one_of(small_int, st.builds(Fraction, small_int, st.integers(1, 4)))
kernel_poly = st.lists(kernel_coeff, max_size=4)
kernel_den = st.lists(kernel_coeff, min_size=1, max_size=3).filter(any)
ONE_MINUS_T2 = FracPoly([1, 0, -1])


@st.composite
def kernel_operands(draw):
    """Two elements of QQ(t) as (num, den) coefficient lists: independent,
    with equal denominators, one denominator dividing the other, with powers
    of (1 - t^2) as denominators, or summing to 0 or to a constant."""
    kind = draw(st.sampled_from(["any", "equal", "dividing", "one_minus_t2", "cancel"]))
    n1, d1, n2, d2 = draw(kernel_poly), draw(kernel_den), draw(kernel_poly), draw(kernel_den)
    if kind == "equal":
        d2 = d1
    elif kind == "dividing":
        d2 = (FracPoly(d1) * FracPoly(d2)).coeffs
    elif kind == "one_minus_t2":
        p1, p2 = FP_ONE, FP_ONE
        for _ in range(draw(st.integers(0, 3))):
            p1 = p1 * ONE_MINUS_T2
        for _ in range(draw(st.integers(0, 3))):
            p2 = p2 * ONE_MINUS_T2
        d1, d2 = (p1 * FracPoly(d1)).coeffs, p2.coeffs
    elif kind == "cancel":
        # y = c - x
        c = draw(st.one_of(st.just(Fraction(0)), kernel_coeff))
        y = FracRatFunc(FracPoly([c])) - FracRatFunc(FracPoly(n1), FracPoly(d1))
        n2, d2 = y.num.coeffs, y.den.coeffs
    return (n1, d1), (n2, d2)


KERNEL_POINTS = [Fraction(k) for k in (0, 1, -1, 2)] + [Fraction(-1, 2), Fraction(3, 4)]


@SETTINGS
@given(kernel_operands())
@example((([1], [1, 0, -1]), ([0, 1], [1, 0, -1])))
@example((([0, 2], [0, 0, 4]), ([-3], [-2, -1])))
@example((([1, 1], [-1, 0, 1]), ([-1, -1], [-1, 0, 1])))
def test_integer_ratfunc_kernel_matches_fraction_euclid(pair):
    (x, ox), (y, oy) = _both(*pair[0]), _both(*pair[1])
    for new, old in ((x, ox), (y, oy)):
        _assert_kernel_matches(new, old)
    _assert_kernel_matches(x + y, ox + oy)
    _assert_kernel_matches(x - y, ox - oy)
    _assert_kernel_matches(y - x, oy - ox)
    _assert_kernel_matches(x * y, ox * oy)
    _assert_kernel_matches(-x, -ox)
    if not y.is_zero():
        _assert_kernel_matches(y.inv(), oy.inv())
        _assert_kernel_matches(x / y, ox * oy.inv())
    # evaluation at rationals, poles included, and at m0 = alpha/2 of QQ(sqrt 2)
    for t0 in KERNEL_POINTS:
        try:
            expected = ox.eval(t0)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                x.eval(t0)
        else:
            assert x.eval(t0) == expected
    K = quadratic_field(2)
    m0 = K.alpha() * Fraction(1, 2)

    def horner(p):
        acc = K.zero
        for c in reversed(p.coeffs):
            acc = acc * m0 + c
        return acc

    assert x.eval(m0) == horner(ox.num) / horner(ox.den)
    # QQ(s) -> QQ(m) by s = 1/(1 - m^2); the pair (a, b) over QQ(s) that an
    # element of QQ(m) prints and sorts as
    xm = QSA.coerce(QS.from_ratfunc(x))
    oxm = _frac_s_to_m(ox)
    _assert_kernel_matches(xm.v, oxm)
    for elem, old in ((xm, oxm), (QSA.from_ratfunc(x), ox)):
        assert (elem.sort_key(), str(elem)) == _frac_key_and_str(*_frac_m_to_s(old))


# -- gcds over QQ: the primitive PRS in Z[x] -----------------------------------


def _euclid_gcd(a: FracPoly, b: FracPoly) -> list:
    """The monic gcd by Euclid on Fraction coefficients, the path gcds over
    QQ took before the primitive PRS ([] for two zeros)."""
    if a.is_zero() and b.is_zero():
        return []
    return [QQ.from_rat(c) for c in a.gcd(b).coeffs]


dense_q = st.lists(rationals, max_size=5)


@SETTINGS
@given(dense_q, dense_q, st.one_of(st.none(), st.lists(rationals, min_size=2, max_size=3)))
@example([], [], None)
@example([], [Fraction(3, 2)], None)
@example([Fraction(2, 3), Fraction(-1, 5)], [Fraction(7), Fraction(1, 2), Fraction(3)], None)
@example([Fraction(1, 2), Fraction(2, 3)], [Fraction(0), Fraction(-4, 9)], [Fraction(1, 3), Fraction(5, 7)])
def test_qq_gcd_matches_fraction_euclid(a, b, common):
    # zero inputs, constant gcds, non-monic rational inputs and, when common
    # has positive degree, a planted common factor
    a, b = FracPoly(a), FracPoly(b)
    planted = FracPoly(common or [])
    if planted.degree() > 0:
        a, b = a * planted, b * planted
    expected = _euclid_gcd(a, b)
    ea, eb = ([QQ.from_rat(c) for c in p.coeffs] for p in (a, b))
    assert _dense_gcd(ea, eb, QQ) == expected
    pa, pb = (MPoly.from_dense(QQ, ("x",), "x", e) for e in (ea, eb))
    if not expected:
        with pytest.raises(ValueError):
            gcd_poly(pa, pb)
        return
    assert gcd_poly(pa, pb) == MPoly.from_dense(QQ, ("x",), "x", expected)
    if planted.degree() > 0:
        assert len(expected) > planted.degree()


# -- exact division in Z[t] ----------------------------------------------------


def test_zquo_divides_exactly_or_raises():
    # a divisor that is neither primitive nor monic, as a Bareiss pivot
    assert _zquo(_zmul((2, -3, 1), (-6, 4)), (-6, 4)) == (2, -3, 1)
    # constants other than 1
    assert _zquo((6, -9, 3), (3,)) == (2, -3, 1)
    assert _zquo((6, -9, 3), (-3,)) == (-2, 3, -1)
    assert _zquo((), (5, 1)) == ()
    # a remainder in the leading step, in the low coefficients, a divisor of
    # higher degree, and a rational quotient
    for a, b in [((1, 2, 1), (2,)), ((1, 0, 1), (1, 1)), ((3,), (1, 1)), ((2, 2), (2, 4))]:
        with pytest.raises(ValueError, match="inexact"):
            _zquo(a, b)


int_poly = st.lists(st.integers(-3, 3), max_size=3).map(
    lambda cs: tuple(cs[: max((i + 1 for i, c in enumerate(cs) if c), default=0)])
)


@SETTINGS
@given(int_poly.filter(bool), int_poly.filter(bool))
def test_zquo_inverts_zmul(a, b):
    assert _zquo(_zmul(a, b), b) == a


# -- resultants over QQ(s) by specialization -----------------------------------


def _qs_coeff(num, pole):
    """A coefficient of QQ(s): a polynomial in s, over (s + pole) if given."""
    return QS.from_ratfunc(RatFunc(QPoly(num), QPoly([pole, 1]) if pole else QPoly([1])))


qs_coeff = st.builds(_qs_coeff, st.lists(small_int, min_size=1, max_size=2), st.sampled_from([None, 2, -3]))
poly_qs = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), qs_coeff, min_size=1, max_size=4
).map(lambda terms: MPoly(QS, ("x", "y"), {e: c for e, c in terms.items() if not c.is_zero()}))
RESULTANT_POINTS = [Fraction(k) for k in (0, 1, -1, 2, 3)] + [Fraction(1, 2)]


@SETTINGS
@given(poly_qs, poly_qs)
@example(
    MPoly(QS, ("x", "y"), {(2, 0): QS.s(), (0, 1): QS.one}),
    MPoly(QS, ("x", "y"), {(1, 1): QS.s() - 1, (0, 0): (QS.s() + 2).inv()}),
)
def test_qs_resultant_specializes_to_qq_resultant(p, q):
    # the Sylvester matrix specializes entrywise wherever neither
    # x-degree drops, so the determinant does
    if p.degree_in("x") < 1 or q.degree_in("x") < 1:
        return
    res = resultant(p, q, "x")
    for s0 in RESULTANT_POINTS:
        try:
            p0, q0, res0 = specialize(p, s0), specialize(q, s0), specialize(res, s0)
        except ValueError:
            continue
        if p0.degree_in("x") == p.degree_in("x") and q0.degree_in("x") == q.degree_in("x"):
            assert resultant(p0, q0, "x") == res0
