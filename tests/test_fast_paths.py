"""Differential property tests: each fast path of the elimination cascade
against the exact path it replaces or the known answer.

* integer Bareiss (resultants over QQ) vs the generic MPoly Bareiss;
* the QQ(s) coprimality certificate in gcd_poly vs the Euclidean gcd;
* the series Newton loop of milnor_ade_classify on A_k normal forms moved
  by a random invertible linear change and translation.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from k3pencil import QQ, QS, MPoly
from k3pencil.field import QPoly, RatFunc
from k3pencil.polyops import (
    COPRIME_TEST_POINTS,
    _bareiss_det,
    _bareiss_det_int,
    _coprime_by_specialization,
    _dense_gcd,
    _sylvester_rows,
    gcd_poly,
    resultant,
)
from k3pencil.singular import milnor_ade_classify

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


# -- integer Bareiss -----------------------------------------------------------


def _poly_xy(coeffs: dict) -> MPoly:
    return MPoly(QQ, ("x", "y"), {e: QQ.from_rat(c) for e, c in coeffs.items()})


poly_xy = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), rationals, min_size=1, max_size=7
).map(_poly_xy)


@SETTINGS
@given(poly_xy, poly_xy)
@example(_poly_xy({(2, 0): Fraction(1, 2), (0, 1): Fraction(3)}), _poly_xy({(2, 1): Fraction(2, 3), (0, 0): Fraction(1)}))
def test_integer_resultant_matches_generic_bareiss(p, q):
    m, n = p.degree_in("x"), q.degree_in("x")
    if m < 1 or n < 1:
        return
    zero = MPoly.zero(QQ, p.vars)
    pc, qc = p.coeffs_in("x"), q.coeffs_in("x")
    rows = _sylvester_rows(
        [pc.get(k, zero) for k in range(m + 1)], [qc.get(k, zero) for k in range(n + 1)], zero
    )
    assert resultant(p, q, "x") == _bareiss_det(rows, QQ, p.vars)


int_poly = st.lists(st.integers(-3, 3), max_size=3).map(
    lambda cs: cs[: max((i + 1 for i, c in enumerate(cs) if c), default=0)]
)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(int_poly, min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[[], [1]], [[2], []]])
@example([[[1], [2]], [[2], [4]]])
def test_integer_bareiss_matches_generic_bareiss(matrix):
    # arbitrary square matrices over Z[y], many zero entries: row swaps on
    # zero pivots and singular matrices
    vars = ("y",)
    rows = [[MPoly.from_dense(QQ, vars, "y", ent) for ent in row] for row in matrix]
    expected = _bareiss_det(rows, QQ, vars)
    assert MPoly.from_dense(QQ, vars, "y", _bareiss_det_int(matrix)) == expected


# -- the QQ(s) coprimality certificate ----------------------------------------


def _s_poly(cs) -> RatFunc:
    return RatFunc(QPoly(cs))


S_MINUS = [_s_poly([-c, 1]) for c in COPRIME_TEST_POINTS]
coeff_qs = st.lists(small_int, min_size=1, max_size=3).map(lambda cs: QS.from_ratfunc(_s_poly(cs)))
dense_qs = st.lists(coeff_qs, min_size=2, max_size=4).filter(lambda cs: not cs[-1].is_zero())


def _mul_dense(a: list, b: list) -> list:
    out = [QS.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@SETTINGS
@given(
    dense_qs,
    dense_qs,
    st.one_of(st.none(), st.lists(coeff_qs, min_size=2, max_size=2).filter(lambda cs: not cs[-1].is_zero())),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_qs_gcd_certificate_matches_euclid(a, b, common, lc_zeros, pole_zeros):
    # the leading coefficients of a, b and the common factor vanish at the
    # first lc_zeros test points, and a has a pole at the first pole_zeros of
    # them: the certificate must skip those points
    vanish = QS.one
    for f in S_MINUS[:lc_zeros]:
        vanish = vanish * QS.from_ratfunc(f)
    a = a[:-1] + [a[-1] * vanish]
    b = b[:-1] + [b[-1] * vanish]
    for f in S_MINUS[:pole_zeros]:
        a[0] = a[0] + QS.from_ratfunc(f).inv()
    if common is not None:
        common = [common[0], common[1] * vanish]
        a, b = _mul_dense(a, common), _mul_dense(b, common)
    euclid = _dense_gcd(a, b, QS)
    if _coprime_by_specialization(a, b):
        assert len(euclid) == 1
    if common is not None:
        assert not _coprime_by_specialization(a, b)
    vars = ("x",)
    pa, pb = MPoly.from_dense(QS, vars, "x", a), MPoly.from_dense(QS, vars, "x", b)
    assert gcd_poly(pa, pb) == MPoly.from_dense(QS, vars, "x", euclid)


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


# -- the series Newton loop of the A_k classifier ------------------------------

VARS = ("x", "y", "z")


def _a_k_moved(field, k, c, M, P):
    """X^2 + Y^2 + Z^(k+1) + c X Z^j with (X, Y, Z) = M (v - P): an A_k point
    at P.  2j > k + 1, so completing the square in X leaves the type alone
    while the critical section becomes nonlinear."""
    gens = MPoly.gens(field, VARS)
    shifted = [g - p for g, p in zip(gens, P)]
    X, Y, Z = [sum((shifted[j] * M[i][j] for j in range(3)), MPoly.zero(field, VARS)) for i in range(3)]
    j = (k + 1) // 2 + 1
    return X * X + Y * Y + Z ** (k + 1) + X * Z ** j * c


def _det3(M):
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


@SETTINGS
@given(
    st.sampled_from([QQ, QS]),
    st.integers(1, 6),
    st.lists(rationals, min_size=9, max_size=9),
    st.lists(st.tuples(small_int, st.integers(-1, 1)), min_size=4, max_size=4),
    st.integers(0, 3),
)
def test_series_milnor_on_moved_normal_forms(field, k, m_entries, s_entries, spare):
    # the linear change is over QQ; the translation and the perturbation
    # carry s over QQ(s) (a generic change over QQ(s) makes the rational
    # function coefficients grow beyond what a test can wait for).  The jet
    # order is k + 1, the least that sees the kernel term, plus a spare.
    M = [[m_entries[3 * i + j] for j in range(3)] for i in range(3)]
    if _det3(M) == 0:
        return
    c, *P = [field.from_rat(a) + (field.s() * b if field.with_s else field.zero) for a, b in s_entries]
    f = _a_k_moved(field, k, c, M, P)
    assert milnor_ade_classify(f, P, jet_order=k + 1 + spare).k == k
    if k > 1:
        with pytest.raises(ValueError, match="jet order"):
            milnor_ade_classify(f, P, jet_order=k)
