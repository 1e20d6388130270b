import random

import pytest

from cascade_oracle import cascade_locus
from k3pencil import QQ, QS, MPoly, parse_poly, singular
from k3pencil.pencil import (
    GENERIC_BRANCH_POINTS,
    QUARTIC_SINGULAR_TABLE,
    branch_cubic,
    branch_cubic_at,
    branch_sextic,
    branch_sextic_at,
    fiber_singular_table,
    radical_quartic,
)
from k3pencil.singular import (
    ProjPoint,
    SingularityReport,
    _jacobian_basis,
    _reduce,
    _spoly,
    branch_ade_type,
    certify_affine_solutions,
    double_cover_type,
    intersection_multiplicity,
    milnor_ade_classify,
    multiplicity_at,
    verify_curve_intersections,
    verify_singular_locus,
)


def test_projpoint_normalization():
    p = ProjPoint(QQ, (2, 4, 6))
    q = ProjPoint(QQ, (1, 2, 3))
    assert p == q and hash(p) == hash(q)
    with pytest.raises(ValueError):
        ProjPoint(QQ, (0, 0, 0))


# -- milnor / A_k classification ------------------------------------------------


def test_morse_point_is_a1():
    f = parse_poly("x^2 + y^2 + z^2", QQ, ("x", "y", "z"))
    rep = milnor_ade_classify(f, (0, 0, 0))
    assert rep.k == 1 and rep.milnor_number == 1


def test_quartic_origin_is_a3():
    Q = radical_quartic()
    aff = Q.set_var("v", QQ.one).drop_vars(["v"])
    rep = milnor_ade_classify(aff, (0, 0, 0))
    assert rep.k == 3


def test_quartic_table_types():
    Q = radical_quartic()
    got = []
    for coords, k in QUARTIC_SINGULAR_TABLE:
        P = ProjPoint(QQ, coords)
        i = next(j for j, c in enumerate(P.coords) if not c.is_zero())
        chart = Q.vars[i]
        aff = Q.set_var(chart, QQ.one).drop_vars([chart])
        pc = [P.coords[j] for j in range(4) if j != i]
        got.append(milnor_ade_classify(aff, pc).k)
    assert got == [k for _, k in QUARTIC_SINGULAR_TABLE]
    assert sorted(got) == [1, 1, 1, 2, 2, 2, 2, 3]


def test_double_cover_a5_at_first_base_point():
    rep = double_cover_type(branch_sextic(), ProjPoint(QS, (1, 0, 0)))
    assert rep.k == 5


def test_milnor_rejects_noncritical():
    f = parse_poly("x + y^2", QQ, ("x", "y"))
    with pytest.raises(ValueError):
        milnor_ade_classify(f, (0, 0))
    with pytest.raises(ValueError):
        milnor_ade_classify(parse_poly("x^2 + 1", QQ, ("x", "y")), (0, 0))


def test_milnor_corank_two_rejected():
    f = parse_poly("x^3 + y^3", QQ, ("x", "y"))
    with pytest.raises(ValueError, match="corank"):
        milnor_ade_classify(f, (0, 0))


@pytest.mark.parametrize("jet_order", [0, 1])
def test_milnor_rejects_a_jet_without_the_quadratic_part(jet_order):
    # truncating below degree 2 would report this Morse point as corank 2
    f = parse_poly("x^2 + y^2", QQ, ("x", "y"))
    with pytest.raises(ValueError, match=f"jet order {jet_order}"):
        milnor_ade_classify(f, (0, 0), jet_order=jet_order)
    assert milnor_ade_classify(f, (0, 0), jet_order=2).k == 1


def test_branch_ade_type():
    assert branch_ade_type(1) == 1
    assert branch_ade_type(2) == 3
    assert branch_ade_type(3) == 5
    with pytest.raises(ValueError):
        branch_ade_type(0)


def _cover_type_on_the_surface(sextic, P):
    """The oracle: A_k of the cover's local equation w^2 - sextic in the
    affine chart at P, with w a new variable."""
    affine, coords = P.affine(sextic)
    wvars = affine.vars + ("w_cov",)
    w = MPoly.variable(affine.field, wvars, "w_cov")
    local = w * w - affine.with_vars(wvars)
    return milnor_ade_classify(local, coords + [affine.field.zero]).k


def test_cover_type_on_the_branch_curve_matches_the_surface():
    points = [(branch_sextic(), ProjPoint(QS, c)) for c, _ in GENERIC_BRANCH_POINTS]
    for s0 in (1, -1):
        sex = branch_sextic_at(s0)
        points += [(sex, ProjPoint(QQ, c)) for c, _ in fiber_singular_table(s0)]
    assert len(points) == 4 + 7 + 5
    for sextic, P in points:
        assert double_cover_type(sextic, P).k == _cover_type_on_the_surface(sextic, P)


def test_cover_types_match_branch_rule():
    sex = branch_sextic()
    for coords, m in GENERIC_BRANCH_POINTS:
        rep = double_cover_type(sex, ProjPoint(QS, coords))
        assert rep.k == branch_ade_type(m)


# -- intersection multiplicities ---------------------------------------------------


def test_transverse_lines():
    x = parse_poly("x", QQ, ("x", "y", "z"))
    y = parse_poly("y", QQ, ("x", "y", "z"))
    P = ProjPoint(QQ, (0, 0, 1))
    assert intersection_multiplicity(x, y, P) == 1


def test_branch_intersection_table():
    g0, g1 = branch_cubic(0), branch_cubic(1)
    for coords, m in GENERIC_BRANCH_POINTS:
        P = ProjPoint(QS, coords)
        assert intersection_multiplicity(g0, g1, P) == m
        assert intersection_multiplicity(g1, g0, P) == m
    assert sum(m for _, m in GENERIC_BRANCH_POINTS) == 9


def test_intersection_symmetry_randomized():
    rng = random.Random(17)
    P = ProjPoint(QQ, (0, 0, 1))
    for _ in range(25):

        def rand_curve():
            out = MPoly.zero(QQ, ("x", "y"))
            for e in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3)]:
                c = rng.randint(-2, 2)
                if c:
                    out = out + MPoly(QQ, ("x", "y"), {e: QQ.from_rat(c)})
            return out

        f, g = rand_curve(), rand_curve()
        if f.is_zero() or g.is_zero():
            continue
        fH = f.homogenize("z")
        gH = g.homogenize("z")
        try:
            a = intersection_multiplicity(fH, gH, P)
        except ValueError:
            continue
        b = intersection_multiplicity(gH, fH, P)
        assert a == b


def test_common_component_errors():
    f = parse_poly("x*y", QQ, ("x", "y", "z"))
    g = parse_poly("x*z", QQ, ("x", "y", "z"))
    P = ProjPoint(QQ, (0, 0, 1))
    with pytest.raises(ValueError, match="infinite"):
        intersection_multiplicity(f, g, P)


def test_multiplicity_at():
    f = parse_poly("x^2*z - y^3", QQ, ("x", "y", "z"))
    assert multiplicity_at(f, ProjPoint(QQ, (0, 0, 1))) == 2
    assert multiplicity_at(f, ProjPoint(QQ, (1, 1, 1))) == 1


# -- singular locus completeness --------------------------------------------------


def test_quartic_locus_complete():
    Q = radical_quartic()
    pts = [ProjPoint(QQ, c) for c, _ in QUARTIC_SINGULAR_TABLE]
    rep = verify_singular_locus(Q, pts)
    assert rep.ok, rep.witness


def test_quartic_locus_fails_with_missing_point():
    Q = radical_quartic()
    pts = [ProjPoint(QQ, c) for c, _ in QUARTIC_SINGULAR_TABLE[:-1]]
    rep = verify_singular_locus(Q, pts)
    assert not rep.ok and rep.witness


def test_quartic_locus_fails_with_wrong_point():
    Q = radical_quartic()
    pts = [ProjPoint(QQ, c) for c, _ in QUARTIC_SINGULAR_TABLE] + [ProjPoint(QQ, (1, 2, 3, 1))]
    rep = verify_singular_locus(Q, pts)
    assert not rep.ok


def test_branch_cubics_smooth_generically():
    for i in (0, 1):
        rep = verify_singular_locus(branch_cubic(i), [])
        assert rep.ok


def test_special_fiber_tables_complete():
    for s0 in (1, -1):
        sex = branch_sextic_at(s0)
        pts = [ProjPoint(QQ, c) for c, _ in fiber_singular_table(s0)]
        rep = verify_singular_locus(sex, pts)
        assert rep.ok, (s0, rep.witness)
        table_k = [k for _, k in fiber_singular_table(s0)]
        assert [(r.point, r.k) for r in rep.verified] == list(zip(pts, table_k))
        for coords, k in fiber_singular_table(s0):
            assert double_cover_type(sex, ProjPoint(QQ, coords)).k == k


def _table_points(table):
    return [ProjPoint(QQ, c) for c, _ in table]


#: The five loci the CLI certifies, then the two negative tables: the quartic
#: without its last point, and with the non-singular point (1 : 2 : 3 : 1).
LOCI = {
    "quartic": (radical_quartic, _table_points(QUARTIC_SINGULAR_TABLE)),
    "fibre s=1": (lambda: branch_sextic_at(1), _table_points(fiber_singular_table(1))),
    "fibre s=-1": (lambda: branch_sextic_at(-1), _table_points(fiber_singular_table(-1))),
    "G0 over QQ(s)": (lambda: branch_cubic(0), []),
    "G1 over QQ(s)": (lambda: branch_cubic(1), []),
    "quartic, missing point": (radical_quartic, _table_points(QUARTIC_SINGULAR_TABLE[:-1])),
    "quartic, extra point": (
        radical_quartic,
        _table_points(QUARTIC_SINGULAR_TABLE) + [ProjPoint(QQ, (1, 2, 3, 1))],
    ),
}


@pytest.mark.parametrize("name", LOCI)
def test_certificate_agrees_with_the_cascade(name):
    form, pts = LOCI[name]
    F = form()
    rep = verify_singular_locus(F, pts)
    ok, witness = cascade_locus(F, pts)
    assert rep.ok == ok == ("point" not in name), (rep.witness, witness)


#: The Groebner bases the certificate builds on the five loci, with their l;
#: the branch cubics at s0 = 3, the first value of SMOOTHNESS_S_VALUES.
BASES = {
    "quartic": (radical_quartic, (1, 2, 3, 5)),
    "fibre s=1": (lambda: branch_sextic_at(1), (1, 2, 3)),
    "fibre s=-1": (lambda: branch_sextic_at(-1), (1, 2, 3)),
    "G0 at s=3": (lambda: branch_cubic_at(0, 3), (1, 2, 3)),
    "G1 at s=3": (lambda: branch_cubic_at(1, 3), (1, 2, 3)),
}


@pytest.mark.parametrize("name", BASES)
def test_every_s_pair_reduces_to_zero(name):
    form, ell = BASES[name]
    basis = _jacobian_basis(form(), ell)
    assert all(
        not _reduce(_spoly(p, q), basis) for i, p in enumerate(basis) for q in basis[i + 1 :]
    )


def test_lengths_equal_the_tables_sums():
    for form, table in (
        (radical_quartic(), QUARTIC_SINGULAR_TABLE),
        (branch_sextic_at(1), fiber_singular_table(1)),
        (branch_sextic_at(-1), fiber_singular_table(-1)),
    ):
        reports = [SingularityReport(ProjPoint(QQ, c), k) for c, k in table]
        assert certify_affine_solutions(form, reports) == (True, None)
        # one unit more or less in the sum is a failure
        for shift in (-1, 1):
            bent = reports[:-1] + [SingularityReport(reports[-1].point, reports[-1].k + shift)]
            ok, witness = certify_affine_solutions(form, bent)
            assert not ok and "length" in witness


def test_a_point_listed_twice_does_not_stand_for_a_dropped_one():
    # (1 : -1 : 0 : 0) is dropped and the A_1 point (0 : 0 : 1 : 0) listed
    # twice: the sum of k is still 14
    table = QUARTIC_SINGULAR_TABLE[:-1] + (((0, 0, 1, 0), 1),)
    rep = verify_singular_locus(radical_quartic(), _table_points(table))
    assert not rep.ok and "twice" in rep.witness


def test_a_classifier_one_short_fails(monkeypatch):
    classify = singular.milnor_ade_classify

    def one_short(f, point, *args):
        rep = classify(f, point, *args)
        return SingularityReport(rep.point, rep.k - (rep.k == 3))

    monkeypatch.setattr(singular, "milnor_ade_classify", one_short)
    rep = verify_singular_locus(radical_quartic(), _table_points(QUARTIC_SINGULAR_TABLE))
    assert not rep.ok and "length 14" in rep.witness
    assert sorted(r.k for r in rep.verified) == [1, 1, 1, 2, 2, 2, 2, 2]


def test_a_non_isolated_singular_locus_fails():
    F = parse_poly("x^2 * (y^2 + z^2 - 2*x^2)", QQ, ("x", "y", "z"))
    for pts in ([], [ProjPoint(QQ, (0, 0, 1))], [ProjPoint(QQ, (0, 1, 0)), ProjPoint(QQ, (0, 1, 1))]):
        rep = verify_singular_locus(F, pts)
        assert not rep.ok and rep.witness


def test_no_linear_form_off_the_candidates_fails(monkeypatch):
    # (1, 1, 1, 1) vanishes at (0 : 1 : -1 : 0)
    monkeypatch.setattr(singular, "LINEAR_FORMS", ((1, 1, 1, 1),))
    rep = verify_singular_locus(radical_quartic(), _table_points(QUARTIC_SINGULAR_TABLE))
    assert not rep.ok and "LINEAR_FORMS" in rep.witness


def test_a_missing_point_on_the_plane_l_fails(monkeypatch):
    # l = x + y + 2z + 3v vanishes at the dropped A_1 point (1 : -1 : 0 : 0)
    # and at no other point of the table, so l is used; the point is found
    # by the pure-power test, as the saturation no longer sees it
    monkeypatch.setattr(singular, "LINEAR_FORMS", ((1, 1, 2, 3),))
    rep = verify_singular_locus(radical_quartic(), _table_points(QUARTIC_SINGULAR_TABLE[:-1]))
    assert not rep.ok and "meets the plane (1, 1, 2, 3)" in rep.witness


def test_a_family_singular_for_every_s_fails():
    F = parse_poly("x*y*z + s*(x^3 + y^3)", QS, ("x", "y", "z"))
    rep = verify_singular_locus(F, [])
    assert not rep.ok and "each s" in rep.witness
    rep = verify_singular_locus(F, [ProjPoint(QS, (0, 0, 1))])
    assert not rep.ok and "Q(s)" in rep.witness


def test_a_singular_specialization_is_inconclusive(monkeypatch):
    # G1 is singular at s = 2, smooth at s = 3
    assert not certify_affine_solutions(branch_cubic_at(1, 2), [])[0]
    monkeypatch.setattr(singular, "SMOOTHNESS_S_VALUES", (2, 3))
    assert verify_singular_locus(branch_cubic(1), []).ok
    monkeypatch.setattr(singular, "SMOOTHNESS_S_VALUES", (2,))
    assert not verify_singular_locus(branch_cubic(1), []).ok


def test_curve_intersections_certificate():
    g0, g1 = branch_cubic(0), branch_cubic(1)
    claimed = [(ProjPoint(QS, c), m) for c, m in GENERIC_BRANCH_POINTS]
    rep = verify_curve_intersections(g0, g1, claimed)
    assert rep.ok
    wrong = [(ProjPoint(QS, c), m) for c, m in GENERIC_BRANCH_POINTS[:-1]]
    rep = verify_curve_intersections(g0, g1, wrong)
    assert not rep.ok


def test_curve_intersections_need_distinct_points():
    # the first point of multiplicity 3 listed twice, the second dropped:
    # every multiplicity matches and the total is still 9
    g0, g1 = branch_cubic(0), branch_cubic(1)
    claimed = [(ProjPoint(QS, c), m) for c, m in GENERIC_BRANCH_POINTS]
    assert [m for _, m in claimed[:2]] == [3, 3]
    rep = verify_curve_intersections(g0, g1, [claimed[0], claimed[0]] + claimed[2:])
    assert not rep.ok and rep.witness == "a point is listed twice"


def test_curve_intersections_raise_on_a_common_component():
    # the conic y z - x^2 divides both cubics; (0 : 0 : 1) lies on it
    f = parse_poly("(y*z - x^2)*(x + y + z)", QQ, ("x", "y", "z"))
    g = parse_poly("(y*z - x^2)*(x - 2*y + 3*z)", QQ, ("x", "y", "z"))
    with pytest.raises(ValueError, match="common component"):
        verify_curve_intersections(f, g, [(ProjPoint(QQ, (0, 0, 1)), 9)])


def test_non_homogeneous_rejected():
    f = parse_poly("x^2 + y", QQ, ("x", "y", "z"))
    with pytest.raises(ValueError):
        verify_singular_locus(f, [])
    with pytest.raises(ValueError):
        verify_curve_intersections(f, parse_poly("x^3 + y^3 + z^3", QQ, ("x", "y", "z")), [])
