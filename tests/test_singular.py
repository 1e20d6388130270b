import random

import pytest

from k3pencil import QQ, QS, MPoly, parse_poly
from k3pencil.pencil import (
    GENERIC_BRANCH_POINTS,
    QUARTIC_SINGULAR_TABLE,
    branch_cubic,
    branch_sextic,
    branch_sextic_at,
    fiber_singular_table,
    radical_quartic,
)
from k3pencil.singular import (
    ProjPoint,
    branch_ade_type,
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


def test_branch_ade_type():
    assert branch_ade_type(1) == 1
    assert branch_ade_type(2) == 3
    assert branch_ade_type(3) == 5
    with pytest.raises(ValueError):
        branch_ade_type(0)


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
        for coords, k in fiber_singular_table(s0):
            assert double_cover_type(sex, ProjPoint(QQ, coords)).k == k


def test_curve_intersections_certificate():
    g0, g1 = branch_cubic(0), branch_cubic(1)
    claimed = [(ProjPoint(QS, c), m) for c, m in GENERIC_BRANCH_POINTS]
    rep = verify_curve_intersections(g0, g1, claimed)
    assert rep.ok
    wrong = [(ProjPoint(QS, c), m) for c, m in GENERIC_BRANCH_POINTS[:-1]]
    rep = verify_curve_intersections(g0, g1, wrong)
    assert not rep.ok


def test_non_homogeneous_rejected():
    f = parse_poly("x^2 + y", QQ, ("x", "y", "z"))
    with pytest.raises(ValueError):
        verify_singular_locus(f, [])
