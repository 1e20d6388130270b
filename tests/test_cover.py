from fractions import Fraction
from types import SimpleNamespace

import pytest

from k3pencil import QQ, QSA, MPoly, cover, parse_poly
from k3pencil.cover import (
    BranchConfig,
    REFERENCE_LINE_MATRIX,
    chain_model_check,
    cremona_map,
    cremona_pullback_check,
    derive_lift,
    even_contact_test,
    fiber_lines,
    generic_lines,
    lifted_line_intersection,
    line_matrix,
    verify_component_lift,
)
from k3pencil.pencil import branch_cubic


@pytest.fixture(scope="module")
def cfg():
    return BranchConfig.generic()


@pytest.fixture(scope="module")
def lines():
    return generic_lines()


def test_branch_config_consistency(cfg):
    assert cfg.sextic == cfg.g0 * cfg.g1
    assert cfg.g0.total_degree() == 3 and cfg.g1.total_degree() == 3


def test_even_contact_all_lines(cfg, lines):
    for ll in lines:
        flag, q, unit = even_contact_test(ll.line, cfg)
        assert flag, ll.label
        # certificate: restriction = unit * q^2
        from k3pencil.singular import restrict_to_line

        restriction, _ = restrict_to_line(cfg.sextic, ll.line)
        assert (q * q * unit - restriction).is_zero()


def test_even_contact_scaling_invariance(cfg, lines):
    scaled = lines[3].line * QSA.from_rat(Fraction(7, 3))
    flag, _, _ = even_contact_test(scaled, cfg)
    assert flag


def test_even_contact_counterexample(cfg):
    x, y, z = MPoly.gens(QSA, ("x", "y", "z"))
    flag, _, _ = even_contact_test(z - x - 2 * y, cfg)
    assert not flag


def test_control_line_decided_at_the_place(cfg, monkeypatch):
    # the odd contact of z = x + 2y is proved at CONTACT_PLACE over QQ:
    # Yun's algorithm over QQ(s)(alpha) never runs
    exact = cover.squarefree_decomposition

    def over_qq_only(p):
        if p.field == QSA:
            raise AssertionError("squarefree decomposition over QQ(s)(alpha)")
        return exact(p)

    monkeypatch.setattr(cover, "squarefree_decomposition", over_qq_only)
    x, y, z = MPoly.gens(QSA, ("x", "y", "z"))
    assert even_contact_test(z - x - 2 * y, cfg) == (False, None, None)


@pytest.mark.parametrize(
    "sextic, q, unit", [("x^6", "x^3", 1), ("y^6", "y^3", 1), ("3*x^6", "x^3", 3)]
)
def test_even_contact_of_a_restriction_in_one_coordinate(sextic, q, unit):
    # on the line z = 0 these restrictions involve one kept coordinate only
    xyz = ("x", "y", "z")
    config = SimpleNamespace(sextic=parse_poly(sextic, QQ, xyz))
    z = MPoly.variable(QQ, xyz, "z")
    assert even_contact_test(z, config) == (True, parse_poly(q, QQ, xyz), unit)


def test_line_component_of_sextic_rejected():
    cfg1 = BranchConfig.at(1)
    x, y, z = MPoly.gens(QQ, ("x", "y", "z"))
    with pytest.raises(ValueError, match="component"):
        even_contact_test(z - x - y, cfg1)


def test_component_lifts_all_pass(cfg, lines):
    for ll in lines:
        ok, residual = verify_component_lift(ll, cfg)
        assert ok, (ll.label, str(residual))


def test_wrong_lift_fails(cfg, lines):
    from k3pencil.cover import LiftedLine

    x, y, z = MPoly.gens(QSA, ("x", "y", "z"))
    bad = LiftedLine("L1", z, x * y * (x + y))
    ok, residual = verify_component_lift(bad, cfg)
    assert not ok
    assert residual == -3 * (x * y * (x + y)) ** 2


def test_line_matrix_equals_reference(cfg, lines):
    m = line_matrix(lines, cfg)
    assert tuple(tuple(r) for r in m) == REFERENCE_LINE_MATRIX


def test_specific_entries(cfg, lines):
    by = {ll.label: ll for ll in lines}
    assert lifted_line_intersection(by["L4"], by["L6"], cfg) == 1
    assert lifted_line_intersection(by["L1"], by["L2"], cfg) == 0
    assert lifted_line_intersection(by["L5"], by["L7"], cfg) == 1
    with pytest.raises(ValueError):
        lifted_line_intersection(by["L1"], by["L1"], cfg)


def test_excluded_points_rule(cfg, lines):
    # L6 and L8 meet in the generic plane point with both sheets agreeing; an
    # empty excluded list must not change entries that involve no base point
    by = {ll.label: ll for ll in lines}
    assert lifted_line_intersection(by["L6"], by["L8"], cfg, excluded=[]) == 1
    # L1 meets L2 in (0:1:0), one of the base points: excluded by default
    assert lifted_line_intersection(by["L1"], by["L2"], cfg, excluded=[]) == 1
    assert lifted_line_intersection(by["L1"], by["L2"], cfg) == 0


def test_fiber_lines_s1_derived():
    cfg1 = BranchConfig.at(1)
    lines1 = fiber_lines(1)
    assert [ll.label for ll in lines1] == ["L1", "L2", "L3", "L4", "L5"]
    for ll in lines1:
        ok, _ = verify_component_lift(ll, cfg1)
        assert ok, ll.label


def test_fiber_lines_sm1_specialized():
    cfgm = BranchConfig.at(-1)
    linesm = fiber_lines(-1)
    assert len(linesm) == 8
    for ll in linesm:
        ok, _ = verify_component_lift(ll, cfgm)
        assert ok, ll.label


def test_chain_model():
    rep = chain_model_check()
    assert rep.ok, rep.residuals


def test_cremona_degree_bookkeeping():
    assert 2 * 4 - (2 + 2 + 1) == 3


def test_cremona_pullbacks():
    for i in (0, 1):
        rep = cremona_pullback_check(i)
        assert rep.ok
        assert rep.multiplicities == (2, 2, 1)
        assert rep.involution_ok
        assert rep.cubic.total_degree() == 3


def test_cremona_residual_proportional_to_stated_cubic():
    rep = cremona_pullback_check(0)
    assert rep.expected_cubic == branch_cubic(0)


def test_cremona_base_points():
    gamma = cremona_map()
    for pt in ((1, 0, 0), (0, 1, 0), (1, 1, 1)):
        vals = [g.evaluate(pt) for g in gamma]
        assert all(v.is_zero() for v in vals)


def test_derive_lift_consistent_with_certificate():
    cfg1 = BranchConfig.at(1)
    x, y, z = MPoly.gens(QQ, ("x", "y", "z"))
    w = derive_lift(z - x, cfg1)
    restriction_ok, _ = verify_component_lift(
        fiber_lines(1)[3], cfg1
    )
    assert restriction_ok
    assert (w * w - (fiber_lines(1)[3].w_formula) ** 2).is_zero()
