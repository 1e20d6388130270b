import pytest

from k3pencil import QQ, QS, QSA, MPoly, parse_poly
from k3pencil.field import quadratic_field


def P(text, field=QQ, vars=("x", "y", "z")):
    return parse_poly(text, field, vars)


def test_parse_print_roundtrip():
    p = P("x^2 - 2*x*y + y^2 - 7")
    assert str(p) == "x^2 - 2*x*y + y^2 - 7"
    assert parse_poly(str(p), QQ, ("x", "y", "z")) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        P("x +")
    with pytest.raises(ValueError):
        P("2x")          # implicit multiplication is not in the grammar
    with pytest.raises(ValueError):
        P("w")


def test_grlex_leading_term():
    p = P("x*y^2 + x^2*y + y^3")
    e, c = p.leading()
    # graded lex with x > y: x^2*y leads among degree-3 monomials
    assert e == (2, 1, 0)


def test_exact_division_and_failure():
    p = P("x^2 - y^2")
    assert p.exact_div(P("x - y")) == P("x + y")
    with pytest.raises(ValueError):
        p.exact_div(P("x + 1"))


def test_operand_over_a_larger_field_promotes():
    # every binary operation lifts the operand over the smaller field to the
    # larger one, whichever side it is on; fields neither of which contains
    # the other are a ValueError
    x = P("x")
    xs, ys, _ = MPoly.gens(QS, ("x", "y", "z"))
    s = QS.s()
    assert (x * x).exact_div(xs) == xs
    assert (x * x).set_var_poly("x", ys * s) == ys * ys * s * s
    assert x + xs == xs * 2 and xs + x == xs * 2
    assert x * xs == xs * xs and xs * x == xs * xs
    r = MPoly.variable(quadratic_field(2), ("x", "y", "z"), "x")
    ops = (
        lambda a, b: a + b,
        lambda a, b: a * b,
        lambda a, b: a.exact_div(b),
        lambda a, b: a.set_var_poly("y", b),
    )
    for op in ops:
        for a, b in ((r, xs), (xs, r)):
            with pytest.raises(ValueError):
                op(a, b)


def test_homogenize_dehomogenize():
    f = parse_poly("x^2 + x + 1", QQ, ("x",))
    F = f.homogenize("t")
    assert F.is_homogeneous() and F.total_degree() == 2
    assert F.dehomogenize("t") == f


def test_derivative_and_evaluate():
    p = P("x^3 + 2*y*z")
    assert p.derivative("x") == P("3*x^2")
    assert p.evaluate([1, 2, 3]) == QQ.from_rat(13)


def test_alpha_coefficients():
    p = parse_poly("alpha*x + s", QSA, ("x",))
    sq = p * p
    a2 = QSA.alpha() * QSA.alpha()
    assert sq.coeffs_in("x")[2].const_coeff() == a2


def test_subst_polys_linear_change():
    p = P("x^2 - y^2")
    x, y, z = MPoly.gens(QQ, ("x", "y", "z"))
    assert p.subst_polys([x + y, x - y, z]) == P("4*x*y")


def test_translate_and_truncate():
    p = P("x^2")
    q = p.translate([1, 0, 0])
    assert q == P("x^2 + 2*x + 1")
    assert q.truncate(1) == P("2*x + 1")


def test_with_vars_and_drop_vars():
    f = parse_poly("u^2 - 1", QQ, ("u",))
    g = f.with_vars(("u", "v"))
    assert g.degree_in("v") == 0
    assert g.drop_vars(["v"]) == f
    with pytest.raises(ValueError):
        parse_poly("u*v", QQ, ("u", "v")).drop_vars(["v"])


def test_dense_univariate():
    f = parse_poly("t^3 - 2*t", QQ, ("t",))
    cs = f.dense_univariate("t")
    assert [str(c) for c in cs] == ["0", "-2", "0", "1"]
