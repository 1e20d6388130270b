import random
from fractions import Fraction

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


# -- the substitution kernel against the four loops it replaced ----------------
#
# The oracle: the separate substitution loops that MPoly.set_var,
# set_var_poly, subst_polys and translate ran before they became entry
# points on MPoly.subst, kept verbatim apart from taking the polynomial as
# their first argument.


def old_subst_polys(poly, images):
    if len(images) != len(poly.vars):
        raise ValueError("wrong number of images")
    if not images:
        raise ValueError("no variables")
    target = images[0]
    out = MPoly.zero(target.field, target.vars)
    pow_cache = [{0: MPoly.const(target.field, target.vars, 1)} for _ in images]

    def power(i, k):
        cache = pow_cache[i]
        if k not in cache:
            m = max(cache)
            p = cache[m]
            for j in range(m, k):
                p = p * images[i]
                cache[j + 1] = p
        return cache[k]

    for e, c in poly.terms.items():
        term = MPoly.const(target.field, target.vars, target.field.coerce(c))
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        out = out + term
    return out


def old_set_var(poly, var, value):
    i = poly.vars.index(var)
    val = poly.field.coerce(value)
    out = {}
    z = poly.field.zero
    for e, c in poly.terms.items():
        ne = list(e)
        k = ne[i]
        ne[i] = 0
        coeff = c * (val ** k) if k else c
        ne_t = tuple(ne)
        out[ne_t] = out.get(ne_t, z) + coeff
    return MPoly(poly.field, poly.vars, out)


def old_set_var_poly(poly, var, image):
    poly, image = poly._ring(image)
    i = poly.vars.index(var)
    out = MPoly.zero(poly.field, poly.vars)
    cache = {0: MPoly.const(poly.field, poly.vars, 1)}

    def power(k):
        if k not in cache:
            m = max(cache)
            p = cache[m]
            for j in range(m, k):
                p = p * image
                cache[j + 1] = p
        return cache[k]

    for e, c in poly.terms.items():
        ne = list(e)
        k = ne[i]
        ne[i] = 0
        mono = MPoly(poly.field, poly.vars, {tuple(ne): c})
        out = out + (mono * power(k) if k else mono)
    return out


def old_translate(poly, point):
    gens = MPoly.gens(poly.field, poly.vars)
    return old_subst_polys(poly, [g + poly.field.coerce(p) for g, p in zip(gens, point)])


XYZ = ("x", "y", "z")


def _coeff(rng, field):
    """A random element: a rational, plus s-terms over a pole over QQ(s) and
    QQ(m), plus an alpha-term over QQ(m)."""
    c = field.coerce(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if field.with_s:
        c = c + field.s() * rng.randint(-2, 2) / (field.s() + rng.randint(1, 3))
    if field is QSA:
        c = c + field.alpha() * rng.randint(-2, 2)
    return c


def _poly(rng, field, degree, n_terms):
    """A random polynomial in x, y, z of total degree at most degree."""
    terms = {}
    for _ in range(n_terms):
        e = [0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(3)] += 1
        terms[tuple(e)] = _coeff(rng, field)
    return MPoly(field, XYZ, terms)


def _image(rng, field, kind):
    """A zero, a constant or a non-monomial image."""
    if kind == "zero":
        return MPoly.zero(field, XYZ)
    if kind == "const":
        return MPoly.const(field, XYZ, _coeff(rng, field))
    return _poly(rng, field, 2, 3) + MPoly.gens(field, XYZ)[rng.randrange(3)]


KINDS = ("zero", "const", "poly")


@pytest.mark.parametrize("field", [QQ, QS, QSA], ids=["QQ", "QQ(s)", "QQ(m)"])
def test_subst_entry_points_match_the_separate_loops(field):
    rng = random.Random(f"subst-{field.level_name()}")
    for _ in range(4):
        p = _poly(rng, field, 4, 6)
        for kind in KINDS:
            var = rng.choice(XYZ)
            value = field.zero if kind == "zero" else _coeff(rng, field)
            assert p.set_var(var, value) == old_set_var(p, var, value)
            image = _image(rng, field, kind)
            assert p.set_var_poly(var, image) == old_set_var_poly(p, var, image)
        images = [_image(rng, field, rng.choice(KINDS)) for _ in XYZ]
        assert p.subst_polys(images) == old_subst_polys(p, images)
        point = [rng.choice([field.zero, _coeff(rng, field)]) for _ in XYZ]
        assert p.translate(point) == old_translate(p, point)
    with pytest.raises(ValueError):
        p.subst_polys(images[:2])


@pytest.mark.parametrize("small, large", [(QQ, QS), (QS, QSA)], ids=["QQ<QQ(s)", "QQ(s)<QQ(m)"])
def test_set_var_poly_across_two_fields_matches_the_separate_loop(small, large):
    rng = random.Random(f"subst-{small.level_name()}-{large.level_name()}")
    for _ in range(3):
        for pf, imf in ((small, large), (large, small)):
            p = _poly(rng, pf, 4, 6)
            for kind in KINDS:
                var = rng.choice(XYZ)
                image = _image(rng, imf, kind)
                got = p.set_var_poly(var, image)
                assert got.field == large
                assert got == old_set_var_poly(p, var, image)


def test_subst_rejects_an_image_outside_the_ring():
    p = P("x^2 + y")
    xs = MPoly.variable(QS, XYZ, "x")
    with pytest.raises(ValueError, match="ring"):
        p.subst({"y": xs})
    with pytest.raises(ValueError, match="ring"):
        p.subst({"y": MPoly.variable(QQ, ("x", "y"), "x")})
    assert p.subst({}) == p
