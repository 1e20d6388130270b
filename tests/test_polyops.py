import random
from fractions import Fraction

import pytest

from k3pencil import QQ, QS, QSA, MPoly, parse_poly
from k3pencil.singular import restrict_to_line
from k3pencil.pencil import branch_cubic, branch_sextic
from k3pencil.polyops import (
    gcd_poly,
    rational_equal,
    resultant,
    specialize,
    squarefree_decomposition,
    squarefree_unit,
    substitute,
)


def U(text, vars=("t",)):
    return parse_poly(text, QQ, vars)


# -- gcd --------------------------------------------------------------------


def test_gcd_shared_root():
    assert gcd_poly(U("t^2 - 1"), U("t - 1")) == U("t - 1")


def test_gcd_coprime_and_errors():
    assert gcd_poly(U("t"), U("1")) == U("1")
    with pytest.raises(ValueError):
        gcd_poly(U("0"), U("0"))


def test_gcd_divides_both_randomized():
    rng = random.Random(3)
    for _ in range(25):
        a = U(" + ".join(f"{rng.randint(-4,4)}*t^{i}" for i in range(rng.randint(1, 4))) or "1")
        b = U(" + ".join(f"{rng.randint(-4,4)}*t^{i}" for i in range(rng.randint(1, 4))) or "1")
        if a.is_zero() and b.is_zero():
            continue
        g = gcd_poly(a, b)
        if not a.is_zero():
            assert a.exact_div(g) * g == a
        if not b.is_zero():
            assert b.exact_div(g) * g == b


def test_gcd_of_restricted_sextic_with_derivative():
    # the restriction of the branch sextic to the line z=0 is a binary sextic
    # form all of whose roots (including the one at infinity) are multiple,
    # so the gcd with its derivative keeps at least one factor per root and
    # has degree >= 3
    from k3pencil.polyops import gcd_bivariate

    x, y, z = MPoly.gens(QS, ("x", "y", "z"))
    restricted, _ = restrict_to_line(branch_sextic(), z)
    g = gcd_bivariate(restricted, restricted.derivative("x"), "x", "y")
    assert g.total_degree() >= 3


# -- squarefree decomposition -------------------------------------------------


def test_squarefree_simple():
    p = U("t - 1") ** 2 * U("t + 2")
    decomp = squarefree_decomposition(p)
    assert [(str(f), e) for f, e in decomp] == [("t + 2", 1), ("t - 1", 2)]
    unit = squarefree_unit(p)
    rebuilt = MPoly.const(QQ, ("t",), unit)
    for f, e in decomp:
        rebuilt = rebuilt * f ** e
    assert rebuilt == p


def test_squarefree_zero_errors():
    with pytest.raises(ValueError):
        squarefree_decomposition(MPoly.zero(QQ, ("t",)))


def test_restriction_to_split_line_all_even():
    x, y, z = MPoly.gens(QS, ("x", "y", "z"))
    restricted, _ = restrict_to_line(branch_sextic(), z)
    aff = restricted.set_var("y", QS.one)
    assert all(e % 2 == 0 for _, e in squarefree_decomposition(aff))


def test_restriction_to_nonspecial_line_has_odd_exponent():
    x, y, z = MPoly.gens(QS, ("x", "y", "z"))
    restricted, _ = restrict_to_line(branch_sextic(), z - x - 2 * y)
    aff = restricted.set_var("y", QS.one)
    assert any(e % 2 == 1 for _, e in squarefree_decomposition(aff))


# -- resultants ----------------------------------------------------------------


def test_resultant_linear():
    p = parse_poly("t - a", QQ, ("t", "a", "b"))
    q = parse_poly("t - b", QQ, ("t", "a", "b"))
    assert resultant(p, q, "t") == parse_poly("a - b", QQ, ("t", "a", "b"))


def test_resultant_common_root_zero():
    t2 = parse_poly("t^2", QQ, ("t", "u"))
    assert resultant(t2, t2, "t").is_zero()


def test_resultant_degree_zero_errors():
    with pytest.raises(ValueError):
        resultant(parse_poly("u", QQ, ("t", "u")), parse_poly("t", QQ, ("t", "u")), "t")


def test_branch_resultant_factors_into_base_point_images():
    g0, g1 = branch_cubic(0), branch_cubic(1)
    r = resultant(g0, g1, "z")
    assert r.total_degree() == 9
    # divide out the images (x:y) of the four intersection points with the
    # stated multiplicities 3, 3, 2, 1; nothing may remain
    x, y, z = MPoly.gens(QS, ("x", "y", "z"))
    for lin, m in (((y), 3), ((x), 3), ((x - y), 2), ((x + y), 1)):
        for _ in range(m):
            r = r.exact_div(lin)
    assert r.total_degree() == 0 and not r.is_zero()


def test_resultant_multiplicativity_spot():
    # Res(t-1, (t-2)(t-3)) = Res(t-1,t-2) * Res(t-1,t-3) = (1-2)(1-3) = 2
    p = U("t - 1")
    q = U("t - 2") * U("t - 3")
    assert resultant(p, q, "t") == U("2")


# -- substitution ---------------------------------------------------------------


def _substitute_oracle(p, bindings):
    """Rational substitution term by term: each term times the powers of the
    numerators of its variables and of the denominators up to the degree
    caps, summed into the common-denominator numerator."""
    field, vars = p.field, p.vars
    for v, (num, den) in bindings.items():
        if den.is_zero():
            raise ZeroDivisionError(f"zero denominator binding for {v}")
        if v not in vars:
            raise ValueError(f"binding for unknown variable {v}")
        field = field if field.contains(num.field) else num.field
        field = field if field.contains(den.field) else den.field
        vars = tuple(dict.fromkeys(vars + num.vars + den.vars))
    one = MPoly.const(field, vars, 1)
    nums, dens, caps = [], [], []
    for v in p.vars:
        if v in bindings:
            nu, de = bindings[v]
            nums.append(nu.to_field(field).with_vars(vars))
            dens.append(de.to_field(field).with_vars(vars))
        else:
            nums.append(MPoly.variable(field, vars, v))
            dens.append(one)
        caps.append(p.degree_in(v))
    common_den = one
    for de, cap in zip(dens, caps):
        if cap > 0:
            common_den = common_den * de ** cap
    out = MPoly.zero(field, vars)
    for e, c in p.terms.items():
        term = MPoly.const(field, vars, field.coerce(c))
        for i, k in enumerate(e):
            term = term * nums[i] ** k * dens[i] ** (caps[i] - k)
        out = out + term
    return out, common_den


def _rand_poly(rng, field, vars, coeff, terms=4, degree=3):
    out = MPoly.zero(field, vars)
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(0, degree) for _ in vars)
        out = out + MPoly(field, vars, {e: field.coerce(coeff(rng))})
    return out


def _qq(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _qs(rng):
    s = QS.s()
    return (s * rng.randint(-3, 3) + rng.randint(-3, 3)) / (s + rng.randint(1, 4))


def _rand_den(rng, field, vars, coeff):
    while True:
        den = _rand_poly(rng, field, vars, coeff, terms=2, degree=1)
        if not den.is_zero():
            return den


@pytest.mark.parametrize(
    "p_field, p_coeff, b_field, b_coeff",
    [(QQ, _qq, QQ, _qq), (QS, _qs, QS, _qs), (QQ, _qq, QS, _qs), (QS, _qs, QQ, _qq)],
    ids=["QQ", "QQ(s)", "QQ-poly-QQ(s)-bindings", "QQ(s)-poly-QQ-bindings"],
)
def test_substitute_matches_oracle(p_field, p_coeff, b_field, b_coeff):
    """substitute against the term-by-term oracle: the same numerator and
    denominator, ring included, for bindings of some or all variables, in
    p's variables or in variables p lacks, and on the zero polynomial."""
    rng = random.Random(11)
    vars = ("x", "y", "z")
    for trial in range(12):
        p = _rand_poly(rng, p_field, vars, p_coeff)
        if trial == 0:
            p = MPoly.zero(p_field, vars)
        bound = rng.sample(vars, rng.randint(1, 3))
        bvars = vars + ("t",) if trial % 3 == 1 else ("t", "x") if trial % 3 == 2 else vars
        bindings = {
            v: (_rand_poly(rng, b_field, bvars, b_coeff, degree=2), _rand_den(rng, b_field, bvars, b_coeff))
            for v in bound
        }
        assert substitute(p, bindings) == _substitute_oracle(p, bindings)


def test_substitute_bound_variable_absent_from_p():
    """A bound variable that p does not contain has degree 0: no power of its
    denominator enters; a variable outside p's ring is an error."""
    vars = ("x", "y", "z")
    p = parse_poly("x^2*y - 3*y + 1", QQ, vars)
    bindings = {"z": (parse_poly("x + 1", QQ, vars), parse_poly("x - 2", QQ, vars)),
                "x": (parse_poly("y", QQ, vars), parse_poly("z + 1", QQ, vars))}
    num, den = substitute(p, bindings)
    assert (num, den) == _substitute_oracle(p, bindings)
    assert den == parse_poly("(z + 1)^2", QQ, vars)
    zero_num, zero_den = substitute(MPoly.zero(QQ, vars), bindings)
    assert zero_num.is_zero() and zero_den == MPoly.const(QQ, vars, 1)
    with pytest.raises(ValueError):
        substitute(p, {"w": bindings["z"]})


def test_substitute_cayley():
    x = parse_poly("x", QQ, ("x",))
    num, den = substitute(x * x, {"x": (parse_poly("1 + x", QQ, ("x",)), parse_poly("1 - x", QQ, ("x",)))})
    assert num == parse_poly("x^2 + 2*x + 1", QQ, ("x",))
    assert den == parse_poly("x^2 - 2*x + 1", QQ, ("x",))


def test_substitute_zero_denominator_errors():
    x = parse_poly("x", QQ, ("x",))
    with pytest.raises(ZeroDivisionError):
        substitute(x, {"x": (x, MPoly.zero(QQ, ("x",)))})


def test_substitute_is_ring_hom_randomized():
    rng = random.Random(5)
    vars = ("x", "y")
    bind = {
        "x": (parse_poly("1 + y", QQ, vars), parse_poly("1 - x", QQ, vars)),
        "y": (parse_poly("x", QQ, vars), parse_poly("y + 2", QQ, vars)),
    }

    def rand_poly():
        out = MPoly.zero(QQ, vars)
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            out = out + MPoly(QQ, vars, {e: QQ.from_rat(rng.randint(-3, 3))})
        return out

    for _ in range(15):
        p, q = rand_poly(), rand_poly()
        lhs = substitute(p * q, bind)
        pa = substitute(p, bind)
        qa = substitute(q, bind)
        assert rational_equal(lhs, (pa[0] * qa[0], pa[1] * qa[1]))


# -- specialization ---------------------------------------------------------------


def test_specialize_basic():
    s = QS.s()
    e = MPoly.const(QS, ("x",), s * s - s)
    assert specialize(e, 1).is_zero()


def test_specialize_g0_at_1():
    from k3pencil.pencil import branch_cubic_at

    g = branch_cubic_at(0, 1)
    expected = parse_poly(
        "(x^2 + y^2)*z - 2*x*y*(x + y) + 2*(2*x - z)*(2*y - z)*z", QQ, ("x", "y", "z")
    )
    assert g == expected


def test_specialize_alpha_consistency():
    a = QSA.alpha()
    e2 = specialize(a, -1)
    assert (e2 * e2) == e2.field.from_rat(2)
    # explicit rational alpha must square to the specialized alpha^2
    with pytest.raises(ValueError):
        specialize(a, -1, alpha0=Fraction(1))
    # s = 1 is the rational place m = 0, where alpha = 0: a symbolic alpha
    # errors, the explicit value works
    with pytest.raises(ValueError):
        specialize(a, 1)
    assert specialize(a, 1, alpha0=0).is_zero()
    assert specialize(QSA.s(), 1, alpha0=0) == QQ.one
    # pole detection: 1/(s - 1) = (1 - m^2)/m^2
    bad = QSA.one / (QSA.s() - 1)
    with pytest.raises(ValueError):
        specialize(bad, 1, alpha0=0)
    # s = 0 is the place m = infinity
    with pytest.raises(ValueError):
        specialize(a, 0, alpha0=0)
    # at a non-square s0^2 - s0, m = alpha/s0 maps s to s0 and alpha to a root
    for s0 in (2, 3, Fraction(-1, 2)):
        e = specialize(a, s0)
        assert e * e == s0 * s0 - s0
        assert specialize(QSA.s(), s0) == s0


def test_dense_and_generic_resultants_agree():
    # the dense fast path (coefficients in one remaining variable) must agree
    # with the Sylvester determinant, the test-local oracle of test_fast_paths
    from test_fast_paths import sylvester_resultant

    rng = random.Random(9)
    vars2 = ("x", "y")
    for _ in range(12):

        def rand():
            out = MPoly.zero(QQ, vars2)
            for _ in range(4):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                out = out + MPoly(QQ, vars2, {e: QQ.from_rat(rng.randint(-3, 3))})
            return out

        f2, g2 = rand(), rand()
        if f2.degree_in("y") < 1 or g2.degree_in("y") < 1:
            continue
        assert resultant(f2, g2, "y") == sylvester_resultant(f2, g2, "y")


def test_specialize_mpoly_with_explicit_alpha():
    from k3pencil.field import QSA
    from k3pencil.mpoly import MPoly as MP

    # alpha^2 = s^2 - s = 6 at s = 3; alpha -> -sqrt(6)? 6 is not a square,
    # so pick s = 9/8 where s^2 - s = 9/64 and alpha may map to 3/8
    e = MP.const(QSA, ("x",), QSA.alpha() + QSA.s())
    out = specialize(e, Fraction(9, 8), alpha0=Fraction(3, 8))
    assert out.const_coeff() == Fraction(9, 8) + Fraction(3, 8)
    with pytest.raises(ValueError):
        specialize(e, Fraction(9, 8), alpha0=Fraction(1, 2))
