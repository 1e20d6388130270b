"""Polynomial algorithms over the tower fields: univariate gcd, squarefree
decomposition (Yun), resultants by the subresultant PRS, rational
substitution, and specialization of the pencil parameter.

The ring each routine runs on:

* gcd_poly, squarefree_decomposition: gcds over QQ by the primitive PRS
  in Z[x] (QPoly.gcd); over QQ(s) and QQ(m) a coprimality certificate over
  QQ, else Euclid on FieldElement lists, as over QQ(sqrt(d)); quotients
  on FieldElement lists.
* resultant: the subresultant PRS (_subresultant) on MPoly coefficients,
  exact by the subresultant theorem; its test oracle is the Sylvester
  determinant.
* gcd_bivariate: a primitive PRS in y on MPoly coefficients, with the
  pseudo-remainder _prem of the resultant.
* substitute: one MPoly.subst call, each denominator the image of a
  fresh variable.
* specialize: MPoly and FieldElement arithmetic.

No module of the package calls resultant or gcd_bivariate; the benchmark's
tracer names them, and the tests' oracles use them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .field import QQ, Field, FieldElement, QPoly, _fraction_sqrt, _zclear, quadratic_field
from .mpoly import MPoly

# ---------------------------------------------------------------------------
# dense univariate helpers (coefficient lists low -> high over a field)
# ---------------------------------------------------------------------------


def _trim(cs: list) -> list:
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _dense_divmod(a: list, b: list, field: Field) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a)
    db, da = len(b) - 1, len(rem) - 1
    if da < db:
        return [], rem
    inv_lead = b[-1].inv()
    quot = [field.zero] * (da - db + 1)
    for k in range(da - db, -1, -1):
        top = rem[k + db]
        if not top.is_zero():
            q = top * inv_lead
            quot[k] = q
            for j, c in enumerate(b):
                rem[k + j] = rem[k + j] - q * c
    return _trim(quot), _trim(rem)


def _dense_gcd(a: list, b: list, field: Field) -> list:
    """Monic gcd of dense polynomials over the field ([] for two zeros).
    Over QQ it is QPoly.gcd, the primitive PRS in Z[x], of the polynomials
    with cleared denominators, made monic: by Gauss's lemma that is the gcd
    in QQ[x] up to a rational factor.  Other fields run Euclid."""
    if field == QQ:
        g = QPoly(_zclear(tuple(c.v for c in a))[1]).gcd(QPoly(_zclear(tuple(c.v for c in b))[1]))
        return [QQ.from_rat(Fraction(c, g.coeffs[-1])) for c in g.coeffs]
    while b:
        a, b = b, _dense_divmod(a, b, field)[1]
    if a:
        inv = a[-1].inv()
        a = [c * inv for c in a]
    return a


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def gcd_poly(p: MPoly, q: MPoly) -> MPoly:
    """Monic gcd of two univariate polynomials over a common field."""
    if p.is_zero() and q.is_zero():
        raise ValueError("undefined gcd: both inputs zero")
    p, q = MPoly.common(p, q)
    var = None
    for poly in (p, q):
        if not poly.is_zero() and poly.total_degree() > 0:
            v = poly.is_univariate()
            if v is None:
                raise ValueError("gcd_poly requires univariate inputs")
            if var is None:
                var = v
            elif var != v:
                raise ValueError("gcd_poly inputs in different variables")
    if var is None:
        return MPoly.const(p.field, p.vars, 1)
    a = p.dense_univariate(var) if not p.is_zero() else []
    b = q.dense_univariate(var) if not q.is_zero() else []
    if p.field.with_s and len(a) > 1 and len(b) > 1 and _coprime_by_specialization(a, b):
        return MPoly.const(p.field, p.vars, 1)
    g = _dense_gcd(a, b, p.field)
    return MPoly.from_dense(p.field, p.vars, var, g)


#: Values of the parameter (s over QQ(s), m over QQ(m)) tried, in order, by
#: the coprimality certificate.
COPRIME_TEST_POINTS = tuple(Fraction(k) for k in (7, -5, 11, -13, 17, -19, 23, -29))


def _coprime_by_specialization(a: list, b: list) -> bool:
    """True only if a, b in QQ(t)[x] (dense, nonconstant) are coprime, for t
    the field's parameter: s over QQ(s), m over QQ(m).

    t is specialized at the first point of COPRIME_TEST_POINTS where no
    coefficient has a pole and the leading coefficient of a or of b does not
    vanish; True when the gcd over QQ of the specializations is constant.
    Sound by Gauss's lemma: clear denominators to A, B in QQ[t][x] and let G
    be their primitive gcd in QQ[t][x].  G divides A and B there, so lc(G)
    divides lc(A) and lc(B); one of those survives at t0, so deg G(t0) =
    deg G.  G(t0) divides A(t0) and B(t0), nonzero multiples of a(t0), b(t0)
    since no denominator vanishes, hence deg gcd(a(t0), b(t0)) >= deg G.
    False means "not certified": the caller runs the Euclidean algorithm."""
    for t0 in COPRIME_TEST_POINTS:
        try:
            a0 = [QQ.from_rat(c.v.eval(t0)) for c in a]
            b0 = [QQ.from_rat(c.v.eval(t0)) for c in b]
        except ZeroDivisionError:
            continue
        if a0[-1].is_zero() and b0[-1].is_zero():
            continue
        return len(_dense_gcd(_trim(a0), _trim(b0), QQ)) == 1
    return False


def squarefree_decomposition(p: MPoly) -> list[tuple[MPoly, int]]:
    """Yun's squarefree decomposition of a univariate polynomial over a field
    of characteristic zero: p = lc * prod(factor^exponent), the monic factors
    pairwise coprime and squarefree, exponents strictly increasing."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    var = p.is_univariate()
    if var is None:
        raise ValueError("squarefree decomposition requires a univariate input")
    if p.total_degree() == 0:
        return []
    field = p.field
    a = [c for c in p.dense_univariate(var)]
    inv = a[-1].inv()
    a = [c * inv for c in a]

    def deriv(cs: list) -> list:
        return _trim([cs[i] * i for i in range(1, len(cs))])

    dp = deriv(a)
    g = _dense_gcd(a, dp, field)
    out: list[tuple[MPoly, int]] = []
    if len(g) == 1:
        return [(MPoly.from_dense(field, p.vars, var, a), 1)]
    c = _dense_divmod(a, g, field)[0]
    d_ = _dense_divmod(dp, g, field)[0]
    i = 1
    while len(c) > 1:
        d = _trim([x - y for x, y in _zip_pad(d_, deriv(c), field)])
        f = _dense_gcd(c, d, field)
        if len(f) > 1:
            out.append((MPoly.from_dense(field, p.vars, var, f), i))
        c = _dense_divmod(c, f, field)[0]
        d_ = _dense_divmod(d, f, field)[0]
        i += 1
    return out


def _zip_pad(a: list, b: list, field: Field):
    n = max(len(a), len(b))
    za = a + [field.zero] * (n - len(a))
    zb = b + [field.zero] * (n - len(b))
    return zip(za, zb)


def squarefree_unit(p: MPoly) -> FieldElement:
    """The unit in p = unit * prod(factor^exponent)."""
    var = p.is_univariate()
    return p.dense_univariate(var)[-1]


def resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Resultant with respect to var, by the subresultant PRS (_subresultant)
    on MPoly coefficients in the remaining variables."""
    p, q = MPoly.common(p, q)
    if p.degree_in(var) <= 0 or q.degree_in(var) <= 0:
        raise ValueError("resultant requires positive degree in the variable")
    return _subresultant(_dense_in(p, var), _dense_in(q, var), _mpoly_ring(p.field, p.vars))


def _mpoly_ring(field: Field, vars) -> tuple:
    """The coefficient ring R of _prem and _subresultant, (zero, one, mul,
    sub, quo) with quo an exact division that raises when the quotient is
    not in R: MPoly over one field and variable list."""
    return (MPoly.zero(field, vars), MPoly.const(field, vars, 1), MPoly.__mul__, MPoly.__sub__, MPoly.exact_div)


def _dense_in(p: MPoly, var: str) -> list[MPoly]:
    """Coefficients of p in var, low degree first, as MPolys in p's ring."""
    cs, zero = p.coeffs_in(var), MPoly.zero(p.field, p.vars)
    return [cs.get(k, zero) for k in range(p.degree_in(var) + 1)]


def _prem(a: list, b: list, ring: tuple) -> list:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, of
    coefficient lists over R (low degree first, b's leading entry nonzero),
    trimmed; a itself when deg a < deg b (Knuth, TAOCP vol. 2, 4.6.1,
    Algorithm R)."""
    zero, _, mul, sub, _ = ring
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(a) - 1 - db, -1, -1):
        top = r.pop()
        r = [mul(lb, c) for c in r]
        if top != zero:
            for j in range(db):
                r[k + j] = sub(r[k + j], mul(top, b[j]))
    while r and r[-1] == zero:
        r.pop()
    return r


def _subresultant(a: list, b: list, ring: tuple):
    """Res(a, b) of two polynomials of positive degree, given by coefficient
    lists over an integral domain R (low degree first, leading entries
    nonzero), by Collins' subresultant PRS without content removal (Cohen,
    A Course in Computational Algebraic Number Theory, Alg. 3.3.7).

    Each step replaces (a, b) by (b, prem(a, b) / (g * h^delta)), delta =
    deg a - deg b, then sets g = lc(b) and h = g^delta / h^(delta - 1).  By
    the subresultant theorem (Collins 1967; Brown and Traub 1971) every
    remainder so divided is, up to sign, a subresultant of the inputs, a
    determinant of entries of R, so each division by g * h^delta and each
    h update is exact in R; quo raises otherwise, so a wrong step cannot
    pass silently.  A zero remainder means a common factor of positive
    degree, and the resultant is 0.  Otherwise the sequence ends in a
    constant c after a of degree d, and Res = sign * c^d / h^(d - 1), the
    sign (-1)^(deg a * deg b) gathered over the swap and every step.  The
    test oracle is the Sylvester determinant, by Bareiss elimination."""
    zero, one, mul, sub, quo = ring

    def power(x, k):
        out = one
        for _ in range(k):
            out = mul(out, x)
        return out

    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if len(a) % 2 == 0 and len(b) % 2 == 0 else 1
    g = h = one
    while True:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
        r = _prem(a, b, ring)
        if not r:
            return zero
        div = mul(g, power(h, delta))
        a, b = b, (r if div == one else [quo(c, div) for c in r])
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = quo(power(g, delta), power(h, delta - 1))
        if len(b) == 1:
            d = len(a) - 1
            res = quo(power(b[0], d), power(h, d - 1))
            return res if sign > 0 else sub(zero, res)


def substitute(
    p: MPoly, bindings: Dict[str, Tuple[MPoly, MPoly]]
) -> Tuple[MPoly, MPoly]:
    """Substitute variables by rational expressions num/den, returning the
    cleared-denominator numerator and the common denominator (not reduced;
    equality of results is decided by cross-multiplication).  A bound
    variable v of degree c_v in p gets a fresh variable h_v with exponent
    c_v - e_v in each term; one ``MPoly.subst`` sends v to num_v and h_v to
    den_v, and the common denominator is the product of the den_v^c_v."""
    field, vars = p.field, p.vars
    for v, (num, den) in bindings.items():
        if den.is_zero():
            raise ZeroDivisionError(f"zero denominator binding for {v}")
        if v not in vars:
            raise ValueError(f"binding for unknown variable {v}")
        field = field if field.contains(num.field) else num.field
        field = field if field.contains(den.field) else den.field
        vars = tuple(dict.fromkeys(vars + num.vars + den.vars))
    # c_v is 0, not -1, on the zero polynomial; "1/v" is no parseable name
    slots = [(v, p.vars.index(v), max(p.degree_in(v), 0)) for v in bindings]
    hidden = tuple(f"1/{v}" for v in bindings)
    ring = vars + hidden
    padded = MPoly(
        p.field,
        p.vars + hidden,
        {e + tuple(cap - e[i] for _, i, cap in slots): c for e, c in p.terms.items()},
    )
    images = {}
    common_den = MPoly.const(field, vars, 1)
    for (v, _, cap), h in zip(slots, hidden):
        num, den = (side.to_field(field).with_vars(vars) for side in bindings[v])
        images[v], images[h] = num.with_vars(ring), den.with_vars(ring)
        common_den = common_den * den**cap
    out = padded.to_field(field).with_vars(ring).subst(images)
    return out.drop_vars(hidden), common_den


def rational_equal(
    a: Tuple[MPoly, MPoly], b: Tuple[MPoly, MPoly]
) -> bool:
    """Exact equality of rational expressions by cross-multiplication."""
    return (a[0] * b[1] - b[0] * a[1]).is_zero()


# ---------------------------------------------------------------------------
# specialization of the pencil parameter
# ---------------------------------------------------------------------------


def specialize_field(field: Field, s0: Fraction, alpha0: Optional[Fraction] = None):
    """Target field and coefficient map for evaluating s at s0; a field
    without a parameter is left as it is.

    Over QQ(m) this evaluates m = alpha/s: at alpha0/s0 into QQ when a
    rational alpha0 with alpha0^2 = s0^2 - s0 is given, else at alpha/s0 in
    QQ(sqrt(s0^2 - s0)), which needs s0^2 - s0 to be a non-square.  s0 = 0 is
    the place m = infinity and raises.
    """
    s0 = Fraction(s0)
    if field.param is None:
        return field, lambda x: x
    if field.param == "s":
        return QQ, lambda x: QQ.from_rat(x.v.eval(s0))
    if s0 == 0:
        raise ValueError("s = 0 is the place m = infinity")
    d = s0 * s0 - s0
    if alpha0 is not None:
        alpha0 = Fraction(alpha0)
        if alpha0 * alpha0 != d:
            raise ValueError("inconsistent alpha value at specialization")
        return QQ, lambda x: QQ.from_rat(x.v.eval(alpha0 / s0))
    if _fraction_sqrt(d) is not None:
        raise ValueError("alpha^2 specializes to a square; provide an explicit alpha value")
    target = quadratic_field(d)
    m0 = target.alpha() * (1 / s0)
    return target, lambda x: x.v.eval(m0)


def specialize(obj, s0, alpha0: Optional[Fraction] = None):
    """Exact evaluation of the pencil parameter: FieldElement -> FieldElement,
    MPoly -> MPoly over the specialized field.  Raises on poles and on
    inconsistent alpha values."""
    if not isinstance(obj, (FieldElement, MPoly)):
        raise TypeError("specialize expects a FieldElement or MPoly")
    target, fmap = specialize_field(obj.field, Fraction(s0), alpha0)
    try:
        if isinstance(obj, FieldElement):
            return fmap(obj)
        return MPoly(target, obj.vars, {e: fmap(c) for e, c in obj.terms.items()})
    except ZeroDivisionError:
        raise ValueError("pole at specialization")


# ---------------------------------------------------------------------------
# bivariate gcd (content/primitive-part with pseudo-remainders)
# ---------------------------------------------------------------------------


def gcd_bivariate(f: MPoly, g: MPoly, x: str, y: str) -> MPoly:
    """Gcd of polynomials in at most the two variables x, y over the
    coefficient field, normalized monic in grlex.  Primitive
    pseudo-remainder sequence in y over K[x]; inputs here are small (plane
    curves)."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()

    def content_y(p: MPoly) -> MPoly:
        cs = list(p.coeffs_in(y).values())
        acc = cs[0]
        for c in cs[1:]:
            acc = gcd_poly(acc, c)
            if acc.is_const():
                break
        return acc

    def primitive_y(p: MPoly) -> MPoly:
        c = content_y(p)
        return p.exact_div(c) if not c.is_const() else p

    if f.degree_in(y) == 0 and g.degree_in(y) == 0:
        return gcd_poly(f, g)
    cf, cg = content_y(f), content_y(g)
    cont = gcd_poly(cf, cg)
    a, b = primitive_y(f), primitive_y(g)
    if a.degree_in(y) < b.degree_in(y):
        a, b = b, a
    iy, ring = a.vars.index(y), _mpoly_ring(a.field, a.vars)
    while not b.is_zero() and b.degree_in(y) > 0:
        rs = _prem(_dense_in(a, y), _dense_in(b, y), ring)
        terms = {e[:iy] + (k,) + e[iy + 1 :]: c for k, ck in enumerate(rs) for e, c in ck.terms.items()}
        r = MPoly(a.field, a.vars, terms)
        a, b = b, (primitive_y(r) if not r.is_zero() else r)
    if b.is_zero():
        return (a.monic() * cont).monic() if not cont.is_const() else primitive_y(a).monic()
    # non-constant common factor only via the content
    return cont.monic()

