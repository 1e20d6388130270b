"""Polynomial algorithms over the tower fields: univariate gcd, squarefree
decomposition (Yun), Sylvester resultants with fraction-free elimination,
rational substitution, and specialization of the pencil parameter.

The ring each routine runs on:

* gcd_poly, squarefree_decomposition: gcds over QQ by the primitive PRS
  in Z[x] (QPoly.gcd); over QQ(s) and QQ(m) a coprimality certificate over
  QQ, else Euclid on FieldElement lists, as over QQ(sqrt(d)); quotients
  on FieldElement lists.
* resultant: over QQ in at most one further variable y, Bareiss in Z[y]
  on the int tuples of field.py; otherwise, QQ(s) included, on MPoly.
* gcd_bivariate, substitute, specialize: MPoly and FieldElement
  arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .field import QQ, Field, FieldElement, QPoly, _fraction_sqrt, quadratic_field
from .field import _ONE, _zclear, _zlin, _zmul, _zquo
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
    """Resultant with respect to var: the Sylvester determinant, computed by
    fraction-free (Bareiss) elimination over the remaining-variable ring.
    Over QQ with at most one further variable y the entries are Z[y] tuples
    (_resultant_dense), which is much faster; every other case runs the
    MPoly Bareiss _bareiss_det."""
    p, q = MPoly.common(p, q)
    m, n = p.degree_in(var), q.degree_in(var)
    if m <= 0 or n <= 0:
        raise ValueError("resultant requires positive degree in the variable")
    other = set()
    for poly in (p, q):
        for e, _ in poly.terms.items():
            for i, k in enumerate(e):
                if k and poly.vars[i] != var:
                    other.add(poly.vars[i])
    if p.field == QQ and len(other) <= 1:
        return _resultant_dense(p, q, var, other.pop() if other else None)
    zero = MPoly.zero(p.field, p.vars)
    pc, qc = p.coeffs_in(var), q.coeffs_in(var)
    rows = _sylvester_rows(
        [pc.get(k, zero) for k in range(m + 1)], [qc.get(k, zero) for k in range(n + 1)], zero
    )
    return _bareiss_det(rows, p.field, p.vars)


def _sylvester_rows(pc: list, qc: list, empty) -> list[list]:
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


def _resultant_dense(p: MPoly, q: MPoly, var: str, other: Optional[str]) -> MPoly:
    """Sylvester determinant over QQ with at most one further variable y,
    entries in Z[y]: each polynomial is cleared by the lcm L of its
    denominators, which scales each of its rows by L, so the integer
    determinant is divided by Lp^n * Lq^m."""
    iv = p.vars.index(var)
    io = p.vars.index(other) if other else None

    def entries(poly: MPoly) -> tuple[list[tuple], int]:
        k, ints = _zclear(tuple(c.v for c in poly.terms.values()))
        out: list[list] = [[] for _ in range(poly.degree_in(var) + 1)]
        for e, c in zip(poly.terms, ints):
            ent = out[e[iv]]
            d = e[io] if io is not None else 0
            ent.extend([0] * (d + 1 - len(ent)))
            ent[d] = c
        return [tuple(ent) for ent in out], k.denominator

    (p_int, p_scale), (q_int, q_scale) = entries(p), entries(q)
    m, n = len(p_int) - 1, len(q_int) - 1
    det = _bareiss_det_int(_sylvester_rows(p_int, q_int, ()))
    scale = p_scale ** n * q_scale ** m
    terms = {}
    for d, c in enumerate(det):
        if c:
            e = [0] * len(p.vars)
            if io is not None:
                e[io] = d
            terms[tuple(e)] = QQ.from_rat(Fraction(c, scale))
    return MPoly(QQ, p.vars, terms)


def _bareiss_det_int(m: list[list[tuple]]) -> tuple:
    """Bareiss determinant of a square matrix over Z[y], entries as trimmed
    int tuples low -> high (the kernel of field.py).  Step k replaces a_ij
    by (a_ij*a_kk - a_ik*a_kj)/p, p the previous pivot (1 at first).  By
    Sylvester's determinant identity the result is a minor of the matrix, in
    Z[y], so the division is exact (Bareiss 1968); _zquo raises otherwise."""
    n = len(m)
    if n == 0:
        return _ONE
    m = [list(row) for row in m]
    sign = 1
    prev = _ONE
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return ()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        row_k, pk = m[k], m[k][k]
        for i in range(k + 1, n):
            row_i, mik = m[i], m[i][k]
            for j in range(k + 1, n):
                a, b = row_i[j], row_k[j]
                num = _zlin(1, _zmul(a, pk) if a else (), -1, _zmul(mik, b) if mik and b else ())
                row_i[j] = _zquo(num, prev)
            row_i[k] = ()
        prev = pk
    det = m[n - 1][n - 1]
    return tuple(-c for c in det) if sign < 0 else det


def _dl_mul(a: list, b: list, zero) -> list:
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca.is_zero():
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
    return out


def _bareiss_det(m: list[list[MPoly]], field: Field, vars) -> MPoly:
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


def substitute(
    p: MPoly, bindings: Dict[str, Tuple[MPoly, MPoly]]
) -> Tuple[MPoly, MPoly]:
    """Substitute variables by rational expressions num/den, returning the
    cleared-denominator numerator and the common denominator (not reduced;
    equality of results is decided by cross-multiplication)."""
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
        if cap > 0 and not (de is one):
            common_den = common_den * de ** cap
    out = MPoly.zero(field, vars)
    pow_num = [{0: one} for _ in nums]
    pow_den = [{0: one} for _ in dens]

    def power(cache, base, k):
        top = max(cache)
        while top < k:
            cache[top + 1] = cache[top] * base
            top += 1
        return cache[k]

    for e, c in p.terms.items():
        term = MPoly.const(field, vars, field.coerce(c))
        for i, k in enumerate(e):
            if k:
                term = term * power(pow_num[i], nums[i], k)
            pad = caps[i] - k
            if pad and not (dens[i] is one):
                term = term * power(pow_den[i], dens[i], pad)
        out = out + term
    return out, common_den


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
    coefficient field, normalized monic in grlex.  Subresultant-free simple
    pseudo-remainder sequence; inputs here are small (plane curves)."""
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
    while not b.is_zero() and b.degree_in(y) > 0:
        r = _pseudo_rem(a, b, y)
        a, b = b, (primitive_y(r) if not r.is_zero() else r)
    if b.is_zero():
        return (a.monic() * cont).monic() if not cont.is_const() else primitive_y(a).monic()
    # non-constant common factor only via the content
    return cont.monic()


def _pseudo_rem(a: MPoly, b: MPoly, y: str) -> MPoly:
    da, db = a.degree_in(y), b.degree_in(y)
    if da < db:
        return a
    lead = b.coeffs_in(y)[db]
    r = a
    yvar = MPoly.variable(a.field, a.vars, y)
    while not r.is_zero() and r.degree_in(y) >= db:
        dr = r.degree_in(y)
        lr = r.coeffs_in(y)[dr]
        r = r * lead - b * lr * yvar ** (dr - db)
    return r
