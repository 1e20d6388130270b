"""Singular loci of plane curves and surfaces, A_k classification by
splitting-lemma jet reduction, and intersection multiplicities of plane
curves.

A singular locus is certified complete by one length count: the candidates'
types A_k must add up to the length of the scheme cut out by the partials,
read off a grevlex Groebner basis of the Jacobian ideal
(``certify_affine_solutions``).  Over QQ(s), smoothness for generic s is
the same certificate with no candidates at one rational s0.

An intersection multiplicity I_P(F, G) is the order of one curve on the
other where that other is smooth at P: on a line by restriction, else on
the branch that the classifier's ``_lift_section`` lifts and
``_eval_on_section`` certifies.  A claimed intersection is certified
complete by a Bezout count (``verify_curve_intersections``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, itemgetter, le, sub
from typing import Optional, Sequence

from .field import QQ, QS, Field, FieldElement, _zclear
from .mpoly import MPoly
from .polyops import specialize

#: The jet bound of the A_k classifier.
DEFAULT_JET_ORDER = 10


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


class ProjPoint:
    """Point of a projective space with exact coordinates, scaled on
    creation so that its first nonzero coordinate is 1.  Equality is up to
    scaling, over whichever of the two coordinate fields contains the other
    (never, when neither does)."""

    __slots__ = ("coords",)

    def __init__(self, field: Field, coords: Sequence):
        cs = [field.coerce(c) for c in coords]
        lead = next((c for c in cs if not c.is_zero()), None)
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        lam = lead.inv()
        self.coords = tuple(c * lam for c in cs)

    @property
    def field(self) -> Field:
        return self.coords[0].field

    def affine(self, F: MPoly) -> tuple[MPoly, list[FieldElement]]:
        """F on the chart of the point's first nonzero coordinate, which is
        1, and the point's other coordinates there, in F's field."""
        i = next(i for i, c in enumerate(self.coords) if not c.is_zero())
        coords = [F.field.coerce(c) for j, c in enumerate(self.coords) if j != i]
        return F.dehomogenize(F.vars[i]), coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint) or len(self.coords) != len(other.coords):
            return False
        f, g = self.field, other.field
        field = f if f.contains(g) else g if g.contains(f) else None
        return field is not None and all(
            field.coerce(a) == field.coerce(b) for a, b in zip(self.coords, other.coords)
        )

    def __hash__(self) -> int:
        """The coordinates' sort keys, which do not depend on the field."""
        return hash(tuple(c.sort_key() for c in self.coords))

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    def __repr__(self) -> str:
        return f"ProjPoint{self}"


@dataclass(frozen=True)
class SingularityReport:
    point: ProjPoint
    k: int

    @property
    def milnor_number(self) -> int:
        return self.k


@dataclass
class LocusReport:
    status: str                      # "complete" | "fail"
    # SingularityReports of a singular locus, ProjPoints of an intersection
    verified: list = dc_field(default_factory=list)
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "complete"


# ---------------------------------------------------------------------------
# singular loci by a Tjurina-length certificate
# ---------------------------------------------------------------------------

#: Integer linear forms, in order, for the form l that the length certificate
#: puts last; on n variables a form is its first n entries.
LINEAR_FORMS = ((1, 2, 3, 5), (2, 3, 5, 7), (3, 5, 7, 11), (5, 7, 11, 13))

#: The values s0, in order, at which smoothness over QQ(s) is certified.
SMOOTHNESS_S_VALUES = (3, 5, 7, 11, 13)


#: The key whose minimum is the largest of monomials of one degree in the
#: graded reverse lexicographic order (grevlex), the last variable smallest.
_GREVLEX_MIN = itemgetter(slice(None, None, -1))


def _divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def _primitive(f: dict) -> tuple:
    """(leading monomial, f over its content with a positive leading
    coefficient) of a nonzero form on int dicts."""
    lm = min(f, key=_GREVLEX_MIN)
    k = gcd(*f.values())
    k = k if f[lm] > 0 else -k
    return lm, {e: c // k for e, c in f.items()}


def _combine(terms: dict, f: dict, c: int, shift: tuple) -> None:
    """terms += c * x^shift * f, in place."""
    for e, v in f.items():
        t = tuple(map(add, e, shift))
        w = terms.get(t, 0) + c * v
        if w:
            terms[t] = w
        else:
            del terms[t]


def _spoly(p: tuple, q: tuple) -> dict:
    """The S-polynomial of two basis entries (lm, f), scaled to integers."""
    (lp, fp), (lq, fq) = p, q
    lcm = tuple(map(max, lp, lq))
    k = gcd(fp[lp], fq[lq])
    out: dict = {}
    _combine(out, fp, fq[lq] // k, tuple(map(sub, lcm, lp)))
    _combine(out, fq, -(fp[lp] // k), tuple(map(sub, lcm, lq)))
    return out


def _reduce(f: dict, basis: list) -> dict:
    """c times the normal form of the form f modulo the basis entries
    (lm, g), for some integer c != 0: each term divisible by some lm is
    cancelled, the largest first."""
    f, rest = dict(f), {}
    while f:
        m = min(f, key=_GREVLEX_MIN)
        hit = next((entry for entry in basis if _divides(entry[0], m)), None)
        if hit is None:
            rest[m] = f.pop(m)
            continue
        lm, g = hit
        k = gcd(f[m], g[lm])
        a, b = f[m] // k, g[lm] // k
        if b != 1:
            f = {e: c * b for e, c in f.items()}
            rest = {e: c * b for e, c in rest.items()}
        _combine(f, g, -a, tuple(map(sub, m, lm)))
    return rest


def _groebner(gens: list) -> list:
    """A grevlex Groebner basis of the ideal of the int-dict forms gens, as
    (leading monomial, primitive polynomial) entries: Buchberger's algorithm
    with the S-pairs taken by ascending degree of their lcm, so for
    homogeneous gens each degree is complete before the next starts, and the
    Gebauer-Moeller update (Gebauer and Moeller, J. Symb. Comput. 6, 1988).

    A new entry h first drops every queued pair {i, j} whose lcm L is
    divisible by lm(h) with lcm(lm_i, lm(h)) != L != lcm(lm_j, lm(h)):
    Buchberger's chain criterion, as {i, h} and {j, h} have lcms properly
    dividing L.  Of the new pairs {i, h}, one whose lcm is divisible by the
    lcm of a later or kept new pair is dropped by the same criterion unless
    its leading monomials are coprime, which keeps one pair per lcm; then
    the pairs with coprime leading monomials are dropped, as their
    S-polynomials reduce to 0 (the product criterion)."""
    basis: list = []
    pairs: list = []  # (degree of the lcm, j, i, lcm), the smallest last

    def add(f: dict) -> None:
        h = _primitive(f)
        lm_h, j = h[0], len(basis)
        pairs[:] = [
            p for p in pairs
            if not _divides(lm_h, p[3])
            or tuple(map(max, basis[p[1]][0], lm_h)) == p[3]
            or tuple(map(max, basis[p[2]][0], lm_h)) == p[3]
        ]
        new = [(tuple(map(max, lm, lm_h)), i) for i, (lm, _) in enumerate(basis)]
        kept = []
        for idx, (lcm, i) in enumerate(new):
            coprime = sum(lcm) == sum(lm_h) + sum(basis[i][0])
            if coprime or not any(_divides(other, lcm) for other, _ in new[idx + 1 :] + kept):
                kept.append((lcm, i if not coprime else None))
        pairs.extend((sum(lcm), j, i, lcm) for lcm, i in kept if i is not None)
        pairs.sort(reverse=True)
        basis.append(h)

    for f in sorted(gens, key=lambda f: max(map(sum, f))):
        r = _reduce(f, basis)
        if r:
            add(r)
    while pairs:
        _, j, i, _ = pairs.pop()
        r = _reduce(_spoly(basis[i], basis[j]), basis)
        if r:
            add(r)
    return basis


def _jacobian_basis(F: MPoly, ell: Sequence[int]) -> list:
    """The grevlex basis (``_groebner``) of the Jacobian ideal of a form F
    over QQ, in coordinates with l = sum ell_i x_i last: y_i = x_i for the
    others, so x_last = (y_last - sum_{i < last} ell_i y_i) / ell_last.  The
    chain rule maps the partials of F to those of F(y) by an invertible
    matrix, so the ideal is the same."""
    gens = MPoly.gens(F.field, F.vars)
    rest = sum((g * c for c, g in zip(ell, gens[:-1])), MPoly.zero(F.field, F.vars))
    G = F.subst({F.vars[-1]: (gens[-1] - rest) * Fraction(1, ell[-1])})
    g = dict(zip(G.terms, _zclear(tuple(c.v for c in G.terms.values()))[1]))
    partials = [
        {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in g.items() if e[i]}
        for i in range(len(F.vars))
    ]
    return _groebner([p for p in partials if p])


def certify_affine_solutions(F: MPoly, reports: Sequence[SingularityReport]) -> tuple[bool, Optional[str]]:
    """(ok, witness): whether the points of the reports, with their types
    A_k, are all the singular points of the hypersurface of the form F over
    QQ, counted over the algebraic closure.  The certificate:

    * J, the ideal of the partials of F, contains F (Euler's relation,
      characteristic 0).  So on any chart J is the Tjurina ideal
      (f, df/du_1, .., df/du_m) of the chart equation f, and the length of
      the scheme V(J), when it is finite, is the sum of the Tjurina numbers
      tau_p of the singular points p.
    * At an A_k point tau = mu = k, since A_k is quasi-homogeneous (K. Saito,
      Invent. Math. 14, 1971); each other singular point adds tau >= 1.
    * So if the points are pairwise distinct, the partials vanish at each,
      and their k sum to the length of V(J), there is no other singular
      point.  Distinctness is required: a table that drops one A_1 and
      lists another twice has the same sum.
    * The length is read off a grevlex basis of J (``_jacobian_basis``)
      with the last variable l, the first form of LINEAR_FORMS that is
      nonzero at every point; no such form is a failure.  In grevlex with l
      last, in(J + (l)) = in(J) + (l) and in(J : l^inf) = in(J) : l^inf
      (Bayer and Stillman, Invent. Math. 87, 1987).  So no point of V(J)
      lies on l = 0, and V(J) is finite, if and only if each other variable
      has a pure power among the leading monomials; otherwise V(J) has a
      point on l = 0, which no candidate is, and the check fails.  Then the
      length of V(J), all of which lies on the chart l = 1, is the number
      of standard monomials of in(J) : l^inf in the other variables
      (Cox, Little and O'Shea, Using Algebraic Geometry, ch. 4)."""
    points = [r.point for r in reports]
    if len(set(points)) < len(points):
        return False, "a candidate is listed twice"
    partials = [F.derivative(v) for v in F.vars]
    for P in points:
        if any(not d.evaluate(P.coords).is_zero() for d in partials):
            return False, f"partials do not vanish at {P}"
    n = len(F.vars)

    def off_the_points(form: tuple) -> bool:
        return all(not sum((c * x for c, x in zip(form, P.coords)), F.field.zero).is_zero() for P in points)

    ell = next((form[:n] for form in LINEAR_FORMS if len(form) >= n and off_the_points(form[:n])), None)
    if ell is None:
        return False, "no form of LINEAR_FORMS is nonzero at every candidate"
    lms = [lm for lm, _ in _jacobian_basis(F, ell)]
    bound = [min((lm[i] for lm in lms if lm[i] == sum(lm)), default=None) for i in range(n - 1)]
    if None in bound:
        return False, f"the singular locus meets the plane {ell} . x = 0, or is infinite"
    saturated = {lm[:-1] for lm in lms}
    length = sum(not any(_divides(s, e) for s in saturated) for e in product(*map(range, bound)))
    total = sum(r.k for r in reports)
    if length != total:
        return False, f"the Jacobian scheme has length {length}, the candidates' k sum to {total}"
    return True, None


def verify_singular_locus(F: MPoly, candidates: Sequence[ProjPoint]) -> LocusReport:
    """Confirm that the candidates are exactly the singular points of the
    projective hypersurface F = 0, over the algebraic closure.

    Over QQ each candidate is classified once, by ``milnor_ade_classify`` on
    the chart of its first nonzero coordinate, and the reports go to
    ``certify_affine_solutions``; ``verified`` holds them, in the order of
    the candidates, whether or not the locus is complete.

    Over QQ(s) with no candidates this certifies smoothness for generic s:
    F is specialized at the first s0 of SMOOTHNESS_S_VALUES where
    ``polyops.specialize`` meets no pole, the form keeps its degree and the
    certificate passes.  Sound because the discriminant of forms of F's
    degree, taken at F, is then a rational function of s that is regular
    and nonzero at s0, so it is nonzero.  A singular specialization is
    inconclusive and the next s0 is tried; running out of s0 fails.  Any
    other field, or candidates over QQ(s), fail."""
    if not F.is_homogeneous():
        raise ValueError("verify_singular_locus requires a homogeneous input")
    if F.field == QS and not candidates:
        for s0 in SMOOTHNESS_S_VALUES:
            try:
                F0 = specialize(F, s0)
            except ValueError:
                continue
            if F0.total_degree() == F.total_degree() and certify_affine_solutions(F0, [])[0]:
                return LocusReport("complete")
        return LocusReport("fail", witness=f"singular or degenerate at each s in {SMOOTHNESS_S_VALUES}")
    if F.field != QQ:
        return LocusReport("fail", witness=f"no certificate for candidates over {F.field.level_name()}")
    reports = []
    for P in candidates:
        try:
            reports.append(SingularityReport(P, milnor_ade_classify(*P.affine(F)).k))
        except ValueError as exc:
            return LocusReport("fail", reports, f"{P}: {exc}")
    ok, witness = certify_affine_solutions(F, reports)
    return LocusReport("complete" if ok else "fail", reports, witness)


# ---------------------------------------------------------------------------
# A_k classification via the splitting lemma on jets
# ---------------------------------------------------------------------------


def milnor_ade_classify(
    f: MPoly, point: Sequence, jet_order: int = DEFAULT_JET_ORDER
) -> SingularityReport:
    """Classify an isolated critical point with critical value 0 as A_k by
    corank computation and jet-level square completion.  Returns the report
    with milnor number k.  At corank 1, ``_lift_section`` lifts the critical
    section only until the residual h on it has a nonzero coefficient, at
    order m = k + 1, or up to the jet order as a cap.  One independent
    ``_eval_on_section`` pass at that order then certifies the section and
    reads the order: if every gradient vanishes on the section phi to
    order m, phi agrees with the true section phi* modulo w^(m+1) (the
    uniqueness argument of ``_lift_section``), and as the gradient vanishes
    on phi*, h(phi) - h(phi*) = O(w^(2m+2)), so the first nonzero index of
    h(phi) up to m is that of h(phi*).  A residual still zero at the cap
    exceeds the jet order."""
    N = jet_order
    if N < 2:
        raise ValueError(f"jet order {N} < 2 truncates away the quadratic part")
    field = f.field
    vals = [field.coerce(p) for p in point]
    g = f.translate(vals).truncate(N)
    if not g.const_coeff().is_zero():
        raise ValueError("critical value is not zero")
    if not g.homog_component(1).is_zero():
        raise ValueError("not a critical point")
    n = len(f.vars)
    # symmetric matrix of the quadratic part
    half = field.one / field.coerce(2)
    quad = g.homog_component(2)
    M = [[field.zero] * n for _ in range(n)]
    for e, c in quad.terms.items():
        idx = [i for i, k in enumerate(e) if k]
        if len(idx) == 1:
            M[idx[0]][idx[0]] = c
        else:
            i, j = idx
            M[i][j] = M[j][i] = c * half
    U = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

    def col_op(dst, src, factor):
        for r in range(n):
            M[r][dst] = M[r][dst] + M[r][src] * factor
        for r in range(n):
            M[dst][r] = M[dst][r] + M[src][r] * factor
        for r in range(n):
            U[r][dst] = U[r][dst] + U[r][src] * factor

    def col_swap(i, j):
        for r in range(n):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        for r in range(n):
            M[i][r], M[j][r] = M[j][r], M[i][r]
        for r in range(n):
            U[r][i], U[r][j] = U[r][j], U[r][i]

    rank = 0
    for k in range(n):
        if M[k][k].is_zero():
            piv = next((j for j in range(k + 1, n) if not M[j][j].is_zero()), None)
            if piv is not None:
                col_swap(k, piv)
            else:
                off = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if not M[i][j].is_zero()),
                    None,
                )
                if off is None:
                    break
                i, j = off
                col_op(i, j, field.one)
                if i != k:
                    col_swap(k, i)
        pivot = M[k][k]
        inv = pivot.inv()
        for i in range(k + 1, n):
            if not M[i][k].is_zero():
                col_op(i, k, -(M[i][k] * inv))
        rank += 1
    corank = n - rank
    if corank == 0:
        return SingularityReport(_affine_point(field, vals), 1)
    if corank >= 2:
        raise ValueError("not of type A: corank >= 2")

    gens = MPoly.gens(field, f.vars)
    images = [
        sum((gens[r] * U[i][r] for r in range(n)), MPoly.zero(field, f.vars))
        for i in range(n)
    ]
    h = g.subst_polys(images).truncate(N)
    diag = [M[i][i] for i in range(rank)]

    grads = [h.derivative(v) for v in f.vars[:rank]]
    phi, n = _lift_section(grads, diag, h, N, field)
    *gvals, residual = _eval_on_section(grads + [h], phi, n, field)
    if any(not c.is_zero() for gv in gvals for c in gv):
        raise ValueError("critical section fails its full-precision certificate")
    m = next((d for d, c in enumerate(residual) if not c.is_zero()), None)
    if m is None:
        raise ValueError("jet order exceeded: kernel series vanishes to jet order")
    if m < 3:
        raise ValueError("kernel series has unexpected low order")
    return SingularityReport(_affine_point(field, vals), m - 1)


def _lift_section(
    grads: Sequence[MPoly], diag: Sequence[FieldElement], read: MPoly, cap: int, field: Field
) -> tuple[list[list[FieldElement]], int]:
    """The critical section x_i = phi_i(w) of grad_0 = .. = grad_{r-1} = 0,
    the x-gradients of a jet h(x, w) without linear terms whose quadratic
    part is sum d_i x_i^2, as dense series in w, lifted one coefficient at a
    time (relaxed evaluation; van der Hoeven, "Relax, but don't be too
    lazy", J. Symbolic Comput. 34 (2002)), with the series read(phi, w)
    grown alongside.  The lift stops at the first index m >= 1 where
    read(phi, w) has a nonzero coefficient, or at m = cap (cap >= 1), and
    returns the section truncated after w^m and m.

    So grad_i = 2 d_i x_i + q_i with every term of q_i(x, w) of total degree
    >= 2.  With every phi_j of valuation >= 1, [w^k] q_i(phi, w) reads only
    the phi_j[< k], so [w^k] grad_i(phi, w) = 0 forces
    phi_i[k] = -[w^k] q_i(phi, w) / (2 d_i).  Hence the solution of
    valuation >= 1 modulo w^(m+1) exists and is unique, and the fixed point
    of the chord iteration phi <- phi - grad(phi) / (2 d), being such a
    solution, is this one.  A monomial x^a, |a| >= 2, is built online from
    x^b, b = a - e_i: its coefficient k is the sum over j >= 1 of
    phi_i[j] * (x^b)[k - j], which reads only coefficients below k.  Once
    the phi_i[k] are known, so is [w^k] read(phi, w), which reads no
    coefficient above k."""
    zero, r = field.zero, len(diag)
    phi = [[zero] * (cap + 1) for _ in range(r)]
    series = {tuple(int(j == i) for j in range(r)): phi[i] for i in range(r)}
    series[(0,) * r] = [field.one] + [zero] * cap
    products = []

    def mono(a: tuple) -> list:
        if a not in series:
            i = next(j for j, k in enumerate(a) if k)
            series[a] = [zero] * (cap + 1)
            products.append((series[a], phi[i], mono(a[:i] + (a[i] - 1,) + a[i + 1 :])))
        return series[a]

    terms = [[(c, mono(e[:r]), sum(e[r:])) for e, c in g.terms.items() if sum(e) > 1] for g in grads]
    reads = [(c, mono(e[:r]), sum(e[r:])) for e, c in read.terms.items()]
    scale = [-(d * 2).inv() for d in diag]
    for k in range(1, cap + 1):
        for out, p, b in products:
            out[k] = sum((p[j] * b[k - j] for j in range(1, k)), zero)
        for i, ts in enumerate(terms):
            phi[i][k] = sum((c * s[k - kw] for c, s, kw in ts if kw <= k), zero) * scale[i]
        if not sum((c * s[k - kw] for c, s, kw in reads if kw <= k), zero).is_zero():
            break
    return [p[: k + 1] for p in phi], k


def _eval_on_section(
    polys: Sequence[MPoly], phi: list[list[FieldElement]], N: int, field: Field
) -> list[list[FieldElement]]:
    """Each p(x_0, .., x_{r-1}, w) at x_i = phi_i(w), as the dense series in
    w truncated after w^N; the phi_i are given the same way.

    Every phi_i has valuation >= 1, so a monomial of total degree d maps to
    a series of valuation >= d.  Truncating after substitution therefore
    gives the same series as truncating at total degree N after each
    substitution.  The truncated powers phi_i^k and the monomials in the x_i
    are cached across the polynomials, which share most of them."""
    zero = field.zero
    r = len(phi)

    def mul(a: list, b: list) -> list:
        out = [zero] * (N + 1)
        for i, ai in enumerate(a):
            if not ai.is_zero():
                for j in range(N + 1 - i):
                    if not b[j].is_zero():
                        out[i + j] = out[i + j] + ai * b[j]
        return out

    one = [field.one] + [zero] * N
    powers = [[one] for _ in range(r)]
    monos: dict[tuple, list] = {}

    def mono(ex: tuple) -> list:
        if ex not in monos:
            acc = one
            for i, k in enumerate(ex):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(mul(pw[-1], phi[i]))
                    acc = mul(acc, pw[k])
            monos[ex] = acc
        return monos[ex]

    results = []
    for p in polys:
        out = [zero] * (N + 1)
        for e, c in p.terms.items():
            kw = sum(e[r:])
            m = mono(e[:r])
            for d in range(N + 1 - kw):
                if not m[d].is_zero():
                    out[d + kw] = out[d + kw] + c * m[d]
        results.append(out)
    return results


def _affine_point(field: Field, vals: list[FieldElement]) -> ProjPoint:
    return ProjPoint(field, list(vals) + [field.one])


def branch_ade_type(contact: int) -> int:
    """Double-cover type above a point where the two branch components meet
    with the given intersection multiplicity: A_{2n-1}."""
    if contact < 1:
        raise ValueError("no singularity for contact order 0")
    return 2 * contact - 1


def double_cover_type(sextic: MPoly, P: ProjPoint) -> SingularityReport:
    """A_k type of the double cover w^2 = sextic above a singular point of
    the sextic, classified on the branch curve: the sextic's equation f in
    an affine chart at the point.  Sound because the cover's local equation
    w^2 - f is -f plus the square of a new variable: its Hessian is that of
    -f bordered by the nonzero entry of w, so the corank is the same, and
    the splitting lemma splits w off and leaves the residual of -f, of the
    same order as that of f (stable equivalence; Arnold, Gusein-Zade and
    Varchenko I, section 11).  So the surface point has the curve point's k."""
    rep = milnor_ade_classify(*P.affine(sextic))
    return SingularityReport(ProjPoint(sextic.field, P.coords), rep.k)


# ---------------------------------------------------------------------------
# intersection multiplicities of plane curves
# ---------------------------------------------------------------------------


def intersection_multiplicity(F: MPoly, G: MPoly, P: ProjPoint) -> int:
    """I_P(F, G) for plane curves without a common component through P: by
    restriction when either curve is a line (``_line_contact``), else as the
    order of the other curve on the branch of one that is smooth at P
    (``_branch_contact``)."""
    F, G = MPoly.common(F, G)
    if G.total_degree() == 1:
        return _line_contact(F, G, P)
    if F.total_degree() == 1:
        return _line_contact(G, F, P)
    return _branch_contact(F, G, P)


def _branch_contact(F: MPoly, G: MPoly, P: ProjPoint) -> int:
    """I_P(F, G) = ord_P^F(G) for F smooth at P (Fulton, Algebraic Curves,
    section 3.3), F and G swapped when only G is; both singular at P
    raises.

    On the chart at P, translated to the origin, a linear change of
    coordinates makes F's linear part b*u, b != 0, with w the other
    coordinate.  As df/du != 0 at P, w is a uniformizer of the discrete
    valuation ring of F at P, whose completion is K[[w]] with u the branch
    phi(w) of f(u, w) = 0, so ord_P^F(G) is the order in w of g(phi(w), w).
    ``_lift_section([f], [b/2], g, ..)`` lifts phi until g(phi, w) has a
    nonzero coefficient, at order m, and ``_eval_on_section`` certifies it
    at m: f(phi, w) must vanish to order m, or the contact raises, so a
    wrong section cannot pass.  Then phi agrees with the branch modulo
    w^(m+1) (the uniqueness argument of ``_lift_section``), and g(phi) -
    g(branch) is divisible by phi - branch, so the first nonzero index of
    g(phi, w) up to m, read in the same pass, is I_P.  The lift is capped
    at deg F * deg G: a series still zero there exceeds the Bezout bound of
    curves without a common component."""
    f, coords = P.affine(F)
    f, g = f.translate(coords), P.affine(G)[0].translate(coords)
    if not f.const_coeff().is_zero() or not g.const_coeff().is_zero():
        return 0
    if f.homog_component(1).is_zero():
        f, g = g, f
    field = f.field
    a, c = (f.terms.get(e, field.zero) for e in ((1, 0), (0, 1)))
    if a.is_zero() and c.is_zero():
        raise ValueError(f"both curves are singular at {P}")
    X, Y = MPoly.gens(field, f.vars)
    # u the first coordinate, w the second: a*x + c*y = b*u
    images, b = ([X - Y * (c / a), Y], a) if not a.is_zero() else ([Y, X], c)
    f, g = f.subst_polys(images), g.subst_polys(images)
    phi, n = _lift_section([f], [b * Fraction(1, 2)], g, F.total_degree() * G.total_degree(), field)
    fs, gs = _eval_on_section([f, g], phi, n, field)
    if any(not t.is_zero() for t in fs):
        raise ValueError(f"branch at {P} fails its certificate")
    m = next((k for k, t in enumerate(gs) if not t.is_zero()), None)
    if m is None:
        raise ValueError("infinite intersection multiplicity: common component")
    return m


def _solve_line(line: MPoly) -> tuple[str, MPoly]:
    """Solve a degree-1 form for one variable: returns (var, image)."""
    if line.total_degree() != 1:
        raise ValueError("not a line")
    coeffs = {v: line.coeffs_in(v).get(1) for v in line.vars}
    for v in reversed(line.vars):
        c = coeffs.get(v)
        if c is not None and not c.is_zero():
            rest = line.set_var(v, line.field.zero)
            return v, rest * (-c.const_coeff().inv())
    raise ValueError("degenerate line")


def restrict_to_line(poly: MPoly, line: MPoly) -> tuple[MPoly, str]:
    """Restriction of a form to a line (substituting out one variable);
    returns the binary form and the eliminated variable."""
    poly, line = MPoly.common(poly, line)
    v, image = _solve_line(line)
    return poly.set_var_poly(v, image), v


def _line_contact(F: MPoly, L: MPoly, P: ProjPoint) -> int:
    """I_P(F, L) for a line L: the multiplicity at P of the restriction of F
    to L (Fulton, Algebraic Curves, section 3.3).

    ``restrict_to_line`` solves L for one coordinate, which it substitutes
    out of F; the binary form R in the two kept coordinates is F on L.
    Sound because a line is nonsingular at each of its points, where
    I_P(F, L) = ord_P^L(F), the order of F in the discrete valuation ring
    of L at P; the kept coordinates map L isomorphically onto P^1 (the
    solved one is a linear form in them), so that order is the order of R
    at the image of P, its multiplicity there.  A restriction that is
    identically zero means F vanishes on L, so L is a component of F."""
    if not L.evaluate(P.coords).is_zero():
        return 0
    R, gone = restrict_to_line(F, L)
    if R.is_zero():
        raise ValueError("infinite intersection multiplicity: common component")
    i = R.vars.index(gone)
    Q = ProjPoint(P.field, [c for j, c in enumerate(P.coords) if j != i])
    return multiplicity_at(R.drop_vars([gone]), Q)


def multiplicity_at(F: MPoly, P: ProjPoint) -> int:
    """Multiplicity of the plane curve F at P (order of vanishing of the
    translated chart equation)."""
    f, coords = P.affine(F)
    return max(f.translate(coords).min_total_degree(), 0)


# ---------------------------------------------------------------------------
# curve intersection completeness
# ---------------------------------------------------------------------------


def verify_curve_intersections(F: MPoly, G: MPoly, claimed: Sequence[tuple[ProjPoint, int]]) -> LocusReport:
    """Certify that the claimed points with multiplicities are exactly the
    intersection of the projective plane curves F and G over the algebraic
    closure: the points are pairwise distinct, each claimed m is I_P(F, G),
    and the m sum to deg F * deg G.

    Without a common component, Bezout's theorem makes the sum of I_P over
    all points deg F * deg G, so the claimed points are all of them.  With
    a common component C of degree c >= 1, a claimed point on C has
    infinite I_P and raises, and a point off C has I_P(F, G) = I_P(F/C, G/C);
    these sum to at most (deg F - c)(deg G - c) < deg F * deg G, so the
    total cannot be reached.  Distinctness is required: one point of
    multiplicity 3 listed twice in place of another would reach it."""
    if not (F.is_homogeneous() and G.is_homogeneous()):
        raise ValueError("verify_curve_intersections requires homogeneous inputs")
    points = [P for P, _ in claimed]
    if len(set(points)) < len(points):
        return LocusReport("fail", witness="a point is listed twice")
    for P, m in claimed:
        if intersection_multiplicity(F, G, P) != m:
            return LocusReport("fail", witness=f"multiplicity mismatch at {P}")
    if sum(m for _, m in claimed) != F.total_degree() * G.total_degree():
        return LocusReport("fail", witness="multiplicities do not add up to the Bezout number")
    return LocusReport("complete", verified=points)
