"""Singular loci of plane curves and surfaces, A_k classification by
splitting-lemma jet reduction, and intersection multiplicities of plane
curves.

Completeness of a singular locus is certified by elimination: cascaded
pairwise resultants of the partials bound the possible coordinates of
solutions, gcds across several cascade orders strip extraneous factors, and
candidate fibres are re-verified by exact substitution.  Over QQ(s) a
nonzero eliminant that is constant in the curve variables certifies
smoothness for generic s.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import permutations
from typing import Optional, Sequence

from .field import Field, FieldElement
from .mpoly import MPoly
from .polyops import gcd_bivariate, gcd_poly, resultant

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
    verified: list = dc_field(default_factory=list)
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "complete"


# ---------------------------------------------------------------------------
# certified affine solving (solutions of a 0-dimensional system == candidates)
# ---------------------------------------------------------------------------


def _used_vars(p: MPoly) -> tuple:
    used = set()
    for e in p.terms:
        for i, k in enumerate(e):
            if k:
                used.add(p.vars[i])
    return tuple(v for v in p.vars if v in used)


def _gcd_generic(a: MPoly, b: MPoly) -> Optional[MPoly]:
    """Gcd of polynomials in at most two effective variables; None when the
    computation is out of scope (more variables)."""
    used = set(_used_vars(a)) | set(_used_vars(b))
    if len(used) <= 1:
        return gcd_poly(a, b)
    if len(used) == 2:
        x, y = [v for v in a.vars if v in used]
        return gcd_bivariate(a, b, x, y)
    return None


def _pair_eliminations(polys: list[MPoly], v: str, cap: int = 6) -> list[MPoly]:
    """Sound nonzero eliminations of v: each returned polynomial vanishes on
    the projection of the common zero set of the system.  The smallest
    polynomial is used as pivot; zero resultants (shared factors) are broken
    by mixing in further system members, and extra pair resultants are added
    until the whole output set has constant gcd, so later levels do not
    collapse on an inherited common factor."""
    with_v = sorted(
        (p for p in polys if p.degree_in(v) > 0),
        key=lambda p: (p.degree_in(v), len(p.terms), p.total_degree()),
    )
    without_v = [p for p in polys if p.degree_in(v) == 0 and not p.is_zero()]
    if len(with_v) < 2:
        return without_v
    out = list(without_v)
    pivot = with_v[0]
    others = with_v[1:] + without_v
    for q in with_v[1:]:
        r = resultant(pivot, q, v)
        if r.is_zero():
            for other in others:
                if other is q:
                    continue
                mix = q + other
                if mix.degree_in(v) > 0:
                    r = resultant(pivot, mix, v)
                    if not r.is_zero():
                        break
                mix = pivot + other
                if mix.degree_in(v) > 0:
                    r = resultant(mix, q, v)
                    if not r.is_zero():
                        break
            else:
                continue
        out.append(r)

    def set_gcd(ps: list[MPoly]) -> Optional[MPoly]:
        acc = None
        for p in ps:
            if p.is_const():
                return p
            acc = p if acc is None else _gcd_generic(acc, p)
            if acc is None or acc.is_const():
                return acc
        return acc

    g = set_gcd(out) if out else None
    if out and g is not None and not g.is_const():
        extra_pairs = [
            (a, b)
            for i, a in enumerate(with_v)
            for b in with_v[i + 1 :]
            if a is not pivot
        ]
        extra_pairs.sort(key=lambda ab: ab[0].degree_in(v) + ab[1].degree_in(v))
        for a, b in extra_pairs:
            r = resultant(a, b, v)
            if r.is_zero():
                continue
            out.append(r)
            g = _gcd_generic(g, r)
            if g is None or g.is_const():
                break
    out.sort(key=lambda p: (p.total_degree(), len(p.terms)))
    kept = out[:cap]
    if len(out) > cap:
        g = set_gcd(kept)
        for p in out[cap:]:
            if g is None or g.is_const():
                break
            kept.append(p)
            g = _gcd_generic(g, p)
    return kept


def _eliminate_to_first(
    system: list[MPoly], vars: Sequence[str], order: Optional[Sequence[str]] = None
) -> MPoly:
    """A nonzero univariate polynomial in vars[0] vanishing on the projection
    of every common solution; gcds across independent eliminations strip the
    extraneous factors that resultant chains introduce."""
    polys = [p for p in system if not p.is_zero()]
    if not polys:
        raise ValueError("elimination of the zero system")
    for v in order if order is not None else vars[1:][::-1]:
        polys = _pair_eliminations(polys, v)
        if not polys:
            raise ValueError(f"elimination degenerated at {v}")
    raw_const = next((p for p in polys if p.is_const()), None)
    if raw_const is not None:
        return raw_const
    gcd_acc: Optional[MPoly] = None
    for p in polys:
        gcd_acc = p if gcd_acc is None else gcd_poly(gcd_acc, p)
        if gcd_acc.is_const():
            break
    if gcd_acc is None or gcd_acc.is_zero():
        raise ValueError("elimination produced no usable polynomial")
    return gcd_acc


def _strip_candidate_roots(e: MPoly, var: str, values: Sequence[FieldElement]) -> MPoly:
    """Divide out (var - a) for each candidate value a as often as possible."""
    out = e
    x = MPoly.variable(e.field, e.vars, var)
    for a in dict.fromkeys(values):
        lin = x - a
        while True:
            try:
                out = out.exact_div(lin)
            except ValueError:
                break
    return out


def certify_affine_solutions(
    system: list[MPoly], vars: Sequence[str], candidates: list[tuple]
) -> tuple[bool, Optional[str]]:
    """Certify that the common zero set of the system (over the algebraic
    closure) is contained in the candidate list.  Returns (ok, witness)."""
    nonzero = [p for p in system if not p.is_zero()]
    if not nonzero:
        return False, "system is identically zero"
    if any(p.is_const() for p in nonzero):
        # a nonzero constant equation: no solutions at all
        return True, None
    if len(vars) == 1:
        g = None
        for p in nonzero:
            g = p if g is None else gcd_poly(g, p)
            if g.is_const():
                break
        if g.is_const():
            if candidates:
                return False, "claimed point in an empty fibre"
            return True, None
        rest = _strip_candidate_roots(g, vars[0], [c[0] for c in candidates])
        if rest.total_degree() > 0:
            return False, f"unaccounted factor in {vars[0]}: {rest}"
        return True, None
    # lazily sharpen the eliminant over several elimination orders: junk
    # factors from one resultant cascade rarely survive a second order
    e: Optional[MPoly] = None
    rest: Optional[MPoly] = None
    cand_vals = [c[0] for c in candidates]
    for order in permutations(vars[1:]):
        try:
            e_new = _eliminate_to_first(nonzero, vars, order=order[::-1])
        except ValueError:
            continue
        e = e_new if e is None else gcd_poly(e, e_new)
        if e.is_const():
            if candidates:
                return False, "constant eliminant despite claimed points"
            return True, None
        rest = _strip_candidate_roots(e, vars[0], cand_vals)
        if rest.total_degree() <= 0:
            break
    if e is None:
        return False, "all elimination orders degenerated"
    if rest is not None and rest.total_degree() > 0:
        return False, f"unaccounted factor in {vars[0]}: {rest}"
    fibres: dict = {}
    for cand in candidates:
        fibres.setdefault(cand[0].sort_key(), (cand[0], []))[1].append(cand[1:])
    for _, (a, rest_cands) in sorted(fibres.items()):
        restricted = [p.set_var(vars[0], a) for p in nonzero]
        restricted = [p for p in restricted if not p.is_zero()]
        if not restricted:
            return False, f"fibre {vars[0]} = {a} is positive-dimensional"
        ok, witness = certify_affine_solutions(restricted, vars[1:], rest_cands)
        if not ok:
            return False, f"fibre {vars[0]} = {a}: {witness}"
    return True, None


# ---------------------------------------------------------------------------
# singular locus verification
# ---------------------------------------------------------------------------


def verify_singular_locus(F: MPoly, candidates: Sequence[ProjPoint]) -> LocusReport:
    """Confirm that the candidates are exactly the singular points of the
    projective hypersurface F = 0 (over the algebraic closure; over QQ(s),
    for generic s)."""
    if not F.is_homogeneous():
        raise ValueError("verify_singular_locus requires a homogeneous input")
    vars = F.vars
    partials = [F.derivative(v) for v in vars]
    # F itself vanishes on the singular locus (Euler relation, char 0); it is
    # redundant but gives the elimination more material to pair with.
    system_polys = partials + [F]
    for P in candidates:
        vals = list(P.coords)
        for dF in partials:
            if not dF.evaluate(vals).is_zero():
                return LocusReport("fail", witness=f"partials do not vanish at {P}")
    for chart_i, chart_var in enumerate(vars):
        chart_vars = vars[:chart_i] + vars[chart_i + 1 :]
        system = [p.dehomogenize(chart_var) for p in system_polys]
        chart_cands = []
        for P in candidates:
            c = P.coords[chart_i]
            if not c.is_zero():
                inv = c.inv()
                chart_cands.append(
                    tuple(P.coords[j] * inv for j in range(len(vars)) if j != chart_i)
                )
        ok, witness = certify_affine_solutions(system, chart_vars, chart_cands)
        if not ok:
            return LocusReport("fail", witness=f"chart {chart_var} = 1: {witness}")
    return LocusReport("complete", verified=list(candidates))


# ---------------------------------------------------------------------------
# A_k classification via the splitting lemma on jets
# ---------------------------------------------------------------------------


def milnor_ade_classify(
    f: MPoly, point: Sequence, jet_order: int = DEFAULT_JET_ORDER
) -> SingularityReport:
    """Classify an isolated critical point with critical value 0 as A_k by
    corank computation and jet-level square completion.  Returns the report
    with milnor number k."""
    N = jet_order
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

    # restrict to the critical section: solve grad_x h(x, w) = 0 for the
    # nondegenerate coordinates x as series in the kernel variable w, by
    # Newton iteration with the constant Hessian block (order grows by at
    # least one per step); the splitting-lemma residual is h on that section.
    # h has no constant or linear terms, so phi keeps valuation >= 1 in w.
    grads = [h.derivative(f.vars[i]) for i in range(rank)]
    phi = [[field.zero] * (N + 1) for _ in range(rank)]
    inv2d = [(d * 2).inv() for d in diag]

    converged = False
    for _ in range(N + 3):
        gvals = _eval_on_section(grads, phi, N, field)
        if all(c.is_zero() for gv in gvals for c in gv):
            converged = True
            break
        phi = [[c - g * inv2d[i] for c, g in zip(phi[i], gvals[i])] for i in range(rank)]
    if not converged:
        raise ValueError("jet order exceeded: critical section did not stabilize")

    (residual,) = _eval_on_section([h], phi, N, field)
    m = next((d for d, c in enumerate(residual) if not c.is_zero()), None)
    if m is None:
        raise ValueError("jet order exceeded: kernel series vanishes to jet order")
    if m < 3:
        raise ValueError("kernel series has unexpected low order")
    return SingularityReport(_affine_point(field, vals), m - 1)


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
    the sextic, computed from the local equation w^2 - sextic in an affine
    chart at the point."""
    affine, coords = P.affine(sextic)
    wvars = affine.vars + ("w_cov",)
    field = affine.field
    w = MPoly.variable(field, wvars, "w_cov")
    local = w * w - affine.with_vars(wvars)
    rep = milnor_ade_classify(local, coords + [field.zero])
    return SingularityReport(ProjPoint(field, P.coords), rep.k)


# ---------------------------------------------------------------------------
# intersection multiplicities of plane curves
# ---------------------------------------------------------------------------


def intersection_multiplicity(F: MPoly, G: MPoly, P: ProjPoint) -> int:
    """I_P(F, G) for plane curves without a common component through P: by
    restriction when either curve is a line (``_line_contact``), else by the
    axiomatic reduction algorithm on a chart at P."""
    F, G = MPoly.common(F, G)
    if G.total_degree() == 1:
        return _line_contact(F, G, P)
    if F.total_degree() == 1:
        return _line_contact(G, F, P)
    return _fulton_multiplicity(F, G, P)


def _fulton_multiplicity(F: MPoly, G: MPoly, P: ProjPoint) -> int:
    """I_P(F, G) over one field by the axiomatic reduction algorithm
    (Fulton, section 3.3) on a chart at P, after a bivariate gcd rules out a
    common component through P."""
    f, coords = P.affine(F)
    f, g = f.translate(coords), P.affine(G)[0].translate(coords)
    if not f.const_coeff().is_zero() or not g.const_coeff().is_zero():
        return 0
    x, y = f.vars
    d = gcd_bivariate(f, g, x, y)
    if d.total_degree() > 0 and d.const_coeff().is_zero():
        raise ValueError("infinite intersection multiplicity: common component")
    return _imult_origin(f, g)


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


def _ord_univar(p: MPoly) -> int:
    return p.min_total_degree()


def _imult_origin(f: MPoly, g: MPoly) -> int:
    x, y = f.vars
    field = f.field
    total = 0
    while True:
        if f.is_zero() or g.is_zero():
            raise ValueError("infinite intersection multiplicity")
        a = f.set_var(y, field.zero)
        b = g.set_var(y, field.zero)
        if a.is_zero() and b.is_zero():
            raise ValueError("infinite intersection multiplicity: common factor y")
        if a.is_zero():
            f1 = f.exact_div(MPoly.variable(field, f.vars, y))
            total += _ord_univar(b)
            f = f1
            if not f.const_coeff().is_zero():
                return total
            continue
        if b.is_zero():
            g1 = g.exact_div(MPoly.variable(field, f.vars, y))
            total += _ord_univar(a)
            g = g1
            if not g.const_coeff().is_zero():
                return total
            continue
        da, db = a.degree_in(x), b.degree_in(x)
        if da > db:
            f, g = g, f
            a, b, da, db = b, a, db, da
        lc_a = a.coeffs_in(x)[da].const_coeff()
        lc_b = b.coeffs_in(x)[db].const_coeff()
        factor = lc_b * lc_a.inv()
        xpow = MPoly.variable(field, f.vars, x) ** (db - da)
        g = g - f * xpow * factor
        if g.is_zero():
            raise ValueError("infinite intersection multiplicity: proportional")
        if not g.const_coeff().is_zero():
            return total


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
    intersection of the plane curves F and G: each multiplicity is recomputed,
    the total matches Bezout, and the eliminant in z factors exactly into the
    claimed images -- so no further intersection points exist."""
    for P, m in claimed:
        if intersection_multiplicity(F, G, P) != m:
            return LocusReport("fail", witness=f"multiplicity mismatch at {P}")
    degF, degG = F.total_degree(), G.total_degree()
    if sum(m for _, m in claimed) != degF * degG:
        return LocusReport("fail", witness="multiplicities do not add up to the Bezout number")
    lcF = F.coeffs_in("z").get(F.degree_in("z"))
    lcG = G.coeffs_in("z").get(G.degree_in("z"))
    if not (lcF is not None and lcF.is_const() and lcG is not None and lcG.is_const()):
        return LocusReport("fail", witness="leading coefficient in z is not constant")
    rest = resultant(F, G, "z")
    xv, yv = [v for v in F.vars if v != "z"]
    x = MPoly.variable(F.field, F.vars, xv)
    y = MPoly.variable(F.field, F.vars, yv)
    iv_x, iv_y = F.vars.index(xv), F.vars.index(yv)
    for P, m in claimed:
        a, b = P.coords[iv_x], P.coords[iv_y]
        lin = x * b - y * a
        for _ in range(m):
            try:
                rest = rest.exact_div(lin)
            except ValueError:
                return LocusReport("fail", witness=f"eliminant not divisible by image of {P}")
    if rest.total_degree() > 0:
        return LocusReport("fail", witness=f"eliminant has extra factor {rest}")
    return LocusReport("complete", verified=[P for P, _ in claimed])
