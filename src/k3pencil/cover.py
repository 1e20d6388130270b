"""The double-sextic model: branch configuration per fibre, even-contact
tests for plane lines, explicit component lifts to the cover, intersection
numbers of lifted lines, and the birational chain from the symmetric pencil
to the double sextic (including the Cremona step)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .field import QQ, QS, QSA, Field, FieldElement, _fraction_sqrt
from .mpoly import MPoly
from .polyops import specialize, squarefree_decomposition, squarefree_unit, substitute
from .pencil import (
    GENERIC_BRANCH_POINTS,
    XYZ,
    affine_quartic,
    branch_cubic,
    branch_cubic_at,
    fiber_singular_table,
    quartic_f,
    reciprocal_pencil,
    surface_r,
)
from .singular import ProjPoint, multiplicity_at

#: Expected intersection matrix of the eight lifted lines on the generic
#: fibre (diagonal -2 from adjunction).
REFERENCE_LINE_MATRIX = (
    (-2, 0, 0, 0, 0, 0, 0, 0),
    (0, -2, 0, 0, 0, 0, 0, 0),
    (0, 0, -2, 0, 0, 0, 0, 0),
    (0, 0, 0, -2, 0, 1, 0, 1),
    (0, 0, 0, 0, -2, 0, 1, 0),
    (0, 0, 0, 1, 0, -2, 0, 1),
    (0, 0, 0, 0, 1, 0, -2, 0),
    (0, 0, 0, 1, 0, 1, 0, -2),
)


@dataclass(frozen=True)
class LiftedLine:
    label: str
    line: MPoly       # degree-1 form in x, y, z
    w_formula: MPoly  # degree-3 form; on the line, w_formula^2 = sextic


@dataclass
class BranchConfig:
    s_value: Union[str, Fraction]   # "generic" or a rational
    field: Field
    g0: MPoly
    g1: MPoly
    sextic: MPoly
    singular_points: list

    @staticmethod
    def generic() -> "BranchConfig":
        g0, g1 = branch_cubic(0, QSA), branch_cubic(1, QSA)
        pts = [ProjPoint(QSA, c) for c, _ in GENERIC_BRANCH_POINTS]
        return BranchConfig("generic", QSA, g0, g1, g0 * g1, pts)

    @staticmethod
    def at(s0) -> "BranchConfig":
        s0 = Fraction(s0)
        g0, g1 = branch_cubic_at(0, s0), branch_cubic_at(1, s0)
        sex = g0 * g1
        field = QQ
        if s0 in (-1, 2):
            field = specialize(QSA.alpha(), s0).field
            g0, g1, sex = (p.to_field(field) for p in (g0, g1, sex))
        pts = [ProjPoint(field, c) for c, _ in fiber_singular_table(s0)]
        return BranchConfig(s0, field, g0, g1, sex, pts)


def generic_lines() -> list[LiftedLine]:
    """The eight split lines of the generic fibre with their chosen lift
    components.  The last four are grouped as the two x-lines then the two
    y-lines, the order consistent with the expected intersection matrix."""
    f = QSA
    x, y, z = MPoly.gens(f, XYZ)
    s, a = f.s(), f.alpha()
    s_inv = s.inv()
    return [
        LiftedLine("L1", z, 2 * x * y * (x + y)),
        LiftedLine("L2", z - 2 * x, 2 * x * x * (x - y)),
        LiftedLine("L3", z - 2 * y, 2 * y * y * (y - x)),
        LiftedLine("L4", z - x - y, (x - y) * (x - y) * (x + y) * a),
        LiftedLine("L5", z * (s + a) - x, x * y * (x - y * (a + s)) * s_inv),
        LiftedLine("L6", z * (s - a) - x, x * y * (x + y * (a - s)) * s_inv),
        LiftedLine("L7", z * (s + a) - y, x * y * (y - x * (a + s)) * s_inv),
        LiftedLine("L8", z * (s - a) - y, x * y * (y + x * (a - s)) * s_inv),
    ]


def fiber_lines(s_value) -> list[LiftedLine]:
    """Split lines of a fibre: the generic eight, their specialization at
    s = -1 (alpha a square root of 2), or the five rational lines at s = 1
    with lifts derived from the even-contact certificate."""
    if s_value == "generic":
        return generic_lines()
    s0 = Fraction(s_value)
    if s0 == -1:
        out = []
        for ll in generic_lines():
            out.append(LiftedLine(ll.label, specialize(ll.line, s0), specialize(ll.w_formula, s0)))
        return out
    if s0 == 1:
        config = BranchConfig.at(1)
        x, y, z = MPoly.gens(QQ, XYZ)
        lines = [z, z - 2 * x, z - 2 * y, z - x, z - y]
        return [
            LiftedLine(f"L{i+1}", line, derive_lift(line, config))
            for i, line in enumerate(lines)
        ]
    raise ValueError(f"no line table for s = {s0}")


# ---------------------------------------------------------------------------
# even contact and lifts
# ---------------------------------------------------------------------------


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


#: The place s = 4/3, alpha = 2/3 at which ``even_contact_test`` first looks
#: for odd contact: over QQ(m) it is the rational place m = alpha/s = 1/2,
#: over QQ(s) the place s = 4/3.
CONTACT_PLACE = (Fraction(4, 3), Fraction(2, 3))


def _odd_at_place(restriction: MPoly, v: str) -> bool:
    """True only if the binary form R = restriction, over QQ(s) or QQ(m), is
    not unit * q^2: it meets the sextic with odd contact somewhere.

    R is specialized at CONTACT_PLACE, i.e. its parameter t (s or m) at a
    rational t0.  When no coefficient has a pole there and the specialization
    R0 is nonzero, True means R0 has a root of odd multiplicity on P^1 over
    QQ: its v-exponent is odd, or Yun's algorithm over QQ finds an odd
    exponent in R0(u, 1).  Sound by Gauss's lemma, as for the coprimality
    certificate of ``gcd_poly``: the local ring O of QQ[t] at t = t0 is a
    discrete valuation ring with residue field QQ.  Suppose R = u * q^2.
    Over O, Gauss's lemma (the content of a product is the sum of the
    contents) lets q be taken primitive; then the content of R is the
    valuation of u.  R is integral with a nonzero reduction, so u is a unit,
    R0 = u0 * q0^2 with u0 and q0 nonzero, and every multiplicity of R0 is
    even.  False means "not certified": the caller runs the exact path."""
    if not restriction.field.with_s:
        return False
    try:
        r0 = specialize(restriction, *CONTACT_PLACE)
    except ValueError:
        return False
    if r0.is_zero():
        return False
    iv = r0.vars.index(v)
    if min(e[iv] for e in r0.terms) % 2:
        return True
    return any(e % 2 for _, e in squarefree_decomposition(r0.set_var(v, QQ.one)))


def even_contact_test(line: MPoly, config: BranchConfig):
    """Whether the line meets the branch sextic with even multiplicity
    everywhere (including at infinity on the line).  Returns
    (flag, certificate, unit): on even contact, restriction = unit * q^2.
    Over QQ(s) and QQ(m), odd contact is first looked for at a rational
    place (``_odd_at_place``); the exact squarefree decomposition
    runs when that finds none."""
    restriction, gone = restrict_to_line(config.sextic, line)
    if restriction.is_zero():
        raise ValueError("line is a component of the branch sextic")
    par_vars = [v for v in restriction.vars if restriction.degree_in(v) > 0]
    total = restriction.total_degree()
    if len(par_vars) == 1:
        # the restriction degenerated to a single monomial direction
        u = par_vars[0]
        exps = {e[restriction.vars.index(u)] for e in restriction.terms}
        if len(exps) != 1:
            raise ValueError("inhomogeneous restriction")
        k = exps.pop()
        even = (k % 2 == 0) and ((total - k) % 2 == 0)
        q = MPoly.variable(restriction.field, restriction.vars, u) ** (k // 2)
        return even, q, restriction.terms[next(iter(restriction.terms))]
    u, v = par_vars
    if _odd_at_place(restriction, v):
        return False, None, None
    iu, iv = restriction.vars.index(u), restriction.vars.index(v)
    dv = min(e[iv] for e in restriction.terms)
    affine = restriction.set_var(v, restriction.field.one)
    decomp = squarefree_decomposition(affine)
    unit = squarefree_unit(affine)
    even = dv % 2 == 0 and all(e % 2 == 0 for _, e in decomp)
    if not even:
        return False, None, None
    field = restriction.field
    q = MPoly.const(field, restriction.vars, 1)
    for fpoly, e in decomp:
        q = q * fpoly ** (e // 2)
    # re-homogenize to degree total/2, restoring the v-coordinate factor
    target = (total - dv) // 2
    q_h = MPoly.zero(field, restriction.vars)
    for e, c in q.terms.items():
        ne = list(e)
        ne[iv] = target - e[iu]
        q_h = q_h + MPoly(field, restriction.vars, {tuple(ne): c})
    q_h = q_h * MPoly.variable(field, restriction.vars, v) ** (dv // 2)
    return True, q_h, unit


def derive_lift(line: MPoly, config: BranchConfig) -> MPoly:
    """Derive the w-formula of a chosen lift component: the square root of
    the restricted sextic, extended to a degree-3 form in x, y, z, with the
    sign fixed by the smaller canonical sort key.  Lifts are derived over
    QQ only (the lines of s = 1): the unit must be a rational square."""
    even, q, unit = even_contact_test(line, config)
    if not even:
        raise ValueError("line does not have even contact")
    root = _fraction_sqrt(unit.v) if unit.field == QQ else None
    if root is None:
        raise ValueError("unit is not a square in QQ")
    w = q.to_field(config.field).with_vars(config.sextic.vars) * root
    # certificate so far lives on the line's parameter plane; it already is a
    # form in the surviving variables, which is what the lift stores
    cands = [w, -w]
    cands.sort(key=lambda p: p.sort_key())
    return cands[0]


def verify_component_lift(lift: LiftedLine, config: BranchConfig):
    """Exact check that the printed component satisfies w^2 = sextic modulo
    the line: returns (ok, residual)."""
    sex = config.sextic
    w2 = lift.w_formula.to_field(sex.field) * lift.w_formula.to_field(sex.field)
    residual, _ = restrict_to_line(w2 - sex, lift.line)
    return residual.is_zero(), residual


def line_intersection_point(a: MPoly, b: MPoly) -> ProjPoint:
    """The intersection point of two distinct plane lines (cross product of
    the coefficient covectors)."""
    a, b = MPoly.common(a, b)
    field = a.field

    def cov(p: MPoly) -> list[FieldElement]:
        out = []
        for v in p.vars:
            c = p.coeffs_in(v).get(1)
            out.append(c.const_coeff() if c is not None else field.zero)
        return out

    u, w = cov(a), cov(b)
    cross = [
        u[1] * w[2] - u[2] * w[1],
        u[2] * w[0] - u[0] * w[2],
        u[0] * w[1] - u[1] * w[0],
    ]
    if all(c.is_zero() for c in cross):
        raise ValueError("lines coincide")
    return ProjPoint(field, cross)


def lifted_line_intersection(
    a: LiftedLine, b: LiftedLine, config: BranchConfig, excluded: Optional[Sequence[ProjPoint]] = None
) -> int:
    """Intersection number of two distinct lifted lines on the smooth model:
    0 when the plane lines meet in a singular point of the fibre, otherwise
    1 exactly when the two lifts pass through the same point of the double
    cover (equal w-values)."""
    if a.label == b.label:
        raise ValueError("self-intersection is -2 by adjunction, not computed here")
    pts = config.singular_points if excluded is None else list(excluded)
    P = line_intersection_point(a.line, b.line)
    if P in pts:
        return 0
    coords = list(P.coords)
    wa = a.w_formula.to_field(P.field).evaluate(coords)
    wb = b.w_formula.to_field(P.field).evaluate(coords)
    return 1 if wa == wb else 0


def line_matrix(lines: Sequence[LiftedLine], config: BranchConfig) -> list[list[int]]:
    """Full intersection matrix of the lifted lines; diagonal -2 (rational
    curves on a K3)."""
    n = len(lines)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -2
        for j in range(i + 1, n):
            v = lifted_line_intersection(lines[i], lines[j], config)
            m[i][j] = m[j][i] = v
    return m


# ---------------------------------------------------------------------------
# the birational chain
# ---------------------------------------------------------------------------


@dataclass
class ChainReport:
    ok: bool
    steps: dict
    residuals: dict


def chain_model_check() -> ChainReport:
    """Verify the exact identities linking the symmetric pencil to the
    double-quartic model: (a) solving for w^2 gives the stated fraction,
    (b) the reciprocal substitution turns it into f1/f0, (c) clearing the
    square root gives w^2 = f1*f0."""
    R = reciprocal_pencil()
    field, vars = R.field, R.vars
    s = field.s()
    u, v, w = MPoly.gens(field, vars)
    cw = R.coeffs_in("w")
    steps, residuals = {}, {}

    A = cw.get(2, MPoly.zero(field, vars))
    B = cw.get(0, MPoly.zero(field, vars))
    odd_ok = all(k % 2 == 0 for k in cw)
    u2, v2 = u * u, v * v
    num_stated = u2 + v2 - 2 + (u2 * v2 - u2 - v2 + 1) * s
    den_stated = u2 * v2 - 1 + (u2 * v2 - u2 - v2 + 1) * s
    res_a = (A - den_stated) + (B + num_stated)
    steps["solve_for_w2"] = odd_ok and res_a.is_zero()
    residuals["solve_for_w2"] = str(res_a)

    # spot check: at s = 0 the pencil member is the reciprocal surface
    r0 = specialize(R, 0)
    res_r0 = r0 - surface_r().with_vars(vars)
    steps["s0_reciprocal_surface"] = res_r0.is_zero()
    residuals["s0_reciprocal_surface"] = str(res_r0)

    # (b) u -> 1/x, v -> 1/y clears to f0 * w^2 - f1
    x = MPoly.variable(field, ("x", "y"), "x")
    yv = MPoly.variable(field, ("x", "y"), "y")
    one = MPoly.const(field, ("x", "y"), 1)
    nb, db = substitute(R, {"u": (one, x), "v": (one, yv)})
    f0 = affine_quartic(0)
    f1 = affine_quartic(1)
    wv = MPoly.variable(field, nb.vars, "w")
    target = (f0.with_vars(nb.vars) * wv * wv - f1.with_vars(nb.vars))
    res_b = nb - target
    steps["reciprocal_substitution"] = res_b.is_zero() and db == (x * x * yv * yv).with_vars(db.vars)
    residuals["reciprocal_substitution"] = str(res_b)

    # (c) W = w*f0 turns f0*w^2 = f1 into W^2 = f1*f0
    Wv = MPoly.variable(field, nb.vars, "w")
    lhs = (Wv * f0.with_vars(nb.vars)) ** 2 - f1.with_vars(nb.vars) * f0.with_vars(nb.vars)
    res_c = lhs - target * f0.with_vars(nb.vars)
    steps["clear_square_root"] = res_c.is_zero()
    residuals["clear_square_root"] = str(res_c)

    return ChainReport(all(steps.values()), steps, residuals)


# ---------------------------------------------------------------------------
# the Cremona step
# ---------------------------------------------------------------------------


@dataclass
class CremonaReport:
    ok: bool
    multiplicities: tuple
    exceptional: tuple
    cubic: MPoly
    expected_cubic: MPoly
    involution_ok: bool


def cremona_map() -> list[MPoly]:
    """The quadratic involution with base points (1:0:0), (0:1:0), (1:1:1):
    conjugate of the standard Cremona map by T(x:y:z) = (x+z : y+z : z)."""
    field = QS
    x, y, z = MPoly.gens(field, XYZ)
    tinv = [x - z, y - z, z]
    sigma = [tinv[1] * tinv[2], tinv[0] * tinv[2], tinv[0] * tinv[1]]
    t_rows = ((1, 0, 1), (0, 1, 1), (0, 0, 1))
    return [
        sum((sigma[k] * field.from_rat(t_rows[j][k]) for k in range(3)), MPoly.zero(field, XYZ))
        for j in range(3)
    ]


def cremona_pullback_check(i: int) -> CremonaReport:
    """Pull the plane quartic F_i back under the Cremona map, strip the
    exceptional linear factors (multiplicities = multiplicities of F_i at
    the contraction targets), and compare the residual cubic with G_i."""
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")
    field = QS
    gamma = cremona_map()
    Fi = quartic_f(i)
    pull = Fi.subst_polys(gamma)
    x, y, z = MPoly.gens(field, XYZ)
    exceptional = (x - z, y - z, z)
    targets = [ProjPoint(field, (1, 0, 0)), ProjPoint(field, (0, 1, 0)), ProjPoint(field, (1, 1, 1))]
    mults = tuple(multiplicity_at(Fi, P) for P in targets)
    cubic = pull
    for line, m in zip(exceptional, mults):
        for _ in range(m):
            cubic = cubic.exact_div(line)
    expected = branch_cubic(i)
    ok = cubic.total_degree() == 3 and proportional(cubic, expected)

    # involution: gamma о gamma multiplies each coordinate by a common factor
    comp = [g.subst_polys(gamma) for g in gamma]
    coords = [x, y, z]
    inv_ok = all(
        (comp[a] * coords[b] - comp[b] * coords[a]).is_zero()
        for a in range(3)
        for b in range(a + 1, 3)
    )
    return CremonaReport(ok, mults, tuple(str(e) for e in exceptional), cubic, expected, inv_ok)


def proportional(a: MPoly, b: MPoly) -> bool:
    """Whether a and b are nonzero scalar multiples of each other (or both zero)."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    ea, ca = a.leading()
    eb, cb = b.leading()
    if ea != eb:
        return False
    return (a * cb - b * ca).is_zero()
