"""One-shot exact verifications of the closed-form identities connecting the
symmetric pencil, the Laurent-polynomial family, and the quartic obtained by
rationalizing the square root."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Optional, Tuple

from .field import QQ, QS
from .mpoly import MPoly
from .pencil import XYZ, laurent_f_cleared, quartic_family, radical_quartic_affine, surface_b, surface_r
from .polyops import substitute

Pair = Tuple[MPoly, MPoly]


@dataclass
class IdentityCheck:
    id: str
    status: str                 # "pass" | "fail"
    residual: Optional[MPoly]
    details: dict

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _pair_sub(a: Pair, b: Pair) -> Pair:
    return a[0] * b[1] - b[0] * a[1], a[1] * b[1]


def _check(id: str, residual: MPoly, details: Optional[dict] = None) -> IdentityCheck:
    ok = residual.is_zero()
    return IdentityCheck(id, "pass" if ok else "fail", residual, details or {})


def _g_pair(field, vars) -> Pair:
    """G = 1/(x^2-1) + 1/(y^2-1) + 1/(z^2-1) as a rational pair."""
    x, y, z = MPoly.gens(field, vars)
    dens = [x * x - 1, y * y - 1, z * z - 1]
    den = dens[0] * dens[1] * dens[2]
    num = dens[1] * dens[2] + dens[0] * dens[2] + dens[0] * dens[1]
    return num, den


def _cayley_g_pair(field) -> Pair:
    """G((1+x)/(1-x), (1+y)/(1-y), (1+z)/(1-z)) as a rational pair: the
    substituted numerator of G over its substituted denominator."""
    num_g, den_g = _g_pair(field, XYZ)
    one = MPoly.const(field, XYZ, 1)
    bindings = {v: (one + t, one - t) for v, t in zip(XYZ, MPoly.gens(field, XYZ))}
    ng, dg = substitute(num_g, bindings)
    hg, eg = substitute(den_g, bindings)
    # G after substitution = (ng/dg) / (hg/eg)
    return ng * eg, dg * hg


def _f_pair(field, vars) -> Pair:
    """F = x + 1/x + y + 1/y + z + 1/z as a rational pair."""
    x, y, z = MPoly.gens(field, vars)
    den = x * y * z
    return laurent_f_cleared().to_field(field), den


def remarkable_identity_check() -> IdentityCheck:
    """4 G((1+x)/(1-x), (1+y)/(1-y), (1+z)/(1-z)) = F(x, y, z) - 6."""
    field = QQ
    g_num, g_den = _cayley_g_pair(field)
    lhs = (g_num * 4, g_den)
    fn, fd = _f_pair(field, XYZ)
    rhs = (fn.with_vars(lhs[0].vars) - fd.with_vars(lhs[0].vars) * 6, fd.with_vars(lhs[0].vars))
    residual, _ = _pair_sub(lhs, rhs)
    spot = _spot_check_remarkable()
    rep = _check("remarkable-identity", residual, {"spot_value": str(spot)})
    if spot != Fraction(151, 30):
        rep.status = "fail"
    return rep


def _spot_check_remarkable() -> Fraction:
    """Both sides at (x, y, z) = (2, 3, 5): exact rational evaluation."""
    vals = [Fraction(2), Fraction(3), Fraction(5)]

    def g(v):
        return sum(1 / (t * t - 1) for t in v)

    def f(v):
        return sum(t + 1 / t for t in v)

    sub = [(1 + t) / (1 - t) for t in vals]
    lhs = 4 * g(sub)
    rhs = f(vals) - 6
    if lhs != rhs:
        raise AssertionError("spot check mismatch")
    return lhs


def mandelstam_surface_check() -> IdentityCheck:
    """(1-x)^2/x + (1-y)^2/y + (1-z)^2/z + 4 = F - 2 identically, so the
    relation among the three rationalized invariants is the F = 2 surface."""
    field = QQ
    x, y, z = MPoly.gens(field, XYZ)
    num = (
        (1 - x) * (1 - x) * y * z
        + (1 - y) * (1 - y) * x * z
        + (1 - z) * (1 - z) * x * y
        + 4 * x * y * z
    )
    fn, fd = _f_pair(field, XYZ)
    residual = num - (fn - 2 * fd)
    at111 = num.evaluate([1, 1, 1])
    details = {"lhs_at_111_times_xyz": str(at111)}
    return _check("mandelstam-f2-surface", residual, details)


def pencil_parameter_map_check() -> IdentityCheck:
    """Composing the remarkable identity with 1 + s + G = 0 lands on
    F = 2 - 4s: verified by clearing denominators over QQ(s)."""
    field = QS
    g_pair = _cayley_g_pair(field)
    s = field.s()
    vars2 = g_pair[0].vars
    one2 = MPoly.const(field, vars2, 1)
    pencil = (g_pair[0] + (one2 + MPoly.const(field, vars2, s)) * g_pair[1], g_pair[1])
    fn, fd = _f_pair(field, XYZ)
    fn, fd = fn.with_vars(vars2), fd.with_vars(vars2)
    target = (fn - fd * (field.from_rat(2) - field.from_rat(4) * s), fd)
    # 1 + s + G = 0 should be the same locus as F - (2-4s) = 0: the cleared
    # numerators must agree up to a scalar...: 4*(1+s+G) = F - 2 + 4s - 6 + ...
    lhs = (4 * pencil[0], pencil[1])
    residual, _ = _pair_sub(lhs, target)
    # the other sign branch: (x,y,z) -> (-x,-y,-z) negates F (its cleared
    # numerator is even, the denominator xyz odd), carrying the pencil onto
    # F = -(2-4s)
    gens3 = MPoly.gens(field, XYZ)
    flipped = [-g for g in gens3]
    num_even = laurent_f_cleared().to_field(field).subst_polys(flipped) == laurent_f_cleared().to_field(field)
    den_odd = (gens3[0] * gens3[1] * gens3[2]).subst_polys(flipped) == -(gens3[0] * gens3[1] * gens3[2])
    rep = _check(
        "pencil-parameter-map",
        residual,
        {"minus_branch_via_sign_flip": bool(num_even and den_odd)},
    )
    if not (num_even and den_odd):
        rep.status = "fail"
    return rep


def q_surface_check() -> IdentityCheck:
    """Substituting z = (x+y)/Q with Q^2 = (x+y)(1+xy)/(x+y-4xy+x^2y+xy^2)
    and clearing denominators recovers the quartic equation."""
    field = QQ
    x, y, z = MPoly.gens(field, XYZ)
    d_poly = x + y - 4 * x * y + x * x * y + x * y * y
    # z^2 = (x+y)^2 / Q^2 = (x+y) * d / (1 + xy)
    z2_num = (x + y) * d_poly
    z2_den = 1 + x * y
    quartic = radical_quartic_affine()
    # quartic = z^2 (1+xy) - (x+y) d; substitute z^2 exactly
    cz = quartic.coeffs_in("z")
    if set(cz) - {0, 2}:
        raise AssertionError("unexpected z-degree structure")
    residual = cz.get(2, MPoly.zero(field, XYZ)) * z2_num + cz.get(0, MPoly.zero(field, XYZ)) * z2_den
    details = {
        "excluded_denominators": [str(z2_den), str(d_poly)],
        "denominator_at_(1,1)": str(d_poly.evaluate([1, 1, 0])),
        "z2_at_(2,1)": str((z2_num.evaluate([2, 1, 0]) / z2_den.evaluate([2, 1, 0]))),
    }
    rep = _check("radical-quartic-derivation", residual, details)
    if d_poly.evaluate([1, 1, 0]) != 0:
        rep.status = "fail"   # the (1,1) exclusion must be detected
    if z2_num.evaluate([2, 1, 0]) / z2_den.evaluate([2, 1, 0]) != 1:
        rep.status = "fail"
    return rep


def quartic_family_check() -> IdentityCheck:
    """x y z (F - (2-4s)) equals the quartic family member, and the
    reciprocal substitution recovers the symmetric surface."""
    field = QS
    x, y, z = MPoly.gens(field, XYZ)
    s = field.s()
    f_num = laurent_f_cleared().to_field(field)
    t = field.from_rat(2) - field.from_rat(4) * s
    lhs = f_num - x * y * z * t
    residual = lhs - quartic_family()
    # reciprocal map: f(1/u,1/v,1/w) * (uvw)^2 = u^2v^2w^2 - u^2 - v^2 - w^2 + 2
    fb = surface_b()
    u, v, w = MPoly.gens(QQ, ("u", "v", "w"))
    one = MPoly.const(QQ, ("u", "v", "w"), 1)
    nb, db = substitute(fb.with_vars(XYZ), {"x": (one, u), "y": (one, v), "z": (one, w)})
    recip = nb.drop_vars(["x", "y", "z"]) if set(nb.vars) != {"u", "v", "w"} else nb
    target = surface_r().with_vars(recip.vars)
    res2 = recip - target
    ok = residual.is_zero() and res2.is_zero()
    return IdentityCheck(
        "quartic-family-clearing",
        "pass" if ok else "fail",
        residual if not residual.is_zero() else res2,
        {"reciprocal_matches": res2.is_zero()},
    )


def symmetry_group_check() -> IdentityCheck:
    """The pencil member is invariant under the 48 substitutions combining
    coordinate permutations and sign changes."""
    from .pencil import reciprocal_pencil

    R = reciprocal_pencil()
    field = R.field
    gens = MPoly.gens(field, R.vars)
    count = 0
    failing = None
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            images = [gens[perm[i]] * signs[i] for i in range(3)]
            if R.subst_polys(images) == R:
                count += 1
            elif failing is None:
                failing = (perm, signs)
    details = {"group_order": count}
    ok = count == 48 and failing is None
    return IdentityCheck(
        "symmetry-group-48",
        "pass" if ok else "fail",
        None if ok else MPoly.const(field, R.vars, 1),
        details,
    )


def all_identity_checks() -> list[IdentityCheck]:
    return [
        remarkable_identity_check(),
        mandelstam_surface_check(),
        pencil_parameter_map_check(),
        q_surface_check(),
        quartic_family_check(),
        symmetry_group_check(),
    ]
