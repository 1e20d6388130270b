"""The axiomatic reduction that computed intersection multiplicities of plane
curves before the branch lift of ``k3pencil.singular``: on a chart at P, a
bivariate gcd rules out a common component through P, then Fulton's
algorithm (Algebraic Curves, section 3.3) reduces the pair until one curve
misses the origin.  Kept as the differential oracle of the contact tests
in ``tests/test_fast_paths.py`` and ``tests/test_singular.py``."""

from k3pencil.mpoly import MPoly
from k3pencil.polyops import gcd_bivariate
from k3pencil.singular import ProjPoint


def fulton_multiplicity(F: MPoly, G: MPoly, P: ProjPoint) -> int:
    """I_P(F, G) over one field by the axiomatic reduction algorithm on a
    chart at P, after a bivariate gcd rules out a common component through
    P."""
    F, G = MPoly.common(F, G)
    f, coords = P.affine(F)
    f, g = f.translate(coords), P.affine(G)[0].translate(coords)
    if not f.const_coeff().is_zero() or not g.const_coeff().is_zero():
        return 0
    x, y = f.vars
    d = gcd_bivariate(f, g, x, y)
    if d.total_degree() > 0 and d.const_coeff().is_zero():
        raise ValueError("infinite intersection multiplicity: common component")
    return imult_origin(f, g)


def imult_origin(f: MPoly, g: MPoly) -> int:
    """I_0(f, g) of two curves through the origin of the (x, y) plane
    without a common component there: each step either divides out y from
    a curve that contains the line y = 0 (adding the other curve's order on
    it) or lowers the larger x-degree on y = 0 by the other curve."""
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
            total += b.min_total_degree()
            f = f1
            if not f.const_coeff().is_zero():
                return total
            continue
        if b.is_zero():
            g1 = g.exact_div(MPoly.variable(field, f.vars, y))
            total += a.min_total_degree()
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
