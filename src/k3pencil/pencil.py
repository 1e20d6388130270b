"""Defining equations of the K3 pencil and its companion surfaces.

Everything is built from generators, never parsed from strings, so the
polynomials here are exact by construction.  Variable conventions:

* (u, v, w)      reciprocal pencil coordinates,
* (x, y)         affine double-cover base, z its homogenizer,
* (x, y, z, w)   weighted model, w of weight 3,
* (x, y, z, v)   the quartic in P^3, v the homogenizer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .field import QQ, QS, Field
from .mpoly import MPoly
from .polyops import specialize

XYZ = ("x", "y", "z")
UVW = ("u", "v", "w")


# ---------------------------------------------------------------------------
# the quartic obtained by rationalizing the square root
# ---------------------------------------------------------------------------


def radical_quartic_affine() -> MPoly:
    """z^2 (1 + x y) - (x + y)(x + y - 4 x y + x^2 y + x y^2) over QQ."""
    x, y, z = MPoly.gens(QQ, XYZ)
    return z * z * (1 + x * y) - (x + y) * (x + y - 4 * x * y + x * x * y + x * y * y)


def radical_quartic() -> MPoly:
    """The projective closure in P^3, homogenized by v."""
    return radical_quartic_affine().homogenize("v")


#: Claimed singular locus of the quartic: ((x:y:z:v), k) meaning type A_k.
QUARTIC_SINGULAR_TABLE = (
    ((0, 0, 0, 1), 3),
    ((0, 1, 1, 0), 2),
    ((0, 1, -1, 0), 2),
    ((1, 0, 1, 0), 2),
    ((1, 0, -1, 0), 2),
    ((1, 1, 0, 1), 1),
    ((0, 0, 1, 0), 1),
    ((1, -1, 0, 0), 1),
)


# ---------------------------------------------------------------------------
# the symmetric reciprocal pencil and its birational relatives
# ---------------------------------------------------------------------------


def surface_b() -> MPoly:
    """1 - (x^2 y^2 + y^2 z^2 + z^2 x^2) + 2 x^2 y^2 z^2 over QQ."""
    x, y, z = MPoly.gens(QQ, XYZ)
    x2, y2, z2 = x * x, y * y, z * z
    return 1 - (x2 * y2 + y2 * z2 + z2 * x2) + 2 * x2 * y2 * z2


def surface_r() -> MPoly:
    """u^2 v^2 w^2 - u^2 - v^2 - w^2 + 2 over QQ."""
    u, v, w = MPoly.gens(QQ, UVW)
    u2, v2, w2 = u * u, v * v, w * w
    return u2 * v2 * w2 - u2 - v2 - w2 + 2


def reciprocal_pencil() -> MPoly:
    """The cleared-denominator pencil member over QQ(s):
    u^2 v^2 w^2 - u^2 - v^2 - w^2 + 2 + s (u^2-1)(v^2-1)(w^2-1)."""
    u, v, w = MPoly.gens(QS, UVW)
    u2, v2, w2 = u * u, v * v, w * w
    s = QS.s()
    return (
        u2 * v2 * w2 - u2 - v2 - w2 + 2
        + (u2 - 1) * (v2 - 1) * (w2 - 1) * s
    )


def affine_quartic(i: int) -> MPoly:
    """f_i(x, y) = (1 - x^2 y^2) + (s - i)(x^2 - 1)(y^2 - 1) over QQ(s)."""
    x, y = MPoly.gens(QS, ("x", "y"))
    s = QS.s()
    return 1 - x * x * y * y + (x * x - 1) * (y * y - 1) * (s - QS.from_rat(i))


def quartic_f(i: int) -> MPoly:
    """Homogenization of f_i by z (a plane quartic over QQ(s))."""
    return affine_quartic(i).homogenize("z")


def branch_cubic(i: int, field: Optional[Field] = None) -> MPoly:
    """G_i = (x^2+y^2) z - 2 x y (x+y) + (s+1-i)(2x-z)(2y-z) z over QQ(s)."""
    f = field or QS
    x, y, z = MPoly.gens(f, XYZ)
    c = f.s() + f.from_rat(1 - i)
    return (x * x + y * y) * z - 2 * x * y * (x + y) + (2 * x - z) * (2 * y - z) * z * c


def branch_cubic_at(i: int, s0) -> MPoly:
    """G_i specialized to a rational fibre, over QQ."""
    return specialize(branch_cubic(i), Fraction(s0))


def branch_sextic(field: Optional[Field] = None) -> MPoly:
    """The branch curve G_0 * G_1 of the double-sextic model."""
    return branch_cubic(0, field) * branch_cubic(1, field)


def branch_sextic_at(s0) -> MPoly:
    return branch_cubic_at(0, s0) * branch_cubic_at(1, s0)


def laurent_f_cleared() -> MPoly:
    """x y z * (x + 1/x + y + 1/y + z + 1/z), i.e. the numerator of the
    Laurent polynomial F, over QQ."""
    x, y, z = MPoly.gens(QQ, XYZ)
    return x * x * y * z + y * z + x * y * y * z + x * z + x * y * z * z + x * y


def quartic_family(field: Optional[Field] = None) -> MPoly:
    """x^2 y z + y z + x y^2 z + x z + x y z^2 + x y - (2-4s) x y z over QQ(s)."""
    f = field or QS
    x, y, z = MPoly.gens(f, XYZ)
    t = f.from_rat(2) - f.from_rat(4) * f.s()
    return (
        x * x * y * z + y * z + x * y * y * z + x * z + x * y * z * z + x * y
        - x * y * z * t
    )


# ---------------------------------------------------------------------------
# base points of the generic fibre and singular tables of special fibres
# ---------------------------------------------------------------------------

#: Intersection points of the two branch cubics for generic s, as
#: ((x:y:z), intersection multiplicity).  Types are A_{2n-1}.
GENERIC_BRANCH_POINTS = (
    ((1, 0, 0), 3),
    ((0, 1, 0), 3),
    ((1, 1, 2), 2),
    ((-1, 1, 0), 1),
)


def fiber_singular_table(s0) -> tuple:
    """Claimed singular points ((x:y:z), k) of the branch sextic at special
    fibres; k is the subscript of the A_k type on the double cover."""
    s0 = Fraction(s0)
    base = (((1, 0, 0), 5), ((0, 1, 0), 5), ((1, 1, 2), 3), ((-1, 1, 0), 1))
    if s0 == 1:
        return base + (((1, 0, 1), 1), ((0, 1, 1), 1), ((1, 1, 1), 1))
    if s0 == 0:
        return base + (((0, 0, 1), 1),)
    if s0 == -1:
        return base + (((0, 0, 1), 1),)
    if s0 == 2:
        return base + (((1, 1, 1), 1),)
    raise ValueError(f"no singular table for s = {s0}")


def fiber_branch_components(s0) -> list[MPoly]:
    """Irreducible components of the branch sextic at a special fibre (the
    factorizations are verified by multiplication in the tests)."""
    s0 = Fraction(s0)
    x, y, z = MPoly.gens(QQ, XYZ)
    if s0 == 1:
        line = z - x - y
        conic = z * z - (x + y) * z + 2 * x * y
        return [branch_cubic_at(0, 1), line, conic]
    if s0 == 0:
        return [branch_cubic_at(0, 0), branch_cubic_at(1, 0)]
    if s0 == -1:
        return [branch_cubic_at(0, -1), branch_cubic_at(1, -1)]
    if s0 == 2:
        return [branch_cubic_at(0, 2), branch_cubic_at(1, 2)]
    raise ValueError(f"no component list for s = {s0}")
