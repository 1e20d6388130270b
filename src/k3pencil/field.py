"""Exact coefficient arithmetic: rationals, rational functions in one
parameter, and quadratic fields.

The coefficient tower is fixed-depth: QQ, QQ(s), QQ(sqrt(d)) for a rational
non-square d, and QQ(m).  QQ(m) is the field QQ(s)(alpha) of the generic
fibre, alpha^2 = s^2 - s: that conic has the rational point (0, 0), and the
line alpha = m*s through it parametrizes it by s = 1/(1 - m^2),
alpha = m/(1 - m^2), m = alpha/s (Hartshorne, Algebraic Geometry, I.6).

A FieldElement holds one value ``v``, in the flattest form its field allows
(the domain design of Geddes, Czapor and Labahn, Algorithms for Computer
Algebra, ch. 2-3):

* over QQ, a ``Fraction``;
* over QQ(sqrt(d)), a pair ``(a, b)`` of Fractions standing for
  a + b*alpha, alpha^2 = d;
* over QQ(s) and QQ(m), a reduced ``RatFunc`` in the parameter, with a
  monic denominator.

Each value is canonical, so equality is syntactic.  Elements of QQ(m) print
and sort as the pair (a, b) over QQ(s) with a + b*alpha they stand for.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Optional, Union

Rat = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if q is not a square."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


class QPoly:
    """Dense univariate polynomial over QQ (the coordinate is the pencil
    parameter s).  Immutable; trailing zero coefficients are stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[int, Fraction]]):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly([Fraction(c)])

    @staticmethod
    def var() -> "QPoly":
        return QPoly([0, 1])

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with degree(0) = -1."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 1

    def is_const(self) -> bool:
        return len(self.coeffs) <= 1

    def const_value(self) -> Fraction:
        if len(self.coeffs) > 1:
            raise ValueError("not a constant polynomial")
        return self.coeffs[0] if self.coeffs else _F0

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly([])
        out = [_F0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return QPoly(out)

    def scale(self, c: Fraction) -> "QPoly":
        if c == 0:
            return QPoly([])
        return QPoly([x * c for x in self.coeffs])

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return QPoly([]), self
        quot = [_F0] * (dq + 1)
        lead = other.coeffs[-1]
        ob = other.coeffs
        for k in range(dq, -1, -1):
            top = rem[k + len(ob) - 1]
            if top:
                q = top / lead
                quot[k] = q
                for j, c in enumerate(ob):
                    rem[k + j] -= q * c
        return QPoly(quot), QPoly(rem)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "QPoly") -> "QPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("exact division failed")
        return q

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return QPoly([c / lead for c in self.coeffs])

    def gcd(self, other: "QPoly") -> "QPoly":
        """Monic gcd via the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x: Fraction) -> Fraction:
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = QPoly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mon = "s" if i == 1 else f"s^{i}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"QPoly({self})"


QP_ZERO = QPoly([])
QP_ONE = QPoly([1])


class RatFunc:
    """Reduced fraction of QPoly with monic denominator.  Canonical form
    makes equality and hashing syntactic."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly = QP_ONE, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce and not den.is_one():
            if num.is_zero():
                den = QP_ONE
            else:
                g = num.gcd(den)
                if not g.is_one():
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                lead = den.leading()
                if lead != 1:
                    num = num.scale(1 / lead)
                    den = den.scale(1 / lead)
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(QPoly.const(c), QP_ONE, reduce=False)

    @staticmethod
    def var() -> "RatFunc":
        return RatFunc(QPoly.var(), QP_ONE, reduce=False)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_one()

    def const_value(self) -> Fraction:
        if not self.den.is_one():
            raise ValueError("not a constant")
        return self.num.const_value()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num + other.num, QP_ONE, reduce=False)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num * other.num, QP_ONE, reduce=False)
        return RatFunc(self.num * other.num, self.den * other.den)

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inv()

    def eval(self, s0: Fraction) -> Fraction:
        d = self.den.eval(s0)
        if d == 0:
            raise ZeroDivisionError("pole at specialization")
        return self.num.eval(s0) / d

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        ns = str(self.num)
        if self.num.degree() > 0:
            ns = f"({ns})"
        return f"{ns}/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


RF_ZERO = RatFunc(QP_ZERO, QP_ONE, reduce=False)
RF_ONE = RatFunc(QP_ONE, QP_ONE, reduce=False)


def _homogenize(p: QPoly, num: QPoly, den: QPoly) -> QPoly:
    """den^deg(p) * p(num/den) for p != 0."""
    cs = p.coeffs
    out, den_k = QPoly([cs[-1]]), QP_ONE
    for c in reversed(cs[:-1]):
        den_k = den_k * den
        out = out * num + den_k.scale(c)
    return out


def _substitute(p: QPoly, q: QPoly, num: QPoly, den: QPoly) -> RatFunc:
    """p(t)/q(t) at t = num/den, reduced."""
    if p.is_zero():
        return RF_ZERO
    k = q.degree() - p.degree()
    hp, hq = _homogenize(p, num, den), _homogenize(q, num, den)
    if k >= 0:
        return RatFunc(hp * den ** k, hq)
    return RatFunc(hp, hq * den ** -k)


def _reflect(p: QPoly) -> QPoly:
    """p(-m)."""
    return QPoly([-c if i % 2 else c for i, c in enumerate(p.coeffs)])


_S_VAR = QPoly.var()
_ONE_MINUS_M2 = QPoly([1, 0, -1])


def _s_to_m(r: RatFunc) -> RatFunc:
    """r(s) as an element of QQ(m): s = 1/(1 - m^2)."""
    return _substitute(r.num, r.den, QP_ONE, _ONE_MINUS_M2)


def _m_to_s(r: RatFunc) -> tuple[RatFunc, RatFunc]:
    """The pair (a, b) of QQ(s) with r(m) = a + b*alpha: with an even
    denominator N(m)D(-m) / (D(m)D(-m)) and the numerator split as
    E(m^2) + m*O(m^2), a = E(m^2)/D2(m^2) and b = O(m^2)/(s*D2(m^2)), since
    m^2 = (s - 1)/s and m = alpha/s."""
    d_neg = _reflect(r.den)
    num, den = (r.num * d_neg).coeffs, (r.den * d_neg).coeffs
    t_num, den2 = QPoly([-1, 1]), QPoly(den[0::2])
    a = _substitute(QPoly(num[0::2]), den2, t_num, _S_VAR)
    b = _substitute(QPoly(num[1::2]), den2, t_num, _S_VAR)
    return a, b * RatFunc(QP_ONE, _S_VAR)


# What a FieldElement's value is, fixed by its field (see the module
# docstring): a Fraction, a pair of Fractions, or a RatFunc.
_RAT, _QUAD, _FUNC = "rat", "quad", "func"


class Field:
    """Descriptor for a level of the coefficient tower.

    ``param`` names the transcendental generator: None for QQ and
    QQ(sqrt(d)), "s" for QQ(s), "m" for QQ(m) = QQ(s)(alpha).  ``d`` (a
    rational non-square, or None) makes the field QQ(sqrt(d)).  ``kind`` is
    the form of its elements' values: _RAT, _QUAD or _FUNC.
    """

    __slots__ = ("param", "d", "kind", "zero", "one")

    def __init__(self, param: Optional[str] = None, d=None):
        if d is not None:
            if param is not None:
                raise ValueError("alpha^2 is rational: only QQ(sqrt(d)) has one")
            d = Fraction(d)
            if d == 0 or _fraction_sqrt(d) is not None:
                raise ValueError("alpha^2 is a square in QQ")
        self.param = param
        self.d = d
        if param is not None:
            self.kind, zero, one = _FUNC, RF_ZERO, RF_ONE
        elif d is not None:
            self.kind, zero, one = _QUAD, (_F0, _F0), (_F1, _F0)
        else:
            self.kind, zero, one = _RAT, _F0, _F1
        self.zero = FieldElement(self, zero)
        self.one = FieldElement(self, one)

    # -- the tower ------------------------------------------------------

    @property
    def with_s(self) -> bool:
        """Whether s is in the field: QQ(s) and QQ(m)."""
        return self.param is not None

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Field) and self.param == other.param and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.param, self.d))

    def contains(self, other: "Field") -> bool:
        """Whether other embeds into self: QQ into every field, QQ(s) into
        QQ(m) by s = 1/(1 - m^2)."""
        if other.kind is _RAT or other == self:
            return True
        return self.param == "m" and other.param == "s"

    def level_name(self) -> str:
        if self.param is not None:
            return f"Q({self.param})"
        return "Q" if self.d is None else "Q(alpha)"

    # -- element constructors -------------------------------------------

    def from_rat(self, c) -> "FieldElement":
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if self.kind is _RAT:
            return FieldElement(self, c)
        if self.kind is _QUAD:
            return FieldElement(self, (c, _F0))
        return FieldElement(self, RatFunc.const(c))

    def from_ratfunc(self, r: RatFunc) -> "FieldElement":
        """The element r(t) for t the field's parameter (s or m)."""
        if self.kind is not _FUNC:
            raise ValueError(f"{self.level_name()} has no parameter")
        return FieldElement(self, r)

    def s(self) -> "FieldElement":
        if self.param == "s":
            return FieldElement(self, RatFunc.var())
        if self.param == "m":
            return FieldElement(self, RatFunc(QP_ONE, _ONE_MINUS_M2))
        raise ValueError("field has no parameter s")

    def alpha(self) -> "FieldElement":
        if self.param == "m":
            return FieldElement(self, RatFunc(QPoly.var(), _ONE_MINUS_M2))
        if self.kind is not _QUAD:
            raise ValueError("field has no alpha")
        return FieldElement(self, (_F0, _F1))

    def coerce(self, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.field == self:
                return x
            if not self.contains(x.field):
                raise ValueError(
                    f"cannot coerce element of {x.field.level_name()} into {self.level_name()}"
                )
            if x.field.kind is _RAT:
                return self.from_rat(x.v)
            return FieldElement(self, _s_to_m(x.v))
        if isinstance(x, (int, Fraction)):
            return self.from_rat(x)
        if isinstance(x, RatFunc):
            return self.from_ratfunc(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into field element")


class FieldElement:
    """Element of a tower field, held as one value ``v`` whose form the
    field's ``kind`` fixes (see the module docstring).  Over QQ(m), alpha is
    m/(1 - m^2)."""

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v):
        self.field = field
        self.v = v

    def is_zero(self) -> bool:
        kind, v = self.field.kind, self.v
        if kind is _RAT:
            return not v
        if kind is _FUNC:
            return not v.num.coeffs
        return not v[0] and not v[1]

    def is_one(self) -> bool:
        return self.v == self.field.one.v

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return (other.field is self.field or other.field == self.field) and self.v == other.v
        if isinstance(other, (int, Fraction)):
            return self.v == self.field.from_rat(other).v
        return False

    def __hash__(self) -> int:
        """hash(c) for an element equal to the rational c, as __eq__ asks."""
        kind, v = self.field.kind, self.v
        if kind is _QUAD and not v[1]:
            return hash(v[0])
        if kind is _FUNC and v.is_const():
            return hash(v.const_value())
        return hash(v)

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if not isinstance(other, FieldElement):
            return self, self.field.coerce(other)
        f, g = self.field, other.field
        if g is f or g == f:
            return self, other
        if f.contains(g):
            return self, f.coerce(other)
        if g.contains(f):
            return g.coerce(self), other
        raise ValueError("incompatible fields")

    def __add__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        if x.field.kind is _QUAD:
            (a, b), (c, e) = x.v, y.v
            return FieldElement(x.field, (a + c, b + e))
        return FieldElement(x.field, x.v + y.v)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        if self.field.kind is _QUAD:
            a, b = self.v
            return FieldElement(self.field, (-a, -b))
        return FieldElement(self.field, -self.v)

    def __sub__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        if x.field.kind is _QUAD:
            (a, b), (c, e) = x.v, y.v
            return FieldElement(x.field, (a - c, b - e))
        return FieldElement(x.field, x.v - y.v)

    def __rsub__(self, other) -> "FieldElement":
        return (-self) + other

    def __mul__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        f = x.field
        if f.kind is _QUAD:
            (a, b), (c, e) = x.v, y.v
            return FieldElement(f, (a * c + f.d * (b * e), a * e + b * c))
        return FieldElement(f, x.v * y.v)

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        f, v = self.field, self.v
        if f.kind is _RAT:
            return FieldElement(f, Fraction(v.denominator, v.numerator))
        if f.kind is _FUNC:
            return FieldElement(f, v.inv())
        a, b = v
        n = a * a - f.d * (b * b)
        return FieldElement(f, (a / n, -b / n))

    def __truediv__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        return x * y.inv()

    def __rtruediv__(self, other) -> "FieldElement":
        return self.inv() * other

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "FieldElement":
        """alpha -> -alpha, which is m -> -m over QQ(m)."""
        f, v = self.field, self.v
        if f.kind is _QUAD:
            return FieldElement(f, (v[0], -v[1]))
        if f.param == "m":
            return FieldElement(f, RatFunc(_reflect(v.num), _reflect(v.den)))
        return self

    def _in_s(self) -> tuple[RatFunc, RatFunc]:
        """(a, b) with self = a + b*alpha and a, b in QQ(s) or QQ."""
        kind, v = self.field.kind, self.v
        if kind is _RAT:
            return RatFunc.const(v), RF_ZERO
        if kind is _QUAD:
            return RatFunc.const(v[0]), RatFunc.const(v[1])
        return _m_to_s(v) if self.field.param == "m" else (v, RF_ZERO)

    def __str__(self) -> str:
        a, b = self._in_s()
        if b.is_zero():
            return str(a)
        if a.is_zero():
            if b == RF_ONE:
                return "alpha"
            return f"({b})*alpha"
        return f"{a} + ({b})*alpha"

    def __repr__(self) -> str:
        return f"FieldElement({self})"

    def sort_key(self) -> tuple:
        """Deterministic total order key (used for canonical choices only)."""
        a, b = self._in_s()
        return (a.num.coeffs, a.den.coeffs, b.num.coeffs, b.den.coeffs)


QQ = Field()
QS = Field("s")

#: QQ(s)(alpha), alpha^2 = s^2 - s, as QQ(m) (see the module docstring).
QSA = Field("m")


def quadratic_field(d) -> Field:
    """QQ(sqrt(d)) for a rational non-square d."""
    return Field(d=d)
