"""Exact coefficient arithmetic: rationals, rational functions in s, and the
quadratic extension by alpha.

The coefficient tower is fixed-depth: QQ, QQ(s), QQ(sqrt(d)) for rational d,
and QQ(s)(alpha) with alpha^2 a prescribed element of QQ(s).  Elements are
stored as ``a + b*alpha`` where a, b are reduced fractions of polynomials in
s with monic denominators, so equality is syntactic.
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
        cs = [Fraction(c) for c in coeffs]
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


def _is_square_ratfunc(m: RatFunc) -> bool:
    """Whether m is a square in QQ(s).  The stored form is reduced, so m is a
    square iff numerator and denominator both admit exact polynomial square
    roots over QQ."""
    if m.is_zero():
        return True
    if m.is_const():
        return _fraction_sqrt(m.const_value()) is not None
    return _qpoly_sqrt(m.num) is not None and _qpoly_sqrt(m.den) is not None


def _qpoly_sqrt(p: QPoly) -> Optional[QPoly]:
    """Exact square root of a QPoly, or None."""
    if p.is_zero():
        return QP_ZERO
    d = p.degree()
    if d % 2:
        return None
    lc = _fraction_sqrt(p.leading())
    if lc is None:
        return None
    # Newton-style synthesis: solve q^2 = p by matching coefficients downward.
    q = [Fraction(0)] * (d // 2 + 1)
    q[-1] = lc
    for k in range(d // 2 - 1, -1, -1):
        # coefficient of s^(k + d//2) in q^2 is 2*q[k]*q[d//2] + (known terms)
        acc = _F0
        for i in range(k + 1, d // 2):
            j = k + d // 2 - i
            if 0 <= j <= d // 2:
                acc += q[i] * q[j]
        target = p.coeffs[k + d // 2] if k + d // 2 < len(p.coeffs) else _F0
        q[k] = (target - acc) / (2 * lc)
    cand = QPoly(q)
    return cand if cand * cand == p else None


class Field:
    """Descriptor for a level of the coefficient tower.

    ``with_s`` tells whether the pencil parameter s is present;
    ``alpha_square`` (a RatFunc, or None) activates the quadratic extension.
    """

    __slots__ = ("with_s", "alpha_square", "_zero", "_one")

    def __init__(self, with_s: bool, alpha_square: Optional[RatFunc] = None):
        if alpha_square is not None:
            if alpha_square.is_zero():
                raise ValueError("alpha^2 must be nonzero")
            if not with_s and not alpha_square.is_const():
                raise ValueError("alpha^2 must be constant when s is absent")
            if _is_square_ratfunc(alpha_square):
                raise ValueError("alpha^2 is a square in the base field")
        self.with_s = with_s
        self.alpha_square = alpha_square
        self._zero = FieldElement(self, RF_ZERO, RF_ZERO)
        self._one = FieldElement(self, RF_ONE, RF_ZERO)

    # -- the tower ------------------------------------------------------

    @staticmethod
    def rationals() -> "Field":
        return QQ

    def extend(self, alpha_square: RatFunc) -> "Field":
        if self.alpha_square is not None:
            raise ValueError("tower is fixed-depth: already extended")
        return Field(self.with_s, alpha_square)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.with_s == other.with_s
            and self.alpha_square == other.alpha_square
        )

    def __hash__(self) -> int:
        return hash((self.with_s, self.alpha_square))

    def contains(self, other: "Field") -> bool:
        """Whether other embeds into self with the identity on generators."""
        if other.with_s and not self.with_s:
            return False
        if other.alpha_square is None:
            return True
        return self.alpha_square == other.alpha_square

    def level_name(self) -> str:
        if self.alpha_square is None:
            return "Q(s)" if self.with_s else "Q"
        return "Q(s)(alpha)" if self.with_s else "Q(alpha)"

    # -- element constructors -------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return self._zero

    @property
    def one(self) -> "FieldElement":
        return self._one

    def from_rat(self, c) -> "FieldElement":
        return FieldElement(self, RatFunc.const(Fraction(c)), RF_ZERO)

    def from_ratfunc(self, r: RatFunc) -> "FieldElement":
        return FieldElement(self, r, RF_ZERO)

    def s(self) -> "FieldElement":
        if not self.with_s:
            raise ValueError("field has no parameter s")
        return FieldElement(self, RatFunc.var(), RF_ZERO)

    def alpha(self) -> "FieldElement":
        if self.alpha_square is None:
            raise ValueError("field has no alpha")
        return FieldElement(self, RF_ZERO, RF_ONE)

    def coerce(self, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.field == self:
                return x
            if self.contains(x.field):
                return FieldElement(self, x.a, x.b)
            raise ValueError(
                f"cannot coerce element of {x.field.level_name()} into {self.level_name()}"
            )
        if isinstance(x, (int, Fraction)):
            return self.from_rat(x)
        if isinstance(x, RatFunc):
            return self.from_ratfunc(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into field element")


class FieldElement:
    """Element a + b*alpha of a tower field (b = 0 below the top level)."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: Field, a: RatFunc, b: RatFunc):
        if not b.is_zero() and field.alpha_square is None:
            raise ValueError("alpha-component in a field without alpha")
        self.field = field
        self.a = a
        self.b = b

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def is_one(self) -> bool:
        return self.b.is_zero() and self.a == RF_ONE

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rat(other)
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if not isinstance(other, FieldElement):
            other = self.field.coerce(other)
        elif other.field != self.field:
            if self.field.contains(other.field):
                other = self.field.coerce(other)
            elif other.field.contains(self.field):
                return other.field.coerce(self), other
            else:
                raise ValueError("incompatible fields")
        return self, other

    def __add__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        return FieldElement(x.field, x.a + y.a, x.b + y.b)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, -self.a, -self.b)

    def __sub__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        return FieldElement(x.field, x.a - y.a, x.b - y.b)

    def __rsub__(self, other) -> "FieldElement":
        return (-self) + other

    def __mul__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        if x.b.is_zero() and y.b.is_zero():
            return FieldElement(x.field, x.a * y.a, RF_ZERO)
        m = x.field.alpha_square
        a = x.a * y.a + (x.b * y.b) * m
        b = x.a * y.b + x.b * y.a
        return FieldElement(x.field, a, b)

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if self.b.is_zero():
            return FieldElement(self.field, self.a.inv(), RF_ZERO)
        m = self.field.alpha_square
        norm = self.a * self.a - (self.b * self.b) * m
        if norm.is_zero():
            raise ZeroDivisionError("degenerate extension: zero norm")
        ninv = norm.inv()
        return FieldElement(self.field, self.a * ninv, -(self.b * ninv))

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
        return FieldElement(self.field, self.a, -self.b)

    def __str__(self) -> str:
        if self.b.is_zero():
            return str(self.a)
        if self.a.is_zero():
            if self.b == RF_ONE:
                return "alpha"
            return f"({self.b})*alpha"
        return f"{self.a} + ({self.b})*alpha"

    def __repr__(self) -> str:
        return f"FieldElement({self})"

    def sort_key(self) -> tuple:
        """Deterministic total order key (used for canonical choices only)."""
        return (
            tuple(c for c in self.a.num.coeffs),
            tuple(c for c in self.a.den.coeffs),
            tuple(c for c in self.b.num.coeffs),
            tuple(c for c in self.b.den.coeffs),
        )


QQ = Field(False)
QS = Field(True)


def qs_poly(*coeffs) -> RatFunc:
    """RatFunc from low-to-high s-coefficients, e.g. qs_poly(0, -1, 1) = s^2 - s."""
    return RatFunc(QPoly(list(coeffs)), QP_ONE, reduce=False)


#: alpha^2 for the generic fibre: s^2 - s.
ALPHA_SQ_GENERIC = qs_poly(0, -1, 1)

#: Field QQ(s)(alpha) with alpha^2 = s^2 - s.
QSA = QS.extend(ALPHA_SQ_GENERIC)


def quadratic_field(d) -> Field:
    """QQ(sqrt(d)) for a rational non-square d."""
    return Field(False, RatFunc.const(Fraction(d)))
