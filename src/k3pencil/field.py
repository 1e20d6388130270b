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
* over QQ(s) and QQ(m), a ``RatFunc`` c*P/Q in the parameter t: c a
  Fraction carrying the sign and the rational content, P and Q primitive
  polynomials in Z[t] (``QPoly`` on ``int`` tuples) with positive leading
  coefficients and gcd(P, Q) = 1.  Its arithmetic runs on integers only
  (see ``RatFunc``).

Each value is canonical, so equality is syntactic.  Elements of QQ(s) print
and sort as the reduced fraction with a monic denominator, elements of
QQ(m) as the pair (a, b) over QQ(s) with a + b*alpha they stand for; that
form is rebuilt for display only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Union

Rat = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)
_ONE = (1,)
_new = object.__new__


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if q is not a square."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


class QPoly:
    """Dense univariate polynomial in the field's parameter t (s or m) with
    ``int`` or ``Fraction`` coefficients, low degree first.  Immutable;
    trailing zero coefficients are stripped.  Inside a RatFunc both
    polynomials have primitive integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[int, Fraction]]):
        self.coeffs = _ztrim(list(coeffs))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with degree(0) = -1."""
        return len(self.coeffs) - 1

    def is_one(self) -> bool:
        return self.coeffs == _ONE

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic -----------------------------------------------------

    def gcd(self, other: "QPoly") -> "QPoly":
        """The gcd in Z[t] of two polynomials with integer coefficients:
        primitive, with a positive leading coefficient (gcd(0, 0) = 0).

        Primitive pseudo-remainder sequence: a pseudo-remainder r of a by b
        is c*a - h*b for a nonzero integer c, so gcd(a, b) = gcd(b, r) up to
        a unit of QQ[t]; each remainder is replaced by its primitive part.
        By Gauss's lemma the gcd of primitive polynomials in Z[t] is
        primitive and is the gcd in QQ[t] up to a rational factor, so the
        last nonzero remainder, made positive, is the gcd in both rings
        (Knuth, TAOCP vol. 2, 4.6.1, Algorithm E)."""
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return _qp(_zprim(a)[1]) if a else QP_ZERO
        a, b = _zprim(a)[1], _zprim(b)[1]
        while len(b) > 1:
            r = _zprem(a, b)
            if not r:
                return _qp(b)
            a, b = b, _zprim(r)[1]
        return QP_ONE

    def __str__(self) -> str:
        return _poly_str(self.coeffs, "s")

    def __repr__(self) -> str:
        return f"QPoly({self})"


def _horner(cs, x):
    """sum_i cs[i] * x^i, cs low degree first, by Horner's rule."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _signed_join(bits: list) -> str:
    """Terms joined by " + ", or by " - " before a term printed with a
    leading minus sign; "0" for no terms."""
    if not bits:
        return "0"
    out = bits[0]
    for b in bits[1:]:
        out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
    return out


def _poly_str(cs, var: str) -> str:
    """A dense polynomial, low degree first, printed highest degree first:
    "3*s^2 - s + 1/2" for var "s"."""
    bits = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if not c:
            continue
        mono = var if i == 1 else f"{var}^{i}"
        if i == 0:
            bits.append(str(c))
        elif c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{c}*{mono}")
    return _signed_join(bits)


def _qp(coeffs: tuple) -> QPoly:
    """A QPoly on an already trimmed coefficient tuple."""
    p = _new(QPoly)
    p.coeffs = coeffs
    return p


QP_ZERO = _qp(())
QP_ONE = _qp(_ONE)


# -- the kernel of QQ(t): integer coefficient tuples in Z[t] ---------------


def _ztrim(cs: list) -> tuple:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _zlin(k1, a: tuple, k2, b: tuple) -> tuple:
    """k1*a + k2*b."""
    if len(a) < len(b):
        k1, a, k2, b = k2, b, k1, a
    out = [k1 * x for x in a]
    for i, y in enumerate(b):
        out[i] += k2 * y
    return _ztrim(out)


def _zmul(a: tuple, b: tuple) -> tuple:
    """a*b for a, b != 0."""
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _zprim(a: tuple) -> tuple[int, tuple]:
    """(k, a/k) for a != 0: k is the content of a with the sign of its
    leading coefficient, so a/k is primitive with a positive one."""
    k = gcd(*a)
    if a[-1] < 0:
        k = -k
    if k == 1:
        return 1, a
    return k, tuple(x // k for x in a)


def _zquo(a: tuple, b: tuple) -> tuple:
    """a/b in Z[t] for b != 0; ValueError unless b divides a there.  Every
    caller divides exactly: in RatFunc b is a primitive gcd dividing a in
    QQ[t], so the quotient is in Z[t] by Gauss's lemma; in
    polyops._subresultant b is g*h^delta or a power of h, not primitive,
    and divides by the subresultant theorem."""
    if b == _ONE:
        return a
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, e = divmod(r[k + db], lb)
        if e:
            raise ValueError("inexact division in Z[t]")
        if c:
            q[k] = c
            for j in range(db):
                r[k + j] -= c * b[j]
    if any(r[:db]):
        raise ValueError("inexact division in Z[t]")
    return tuple(q)


def _zprem(a: tuple, b: tuple) -> tuple:
    """A pseudo-remainder of a by b, deg a >= deg b >= 1: c*a - h*b of
    degree < deg b for an integer c != 0.  Each step scales by
    lc(b)/gcd(lc(b), top) only, which keeps the integers small."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(a) - 1 - db, -1, -1):
        top = r.pop()
        if top:
            g = gcd(top, lb)
            u, v = lb // g, top // g
            if u != 1:
                r = [u * x for x in r]
            for j in range(db):
                r[k + j] -= v * b[j]
    return _ztrim(r)


def _zreflect(a: tuple) -> tuple:
    """a(-t)."""
    return tuple(-c if i % 2 else c for i, c in enumerate(a))


def _zhomog(p: tuple, num: tuple, den: tuple) -> tuple:
    """den^deg(p) * p(num/den) for p != 0 and num/den not constant."""
    out, den_k = (p[-1],), _ONE
    for c in reversed(p[:-1]):
        den_k = _zmul(den_k, den)
        out = _zlin(1, _zmul(out, num), c, den_k)
    return out


def _zclear(cs: tuple) -> tuple[Fraction, tuple]:
    """(k, a) with cs = k*a and a an integer tuple, for int or Fraction
    coefficients."""
    den = lcm(*(c.denominator for c in cs))
    return Fraction(1, den), tuple(c.numerator * (den // c.denominator) for c in cs)


class RatFunc:
    """An element c*P/Q of QQ(t), t the field's parameter, in the canonical
    form of the module docstring: c a Fraction, P and Q primitive in Z[t]
    with positive leading coefficients, gcd(P, Q) = 1; zero is c = 0,
    P = 0, Q = 1.  Equality and hashing are syntactic.

    Products and sums keep the form with Henrici's gcds (Knuth, TAOCP
    vol. 2, 4.5.1), sound in QQ[t] and, by Gauss's lemma, in Z[t]:

    * Gauss's lemma: a product of primitive polynomials is primitive, and a
      quotient in QQ[t] of a polynomial in Z[t] by a primitive one lies in
      Z[t].  So products of P's and Q's, and exact quotients by their
      gcds, stay primitive integer polynomials, and the content of a sum
      is taken once, by ``math.gcd``, into c.
    * Product: with g1 = gcd(P1, Q2) and g2 = gcd(P2, Q1),
      (P1/g1)(P2/g2) is coprime to (Q1/g2)(Q2/g1), since P_i is coprime
      to Q_i.  With Q1 = Q2 = 1 this is one convolution.
    * Sum: with d = gcd(Q1, Q2) and Q_i = d*Q_i', the numerator
      T = c1*P1*Q2' + c2*P2*Q1' is coprime to Q1'*Q2' (it is c1*P1*Q2'
      modulo Q1', a product of polynomials coprime to Q1'), so
      e = gcd(T, d) is the only common factor: the sum is
      (T/e) / (Q1' * Q2/e).  With d = 1, T/(Q1*Q2) is already reduced.
    """

    __slots__ = ("c", "p", "q")

    def __init__(self, num: QPoly, den: QPoly = QP_ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        kn, n = _zclear(num.coeffs)
        kd, d = _zclear(den.coeffs)
        r = _reduced(kn / kd, n, d)
        self.c, self.p, self.q = r.c, r.p, r.q

    @staticmethod
    def const(c) -> "RatFunc":
        if not isinstance(c, Fraction):
            c = Fraction(c)
        return _rf(c, QP_ONE, QP_ONE) if c else RF_ZERO

    @staticmethod
    def var() -> "RatFunc":
        return _rf(_F1, _qp((0, 1)), QP_ONE)

    def is_zero(self) -> bool:
        return not self.c

    def is_const(self) -> bool:
        return len(self.p.coeffs) <= 1 and len(self.q.coeffs) == 1

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant")
        return self.c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.c == other.c
            and self.p.coeffs == other.p.coeffs
            and self.q.coeffs == other.q.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.c, self.p.coeffs, self.q.coeffs))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        c1, c2 = self.c, other.c
        if not c2:
            return self
        if not c1:
            return other
        n1, n2, den = c1.numerator, c2.numerator, c1.denominator
        d2 = c2.denominator
        if den != d2:
            g = gcd(den, d2)
            n1, n2, den = n1 * (d2 // g), n2 * (den // g), den // g * d2
        p1, q1, p2, q2 = self.p.coeffs, self.q.coeffs, other.p.coeffs, other.q.coeffs
        if len(q1) == 1 and len(q2) == 1:
            return _with_content(_zlin(n1, p1, n2, p2), den, QP_ONE)
        d = self.q.gcd(other.q).coeffs if len(q1) > 1 and len(q2) > 1 else _ONE
        if d == _ONE:
            t = _zlin(n1, _zmul(p1, q2), n2, _zmul(p2, q1))
            return _with_content(t, den, _qp(_zmul(q1, q2)))
        q1r, q2r = _zquo(q1, d), _zquo(q2, d)
        t = _zlin(n1, _zmul(p1, q2r), n2, _zmul(p2, q1r))
        if not t:
            return RF_ZERO
        k, t = _zprim(t)
        e = _qp(t).gcd(_qp(d)).coeffs if len(t) > 1 else _ONE
        return _rf(Fraction(k, den), _qp(_zquo(t, e)), _qp(_zmul(q1r, _zquo(q2, e))))

    def __neg__(self) -> "RatFunc":
        return _rf(-self.c, self.p, self.q)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + _rf(-other.c, other.p, other.q)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        c = self.c * other.c
        if not c:
            return RF_ZERO
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        if len(q1.coeffs) == 1 and len(q2.coeffs) == 1:
            return _rf(c, _qp(_zmul(p1.coeffs, p2.coeffs)), QP_ONE)
        g1 = p1.gcd(q2).coeffs if len(p1.coeffs) > 1 and len(q2.coeffs) > 1 else _ONE
        g2 = p2.gcd(q1).coeffs if len(p2.coeffs) > 1 and len(q1.coeffs) > 1 else _ONE
        num = _zmul(_zquo(p1.coeffs, g1), _zquo(p2.coeffs, g2))
        den = _zmul(_zquo(q1.coeffs, g2), _zquo(q2.coeffs, g1))
        return _rf(c, _qp(num), _qp(den))

    def inv(self) -> "RatFunc":
        if not self.c:
            raise ZeroDivisionError("inverse of zero")
        return _rf(1 / self.c, self.q, self.p)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inv()

    def eval(self, x):
        """The value at t = x, for x a rational or an element of a field
        without parameter; ZeroDivisionError at a pole."""
        hp = hq = x.field.zero if isinstance(x, FieldElement) else _F0
        for a in reversed(self.p.coeffs):
            hp = hp * x + self.c * a
        for a in reversed(self.q.coeffs):
            hq = hq * x + a
        if hq == 0:
            raise ZeroDivisionError("pole at specialization")
        return hp / hq

    @property
    def num(self) -> QPoly:
        """Numerator of the reduced form with a monic denominator (for
        display: str and sort keys)."""
        c = self.c / self.q.coeffs[-1]
        return _qp(tuple(c * a for a in self.p.coeffs))

    @property
    def den(self) -> QPoly:
        """The monic denominator (for display)."""
        lq = self.q.coeffs[-1]
        return _qp(tuple(Fraction(a, lq) for a in self.q.coeffs))

    def __str__(self) -> str:
        num, den = self.num, self.den
        if den.is_one():
            return str(num)
        ns = str(num)
        if num.degree() > 0:
            ns = f"({ns})"
        return f"{ns}/({den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _rf(c: Fraction, p: QPoly, q: QPoly) -> RatFunc:
    """The RatFunc c*p/q of parts already in canonical form."""
    r = _new(RatFunc)
    r.c, r.p, r.q = c, p, q
    return r


RF_ZERO = _rf(_F0, QP_ZERO, QP_ONE)
RF_ONE = _rf(_F1, QP_ONE, QP_ONE)


def _with_content(t: tuple, den: int, q: QPoly) -> RatFunc:
    """t/(den*q) for t coprime to q in QQ[t] and an integer den > 0."""
    if not t:
        return RF_ZERO
    k, t = _zprim(t)
    return _rf(Fraction(k, den), _qp(t), q)


def _reduced(c: Fraction, n: tuple, d: tuple) -> RatFunc:
    """c*n/d for integer tuples n, d with d != 0, in canonical form."""
    if not c or not n:
        return RF_ZERO
    kn, n = _zprim(n)
    kd, d = _zprim(d)
    g = _qp(n).gcd(_qp(d)).coeffs if len(n) > 1 and len(d) > 1 else _ONE
    return _rf(c * kn / kd, _qp(_zquo(n, g)), _qp(_zquo(d, g)))


def _substitute(c: Fraction, p: tuple, q: tuple, num: tuple, den: tuple) -> RatFunc:
    """c*p(t)/q(t) at t = num/den, for integer tuples and num/den not
    constant, reduced."""
    if not p:
        return RF_ZERO
    k = len(q) - len(p)
    hp, hq = _zhomog(p, num, den), _zhomog(q, num, den)
    for _ in range(k):
        hp = _zmul(hp, den)
    for _ in range(-k):
        hq = _zmul(hq, den)
    return _reduced(c, hp, hq)


_ONE_MINUS_M2 = (1, 0, -1)
#: s = 1/(1 - m^2) and alpha = m/(1 - m^2) in QQ(m).
_M_S = RatFunc(QP_ONE, _qp(_ONE_MINUS_M2))
_M_ALPHA = RatFunc(_qp((0, 1)), _qp(_ONE_MINUS_M2))


def _s_to_m(r: RatFunc) -> RatFunc:
    """r(s) as an element of QQ(m): s = 1/(1 - m^2)."""
    return _substitute(r.c, r.p.coeffs, r.q.coeffs, _ONE, _ONE_MINUS_M2)


def _m_to_s(r: RatFunc) -> tuple[RatFunc, RatFunc]:
    """The pair (a, b) of QQ(s) with r(m) = a + b*alpha: with an even
    denominator P(m)Q(-m) / (Q(m)Q(-m)) and the numerator split as
    E(m^2) + m*O(m^2), a = c*E(m^2)/D2(m^2) and b = c*O(m^2)/(s*D2(m^2)),
    since m^2 = (s - 1)/s and m = alpha/s."""
    q_neg = _zreflect(r.q.coeffs)
    num, den = _zmul(r.p.coeffs, q_neg), _zmul(r.q.coeffs, q_neg)
    t_num, s, den2 = (-1, 1), (0, 1), den[0::2]
    a = _substitute(r.c, _ztrim(list(num[0::2])), den2, t_num, s)
    b = _substitute(r.c, _ztrim(list(num[1::2])), den2, t_num, s)
    return a, b * _rf(_F1, QP_ONE, _qp(s))


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
            return FieldElement(self, _M_S)
        raise ValueError("field has no parameter s")

    def alpha(self) -> "FieldElement":
        if self.param == "m":
            return FieldElement(self, _M_ALPHA)
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
            return not v.c
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
