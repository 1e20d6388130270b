import random
from fractions import Fraction

import pytest

from k3pencil.field import (
    QPoly,
    QQ,
    QS,
    QSA,
    RatFunc,
    Field,
    quadratic_field,
)


def test_qpoly_basics():
    p = QPoly([1, 2, 3])      # 3s^2 + 2s + 1
    q = QPoly([0, 1])
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert (p - p).is_zero()
    assert p.eval(Fraction(2)) == 1 + 4 + 12
    quo, rem = (p * q + QPoly([5])).divmod(p)
    assert quo == q and rem == QPoly([5])
    assert str(QPoly([0, -1, 1])) == "s^2 - s"


def test_qpoly_gcd_monic():
    a = QPoly([-1, 0, 1])     # s^2 - 1
    b = QPoly([1, 1])         # s + 1
    assert a.gcd(b) == QPoly([1, 1])
    assert b.gcd(a).leading() == 1


def test_ratfunc_reduced_canonical():
    r = RatFunc(QPoly([0, 2]), QPoly([0, 0, 4]))    # 2s / 4s^2 = 1/(2s)
    assert str(r.num) == "1/2" and str(r.den) == "s"
    assert r == RatFunc(QPoly([1]), QPoly([0, 2]))
    assert hash(r) == hash(RatFunc(QPoly([1]), QPoly([0, 2])))


def test_field_tower_alpha_square():
    a = QSA.alpha()
    s = QSA.s()
    assert a * a == s * s - s
    assert (a * a - (s * s - s)).is_zero()


def test_alpha_square_must_not_be_square():
    with pytest.raises(ValueError):
        quadratic_field(4)
    with pytest.raises(ValueError):
        quadratic_field(0)
    with pytest.raises(ValueError):
        Field("s", 2)                      # alpha^2 is rational, over QQ only
    quadratic_field(2)                     # fine


def test_field_axioms_randomized():
    rng = random.Random(11)

    def rand_elem(field):
        def rp():
            return QPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])

        num, den = rp(), rp()
        while den.is_zero():
            den = rp()
        a = QS.from_ratfunc(RatFunc(num, den))
        b = QS.from_ratfunc(RatFunc(rp(), QPoly([1])))
        return field.coerce(a) + field.coerce(b) * field.alpha()

    for _ in range(40):
        x, y, z = (rand_elem(QSA) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert (x * x.inv()).is_one()
        assert x * y == y * x


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        QSA.zero.inv()


def test_coercion_between_levels():
    two = QQ.from_rat(2)
    s = QS.s()
    assert (s + two) == QS.s() + 2
    a = QSA.alpha()
    mixed = a + QS.s()
    assert mixed.field == QSA


def test_conjugate_norm():
    a = QSA.alpha()
    x = QSA.from_rat(3) + a * 2
    n = x * x.conjugate()
    # 9 - 4 (s^2 - s), an element of QQ(s)
    s = QS.s()
    assert n == QSA.coerce(9 - 4 * (s * s - s))
    assert str(n) == "-4*s^2 + 4*s + 9"
    assert a.conjugate() == -a and QSA.s().conjugate() == QSA.s()


def test_qqm_prints_and_sorts_as_its_s_alpha_pair():
    # a + b*alpha with a, b in QQ(s), built in QQ(m), prints and sorts as the
    # pair (a, b) it stands for
    rng = random.Random(5)

    def rand_qs():
        def rp():
            return QPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])

        den = rp()
        while den.is_zero():
            den = rp()
        return QS.from_ratfunc(RatFunc(rp(), den))

    for _ in range(40):
        a, b = rand_qs(), rand_qs()
        x = QSA.coerce(a) + QSA.coerce(b) * QSA.alpha()
        assert x.sort_key() == a.sort_key()[:2] + b.sort_key()[:2]
        if b.is_zero():
            assert str(x) == str(a)
        elif a.is_zero():
            assert str(x) in ("alpha", f"({b})*alpha")
        else:
            assert str(x) == f"{a} + ({b})*alpha"
