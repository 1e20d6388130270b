import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert str(QPoly([0, -1, 1])) == "s^2 - s"


def test_qpoly_gcd_monic():
    a = QPoly([-1, 0, 1])     # s^2 - 1
    b = QPoly([1, 1])         # s + 1
    assert a.gcd(b) == QPoly([1, 1])
    assert b.gcd(a).coeffs[-1] == 1


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


# -- flat values: QQ as Fraction, QQ(sqrt(d)) as a pair, against models --------

SETTINGS = settings(derandomize=True, database=None, deadline=None)

small_int = st.integers(-6, 6)
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, small_int, st.integers(1, 7)),
    st.builds(Fraction, small_int),
)
nonzero = rationals.filter(bool)


@SETTINGS
@given(rationals, rationals, nonzero, st.integers(-3, 3))
def test_qq_arithmetic_is_fraction_arithmetic(x, y, z, n):
    X, Y, Z = QQ.from_rat(x), QQ.from_rat(y), QQ.from_rat(z)
    assert X + Y == x + y and X - Y == x - y and X * Y == x * y and -X == -x
    assert X / Z == x / z and Z.inv() == 1 / z and Z ** n == z ** n
    assert X + y == x + y and y - X == y - x and 2 * X == 2 * x and y / Z == y / z
    assert X.is_zero() == (x == 0) and X.is_one() == (x == 1)
    if x:
        assert X ** n == x ** n


def _matrix(a, b, d):
    """a + b*sqrt(d) as the rational matrix of multiplication by it."""
    return ((a, d * b), (b, a))


def _mat_mul(p, q):
    return tuple(tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def _mat_inv(p):
    (a, b), (c, e) = p
    det = a * e - b * c
    return ((e / det, -b / det), (-c / det, a / det))


@SETTINGS
@given(
    st.sampled_from([Fraction(2), Fraction(-1), Fraction(-7), Fraction(3, 2), Fraction(-3, 5)]),
    rationals, rationals, rationals, rationals,
)
def test_quadratic_arithmetic_is_matrix_arithmetic(d, a, b, c, e):
    K = quadratic_field(d)

    def elem(m):
        # the model stays in the image: m = [[x, d*y], [y, x]]
        assert m[0][0] == m[1][1] and m[0][1] == d * m[1][0]
        return K.from_rat(m[0][0]) + K.from_rat(m[1][0]) * K.alpha()

    mx, my = _matrix(a, b, d), _matrix(c, e, d)
    x, y = elem(mx), elem(my)
    assert x + y == elem(_matrix(a + c, b + e, d))
    assert x - y == elem(_matrix(a - c, b - e, d))
    assert x * y == elem(_mat_mul(mx, my))
    assert x.is_zero() == (a == 0 and b == 0)
    if not y.is_zero():
        assert y.inv() == elem(_mat_inv(my))
        assert x / y == elem(_mat_mul(mx, _mat_inv(my)))


def _qs(coeffs):
    num, den = coeffs
    return QS.from_ratfunc(RatFunc(QPoly(num), QPoly(den)))


qs_elements = st.tuples(
    st.lists(small_int, max_size=3),
    st.lists(small_int, min_size=1, max_size=3).filter(any),
).map(_qs)


@SETTINGS
@given(rationals, rationals, qs_elements, qs_elements)
def test_coercion_up_the_tower_commutes_with_arithmetic(x, y, p, q):
    X, Y = QQ.from_rat(x), QQ.from_rat(y)
    for up in (QS.coerce, QSA.coerce, lambda r: QSA.coerce(QS.coerce(r))):
        assert up(X + Y) == up(X) + up(Y)
        assert up(X * Y) == up(X) * up(Y)
        if x:
            assert up(X.inv()) == up(X).inv()
    assert QSA.coerce(p + q) == QSA.coerce(p) + QSA.coerce(q)
    assert QSA.coerce(p * q) == QSA.coerce(p) * QSA.coerce(q)
    assert QSA.coerce(p) + X == QSA.coerce(p + X)
    if not p.is_zero():
        assert QSA.coerce(p.inv()) == QSA.coerce(p).inv()


def test_rational_and_quadratic_print_and_sort_as_before():
    # literal strings and keys of the earlier a + b*alpha representation;
    # canonical choices in cover, singular and mpoly sort by these keys
    K, L = quadratic_field(2), quadratic_field(Fraction(-3, 5))
    one = (Fraction(1, 1),)
    cases = [
        (QQ.from_rat(0), "0", ((), one, (), one)),
        (QQ.from_rat(1), "1", (one, one, (), one)),
        (QQ.from_rat(Fraction(-2, 3)), "-2/3", ((Fraction(-2, 3),), one, (), one)),
        (QQ.from_rat(12), "12", ((Fraction(12, 1),), one, (), one)),
        (K.from_rat(0), "0", ((), one, (), one)),
        (K.from_rat(Fraction(7, 4)), "7/4", ((Fraction(7, 4),), one, (), one)),
        (K.alpha(), "alpha", ((), one, one, one)),
        (-K.alpha(), "(-1)*alpha", ((), one, (Fraction(-1, 1),), one)),
        (K.from_rat(3) + K.alpha(), "3 + (1)*alpha", ((Fraction(3, 1),), one, one, one)),
        (
            K.from_rat(Fraction(-2, 3)) + K.alpha() * Fraction(1, 2),
            "-2/3 + (1/2)*alpha",
            ((Fraction(-2, 3),), one, (Fraction(1, 2),), one),
        ),
        (K.alpha() * Fraction(5, 3), "(5/3)*alpha", ((), one, (Fraction(5, 3),), one)),
        (L.alpha() * 2 - 1, "-1 + (2)*alpha", ((Fraction(-1, 1),), one, (Fraction(2, 1),), one)),
        ((K.from_rat(1) + K.alpha()).inv(), "-1 + (1)*alpha", ((Fraction(-1, 1),), one, one, one)),
    ]
    for x, text, key in cases:
        assert str(x) == text
        assert x.sort_key() == key


@pytest.mark.parametrize(
    "field", [QQ, QS, QSA, quadratic_field(2)], ids=["QQ", "QQ(s)", "QQ(m)", "QQ(sqrt(2))"]
)
def test_element_equal_to_a_rational_hashes_as_it(field):
    for c in (0, 3, Fraction(-2, 5)):
        built = [field.from_rat(c), field.one * c + field.zero]
        if field.with_s:
            s = field.s()
            built.append((s + c) - s)
        if field != QQ and field != QS:
            a = field.alpha()
            built.append(a * a - (a * a - c))
        for x in built:
            assert x == c and hash(x) == hash(c)
            assert len({x, c}) == 1 and {x: 1}[c] == 1
