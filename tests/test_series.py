from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Tuple

import pytest

from k3pencil.field import _horner
from k3pencil.series import (
    SurdSum,
    annihilation_check,
    apery,
    apery_operator,
    domb,
    domb_operator,
    fermi_operator,
    operator_singularities,
    operator_to_recurrence,
    sum_a,
    tpoly,
    ThetaOperator,
)


# -- test-local oracle: the operator acting on a truncated Fraction series ---


@dataclass(frozen=True)
class PowerSeries:
    coeffs: Tuple[Fraction, ...]    # indices 0..N

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_sequence(seq, N: int, dilation: int = 1) -> "PowerSeries":
        cs = [Fraction(0)] * (N + 1)
        n = 0
        while dilation * n <= N:
            cs[dilation * n] = Fraction(seq(n))
            n += 1
        return PowerSeries(tuple(cs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def first_nonzero(self) -> Optional[int]:
        return next((i for i, c in enumerate(self.coeffs) if c != 0), None)


def theta_apply(op: ThetaOperator, f: PowerSeries) -> PowerSeries:
    """Exact action: x^a * p(theta) sends c_n x^n to p(n) c_n x^(n+a)."""
    N = f.truncation
    if N < op.span():
        raise ValueError("truncation order below the operator span")
    out = [Fraction(0)] * (N + 1)
    for a, p in op.terms.items():
        for n, c in enumerate(f.coeffs):
            if c and n + a <= N:
                out[n + a] += _horner(p, n) * c
    return PowerSeries(tuple(out))


def oracle_annihilation_check(op, seq, N, dilation=1):
    """annihilation_check by applying the operator to the Fraction series."""
    if N < 2:
        raise ValueError("truncation order too small")
    bad = theta_apply(op, PowerSeries.from_sequence(seq, N, dilation)).first_nonzero()
    return (bad is None), bad


def _apery_oracle(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def _sum_a_oracle(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1))


def test_running_binomials_match_the_defining_sums():
    """apery, sum_a and domb advance their binomials by exact ratios; the
    defining math.comb sums are the oracle."""
    for n in range(301):
        a = _sum_a_oracle(n)
        assert apery(n) == _apery_oracle(n), n
        assert sum_a(n) == a, n
        assert domb(n) == comb(2 * n, n) * a, n


def test_apery_values():
    assert [apery(n) for n in range(4)] == [1, 5, 73, 1445]
    assert apery(4) == 33001


def test_walk_and_domb_values():
    assert sum_a(4) == 639
    assert [domb(n) for n in range(5)] == [1, 6, 90, 1860, 44730]
    assert domb(5) == 1172556


def test_domb_is_central_binomial_times_walk():
    for n in range(51):
        assert domb(n) == comb(2 * n, n) * sum_a(n)


def test_theta_on_monomial():
    op = ThetaOperator({0: tpoly((0, 1))})       # theta
    f = PowerSeries((Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
    out = theta_apply(op, f)
    assert out.coeffs == (Fraction(0), Fraction(0), Fraction(0), Fraction(3))


def test_theta_cubed_kills_constants():
    op = ThetaOperator({0: tpoly((0, 1), (0, 1), (0, 1))})
    f = PowerSeries((Fraction(1), Fraction(0), Fraction(0)))
    assert theta_apply(op, f).is_zero()


def test_apery_annihilation_to_50():
    ok, bad = annihilation_check(apery_operator(), apery, 50)
    assert ok and bad is None


def test_apery_recurrence():
    rec = operator_to_recurrence(apery_operator())
    # (n+1)^3 A_{n+1} = (2n+1)(17 n^2 + 17 n + 5) A_n - n^3 A_{n-1}; at n=1:
    assert 8 * 73 == 3 * 39 * 5 - 1
    u = [apery(n) for n in range(101)]
    for n in range(2, 101):
        assert rec.residual(u, n) == 0


def test_recurrence_agrees_with_theta_apply():
    for op in (apery_operator(), domb_operator(True), fermi_operator(True)):
        rec = operator_to_recurrence(op)
        f = PowerSeries.from_sequence(apery, 30)
        res = theta_apply(op, f)
        for n in range(31):
            assert rec.residual(list(f.coeffs), n) == res.coeffs[n]


def test_annihilation_check_matches_oracle():
    """The recurrence-residual check against the operator applied to the
    Fraction series: stated and corrected operators, both sequences, both
    dilations, truncation orders from the smallest allowed upwards, the
    first failing exponent and the below-span error included."""
    ops = [apery_operator()] + [f(c) for f in (domb_operator, fermi_operator) for c in (False, True)]
    failures = 0
    for op in ops:
        for seq in (apery, domb):
            for dilation in (1, 2):
                for N in (2, 3, 4, 5, 9, 24):
                    try:
                        expected = oracle_annihilation_check(op, seq, N, dilation)
                    except ValueError:
                        with pytest.raises(ValueError):
                            annihilation_check(op, seq, N, dilation)
                        continue
                    assert annihilation_check(op, seq, N, dilation) == expected
                    failures += not expected[0]
    assert failures
    assert oracle_annihilation_check(domb_operator(False), domb, 30) == (False, 2)
    assert oracle_annihilation_check(fermi_operator(False), apery, 20, 2) == (False, 2)


def test_stated_domb_flagged():
    rec = operator_to_recurrence(domb_operator(False))
    pred = rec.predict(Fraction(1), 2)
    assert pred[2] == Fraction(825, 8)
    ok, bad = annihilation_check(domb_operator(False), domb, 30)
    assert not ok and bad == 2


def test_corrected_domb():
    ok, bad = annihilation_check(domb_operator(True), domb, 50)
    assert ok
    rec = operator_to_recurrence(domb_operator(True))
    # (n+1)^3 b_{n+1} = 2(2n+1)(10 n^2 + 10 n + 3) b_n - 36 n (2n-1)(2n+1) b_{n-1}
    for n in range(1, 5):
        lhs = (n + 1) ** 3 * domb(n + 1)
        rhs = 2 * (2 * n + 1) * (10 * n * n + 10 * n + 3) * domb(n) - 36 * n * (2 * n - 1) * (
            2 * n + 1
        ) * domb(n - 1)
        assert lhs == rhs


def test_stated_fermi_flagged_first_fail_2():
    ok, bad = annihilation_check(fermi_operator(False), apery, 20, dilation=2)
    assert not ok and bad == 2


def test_corrected_fermi_pullback_coherence():
    ok_f, _ = annihilation_check(fermi_operator(True), apery, 40, dilation=2)
    ok_a, _ = annihilation_check(apery_operator(), apery, 40)
    assert ok_f and ok_a


def test_apery_symbol():
    rep = operator_singularities(apery_operator())
    assert rep.symbol_str == "x^2 - 34*x + 1"
    assert rep.singular_points() == ["0", "17 + 12*sqrt(2)", "17 - 12*sqrt(2)", "inf"]


def test_corrected_domb_symbol():
    rep = operator_singularities(domb_operator(True))
    assert rep.symbol_str == "144*x^2 - 40*x + 1"
    assert rep.singular_points() == ["0", "1/4", "1/36", "inf"]


def test_stated_domb_symbol_inconsistent():
    rep = operator_singularities(domb_operator(False))
    pts = set(rep.singular_points())
    assert "1/4" not in pts and "1/36" not in pts


def test_corrected_fermi_symbol_denested():
    rep = operator_singularities(fermi_operator(True))
    assert set(rep.singular_points()) == {
        "0",
        "inf",
        "3 + 2*sqrt(2)",
        "-3 - 2*sqrt(2)",
        "3 - 2*sqrt(2)",
        "-3 + 2*sqrt(2)",
    }
    # the squares of the finite singular points are 17 +- 12 sqrt(2)
    assert (3 + 2 * 2 ** 0.5) ** 2 == pytest.approx(17 + 12 * 2 ** 0.5)


def test_surd_arithmetic():
    a = SurdSum.root(1, 8)
    assert str(a) == "2*sqrt(2)"
    b = SurdSum.rational(3) + a
    assert str(b) == "3 + 2*sqrt(2)"
    assert str(-b) == "-3 - 2*sqrt(2)"
    assert (a + (-a)).as_fraction() == 0


def test_annihilation_requires_order():
    with pytest.raises(ValueError):
        annihilation_check(apery_operator(), apery, 1)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        apery(-1)
    with pytest.raises(ValueError):
        sum_a(-2)
