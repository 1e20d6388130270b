"""Theta-operator algebra on truncated power series, P-recursive recurrences,
the Apery / cubic-lattice-walk / Domb sequences, annihilation checks, and the
singular points of the operators' leading symbols."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt
from typing import Callable, Dict, Optional, Sequence, Tuple

from .field import _fraction_sqrt, _horner, _poly_str, _signed_join, _zmul, _ztrim

IntPoly = Tuple[int, ...]   # dense theta-polynomial, low to high


def tpoly(*factors: Sequence[int]) -> IntPoly:
    """Product of nonzero theta-polynomials given as coefficient sequences."""
    out: Tuple[int, ...] = (1,)
    for f in factors:
        out = _zmul(out, tuple(f))
    return out


@dataclass(frozen=True)
class ThetaOperator:
    """Polynomial in (variable, theta) with theta = variable * d/dvariable:
    terms map the variable power a to the theta-polynomial p_a, the operator
    being  sum_a  variable^a * p_a(theta)."""

    variable: str
    terms: Dict[int, IntPoly]

    def order(self) -> int:
        return max(len(p) - 1 for p in self.terms.values())

    def span(self) -> int:
        return max(self.terms)

    def scaled_term(self, a: int) -> IntPoly:
        return self.terms.get(a, (0,))


@dataclass(frozen=True)
class PowerSeries:
    variable: str
    coeffs: Tuple[Fraction, ...]    # indices 0..N

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_sequence(variable: str, seq: Callable[[int], int], N: int, dilation: int = 1) -> "PowerSeries":
        cs = [Fraction(0)] * (N + 1)
        n = 0
        while dilation * n <= N:
            cs[dilation * n] = Fraction(seq(n))
            n += 1
        return PowerSeries(variable, tuple(cs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def first_nonzero(self) -> Optional[int]:
        return next((i for i, c in enumerate(self.coeffs) if c != 0), None)


def theta_apply(op: ThetaOperator, f: PowerSeries) -> PowerSeries:
    """Exact action: variable^a * p(theta) sends c_n x^n to p(n) c_n x^(n+a)."""
    if op.variable != f.variable:
        raise ValueError(f"variable mismatch: {op.variable} vs {f.variable}")
    N = f.truncation
    if N < op.span():
        raise ValueError("truncation order below the operator span")
    out = [Fraction(0)] * (N + 1)
    for a, p in op.terms.items():
        for n, c in enumerate(f.coeffs):
            if c and n + a <= N:
                out[n + a] += _horner(p, n) * c
    return PowerSeries(f.variable, tuple(out))


@dataclass(frozen=True)
class Recurrence:
    """P-recursive relation sum_a c_a(n - a) u_(n-a) = 0 for all n, with
    c_a the theta-polynomial of the variable^a term."""

    order: int
    coeff_polys: Tuple[IntPoly, ...]     # index a = 0..order

    def residual(self, u: Sequence[Fraction], n: int) -> Fraction:
        total = Fraction(0)
        for a, p in enumerate(self.coeff_polys):
            if a <= n and n - a < len(u):
                total += _horner(p, n - a) * Fraction(u[n - a])
        return total

    def predict(self, u0: Fraction, N: int) -> list[Fraction]:
        """The solution with u_0 given, solving c_0(n) u_n = -(lower terms);
        requires c_0(n) != 0 for 1 <= n <= N."""
        out = [Fraction(u0)]
        for n in range(1, N + 1):
            lead = _horner(self.coeff_polys[0], n)
            if lead == 0:
                raise ValueError(f"leading recurrence coefficient vanishes at n = {n}")
            acc = Fraction(0)
            for a in range(1, min(n, self.order) + 1):
                acc += _horner(self.coeff_polys[a], n - a) * out[n - a]
            out.append(-acc / lead)
        return out

    def describe(self) -> list[str]:
        return [_poly_str(p, "n") for p in self.coeff_polys]


def operator_to_recurrence(op: ThetaOperator) -> Recurrence:
    r = op.span()
    return Recurrence(r, tuple(op.scaled_term(a) for a in range(r + 1)))


def annihilation_check(
    op: ThetaOperator, seq: Callable[[int], int], N: int, dilation: int = 1
) -> tuple[bool, Optional[int]]:
    """Whether the operator annihilates sum seq(n) x^(dilation*n) up to the
    truncation order; on failure, the first failing exponent."""
    if N < 2:
        raise ValueError("truncation order too small")
    f = PowerSeries.from_sequence(op.variable, seq, N, dilation)
    res = theta_apply(op, f)
    bad = res.first_nonzero()
    return (bad is None), bad


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def apery(n: int) -> int:
    """A_n = sum_k C(n,k)^2 C(n+k,k)^2."""
    if n < 0:
        raise ValueError("negative index")
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def sum_a(n: int) -> int:
    """a_n = sum_k C(n,k)^2 C(2k,k) (cubic-lattice walk building block)."""
    if n < 0:
        raise ValueError("negative index")
    return sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1))


def domb(n: int) -> int:
    """Domb numbers b_n = C(2n,n) * a_n: closed walks of length 2n on Z^3."""
    return comb(2 * n, n) * sum_a(n)


# ---------------------------------------------------------------------------
# the three operators
# ---------------------------------------------------------------------------


def apery_operator() -> ThetaOperator:
    """theta^3 - x (2 theta + 1)(17 theta^2 + 17 theta + 5) + x^2 (theta+1)^3."""
    return ThetaOperator(
        "x",
        {
            0: tpoly((0, 0, 0, 1)),
            1: tuple(-c for c in tpoly((1, 2), (5, 17, 17))),
            2: tpoly((1, 1), (1, 1), (1, 1)),
        },
    )


def fermi_operator(corrected: bool = False) -> ThetaOperator:
    """theta^3 - c x^2 (theta+1)(17 theta^2 + 34 theta + 20) + x^4 (theta+2)^3
    with c = 1 as commonly stated; c = 2 is forced by the substitution
    lambda = x^2 applied to the Apery operator."""
    c = 2 if corrected else 1
    return ThetaOperator(
        "x",
        {
            0: tpoly((0, 0, 0, 1)),
            2: tuple(-c * v for v in tpoly((1, 1), (20, 34, 17))),
            4: tpoly((2, 1), (2, 1), (2, 1)),
        },
    )


def domb_operator(corrected: bool = False) -> ThetaOperator:
    """theta^3 - 2 x (2 theta+1)(10 theta^2 + 10 theta + 3)
    + c x^2 (2 theta+1)(theta+1)(2 theta+3) with c = 1 as commonly stated;
    c = 36 is forced by fitting the recurrence to the Domb numbers."""
    c = 36 if corrected else 1
    return ThetaOperator(
        "x",
        {
            0: tpoly((0, 0, 0, 1)),
            1: tuple(-2 * v for v in tpoly((1, 2), (3, 10, 10))),
            2: tuple(c * v for v in tpoly((1, 2), (1, 1), (3, 2))),
        },
    )


OPERATORS = {
    "apery": (apery_operator, apery, 1),
    "fermi": (fermi_operator, apery, 2),
    "domb": (domb_operator, domb, 1),
}


# ---------------------------------------------------------------------------
# singular points of the leading symbol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurdSum:
    """Exact number sum_i c_i sqrt(m_i) with rational c_i and squarefree
    positive integers m_i (m = 1 for the rational part)."""

    parts: Tuple[Tuple[Fraction, int], ...]

    @staticmethod
    def rational(c) -> "SurdSum":
        c = Fraction(c)
        return SurdSum(((c, 1),) if c else ())

    @staticmethod
    def root(c, r) -> "SurdSum":
        """c * sqrt(r) for a rational r >= 0, as c/D * sqrt(N*D) for
        r = N/D, simplifying square factors of N*D."""
        r = Fraction(r)
        if r < 0:
            raise ValueError("negative radicand")
        c, m = Fraction(c) / r.denominator, r.numerator * r.denominator
        if c == 0 or m == 0:
            return SurdSum(())
        sq = 1
        rest = m
        d = 2
        while d * d <= rest:
            while rest % (d * d) == 0:
                rest //= d * d
                sq *= d
            d += 1
        return SurdSum(((c * sq, rest),)) if rest != 1 else SurdSum.rational(c * sq)

    def __add__(self, other: "SurdSum") -> "SurdSum":
        acc: Dict[int, Fraction] = {}
        for c, m in self.parts + other.parts:
            acc[m] = acc.get(m, Fraction(0)) + c
        parts = tuple(sorted(((c, m) for m, c in acc.items() if c != 0), key=lambda t: t[1]))
        return SurdSum(parts)

    def __neg__(self) -> "SurdSum":
        return SurdSum(tuple((-c, m) for c, m in self.parts))

    def as_fraction(self) -> Optional[Fraction]:
        if not self.parts:
            return Fraction(0)
        if len(self.parts) == 1 and self.parts[0][1] == 1:
            return self.parts[0][0]
        return None

    def __str__(self) -> str:
        bits = []
        for c, m in self.parts:
            if m == 1:
                bits.append(str(c))
            elif c == 1:
                bits.append(f"sqrt({m})")
            elif c == -1:
                bits.append(f"-sqrt({m})")
            else:
                bits.append(f"{c}*sqrt({m})")
        return _signed_join(bits)


@dataclass
class SymbolReport:
    symbol: Tuple[int, ...]          # leading symbol, low to high, content-free
    symbol_str: str
    finite_roots: list               # SurdSum values (besides a possible 0)
    zero_root: bool
    factors: list                    # human-readable irreducible factors

    def singular_points(self) -> list[str]:
        # 0 and infinity are singular for every operator of this theta shape
        return ["0"] + [str(r) for r in self.finite_roots] + ["inf"]


def operator_singularities(op: ThetaOperator) -> SymbolReport:
    """Leading symbol of the operator in d/dx form divided by x^order: the
    polynomial sum_a [theta^order](p_a) x^a, factored with exact surd roots."""
    ordr = op.order()
    span = op.span()
    sym = [0] * (span + 1)
    for a, p in op.terms.items():
        if len(p) - 1 == ordr:
            sym[a] = p[ordr]
    sym = _ztrim(sym)
    if not sym:
        raise ValueError("zero leading symbol")
    content = gcd(*sym)
    sym = [c // content for c in sym]
    k = next(i for i, c in enumerate(sym) if c)
    core = sym[k:]
    roots, factors = _factor_int_poly(core)
    if k:
        factors = [f"x^{k}" if k > 1 else "x"] + factors
    return SymbolReport(tuple(sym), _poly_str(sym, "x"), roots, k > 0, factors)


def _factor_int_poly(p: list[int]) -> tuple[list[SurdSum], list[str]]:
    """Roots and factor strings for the integer polynomials arising as
    leading symbols here: rational roots, quadratics, and biquadratics."""
    roots: list[SurdSum] = []
    factors: list[str] = []
    work = [Fraction(c) for c in p]
    # rational roots p/q with p | const, q | lead
    changed = True
    while changed and len(work) > 2:
        changed = False
        lead = work[-1]
        const = next((c for c in work if c != 0), None)
        if const is None:
            break
        for pn in _divisors(abs(const.numerator) or 1):
            for qn in _divisors(abs(lead.numerator)):
                for sign in (1, -1):
                    cand = Fraction(sign * pn, qn)
                    if _horner(work, cand) == 0:
                        roots.append(SurdSum.rational(cand))
                        factors.append(_poly_str([-cand.numerator, cand.denominator], "x"))
                        work = _deflate(work, cand)
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    work = list(_ztrim(work))
    deg = len(work) - 1
    if deg <= 0:
        return roots, factors
    if deg == 1:
        r = -work[0] / work[1]
        roots.append(SurdSum.rational(r))
        factors.append(_poly_str([int(-r.numerator), int(r.denominator)], "x"))
        return roots, factors
    if deg == 2:
        roots.extend(_quadratic_roots(work[2], work[1], work[0]))
        factors.append(_poly_str([int(c) for c in work], "x"))
        return roots, factors
    if deg == 4 and work[1] == 0 and work[3] == 0:
        # biquadratic: roots are +-sqrt of the quadratic's roots
        for u in _quadratic_roots(work[4], work[2], work[0]):
            for branch in _sqrt_surd(u):
                roots.append(branch)
        factors.append(_poly_str([int(c) for c in work], "x"))
        return roots, factors
    factors.append(_poly_str([int(c) for c in work], "x") + "  [unfactored]")
    return roots, factors


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def _deflate(p: list[Fraction], root: Fraction) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) - 1)
    acc = Fraction(0)
    for i in range(len(p) - 1, 0, -1):
        acc = p[i] + acc * root
        out[i - 1] = acc
    return out


def _quadratic_roots(a: Fraction, b: Fraction, c: Fraction) -> list[SurdSum]:
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError("complex roots not supported")
    base = SurdSum.rational(-b / (2 * a))
    rad = SurdSum.root(1 / (2 * a), disc)
    return [base + rad, base + (-rad)]


def _sqrt_surd(u: SurdSum) -> list[SurdSum]:
    """+-sqrt of a SurdSum: exact for rationals and for denestable
    a + b sqrt(d) (when a^2 - b^2 d is a rational square)."""
    r = u.as_fraction()
    if r is not None:
        root = SurdSum.root(1, r)
        return [root, -root]
    if len(u.parts) == 2 and u.parts[0][1] == 1:
        (a, _), (b, d) = u.parts
        cval = _fraction_sqrt(a * a - b * b * d)
        if cval is not None:
            half1 = (a + cval) / 2
            half2 = (a - cval) / 2
            if half1 >= 0 and half2 >= 0:
                r1 = SurdSum.root(1, half1)
                r2 = SurdSum.root(1, half2)
                root = r1 + r2 if b > 0 else r1 + (-r2)
                return [root, -root]
    raise ValueError(f"cannot denest sqrt of {u}")
