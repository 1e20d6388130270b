"""Sparse multivariate polynomials over a tower field.

Terms map exponent vectors to nonzero field elements.  The monomial order is
graded lexicographic with the declared variable order, which fixes canonical
printing, leading terms and tie-breaking everywhere in the toolkit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .field import Field, FieldElement

Exponent = Tuple[int, ...]


def _grlex_key(e: Exponent) -> tuple:
    return (sum(e), e)


class MPoly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: Field, vars: Sequence[str], terms: Dict[Exponent, FieldElement]):
        self.field = field
        self.vars = tuple(vars)
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field: Field, vars: Sequence[str]) -> "MPoly":
        return MPoly(field, vars, {})

    @staticmethod
    def const(field: Field, vars: Sequence[str], c) -> "MPoly":
        ce = field.coerce(c)
        if ce.is_zero():
            return MPoly.zero(field, vars)
        return MPoly(field, vars, {(0,) * len(vars): ce})

    @staticmethod
    def variable(field: Field, vars: Sequence[str], name: str) -> "MPoly":
        idx = list(vars).index(name)
        e = [0] * len(vars)
        e[idx] = 1
        return MPoly(field, vars, {tuple(e): field.one})

    @staticmethod
    def gens(field: Field, vars: Sequence[str]) -> list["MPoly"]:
        return [MPoly.variable(field, vars, v) for v in vars]

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def const_coeff(self) -> FieldElement:
        return self.terms.get((0,) * len(self.vars), self.field.zero)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_total_degree(self) -> int:
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_univariate(self) -> Optional[str]:
        """The single variable that occurs, or None.  Constants count as
        univariate in the first variable."""
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        if len(used) > 1:
            return None
        return self.vars[used.pop()] if used else self.vars[0]

    def leading(self) -> tuple[Exponent, FieldElement]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.field == other.field and self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def sort_key(self) -> tuple:
        """Total order on polynomials over one field/variable set: grlex on
        monomial support, then coefficient keys.  Used for canonical sign and
        representative choices."""
        items = sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        return tuple((e, c.sort_key()) for e, c in items)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "MPoly") -> "MPoly":
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        if self.field != other.field:
            if self.field.contains(other.field):
                return other.to_field(self.field)
            if other.field.contains(self.field):
                raise _Promote(other)
            raise ValueError("incompatible coefficient fields")
        return other

    def __add__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction, FieldElement)):
            other = MPoly.const(self.field, self.vars, other)
        try:
            other = self._check(other)
        except _Promote as p:
            return self.to_field(p.poly.field) + p.poly
        out = dict(self.terms)
        z = self.field.zero
        for e, c in other.terms.items():
            out[e] = out.get(e, z) + c
        return MPoly(self.field, self.vars, out)

    def __radd__(self, other) -> "MPoly":
        return self + other

    def __neg__(self) -> "MPoly":
        return MPoly(self.field, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction, FieldElement)):
            other = MPoly.const(self.field, self.vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction, FieldElement)):
            c = self.field.coerce(other)
            if c.is_zero():
                return MPoly.zero(self.field, self.vars)
            return MPoly(self.field, self.vars, {e: k * c for e, k in self.terms.items()})
        try:
            other = self._check(other)
        except _Promote as p:
            return self.to_field(p.poly.field) * p.poly
        out: Dict[Exponent, FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return MPoly(self.field, self.vars, out)

    def __rmul__(self, other) -> "MPoly":
        return self * other

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MPoly.const(self.field, self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self) -> "MPoly":
        """Divide by the grlex leading coefficient."""
        if self.is_zero():
            return self
        _, lc = self.leading()
        if lc.is_one():
            return self
        return self * lc.inv()

    def exact_div(self, other: "MPoly") -> "MPoly":
        """Exact multivariate division; raises ValueError when it fails."""
        other = self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        le, lc = other.leading()
        lc_inv = lc.inv()
        rem = self
        q: Dict[Exponent, FieldElement] = {}
        while not rem.is_zero():
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, le))
            if any(k < 0 for k in qe):
                raise ValueError("exact division failed")
            qc = rc * lc_inv
            q[qe] = qc
            rem = rem - MPoly(self.field, self.vars, {qe: qc}) * other
        return MPoly(self.field, self.vars, q)

    # -- calculus and substitution ---------------------------------------

    def derivative(self, var: str) -> "MPoly":
        i = self.vars.index(var)
        out: Dict[Exponent, FieldElement] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return MPoly(self.field, self.vars, out)

    def evaluate(self, values: Sequence) -> FieldElement:
        vals = [self.field.coerce(v) for v in values]
        if len(vals) != len(self.vars):
            raise ValueError("wrong number of values")
        powers: list[dict[int, FieldElement]] = [{0: self.field.one} for _ in vals]
        out = self.field.zero
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    cache = powers[i]
                    top = max(cache)
                    while top < k:
                        cache[top + 1] = cache[top] * vals[i]
                        top += 1
                    term = term * cache[k]
            out = out + term
        return out

    def subst_polys(self, images: Sequence["MPoly"]) -> "MPoly":
        """Substitute every variable by a polynomial (all in the same target
        ring).  Used for linear changes of coordinates and map pullbacks."""
        if len(images) != len(self.vars):
            raise ValueError("wrong number of images")
        if not images:
            raise ValueError("no variables")
        target = images[0]
        out = MPoly.zero(target.field, target.vars)
        pow_cache: list[dict[int, MPoly]] = [
            {0: MPoly.const(target.field, target.vars, 1)} for _ in images
        ]

        def power(i: int, k: int) -> MPoly:
            cache = pow_cache[i]
            if k not in cache:
                m = max(cache)
                p = cache[m]
                for j in range(m, k):
                    p = p * images[i]
                    cache[j + 1] = p
            return cache[k]

        for e, c in self.terms.items():
            term = MPoly.const(target.field, target.vars, target.field.coerce(c))
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    def set_var(self, var: str, value) -> "MPoly":
        """Substitute a single variable by a field element (stays in the same
        variable list, exponent forced to zero)."""
        i = self.vars.index(var)
        val = self.field.coerce(value)
        out: Dict[Exponent, FieldElement] = {}
        z = self.field.zero
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            coeff = c * (val ** k) if k else c
            ne_t = tuple(ne)
            out[ne_t] = out.get(ne_t, z) + coeff
        return MPoly(self.field, self.vars, out)

    def set_var_poly(self, var: str, image: "MPoly") -> "MPoly":
        """Substitute a single variable by a polynomial in the same ring."""
        image = self._check(image)
        i = self.vars.index(var)
        out = MPoly.zero(self.field, self.vars)
        cache: dict[int, MPoly] = {0: MPoly.const(self.field, self.vars, 1)}

        def power(k: int) -> MPoly:
            if k not in cache:
                m = max(cache)
                p = cache[m]
                for j in range(m, k):
                    p = p * image
                    cache[j + 1] = p
            return cache[k]

        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            mono = MPoly(self.field, self.vars, {tuple(ne): c})
            out = out + (mono * power(k) if k else mono)
        return out

    def translate(self, point: Sequence) -> "MPoly":
        """Substitute var_i -> var_i + point_i (recentre at a point)."""
        gens = MPoly.gens(self.field, self.vars)
        images = [g + self.field.coerce(p) for g, p in zip(gens, point)]
        return self.subst_polys(images)

    def truncate(self, max_total_degree: int) -> "MPoly":
        return MPoly(
            self.field,
            self.vars,
            {e: c for e, c in self.terms.items() if sum(e) <= max_total_degree},
        )

    def homog_component(self, degree: int) -> "MPoly":
        return MPoly(
            self.field, self.vars, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def homogenize(self, new_var: str) -> "MPoly":
        """Homogenize by appending a fresh variable."""
        if new_var in self.vars:
            raise ValueError("homogenization variable already present")
        deg = self.total_degree()
        out = {e + (deg - sum(e),): c for e, c in self.terms.items()}
        return MPoly(self.field, self.vars + (new_var,), out)

    def dehomogenize(self, var: str) -> "MPoly":
        """Set var = 1 and drop it from the variable list."""
        i = self.vars.index(var)
        out: Dict[Exponent, FieldElement] = {}
        z = self.field.zero
        for e, c in self.terms.items():
            ne = e[:i] + e[i + 1 :]
            out[ne] = out.get(ne, z) + c
        return MPoly(self.field, self.vars[:i] + self.vars[i + 1 :], out)

    def drop_vars(self, names: Sequence[str]) -> "MPoly":
        """Remove unused variables from the declared list."""
        idx = [i for i, v in enumerate(self.vars) if v not in names]
        for e in self.terms:
            for i, v in enumerate(self.vars):
                if v in names and e[i]:
                    raise ValueError(f"variable {v} occurs; cannot drop")
        out = {tuple(e[i] for i in idx): c for e, c in self.terms.items()}
        return MPoly(self.field, tuple(self.vars[i] for i in idx), out)

    def with_vars(self, vars: Sequence[str]) -> "MPoly":
        """Re-embed into a ring with a superset of the variables."""
        vars = tuple(vars)
        pos = []
        for v in self.vars:
            if v not in vars:
                raise ValueError(f"target ring lacks variable {v}")
            pos.append(vars.index(v))
        out: Dict[Exponent, FieldElement] = {}
        for e, c in self.terms.items():
            ne = [0] * len(vars)
            for i, k in enumerate(e):
                ne[pos[i]] = k
            out[tuple(ne)] = c
        return MPoly(self.field, vars, out)

    @staticmethod
    def common(p: "MPoly", q: "MPoly") -> tuple["MPoly", "MPoly"]:
        """p and q over the larger of their two fields and over the union of
        their variables, p's first."""
        if p.field != q.field:
            if p.field.contains(q.field):
                q = q.to_field(p.field)
            else:
                p = p.to_field(q.field)
        if p.vars != q.vars:
            allv = tuple(dict.fromkeys(p.vars + q.vars))
            p, q = p.with_vars(allv), q.with_vars(allv)
        return p, q

    def to_field(self, field: Field) -> "MPoly":
        if field == self.field:
            return self
        if not field.contains(self.field):
            raise ValueError("target field does not contain coefficient field")
        return MPoly(field, self.vars, {e: field.coerce(c) for e, c in self.terms.items()})

    # -- univariate views -------------------------------------------------

    def coeffs_in(self, var: str) -> Dict[int, "MPoly"]:
        """View as a polynomial in one variable: exponent -> coefficient
        polynomial (same ring, var-exponent zeroed)."""
        i = self.vars.index(var)
        buckets: Dict[int, Dict[Exponent, FieldElement]] = {}
        for e, c in self.terms.items():
            k = e[i]
            ne = list(e)
            ne[i] = 0
            buckets.setdefault(k, {})[tuple(ne)] = c
        return {k: MPoly(self.field, self.vars, t) for k, t in buckets.items()}

    def dense_univariate(self, var: Optional[str] = None) -> list[FieldElement]:
        """Dense coefficient list (low to high) of a univariate polynomial."""
        if var is None:
            var = self.is_univariate()
            if var is None:
                raise ValueError("polynomial is not univariate")
        else:
            for v in self.vars:
                if v != var and self.degree_in(v) > 0:
                    raise ValueError(f"polynomial involves {v}, not univariate in {var}")
        i = self.vars.index(var)
        d = max(self.degree_in(var), 0)
        out = [self.field.zero] * (d + 1)
        for e, c in self.terms.items():
            out[e[i]] = c
        return out

    @staticmethod
    def from_dense(field: Field, vars: Sequence[str], var: str, coeffs: Sequence) -> "MPoly":
        vars = tuple(vars)
        i = vars.index(var)
        terms: Dict[Exponent, FieldElement] = {}
        for k, c in enumerate(coeffs):
            ce = field.coerce(c)
            if not ce.is_zero():
                e = [0] * len(vars)
                e[i] = k
                terms[tuple(e)] = ce
        return MPoly(field, vars, terms)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        parts = []
        for e, c in items:
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            cs = str(c)
            composite = ("+" in cs[1:]) or ("-" in cs[1:]) or ("/" in cs) or ("alpha" in cs and mono)
            if not mono:
                parts.append(f"({cs})" if composite else cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"({cs})*{mono}" if composite else f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-") and not p.startswith("-("):
                out += f" - {p[1:]}"
            else:
                out += f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"MPoly({self})"


class _Promote(Exception):
    """Internal: signals that the left operand must be lifted to the right
    operand's (larger) coefficient field."""

    def __init__(self, poly: MPoly):
        self.poly = poly


# ---------------------------------------------------------------------------
# plain-text polynomial grammar
# ---------------------------------------------------------------------------


def parse_poly(text: str, field: Field, vars: Sequence[str]) -> MPoly:
    """Parse the plain-text grammar: names, integer literals, + - * ^ and
    parentheses; `alpha` (and `s` over QQ(s) and QQ(m)) denote field generators."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        if kind and tok[0] != kind:
            raise ValueError(f"expected {kind}, got {tok[1]!r}")
        pos += 1
        return tok

    def parse_expr() -> MPoly:
        node = parse_term()
        while peek() and peek()[0] in ("+", "-"):
            op = take()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> MPoly:
        node = parse_factor()
        while peek() and peek()[0] == "*":
            take()
            node = node * parse_factor()
        return node

    def parse_factor() -> MPoly:
        if peek() and peek()[0] == "-":
            take()
            return -parse_factor()
        node = parse_atom()
        while peek() and peek()[0] == "^":
            take()
            exp = take("int")[1]
            node = node ** int(exp)
        return node

    def parse_atom() -> MPoly:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        if tok[0] == "(":
            take()
            node = parse_expr()
            take(")")
            return node
        if tok[0] == "int":
            take()
            return MPoly.const(field, vars, int(tok[1]))
        if tok[0] == "name":
            take()
            name = tok[1]
            if name in vars:
                return MPoly.variable(field, vars, name)
            if name == "alpha":
                return MPoly.const(field, vars, field.alpha())
            if name == "s" and field.with_s:
                return MPoly.const(field, vars, field.s())
            raise ValueError(f"unknown name {name!r}")
        raise ValueError(f"unexpected token {tok[1]!r}")

    out = parse_expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input at token {tokens[pos][1]!r}")
    return out


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif ch in "+-*^()":
            out.append((ch, ch))
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in polynomial")
    return out
