"""Exact integral lattice engine: Gram matrices, with two integer
eliminations: a symmetric fraction-free elimination under Jacobi's sign
rule for ranks, signatures and degeneracy, and the Smith normal form for
bases and kernels (radical quotients and the dual generators of
discriminant groups); finite quadratic forms, and the
invariant-fingerprint comparison used to identify lattices up to the
uniqueness theorems."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Optional, Sequence

IntMatrix = list[list[int]]


# ---------------------------------------------------------------------------
# basic integer matrix helpers
# ---------------------------------------------------------------------------


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def transpose(a: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*a)]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (D, P, Q) with P * m * Q = D, P and Q
    unimodular, and the diagonal of D in dividing order."""
    a = [row[:] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    P = _identity(rows)
    Q = _identity(cols)

    def row_op(i, j, c):  # row_i += c * row_j
        for t in range(cols):
            a[i][t] += c * a[j][t]
        for t in range(rows):
            P[i][t] += c * P[j][t]

    def col_op(i, j, c):  # col_i += c * col_j
        for t in range(rows):
            a[t][i] += c * a[t][j]
        for t in range(cols):
            Q[t][i] += c * Q[t][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        P[i], P[j] = P[j], P[i]

    def col_swap(i, j):
        for t in range(rows):
            a[t][i], a[t][j] = a[t][j], a[t][i]
        for t in range(cols):
            Q[t][i], Q[t][j] = Q[t][j], Q[t][i]

    k = 0
    while k < min(rows, cols):
        # find the smallest nonzero entry in the trailing block
        piv = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        row_swap(k, piv[0])
        col_swap(k, piv[1])
        dirty = False
        for i in range(k + 1, rows):
            if a[i][k]:
                q = a[i][k] // a[k][k]
                row_op(i, k, -q)
                if a[i][k]:
                    dirty = True
        for j in range(k + 1, cols):
            if a[k][j]:
                q = a[k][j] // a[k][k]
                col_op(j, k, -q)
                if a[k][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide the rest of the block
        bad = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % a[k][k]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(k, bad, 1)
            continue
        k += 1
    # normalize signs on the diagonal
    for t in range(min(rows, cols)):
        if a[t][t] < 0:
            for j in range(cols):
                Q[j][t] = -Q[j][t]
            a[t][t] = -a[t][t]
    return a, P, Q


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GramLattice:
    labels: tuple
    gram: tuple  # tuple of tuples of int, symmetric

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None) -> "GramLattice":
        g = tuple(tuple(int(c) for c in row) for row in rows)
        n = len(g)
        for i in range(n):
            if len(g[i]) != n:
                raise ValueError("gram matrix must be square")
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        lab = tuple(labels) if labels is not None else tuple(f"e{i+1}" for i in range(n))
        if len(lab) != n:
            raise ValueError("label count mismatch")
        return GramLattice(lab, g)

    @property
    def dim(self) -> int:
        return len(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.dim))


#: negated E8 Cartan matrix uses this Dynkin diagram adjacency
_E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def _e8_cartan() -> IntMatrix:
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = 2
    for i, j in _E8_EDGES:
        m[i][j] = m[j][i] = -1
    return m


#: The largest rank of a ``standard_lattice``.  The Smith form of the
#: costliest spec at this rank, ``<2>^256``, takes about 7 s on a 2-core VM
#: (``U^128`` about 3 s), and the cost grows steeply beyond.
LATTICE_RANK_MAX = 256


def standard_lattice(spec: str) -> GramLattice:
    """Block lattice from an expression over U, E8(-1), <n> and direct sums,
    e.g. "U + E8(-1)^2 + <-12>".  A unicode circled plus is accepted too.
    A ValueError naming LATTICE_RANK_MAX is raised before any Gram matrix
    is built if the rank, summed over the blocks, exceeds it."""
    text = spec.replace("⊕", "+").strip()
    if not text:
        raise ValueError("empty lattice expression")
    blocks = [_parse_block(part.strip()) for part in _split_sum(text)]
    rank = sum(base.dim * power for base, power in blocks)
    if rank > LATTICE_RANK_MAX:
        raise ValueError(f"lattice rank {rank} exceeds the bound of {LATTICE_RANK_MAX}")
    rows = [[0] * rank for _ in range(rank)]
    labels: list[str] = []
    for base, power in blocks:
        for _ in range(power):
            k = len(labels)
            for i, row in enumerate(base.gram):
                rows[k + i][k : k + base.dim] = row
            labels.extend(base.labels)
    return GramLattice.from_rows(rows, labels)


def _split_sum(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch in "(<":
            depth += 1
        elif ch in ")>":
            depth -= 1
        if ch == "+" and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    if any(not p.strip() for p in parts):
        raise ValueError(f"malformed lattice expression: {text!r}")
    return parts


_BLOCK_GRAMMAR = "blocks are U, E8, E8(-1) or <n> for an integer n, each with an optional ^k"


def _parse_block(part: str) -> tuple[GramLattice, int]:
    """The base block of one summand and its power."""
    power = 1
    if "^" in part:
        part, _, exp = part.rpartition("^")
        part = part.strip()
        power = _block_int(exp, f"{part}^{exp}")
        if power < 1:
            raise ValueError("block power must be positive")
    base: GramLattice
    if part == "U":
        base = GramLattice.from_rows([[0, 1], [1, 0]], ["u1", "u2"])
    elif part in ("E8(-1)", "E8(-1)".lower()):
        c = _e8_cartan()
        base = GramLattice.from_rows([[-x for x in row] for row in c], [f"f{i+1}" for i in range(8)])
    elif part == "E8":
        base = GramLattice.from_rows(_e8_cartan(), [f"f{i+1}" for i in range(8)])
    elif part.startswith("<") and part.endswith(">"):
        n = _block_int(part[1:-1], part)
        base = GramLattice.from_rows([[n]], [f"<{n}>"])
    else:
        raise ValueError(f"unknown lattice block {part!r}; {_BLOCK_GRAMMAR}")
    return base, power


def _block_int(text: str, block: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"malformed lattice block {block!r}; {_BLOCK_GRAMMAR}") from None


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def rank_signature(rows: Sequence[Sequence[int]]) -> tuple[int, int, int, int]:
    """(rank, n_plus, n_minus, n_zero) of the symmetric integer matrix with
    these rows, by a symmetric fraction-free (Bareiss) elimination on
    ``int`` rows.  It is the one rank computation of the package: the rank
    filter of the Picard enumeration, degeneracy in ``lattice_invariants``
    and every signature read it.

    Eliminating with the diagonal pivot a_kk is a congruence, and after k
    pivots every entry of the trailing block is the minor on the first k
    rows and columns bordered by its own row and column, so each division
    is exact (Sylvester's identity) and the pivots are the leading principal
    minors p_1, p_2, ...  The congruence diagonalization then has the
    entries p_(k+1) / p_k (p_0 = 1), whose signs are sign(p_(k+1)) *
    sign(p_k): Jacobi's rule (Gantmacher, Theory of Matrices I, ch. X).  A
    zero pivot is replaced by a congruence that moves only the trailing
    block, so the minors already eliminated stay the same and the bordered
    minors transform like the entries: a symmetric swap with a later
    nonzero diagonal entry, or, when the whole trailing diagonal is zero,
    row_i += row_j and col_i += col_j for a nonzero a_ij, which makes
    a_ii = 2 a_ij.  So a zero diagonal never ends the elimination while a
    trailing entry is nonzero; it ends when the trailing block is zero.
    The matrix is then congruent over QQ to the r nonzero entries
    p_(k+1) / p_k and n - r zeros, so the rank is exactly the pivot count r
    on any symmetric integer matrix, and Sylvester's law of inertia gives
    the signature."""
    a = [list(row) for row in rows]
    n = len(a)
    pos = neg = 0
    prev = 1
    for k in range(n):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][i]), None)
            if i is None:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
                if pair is None:
                    break
                i, j = pair
                for t in range(k, n):
                    a[i][t] += a[j][t]
                for row in a[k:]:
                    row[i] += row[j]
            if i != k:
                a[k], a[i] = a[i], a[k]
                for row in a[k:]:
                    row[k], row[i] = row[i], row[k]
        p = a[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        top = a[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    rank = pos + neg
    return rank, pos, neg, n - rank


def radical_quotient(L: GramLattice) -> GramLattice:
    """Gram matrix induced on the quotient by the saturated radical (the
    integer kernel of the Gram map); complement columns of the SNF
    transformation give an integral basis of the quotient."""
    n = L.dim
    gram = [list(r) for r in L.gram]
    d, _, q = smith_normal_form(gram)
    basis = [[q[r][j] for r in range(n)] for j in range(n) if d[j][j] != 0]  # rows are vectors
    g = mat_mul(mat_mul(basis, gram), transpose(basis))
    labels = tuple(f"q{i+1}" for i in range(len(basis)))
    return GramLattice.from_rows(g, labels)


@dataclass(frozen=True)
class DiscForm:
    """Finite quadratic form on the discriminant group: generator orders,
    q-values in QQ/2ZZ and pairwise b-values in QQ/ZZ."""

    orders: tuple            # invariant factors > 1
    q: tuple                 # Fractions reduced to [0, 2)
    b: tuple                 # tuple of tuples, Fractions reduced to [0, 1)

    def elements(self):
        return product(*(range(d) for d in self.orders))

    def element_order(self, g) -> int:
        out = 1
        for gi, d in zip(g, self.orders):
            out = lcm(out, d // gcd(gi, d))
        return out

    def q_of(self, g) -> Fraction:
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            total += g[i] * g[i] * self.q[i]
            for j in range(i + 1, k):
                total += 2 * g[i] * g[j] * self.b[i][j]
        return total % 2

    def b_of(self, g, h) -> Fraction:
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            for j in range(k):
                total += g[i] * h[j] * self.b[i][j]
        return total % 1

    def negated(self) -> "DiscForm":
        return DiscForm(
            self.orders,
            tuple((-x) % 2 for x in self.q),
            tuple(tuple((-x) % 1 for x in row) for row in self.b),
        )


@dataclass(frozen=True)
class LatticeInvariants:
    rank: int
    signature: tuple         # (n_plus, n_minus, n_zero)
    invariant_factors: tuple
    disc_form: Optional[DiscForm]

    def describe(self) -> dict:
        out = {
            "rank": self.rank,
            "signature": list(self.signature),
            "invariant_factors": list(self.invariant_factors),
        }
        if self.disc_form is not None:
            out["disc_q"] = [str(x) for x in self.disc_form.q]
            out["disc_b"] = [[str(x) for x in row] for row in self.disc_form.b]
        return out


def discriminant_generators(L: GramLattice) -> tuple[list[int], IntMatrix]:
    """Generators of the discriminant group L^v / L of a nondegenerate L, read
    off the Smith normal form P * G * Q = D of its Gram matrix G.

    L^v / L is ZZ^n / G ZZ^n in dual-basis coordinates, and P carries it onto
    ZZ^n / D ZZ^n, so generator i is P^-1 e_(start+i), of order d_i, the i-th
    diagonal entry of D above 1.  Since G^-1 * P^-1 = Q * D^-1, its coordinate
    vector in the basis of L is G^-1 P^-1 e_(start+i) = c_i / d_i, where c_i
    is column start+i of Q.  Returns the orders d_i and the integer c_i."""
    n = L.dim
    d, _, q = smith_normal_form([list(r) for r in L.gram])
    if any(d[i][i] == 0 for i in range(n)):
        raise ValueError("degenerate lattice: call radical_quotient first")
    orders = [d[i][i] for i in range(n) if d[i][i] > 1]
    start = n - len(orders)
    return orders, [[q[r][start + i] for r in range(n)] for i in range(len(orders))]


def discriminant_group_form(L: GramLattice) -> LatticeInvariants:
    """Invariants of a nondegenerate even lattice, with the finite quadratic
    form on the discriminant group: for the generators c_i / d_i of
    ``discriminant_generators``, q(g_i) = c_i.G.c_i / d_i^2 mod 2 and
    b(g_i, g_j) = c_i.G.c_j / (d_i d_j) mod 1."""
    orders, cols = discriminant_generators(L)
    if not L.is_even():
        raise ValueError("discriminant form requires an even lattice")
    rank, pos, neg, zero = rank_signature(L.gram)
    gcols = mat_mul(L.gram, transpose(cols))
    pairs = [
        [Fraction(sum(x * g[j] for x, g in zip(c, gcols)), di * dj) for j, dj in enumerate(orders)]
        for c, di in zip(cols, orders)
    ]
    qs = tuple(pairs[i][i] % 2 for i in range(len(orders)))
    bs = tuple(tuple(x % 1 for x in row) for row in pairs)
    disc = DiscForm(tuple(orders), qs, bs)
    return LatticeInvariants(rank, (pos, neg, zero), tuple(orders), disc)


def lattice_invariants(L: GramLattice) -> LatticeInvariants:
    """Invariants after passing to the radical quotient M when degenerate,
    that is when ``rank_signature`` counts a zero.  The form factors
    through L/rad, so by Sylvester's law of inertia M has the signature of
    L without its zeros, and L keeps its own."""
    _, pos, neg, zero = rank_signature(L.gram)
    if not zero:
        return discriminant_group_form(L)
    inv = discriminant_group_form(radical_quotient(L))
    return replace(inv, signature=(pos, neg, zero))


# ---------------------------------------------------------------------------
# fingerprint comparison
# ---------------------------------------------------------------------------


def disc_forms_isomorphic(a: DiscForm, b: DiscForm) -> bool:
    """Search for a group isomorphism A -> B matching q and b, over the
    images of the generators of A.

    A tuple of images y_i of the generators e_i, each of the order d_i of
    e_i, defines a homomorphism phi; it is kept when phi is bijective,
    q_B(y_i) = q_A(e_i) for the k generators and b_B(y_i, y_j) = b_A(e_i,
    e_j) for the k(k-1)/2 pairs i < j.  That is enough because
    ``DiscForm.q_of`` is exactly sum x_i^2 q_i + 2 sum_(i<j) x_i x_j b_ij
    in the coordinates x, so q(phi(x)) = sum x_i^2 q(y_i) + 2 sum_(i<j)
    x_i x_j b(y_i, y_j) mod 2 for a form whose b_ii = q_i mod 1 (those of
    ``discriminant_group_form``), and b is bilinear with b(x, x) = q(x) mod
    1; so q and b then agree on all of A and all pairs, which is what an
    isomorphism of discriminant forms must satisfy.  The q test runs per
    generator, before the product of the candidate lists is formed."""
    if sorted(a.orders) != sorted(b.orders):
        return False
    k = len(a.orders)
    b_elements = list(b.elements())
    candidates = [
        [e for e in b_elements if b.element_order(e) == d and b.q_of(e) == qi]
        for d, qi in zip(a.orders, a.q)
    ]
    a_elements = list(a.elements())
    for images in product(*candidates):
        if any(
            b.b_of(images[i], images[j]) != a.b[i][j] for i in range(k) for j in range(i + 1, k)
        ):
            continue
        seen = {
            tuple(sum(g[i] * images[i][t] for i in range(k)) % b.orders[t] for t in range(k))
            for g in a_elements
        }
        if len(seen) == len(a_elements):
            return True
    return False


def invariants_match(A: GramLattice, B: GramLattice) -> bool:
    """Same rank, signature, discriminant group and discriminant form."""
    ia = lattice_invariants(A)
    ib = lattice_invariants(B)
    return fingerprints_match(ia, ib)


def fingerprints_match(ia: LatticeInvariants, ib: LatticeInvariants) -> bool:
    if ia.rank != ib.rank:
        return False
    if ia.signature[:2] != ib.signature[:2]:
        return False
    if sorted(ia.invariant_factors) != sorted(ib.invariant_factors):
        return False
    if ia.disc_form is None or ib.disc_form is None:
        return ia.disc_form is ib.disc_form
    return disc_forms_isomorphic(ia.disc_form, ib.disc_form)
