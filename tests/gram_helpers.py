"""Test-local Gram matrix builders and the exact oracles that the lattice
engine's integer elimination is checked against."""

from fractions import Fraction

from k3pencil.lattice import GramLattice


def ade_chain(n):
    """Rows of the A_n chain lattice: the negated Cartan matrix."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -2
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = 1
    return rows


def direct_sum(a, b):
    """The orthogonal direct sum of two lattices, labels concatenated."""
    n, m = a.dim, b.dim
    rows = [list(r) + [0] * m for r in a.gram] + [[0] * n + list(r) for r in b.gram]
    return GramLattice.from_rows(rows, a.labels + b.labels)


def row_by_row_det(m):
    """Integer determinant of a square matrix by a square-only fraction-free
    (Bareiss) elimination with row swaps."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def fraction_rank_signature(m) -> tuple[int, int, int, int]:
    """(rank, n_plus, n_minus, n_zero) of a symmetric integer matrix by
    congruence diagonalization over Fraction: the oracle of the integer
    rank_signature."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]

    def sym_op(i, j, c):
        for t in range(n):
            a[i][t] += c * a[j][t]
        for t in range(n):
            a[t][i] += c * a[t][j]

    def sym_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for t in range(n):
            a[t][i], a[t][j] = a[t][j], a[t][i]

    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is not None:
                sym_swap(k, piv)
            else:
                off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    break
                i, j = off
                sym_op(i, j, Fraction(1))
                if i != k:
                    sym_swap(k, i)
        pivot = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                sym_op(i, k, -a[i][k] / pivot)
        if pivot > 0:
            pos += 1
        else:
            neg += 1
    rank = pos + neg
    return rank, pos, neg, n - rank
