import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3pencil.lattice import (
    GramLattice,
    disc_forms_isomorphic,
    discriminant_generators,
    discriminant_group_form,
    invariants_match,
    lattice_invariants,
    mat_mul,
    radical_quotient,
    rank_signature,
    smith_normal_form,
    standard_lattice,
    transpose,
)

from gram_helpers import ade_chain, direct_sum, row_by_row_det


def test_hyperbolic_plane():
    U = standard_lattice("U")
    assert rank_signature(U.gram) == (2, 1, 1, 0)
    inv = discriminant_group_form(U, rank_signature(U.gram))
    assert inv.invariant_factors == ()


def test_e8_negative_definite_unimodular():
    E = standard_lattice("E8(-1)")
    assert rank_signature(E.gram) == (8, 0, 8, 0)
    assert row_by_row_det(E.gram) == 1
    assert E.is_even()


def test_block_sum_rank_19_det_12():
    L = standard_lattice("U + E8(-1)^2 + <-12>")
    assert rank_signature(L.gram) == (19, 1, 18, 0)
    assert abs(row_by_row_det(L.gram)) == 12


def test_block_sum_is_the_successive_direct_sum():
    # the one-fill block-diagonal Gram matrix and labels equal those of
    # the direct sum applied block by block
    blocks = ["U", "E8(-1)", "E8(-1)", "<-12>", "<2>", "<2>", "<2>"]
    expected = standard_lattice(blocks[0])
    for block in blocks[1:]:
        expected = direct_sum(expected, standard_lattice(block))
    L = standard_lattice("U + E8(-1)^2 + <-12> + <2>^3")
    assert L == expected
    assert L.labels == expected.labels and L.dim == 22


def test_rank_one_blocks():
    L = standard_lattice("<2> + <4>")
    assert L.gram == ((2, 0), (0, 4))


def test_parse_errors():
    for bad in ("", "U +", "E7", "<x>", "U^x", "U ^ 0"):
        with pytest.raises(ValueError):
            standard_lattice(bad)


def test_disc_form_of_minus_12():
    L = standard_lattice("<-12>")
    inv = discriminant_group_form(L, rank_signature(L.gram))
    assert inv.invariant_factors == (12,)
    # q(generator) = -1/12 mod 2, stored in [0, 2)
    assert inv.disc_form.q == (Fraction(23, 12),)


def test_degenerate_form_read_without_the_quotient():
    # one Smith form: the zero invariant factor of the radical is skipped
    L = GramLattice.from_rows([[2, 0], [0, 0]])
    inv = discriminant_group_form(L, rank_signature(L.gram))
    assert inv.invariant_factors == (2,)
    assert inv.disc_form.q == (Fraction(1, 2),)
    q = radical_quotient(L)
    assert q.gram == ((2,),)


def test_radical_quotient_preserves_nondegenerate_invariants():
    L = standard_lattice("U + <4>")
    q = radical_quotient(L)
    assert invariants_match(L, q)


def test_odd_lattice_rejected():
    with pytest.raises(ValueError, match="even"):
        discriminant_group_form(GramLattice.from_rows([[1]]), (1, 1, 0, 0))


def test_invariants_match_examples():
    assert invariants_match(
        standard_lattice("U + E8(-1)^2 + <-12>"), standard_lattice("U + E8(-1)^2 + <-12>")
    )
    assert not invariants_match(standard_lattice("U"), standard_lattice("<2> + <-2>"))


def test_snf_properties_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        M = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        D, P, Q = smith_normal_form(M)
        assert mat_mul(mat_mul(P, M), Q) == D
        assert abs(row_by_row_det(P)) == 1 and abs(row_by_row_det(Q)) == 1
        diag = [D[i][i] for i in range(n)]
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            elif b != 0:
                assert b % a == 0


def test_invariant_factor_product_is_det():
    for spec in ("U + <-12>", "<2> + <4>", "<-12> + <-2>", "U + E8(-1)^2 + <-4> + <-2>"):
        L = standard_lattice(spec)
        inv = discriminant_group_form(L, rank_signature(L.gram))
        prod = 1
        for d in inv.invariant_factors:
            prod *= d
        assert prod == abs(row_by_row_det(L.gram))


def test_q_b_compatibility():
    # q(g+h) - q(g) - q(h) = 2 b(g, h) mod 2
    L = standard_lattice("<-12> + <-2>")
    inv = discriminant_group_form(L, rank_signature(L.gram))
    form = inv.disc_form
    for g in form.elements():
        for h in form.elements():
            gh = tuple((a + b) % d for a, b, d in zip(g, h, form.orders))
            lhs = (form.q_of(gh) - form.q_of(g) - form.q_of(h)) % 2
            rhs = (2 * form.b_of(g, h)) % 2
            assert lhs == rhs


def _random_unimodular(n, rng, steps=12):
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for t in range(n):
            M[i][t] += c * M[j][t]
    return M


def test_signature_basis_invariance_random():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(2, 4)
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            A[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i + 1, n):
                A[i][j] = A[j][i] = rng.randint(-3, 3)
        U = _random_unimodular(n, rng)
        B = mat_mul(mat_mul(U, A), transpose(U))
        assert rank_signature(A) == rank_signature(B)


def test_even_rank3_conjugation_fingerprints():
    rng = random.Random(31)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            A[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i + 1, n):
                A[i][j] = A[j][i] = rng.randint(-3, 3)
        L = GramLattice.from_rows(A)
        if row_by_row_det(A) == 0:
            continue
        U = _random_unimodular(n, rng)
        B = mat_mul(mat_mul(U, A), transpose(U))
        assert invariants_match(L, GramLattice.from_rows(B))
        done += 1


def test_ade_chain_matrices():
    a5 = ade_chain(5)
    assert a5[0][0] == -2 and a5[0][1] == 1 and a5[0][2] == 0
    assert abs(row_by_row_det(a5)) == 6
    assert rank_signature(a5) == (5, 0, 5, 0)
    assert lattice_invariants(GramLattice.from_rows(a5)).invariant_factors == (6,)


def test_disc_form_negation_changes_class_when_it_should():
    inv = lattice_invariants(standard_lattice("<-12>"))
    neg = inv.disc_form.negated()
    pos = lattice_invariants(standard_lattice("<12>")).disc_form
    assert disc_forms_isomorphic(neg, pos)
    assert not disc_forms_isomorphic(inv.disc_form, pos)


def test_invariants_match_reflexive_symmetric():
    specs = [
        "U + E8(-1)^2 + <-12>",
        "U + E8(-1)^2 + <-4> + <-2>",
        "U + E8(-1)^2 + <-12> + <-2>",
        "U + <12>",
        "<2> + <4>",
        "<2> + <12>",
    ]
    lattices = [standard_lattice(s) for s in specs]
    for a in lattices:
        assert invariants_match(a, a)
    for i, a in enumerate(lattices):
        for b in lattices[i + 1 :]:
            assert invariants_match(a, b) == invariants_match(b, a)


def test_snf_nonsquare():
    M = [[2, 4, 4], [-6, 6, 12]]
    D, P, Q = smith_normal_form(M)
    assert mat_mul(mat_mul(P, M), Q) == D
    assert D[0][0] == 2 and D[1][1] % D[0][0] == 0


# lattice_invariants(...).describe() of the Picard and transcendental models
FIBER_MODEL_INVARIANTS = {
    "U + E8(-1)^2 + <-12>": (19, [1, 18, 0], [12], ["23/12"], [["11/12"]]),
    "U + <12>": (3, [2, 1, 0], [12], ["1/12"], [["1/12"]]),
    "U + E8(-1)^2 + <-4> + <-2>": (20, [1, 19, 0], [2, 4], ["3/2", "7/4"], [["1/2", "0"], ["0", "3/4"]]),
    "<2> + <4>": (2, [2, 0, 0], [2, 4], ["1/2", "1/4"], [["1/2", "0"], ["0", "1/4"]]),
    "U + E8(-1)^2 + <-12> + <-2>": (20, [1, 19, 0], [2, 12], ["3/2", "23/12"], [["1/2", "0"], ["0", "11/12"]]),
    "<2> + <12>": (2, [2, 0, 0], [2, 12], ["1/2", "1/12"], [["1/2", "0"], ["0", "1/12"]]),
}


@pytest.mark.parametrize("spec", FIBER_MODEL_INVARIANTS)
def test_fiber_model_invariants_pinned(spec):
    rank, signature, factors, q, b = FIBER_MODEL_INVARIANTS[spec]
    assert lattice_invariants(standard_lattice(spec)).describe() == {
        "rank": rank,
        "signature": signature,
        "invariant_factors": factors,
        "disc_q": q,
        "disc_b": b,
    }


def test_degenerate_signature_counts_the_radical():
    A = direct_sum(standard_lattice("<-12> + <2> + U"), GramLattice.from_rows([[0] * 3] * 3))
    U = _random_unimodular(A.dim, random.Random(37))
    L = GramLattice.from_rows(mat_mul(mat_mul(U, [list(r) for r in A.gram]), transpose(U)))
    inv = lattice_invariants(L)
    assert inv.signature == rank_signature(L.gram)[1:] == (2, 2, 3)
    assert inv.rank == 4 and inv.invariant_factors == (2, 12)


_block = st.one_of(
    st.sampled_from(["U", "E8(-1)", "E8"]),
    st.integers(-6, 6).filter(bool).map(lambda k: f"<{2 * k}>"),
)
_steps = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), st.sampled_from([-2, -1, 1, 2])), max_size=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(_block, min_size=1, max_size=4), _steps)
def test_dual_generators_of_even_lattices(blocks, steps):
    """For random block sums under a unimodular change of basis, each
    generator v = c / d of the discriminant group is in the dual lattice
    (G v integral) and has order exactly d in L^v / L."""
    A = [list(r) for r in standard_lattice(" + ".join(blocks)).gram]
    n = len(A)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in steps:
        i, j = i % n, j % n
        if i != j:
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    G = mat_mul(mat_mul(U, A), transpose(U))
    orders, cols = discriminant_generators(GramLattice.from_rows(G))
    prod = 1
    for d, c in zip(orders, cols):
        prod *= d
        v = [Fraction(x, d) for x in c]
        assert all(sum(g * x for g, x in zip(row, v)).denominator == 1 for row in G)
        assert next(k for k in range(1, d + 1) if all((k * x).denominator == 1 for x in v)) == d
    assert prod == abs(row_by_row_det(G))
