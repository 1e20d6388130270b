from fractions import Fraction
from itertools import product

import pytest

from k3pencil import lattice, picard
from k3pencil.lattice import (
    GramLattice,
    fingerprints_match,
    lattice_invariants,
    rank_signature,
    standard_lattice,
)
from k3pencil.picard import (
    _homology_matrix,
    _solve_center,
    analyze_fiber,
    build_divisor_config,
    enumerate_and_filter,
    reflection_isomorphism_check,
    transcendental_invariants,
)
from gram_helpers import ade_chain, assert_matches_radical_quotient, fraction_rank_signature, row_by_row_det


@pytest.fixture(scope="module")
def generic_config():
    return build_divisor_config("generic")


@pytest.fixture(scope="module")
def generic_result(generic_config):
    return enumerate_and_filter(generic_config)


def test_generic_config_shape(generic_config):
    cfg = generic_config
    assert len(cfg.labels) == 23
    assert len(cfg.ambiguous_pairs) == 7
    ix = {l: i for i, l in enumerate(cfg.labels)}
    # stated fixed entries
    assert cfg.base[ix["H"]][ix["H"]] == 2
    assert cfg.base[ix["H"]][ix["L3"]] == 1
    assert cfg.base[ix["H"]][ix["E1,0"]] == 0
    assert cfg.base[ix["E1,1"]][ix["E1,2"]] == 1
    assert cfg.base[ix["E1,1"]][ix["E1,-1"]] == 0
    # the three normalization pins
    assert cfg.base[ix["L1"]][ix["E1,2"]] == 1
    assert cfg.base[ix["L1"]][ix["E2,2"]] == 1
    assert cfg.base[ix["L2"]][ix["E3,1"]] == 1
    # the fixed middle-chain incidences
    assert cfg.base[ix["L4"]][ix["E3,0"]] == 1
    assert cfg.base[ix["L4"]][ix["E4,0"]] == 1
    assert cfg.base[ix["L1"]][ix["E4,0"]] == 1


def test_generic_chain_blocks_are_negated_cartan(generic_config):
    cfg = generic_config
    ix = {l: i for i, l in enumerate(cfg.labels)}
    for point, size in ((1, 5), (2, 5), (3, 3)):
        labs = [l for l in cfg.labels if l.startswith(f"E{point},")]
        assert len(labs) == size
        block = [[cfg.base[ix[a]][ix[b]] for b in labs] for a in labs]
        assert block == ade_chain(size)
    assert cfg.base[ix["E4,0"]][ix["E4,0"]] == -2


def test_generic_enumeration(generic_result):
    res = generic_result
    assert res.survivor_count == 4
    assert res.picard.rank == 19
    assert res.picard.signature == (1, 18, 4)
    assert res.picard.invariant_factors == (12,)
    assert res.picard_match
    assert res.transcendental_match


def test_generic_relations_count(generic_result):
    # 23 generators minus rank 19 = 4 independent relations
    assert len(generic_result.labels) - generic_result.picard.rank == 4


def test_generic_survivor_dets(generic_result):
    from k3pencil.lattice import radical_quotient

    for m in generic_result.completions:
        q = radical_quotient(GramLattice.from_rows(m, generic_result.labels))
        assert abs(row_by_row_det(q.gram)) == 12


def test_pair_swap_keeps_invariants(generic_config, generic_result):
    cfg, res = generic_config, generic_result
    bits0 = res.assignments[0]
    for flip in range(len(bits0)):
        bits = tuple(b ^ 1 if i == flip else b for i, b in enumerate(bits0))
        m = cfg.complete(bits)
        rank, _, _, _ = rank_signature(m)
        if rank <= 20:
            inv = lattice_invariants(GramLattice.from_rows(m, cfg.labels))
            assert fingerprints_match(inv, res.picard)


def test_transcendental_generic(generic_result):
    t = generic_result.transcendental
    assert t.rank == 3 and t.signature[:2] == (2, 1)
    assert fingerprints_match(t, lattice_invariants(standard_lattice("U + <12>")))


def test_fiber_s1():
    res = analyze_fiber(1)
    assert len(res.labels) == 23
    assert res.picard.rank == 20
    assert res.picard_match and res.transcendental_match
    from k3pencil.lattice import radical_quotient

    q = radical_quotient(GramLattice.from_rows(res.completions[0], res.labels))
    assert abs(row_by_row_det(q.gram)) == 8
    # 23 generators minus rank 20 = 3 relations
    assert len(res.labels) - res.picard.rank == 3


def test_fiber_sm1():
    res = analyze_fiber(-1)
    assert len(res.labels) == 24
    assert res.picard.rank == 20
    assert res.picard_match and res.transcendental_match
    from k3pencil.lattice import radical_quotient

    q = radical_quotient(GramLattice.from_rows(res.completions[0], res.labels))
    assert abs(row_by_row_det(q.gram)) == 24


def test_transcendental_requires_k3_rank():
    from k3pencil.lattice import LatticeInvariants

    with pytest.raises(ValueError):
        transcendental_invariants(LatticeInvariants(5, (1, 4, 0), (), None))


def test_reflections():
    for pair, expected_pairing in (((0, 1), "swapped"), ((2, -1), "swapped")):
        rep = reflection_isomorphism_check(pair)
        assert rep.ok
        assert rep.pairing == expected_pairing
        m = rep.matrix
        # axis points (1:0:1) and (0:1:1) are fixed
        for pt in ((1, 0, 1), (0, 1, 1)):
            img = tuple(sum(m[i][j] * pt[j] for j in range(3)) for i in range(3))
            lam = next(img[i] / pt[i] for i in range(3) if pt[i])
            assert all(img[i] == lam * pt[i] for i in range(3))
        # involution up to scalar
        sq = [[sum(m[i][k] * m[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        diag = [sq[i][i] for i in range(3)]
        assert diag[0] == diag[1] == diag[2] != 0
        assert all(sq[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def test_reflection_fails_for_unrelated_pair():
    rep = reflection_isomorphism_check((1, -1))
    assert not rep.ok


def test_sm1_relations_count():
    res = analyze_fiber(-1)
    assert len(res.labels) - res.picard.rank == 4


# the surviving sheet assignments of each fibre, as the Fraction rank filter
# found them
PINNED_ASSIGNMENTS = {
    "generic": [(0, 0, 0, 0, 0, 0, 0), (0, 1, 1, 1, 0, 0, 1), (1, 0, 0, 0, 1, 1, 1), (1, 1, 1, 1, 1, 1, 0)],
    1: [(0, 0, 1, 1, 1), (0, 1, 0, 1, 0), (1, 0, 1, 0, 0), (1, 1, 0, 0, 1)],
    -1: [(0, 0, 0, 0, 0, 0, 0), (0, 1, 1, 1, 0, 0, 1), (1, 0, 0, 0, 1, 1, 1), (1, 1, 1, 1, 1, 1, 0)],
}


@pytest.fixture(scope="module")
def fiber_configs():
    return {fiber: build_divisor_config(fiber) for fiber in PINNED_ASSIGNMENTS}


def test_integer_rank_matches_rank_signature(fiber_configs):
    completions = [
        cfg.complete(bits)
        for cfg in fiber_configs.values()
        for bits in product((0, 1), repeat=len(cfg.ambiguous_pairs))
    ]
    assert len(completions) == 288
    # the integer elimination against the Fraction congruence diagonalization
    for m in completions:
        assert rank_signature(m) == fraction_rank_signature(m)


def test_enumeration_pinned_with_one_elimination_per_assignment(fiber_configs, monkeypatch):
    # per fibre: one elimination of the head, one of the line-square Schur
    # complement per assignment, then one per lattice_invariants call on the
    # two model lattices (Picard, transcendental); each survivor hands the
    # inertia of the filter on to lattice_invariants
    expected = []
    for cfg in fiber_configs.values():
        models = [standard_lattice(spec).dim for spec in picard.FIBER_MODELS[cfg.fiber]]
        head = len(cfg.labels) - len(cfg.lines)
        expected += [head] + [len(cfg.lines)] * 2 ** len(cfg.ambiguous_pairs) + models
    calls = []
    exact = lattice.rank_signature

    def counted(rows):
        calls.append(len(rows))
        return exact(rows)

    monkeypatch.setattr(lattice, "rank_signature", counted)
    monkeypatch.setattr(picard, "rank_signature", counted, raising=False)
    for fiber, cfg in fiber_configs.items():
        res = enumerate_and_filter(cfg)
        assert res.survivor_count == 4
        assert res.assignments == PINNED_ASSIGNMENTS[fiber]
    assert calls == expected
    assert len(calls) == 288 + 3 * (1 + 2)
    # no full-size elimination, on a survivor or any other completion
    assert not set(calls) & {len(cfg.labels) for cfg in fiber_configs.values()}


def test_survivor_invariants_match_the_radical_quotient(fiber_configs, monkeypatch):
    # the 12 survivors are degenerate: each takes one Smith form of its
    # completed Gram matrix, not one for the radical and one for the quotient
    survivors = [
        GramLattice.from_rows(m, cfg.labels)
        for cfg in fiber_configs.values()
        for m in enumerate_and_filter(cfg).completions
    ]
    sizes, snf = [], lattice.smith_normal_form
    monkeypatch.setattr(lattice, "smith_normal_form", lambda m: sizes.append(len(m)) or snf(m))
    invs = [lattice_invariants(L) for L in survivors]
    monkeypatch.undo()
    assert len(survivors) == 12 and sizes == [L.dim for L in survivors]
    for L, inv in zip(survivors, invs):
        assert inv.signature[2] > 0
        assert_matches_radical_quotient(L, inv)


def test_rank_bound_flag():
    cfg = build_divisor_config("generic")
    # rank 19 assignments survive an even tighter bound
    res = enumerate_and_filter(cfg, rank_bound=19)
    assert res.survivor_count == 4
    with pytest.raises(ValueError, match="rank bound"):
        enumerate_and_filter(cfg, rank_bound=5)


# the homology with centre c = (1, 2, -3) sends (1:0:0) to (2:-2:3) and
# (0:1:0) to (-1:1:3); its centre is returned scaled to last coordinate 1
CENTER = [Fraction(-1, 3), Fraction(-2, 3), Fraction(1)]


def _maps_to(center, P, Q):
    m = _homology_matrix(center)
    img = [sum(m[i][j] * P[j] for j in range(3)) for i in range(3)]
    return all(img[i] * Q[j] == img[j] * Q[i] for i in range(3) for j in range(3))


@pytest.mark.parametrize(
    "assignment",
    [[((1, 0, 0), (2, -2, 3))], [((1, 0, 0), (2, -2, 3)), ((0, 1, 0), (-1, 1, 3))]],
    ids=["one-pair", "two-pairs"],
)
def test_solve_center_rank_2(assignment):
    center = _solve_center(assignment)
    assert center == CENTER
    assert all(_maps_to(center, P, Q) for P, Q in assignment)


def test_solve_center_scales_last_nonzero_coordinate():
    # kernel spanned by (1, 1, 0): the last coordinate is zero
    assert _solve_center([((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (1, 0, 0))]) == [1, 1, 0]


def test_solve_center_rank_3_is_none():
    assert _solve_center([((1, 0, 0), (2, -2, 3)), ((0, 1, 0), (-1, 1, 3)), ((1, 1, 2), (2, 1, 0))]) is None


def test_solve_center_kernel_dim_2_is_none():
    # an axis point sent elsewhere: every row is a multiple of the axis
    assert _solve_center([((1, 0, 1), (0, 1, 1))]) is None


def test_solve_center_zero_rows_is_none():
    # an axis point fixed: every condition vanishes
    assert _solve_center([((1, 0, 1), (1, 0, 1)), ((1, 1, 2), (2, 2, 4))]) is None
    assert _solve_center([]) is None


def test_solve_center_on_axis_is_none():
    # the one-dimensional kernel is spanned by (1, 0, 1), a point of the axis
    assert _solve_center([((1, 0, 0), (1, 0, 1))]) is None
