"""Divisor configurations on the fibres, enumeration of the sheet-ambiguous
intersection numbers under a rank filter by Schur complements on the line
rows, Picard/transcendental lattice invariants, and the reflection
identifying the remaining special fibres.

The exceptional-divisor incidences of the lifted lines are derived from
exact local geometry: a line through a singular point of the branch sextic
follows the infinitely-near points of the two branches as far as its contact
with them allows, so its lift meets the chain divisor at that depth.  Depths
below the middle leave a two-fold sheet ambiguity (the deck involution),
which is what the enumeration ranges over."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import Iterator, Optional, Sequence, Union

from .field import QQ, QS
from .mpoly import MPoly
from .pencil import (
    GENERIC_BRANCH_POINTS,
    XYZ,
    branch_cubic,
    branch_cubic_at,
    fiber_branch_components,
    fiber_singular_table,
)
from .cover import BranchConfig, fiber_lines, line_matrix, proportional
from .lattice import (
    GramLattice,
    LatticeInvariants,
    fingerprints_match,
    lattice_invariants,
    mat_mul,
    rank_signature,
    smith_normal_form,
    standard_lattice,
    transpose,
)
from .singular import ProjPoint, intersection_multiplicity, multiplicity_at

FIBER_MODELS = {
    "generic": ("U + E8(-1)^2 + <-12>", "U + <12>"),
    "s1": ("U + E8(-1)^2 + <-4> + <-2>", "<2> + <4>"),
    "s-1": ("U + E8(-1)^2 + <-12> + <-2>", "<2> + <12>"),
}


@dataclass
class ChainPoint:
    index: int                  # 1-based singular point index
    point: ProjPoint
    k: int                      # A_k
    branches: list              # components of the sextic through the point

    @property
    def half(self) -> int:
        """n with k = 2n - 1 for two-branch points; 1 for a node."""
        return (self.k + 1) // 2

    def chain_labels(self) -> list[str]:
        n = self.half
        return [f"E{self.index},{j}" for j in range(-(n - 1), n)]


@dataclass
class DivisorConfig:
    fiber: str
    labels: tuple
    base: list                   # base matrix with ambiguous slots left at 0
    ambiguous_pairs: list        # [((row, col+), (row, col-)), ...]
    chain_points: list
    lines: list

    def complete(self, bits: Sequence[int]) -> list[list[int]]:
        """The full Gram matrix of one sheet assignment: bit i sets the first
        (0) or the second (1) slot of ambiguous pair i to 1."""
        m = [row[:] for row in self.base]
        for bit, (slot_p, slot_m) in zip(bits, self.ambiguous_pairs):
            (ri, ci) = slot_p if bit == 0 else slot_m
            m[ri][ci] = m[ci][ri] = 1
        return m


@dataclass
class FiberResult:
    fiber: str
    survivor_count: int
    assignments: list
    completions: list            # surviving full Gram matrices
    labels: tuple
    picard: LatticeInvariants
    transcendental: LatticeInvariants
    picard_model: str
    transcendental_model: str
    picard_match: bool
    transcendental_match: bool


def _fiber_key(fiber) -> str:
    if fiber == "generic":
        return "generic"
    return f"s{Fraction(fiber)}"


def _chain_points(fiber) -> tuple[BranchConfig, list[ChainPoint]]:
    if fiber == "generic":
        config = BranchConfig.generic()
        comps = [branch_cubic(0), branch_cubic(1)]
        pts = []
        for idx, (coords, mult) in enumerate(GENERIC_BRANCH_POINTS, start=1):
            P = ProjPoint(QS, coords)
            pts.append(ChainPoint(idx, P, 2 * mult - 1, comps))
        return config, pts
    s0 = Fraction(fiber)
    config = BranchConfig.at(s0)
    comps = [c.to_field(config.field) for c in fiber_branch_components(s0)]
    pts = []
    for idx, (coords, k) in enumerate(fiber_singular_table(s0), start=1):
        P = ProjPoint(config.field, coords)
        through = [c for c in comps if c.evaluate(list(P.coords)).is_zero()]
        if not through:
            raise ValueError(f"singular table mismatch: no component through {P}")
        pts.append(ChainPoint(idx, P, k, through))
    return config, pts


def _incidence_depth(line: MPoly, cp: ChainPoint) -> int:
    """Depth at which the strict transform of the line leaves the branch
    tower above the point: min contact with the branches, capped at the
    middle of the chain."""
    if cp.half == 1:
        return 1
    contacts = []
    for comp in cp.branches:
        contacts.append(intersection_multiplicity(comp, line, cp.point))
    m = min(contacts)
    if m < 1:
        raise ValueError("line does not pass through the point")
    return min(m, cp.half)


def build_divisor_config(fiber: Union[str, int, Fraction]) -> DivisorConfig:
    """Assemble the labelled partial Gram matrix of hyperplane class,
    exceptional chains and lifted lines, with one normalization pin per
    singular point and the remaining sheet choices listed as ambiguous
    pairs."""
    key = _fiber_key(fiber)
    config, chain_points = _chain_points(fiber if fiber == "generic" else Fraction(fiber))
    lines = fiber_lines(fiber if fiber == "generic" else Fraction(fiber))

    # type consistency between the claimed table and the branch geometry
    for cp in chain_points:
        if len(cp.branches) == 2:
            m = intersection_multiplicity(cp.branches[0], cp.branches[1], cp.point)
            if 2 * m - 1 != cp.k:
                raise ValueError(
                    f"singular table mismatch at {cp.point}: contact {m} vs type A{cp.k}"
                )
        elif len(cp.branches) == 1:
            if cp.k != 1 or multiplicity_at(cp.branches[0], cp.point) != 2:
                raise ValueError(f"singular table mismatch at {cp.point}: not a node")
        else:
            raise ValueError(f"singular table mismatch at {cp.point}: {len(cp.branches)} branches")

    labels: list[str] = ["H"]
    chain_cols: dict[str, int] = {}
    for cp in chain_points:
        for lab in cp.chain_labels():
            chain_cols[lab] = len(labels)
            labels.append(lab)
    line_rows: dict[str, int] = {}
    for ll in lines:
        line_rows[ll.label] = len(labels)
        labels.append(ll.label)
    n = len(labels)
    base = [[0] * n for _ in range(n)]

    def put(i, j, v):
        base[i][j] = base[j][i] = v

    put(0, 0, 2)
    for cp in chain_points:
        labs = cp.chain_labels()
        for a, la in enumerate(labs):
            ia = chain_cols[la]
            put(ia, ia, -2)
            if a + 1 < len(labs):
                put(ia, chain_cols[labs[a + 1]], 1)
    lm = line_matrix(lines, config)
    for i, la in enumerate(lines):
        ra = line_rows[la.label]
        put(0, ra, 1)
        for j in range(i, len(lines)):
            put(ra, line_rows[lines[j].label], lm[i][j])

    ambiguous: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for cp in chain_points:
        pair_slots = []          # (line_label, depth) with a sheet ambiguity
        for ll in lines:
            if not ll.line.to_field(config.field).evaluate(list(cp.point.coords)).is_zero():
                continue
            depth = _incidence_depth(ll.line, cp)
            row = line_rows[ll.label]
            if depth == cp.half:
                put(row, chain_cols[f"E{cp.index},0"], 1)
            else:
                pair_slots.append((ll.label, cp.half - depth))
        if not pair_slots:
            continue
        # one pin per point: the first line in label order has its component
        # named as the positive-side divisor of its pair
        pin_label, pin_level = pair_slots[0]
        put(line_rows[pin_label], chain_cols[f"E{cp.index},{pin_level}"], 1)
        for lab, level in pair_slots[1:]:
            ambiguous.append(
                (
                    (line_rows[lab], chain_cols[f"E{cp.index},{level}"]),
                    (line_rows[lab], chain_cols[f"E{cp.index},{-level}"]),
                )
            )
    return DivisorConfig(key, tuple(labels), base, ambiguous, chain_points, lines)


def _sheet_inertias(config: DivisorConfig) -> Iterator[tuple[tuple, tuple[int, int, int, int]]]:
    """Each sheet assignment with the ``rank_signature`` of its completion
    M = [[A, B], [B^T, D]]: the head A (H, chains) and the line block D are
    fixed, B = F + the sum of E_s (a 1 at head row c, line r) over the chosen
    slots.  The congruence [[I, -A^-1 B], [0, I]] takes M to A + S, with
    S = D - B^T A^-1 B, so In(M) = In(A) + In(S) (Haynsworth, Linear Algebra
    Appl. 1, 1968), and l S = l D - B^T X B, X = l A^-1, l > 0, has the
    inertia of S.  X is built for A = <2> + sum of -C_k, (k + 1) C_k^-1 being
    min(a, b) (k + 1 - max(a, b)) and l = lcm(2, k + 1), and certified by
    A X = l I, else ``ValueError``.  With the slots distinct and zero in F
    (checked), l S = S0 - sum_s (v_s e_r^T + e_r v_s^T) - sum_(s,t) X[c_s][c_t]
    e_(r_s) e_(r_t)^T, where S0 = l D - F^T X F and v_s = row c_s of X F."""
    base, h = config.base, len(config.labels) - len(config.lines)
    sizes = [len(cp.chain_labels()) for cp in config.chain_points]
    scale = lcm(2, *(k + 1 for k in sizes))
    x, start = [[0] * h for _ in range(h)], 1
    x[0][0] = scale // 2
    for k in sizes:
        for a, b in product(range(k), repeat=2):
            x[start + a][start + b] = -(scale // (k + 1)) * (min(a, b) + 1) * (k - max(a, b))
        start += k
    head, f = [row[:h] for row in base[:h]], [row[h:] for row in base[:h]]
    slots = [[(c, r - h) for r, c in pair] for pair in config.ambiguous_pairs]
    free = {(c, r) for pair in slots for c, r in pair if not f[c][r]}
    if mat_mul(head, x) != [[scale * (i == j) for j in range(h)] for i in range(h)] or len(free) < 2 * len(slots):
        raise ValueError("divisor configuration head is not <2> + chains with free line slots")
    _, pos, neg, _ = rank_signature(head)
    xf = mat_mul(x, f)
    s0 = [[scale * d - e for d, e in zip(dr[h:], er)] for dr, er in zip(base[h:], mat_mul(transpose(f), xf))]
    for bits in product((0, 1), repeat=len(slots)):
        chosen = [pair[bit] for bit, pair in zip(bits, slots)]
        s = [row[:] for row in s0]
        for c, r in chosen:
            for j, v in enumerate(xf[c]):
                s[r][j] -= v
                s[j][r] -= v
            for c2, r2 in chosen:
                s[r][r2] -= x[c][c2]
        rank, p, q, zero = rank_signature(s)
        yield bits, (h + rank, pos + p, neg + q, zero)


def enumerate_and_filter(config: DivisorConfig, rank_bound: int = 20) -> FiberResult:
    """Run through all sheet assignments, keep those whose completed Gram
    matrix has rank at most the bound, and extract the common invariants of
    the survivors.  The rank is exact, with no fallback: Haynsworth's In(A)
    + In(S) of ``_sheet_inertias``, under the congruence [[I, -A^-1 B], [0,
    I]] on the certified head A.  Only survivors are completed, and their
    inertia is handed on to ``lattice_invariants``."""
    survivors = [(b, config.complete(b), sig) for b, sig in _sheet_inertias(config) if sig[0] <= rank_bound]
    if not survivors:
        raise ValueError("no assignment satisfies the rank bound")
    invs = [lattice_invariants(GramLattice.from_rows(m, config.labels), sig) for _, m, sig in survivors]
    first = invs[0]
    for other in invs[1:]:
        if not fingerprints_match(first, other):
            raise ValueError(
                "surviving assignments have different invariants: "
                f"{first.describe()} vs {other.describe()}"
            )
    picard_model, transc_model = FIBER_MODELS[config.fiber]
    picard_match = fingerprints_match(first, lattice_invariants(standard_lattice(picard_model)))
    transc = transcendental_invariants(first)
    transc_match = fingerprints_match(transc, lattice_invariants(standard_lattice(transc_model)))
    return FiberResult(
        fiber=config.fiber,
        survivor_count=len(survivors),
        assignments=[bits for bits, _, _ in survivors],
        completions=[m for _, m, _ in survivors],
        labels=config.labels,
        picard=first,
        transcendental=transc,
        picard_model=picard_model,
        transcendental_model=transc_model,
        picard_match=picard_match,
        transcendental_match=transc_match,
    )


def transcendental_invariants(picard: LatticeInvariants) -> LatticeInvariants:
    """Fingerprint of the transcendental lattice: rank 22 - rho, signature
    (2, 20 - rho), the same discriminant group, and the negated finite
    quadratic form."""
    rho = picard.rank
    if rho not in (19, 20):
        raise ValueError("Picard rank outside the K3 range used here")
    disc = picard.disc_form.negated() if picard.disc_form is not None else None
    return LatticeInvariants(22 - rho, (2, 20 - rho, 0), picard.invariant_factors, disc)


def analyze_fiber(fiber) -> FiberResult:
    return enumerate_and_filter(build_divisor_config(fiber))


# ---------------------------------------------------------------------------
# the reflection between the remaining special fibres
# ---------------------------------------------------------------------------


@dataclass
class ReflectionReport:
    ok: bool
    pair: tuple
    matrix: Optional[tuple]      # rows of the found involution
    pairing: Optional[str]       # which cubic goes to which


REFLECTION_AXIS = (1, 1, -1)     # the line x + y - z = 0


def _homology_matrix(center: Sequence[Fraction]) -> list[list[Fraction]]:
    a = [Fraction(x) for x in REFLECTION_AXIS]
    ac = sum(ai * ci for ai, ci in zip(a, center))
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            m[i][j] = (ac if i == j else Fraction(0)) - 2 * center[i] * a[j]
    return m


def _off_axis(points: Sequence[tuple]) -> list[tuple]:
    a = REFLECTION_AXIS
    return [
        (c, k)
        for c, k in points
        if sum(Fraction(ai) * Fraction(ci) for ai, ci in zip(a, c)) != 0
    ]


def reflection_isomorphism_check(pair: tuple) -> ReflectionReport:
    """Search for the harmonic homology with axis x + y - z = 0 carrying the
    branch locus of one fibre to the other: the unknown center is solved
    exactly from the correspondence of off-axis singular points and the map
    is certified on the branch cubics themselves."""
    sA, sB = (Fraction(v) for v in pair)
    cubicsA = [branch_cubic_at(i, sA) for i in range(2)]
    cubicsB = [branch_cubic_at(i, sB) for i in range(2)]
    offA = _off_axis(fiber_singular_table(sA))
    offB = _off_axis(fiber_singular_table(sB))
    if len(offA) != len(offB):
        return ReflectionReport(False, tuple(pair), None, None)
    for assignment in _point_bijections(offA, offB):
        center = _solve_center(assignment)
        if center is None:
            continue
        m = _homology_matrix(center)
        report = _certify_homology(m, cubicsA, cubicsB)
        if report is not None:
            rows = tuple(tuple(x for x in row) for row in m)
            return ReflectionReport(True, tuple(pair), rows, report)
    return ReflectionReport(False, tuple(pair), None, None)


def _point_bijections(offA, offB):
    """Type-respecting bijections between the off-axis singular points."""
    byA: dict[int, list] = {}
    byB: dict[int, list] = {}
    for c, k in offA:
        byA.setdefault(k, []).append(c)
    for c, k in offB:
        byB.setdefault(k, []).append(c)
    if sorted(byA) != sorted(byB):
        return
    keys = sorted(byA)
    if any(len(byA[k]) != len(byB[k]) for k in keys):
        return
    pools = [list(permutations(byB[k])) for k in keys]
    for combo in product(*pools):
        assignment = []
        for k, images in zip(keys, combo):
            assignment.extend(zip(byA[k], images))
        yield assignment


def _solve_center(assignment) -> Optional[list[Fraction]]:
    """Exact linear solve for the homology center: M(P) parallel to Q for
    each corresponding pair gives linear conditions on the center, with
    integer coefficients since the singular-table points are integral.  Their
    kernel is read off the Smith normal form P * R * V = D of the condition
    matrix R, as the columns of V past the rank of D; a one-dimensional
    kernel is scaled so that its last nonzero coordinate is 1."""
    rows: list[list[int]] = []
    a = REFLECTION_AXIS
    for P, Q in assignment:
        aP = sum(ai * pi for ai, pi in zip(a, P))
        # M(P) = (a.c) P - 2 (a.P) c ; cross(M(P), Q) = 0 is linear in c
        for i, j in ((0, 1), (0, 2), (1, 2)):
            # coefficient of c_t in cross-component (i, j)
            row = []
            for t in range(3):
                coef = a[t] * (P[i] * Q[j] - P[j] * Q[i])
                coef -= 2 * aP * ((1 if t == i else 0) * Q[j] - (1 if t == j else 0) * Q[i])
                row.append(coef)
            rows.append(row)
    d, _, v = smith_normal_form(rows)
    if sum(d[i][i] != 0 for i in range(min(len(rows), 3))) != 2:
        return None      # the kernel is not one-dimensional
    kernel = [v[t][2] for t in range(3)]
    last = next(x for x in reversed(kernel) if x != 0)
    c = [Fraction(x, last) for x in kernel]
    if sum(ai * ci for ai, ci in zip(a, c)) == 0:
        return None      # center on the axis: not a homology
    return c


def _certify_homology(m, cubicsA, cubicsB) -> Optional[str]:
    """Exact check that the pullback under the homology maps the cubic pair
    of fibre A onto the cubic pair of fibre B (up to scalars)."""
    field = QQ
    gens = MPoly.gens(field, XYZ)
    images = [
        sum((gens[j] * field.from_rat(m[i][j]) for j in range(3)), MPoly.zero(field, XYZ))
        for i in range(3)
    ]
    pulls = [c.subst_polys(images) for c in cubicsB]
    for name, (i0, i1) in (("direct", (0, 1)), ("swapped", (1, 0))):
        if proportional(pulls[0], cubicsA[i0]) and proportional(pulls[1], cubicsA[i1]):
            return name
    return None

