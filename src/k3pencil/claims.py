"""Registry of the verified claims: every check the CLI can emit carries a
stable claim reference, and each reference is described here (and in
docs/claims.md, kept in sync by a test)."""

from __future__ import annotations

#: check_id -> (claim_ref, one-line statement of the claim being verified)
CLAIMS: dict[str, tuple[str, str]] = {
    "quartic-singular-locus": (
        "claim:quartic-eight-singular-points",
        "The quartic z^2(1+xy) = (x+y)(x+y-4xy+x^2y+xy^2) has exactly eight "
        "singular points: one A3, four A2 and three A1, at the listed "
        "coordinates (six of them in the plane at infinity).",
    ),
    "branch-generic-smooth": (
        "claim:generic-branch-cubics-smooth",
        "For generic s the two branch cubics G0, G1 are smooth plane curves.",
    ),
    "branch-generic-intersections": (
        "claim:generic-branch-intersection-table",
        "For generic s the cubics G0 and G1 meet in exactly four points "
        "(1:0:0), (0:1:0), (1:1:2), (-1:1:0) with intersection multiplicities "
        "3, 3, 2, 1 summing to the Bezout number 9.",
    ),
    "branch-generic-cover-types": (
        "claim:generic-fiber-ade-types",
        "The double cover branched over G0*G1 has singularities of types A5, "
        "A5, A3, A1 above the four intersection points (A_{2n-1} above a "
        "contact-n point).",
    ),
    "fiber-s1-singular-locus": (
        "claim:s1-seven-singular-points",
        "At s = 1 the branch sextic has exactly seven singular points with "
        "double-cover types A5, A5, A3 and four A1.",
    ),
    "fiber-s-1-singular-locus": (
        "claim:s-1-five-singular-points",
        "At s = -1 the branch sextic has exactly five singular points with "
        "double-cover types A5, A5, A3, A1, A1.",
    ),
    "even-contact-generic": (
        "claim:eight-even-contact-lines",
        "The eight listed lines (four rational, four defined over the "
        "quadratic extension by a square root of s^2-s) meet the branch "
        "sextic with even multiplicity everywhere.",
    ),
    "component-lifts-generic": (
        "claim:component-lift-equations",
        "The printed component equations of the pulled-back lines satisfy "
        "w^2 = G0*G1 modulo the line, exactly.",
    ),
    "line-matrix-generic": (
        "claim:lifted-line-intersection-matrix",
        "The 8x8 intersection matrix of the chosen lifted lines equals the "
        "stated matrix entry for entry (diagonal -2, off-diagonal ones at "
        "the four sheet-agreeing crossings).",
    ),
    "chain-model": (
        "claim:pencil-double-sextic-chain",
        "The symmetric pencil member is birationally the double cover "
        "w^2 = f1*f0 via solving for w^2, the reciprocal substitution, and "
        "clearing the square root.",
    ),
    "cremona-pullback": (
        "claim:cremona-step-cubics",
        "The quadratic Cremona transformation based at (1:0:0), (0:1:0), "
        "(1:1:1) pulls the singular quartics F0, F1 back to the smooth "
        "cubics G0, G1 times exceptional lines of multiplicities 2, 2, 1.",
    ),
    "picard-generic": (
        "claim:generic-picard-lattice",
        "Of the 128 sheet assignments exactly four give a Gram matrix of "
        "rank at most 20; each has rank 19, signature (1,18), discriminant "
        "group Z/12, and the fingerprint of U + E8(-1)^2 + <-12>; the "
        "transcendental fingerprint is U + <12>.",
    ),
    "picard-s1": (
        "claim:s1-picard-lattice",
        "The s = 1 fibre's divisor enumeration yields the fingerprint of "
        "U + E8(-1)^2 + <-4> + <-2> with transcendental lattice <2> + <4>.",
    ),
    "picard-s-1": (
        "claim:s-1-picard-lattice",
        "The s = -1 fibre's divisor enumeration yields the fingerprint of "
        "U + E8(-1)^2 + <-12> + <-2> with transcendental lattice <2> + <12>.",
    ),
    "reflection-s0-s1": (
        "claim:s0-s1-reflection",
        "An explicit involution fixing the line x+y-z = 0 pointwise carries "
        "the branch locus at s = 1 to the branch locus at s = 0.",
    ),
    "reflection-s2-s-1": (
        "claim:s2-s-1-reflection",
        "The same kind of involution identifies the fibres at s = 2 and "
        "s = -1.",
    ),
    "apery-sequence": (
        "claim:apery-numbers",
        "A_n = sum C(n,k)^2 C(n+k,k)^2 starts 1, 5, 73, 1445, 33001 and "
        "satisfies the three-term recurrence of the Apery operator.",
    ),
    "apery-annihilation": (
        "claim:apery-operator-annihilation",
        "theta^3 - x(2theta+1)(17theta^2+17theta+5) + x^2(theta+1)^3 "
        "annihilates sum A_n x^n (checked to order 50).",
    ),
    "apery-singular-points": (
        "claim:apery-operator-singularities",
        "The Apery operator's leading symbol is x^2 - 34x + 1 with roots "
        "17 +- 12 sqrt(2); the singular points are 0, those roots, infinity.",
    ),
    "apery-index-note": (
        "claim:apery-fourth-value-index",
        "The value 1445 is A_3, not A_4 (A_4 = 33001): the sometimes-quoted "
        "index 4 for 1445 is inconsistent with the defining sum.",
    ),
    "walk-sequence-index": (
        "claim:walk-sum-upper-index",
        "The walk sums a_n = sum_k C(n,k)^2 C(2k,k) (upper index n) are the "
        "unique reading making b_n = C(2n,n) a_n match 1, 6, 90, 1860, 44730.",
    ),
    "domb-sequence": (
        "claim:domb-numbers",
        "b_n = C(2n,n) sum_k C(n,k)^2 C(2k,k) starts 1, 6, 90, 1860, 44730.",
    ),
    "domb-stated-operator": (
        "claim:domb-operator-stated-form",
        "The commonly stated operator theta^3 - 2x(2theta+1)(10theta^2+"
        "10theta+3) + x^2(2theta+1)(theta+1)(2theta+3) does not annihilate "
        "the Domb generating series: it forces b_2 = 825/8.",
    ),
    "domb-corrected-operator": (
        "claim:domb-operator-corrected-form",
        "Multiplying the third term by 36 gives an operator annihilating the "
        "Domb series to order 50, with leading symbol (4x-1)(36x-1) and "
        "singular points 0, 1/4, 1/36, infinity.",
    ),
    "fermi-stated-operator": (
        "claim:fermi-operator-stated-form",
        "The commonly stated operator theta^3 - x^2(theta+1)(17theta^2+"
        "34theta+20) + x^4(theta+2)^3 does not annihilate sum A_n x^{2n}: "
        "the middle coefficient is half the value the Apery recurrence "
        "forces, failing first at exponent 2.",
    ),
    "fermi-corrected-operator": (
        "claim:fermi-operator-pullback",
        "Doubling the middle term gives exactly the pullback of the Apery "
        "operator under lambda = x^2; it annihilates sum A_n x^{2n} "
        "(checked to order 40).",
    ),
    "fermi-singularities-note": (
        "claim:fermi-singularity-list",
        "The finite singular points of the corrected pullback operator are "
        "+-(3 +- 2 sqrt(2)) (squares of these are 17 +- 12 sqrt(2)); the "
        "sometimes-quoted list +-3 +- sqrt(2) is inconsistent.",
    ),
    "remarkable-identity": (
        "claim:remarkable-identity",
        "4 G((1+x)/(1-x), (1+y)/(1-y), (1+z)/(1-z)) = F(x,y,z) - 6 with "
        "G = sum 1/(t^2-1) and F = sum (t + 1/t), exactly.",
    ),
    "mandelstam-f2-surface": (
        "claim:mandelstam-f2-surface",
        "(1-x)^2/x + (1-y)^2/y + (1-z)^2/z + 4 = 0 is the surface F = 2.",
    ),
    "pencil-parameter-map": (
        "claim:pencil-parameter-map",
        "The remarkable identity carries 1 + s + G = 0 to F = 2 - 4s.",
    ),
    "radical-quartic-derivation": (
        "claim:radical-quartic-derivation",
        "Substituting z = (x+y)/Q and clearing denominators yields "
        "z^2(1+xy) = (x+y)(x+y-4xy+x^2y+xy^2), with the vanishing "
        "denominators reported as excluded loci.",
    ),
    "quartic-family-clearing": (
        "claim:quartic-family-clearing",
        "xyz (F - (2-4s)) = x^2yz + yz + xy^2z + xz + xyz^2 + xy - (2-4s)xyz, "
        "and the reciprocal map carries the symmetric surface to "
        "u^2v^2w^2 - u^2 - v^2 - w^2 + 2.",
    ),
    "symmetry-group-48": (
        "claim:forty-eight-symmetries",
        "Every pencil member is invariant under the 48 substitutions "
        "generated by permuting and negating the coordinates.",
    ),
}

#: checks whose status is "flagged" (verified inconsistencies in the stated
#: forms, with the corrected forms verified alongside)
FLAGGED_CHECKS = {
    "apery-index-note",
    "walk-sequence-index",
    "domb-stated-operator",
    "fermi-stated-operator",
    "fermi-singularities-note",
}


def claim_ref(check_id: str) -> str:
    return CLAIMS[check_id][0]

