"""Expected results, held by the benchmark itself.

Nothing here is read from k3pencil: the statuses are the paper's verdicts as
documented in docs/claims.md (28 pass, 5 flagged), the sequences are
re-derived from their binomial sums, and lattice invariants are computed
from the block sum of the query.  ``check_command`` compares one command's
report against them and returns the list of mismatches (empty when right).
"""

from __future__ import annotations

import json
from math import comb, prod

# Status of each of the 33 checks of `k3pencil all`.
FLAGGED = (
    "apery-index-note",
    "domb-stated-operator",
    "fermi-stated-operator",
    "fermi-singularities-note",
    "walk-sequence-index",
)

# The checks each check-running command emits, in report order.
CHECKS = {
    "singularities": (
        "quartic-singular-locus",
        "branch-generic-smooth",
        "branch-generic-intersections",
        "branch-generic-cover-types",
        "fiber-s1-singular-locus",
        "fiber-s-1-singular-locus",
    ),
    "lines": (
        "even-contact-generic",
        "component-lifts-generic",
        "line-matrix-generic",
        "chain-model",
        "cremona-pullback",
    ),
    "picard": (
        "picard-generic",
        "picard-s1",
        "picard-s-1",
        "reflection-s0-s1",
        "reflection-s2-s-1",
    ),
    "series-apery": (
        "apery-sequence",
        "apery-annihilation",
        "apery-singular-points",
        "apery-index-note",
    ),
    "series-domb": (
        "domb-sequence",
        "domb-stated-operator",
        "domb-corrected-operator",
    ),
    "series-fermi": (
        "fermi-stated-operator",
        "fermi-corrected-operator",
        "fermi-singularities-note",
    ),
    "series-walk": ("walk-sequence-index",),
    "identities": (
        "remarkable-identity",
        "mandelstam-f2-surface",
        "pencil-parameter-map",
        "radical-quartic-derivation",
        "quartic-family-clearing",
        "symmetry-group-48",
    ),
}
CHECKS["series"] = CHECKS["series-apery"] + CHECKS["series-domb"] + CHECKS["series-fermi"] + CHECKS["series-walk"]

ALL_CHECKS = (
    CHECKS["singularities"] + CHECKS["lines"] + CHECKS["picard"] + CHECKS["series"] + CHECKS["identities"]
)
if len(set(ALL_CHECKS)) != 33 or not set(FLAGGED) <= set(ALL_CHECKS):
    raise RuntimeError("the expected-check table must name the 33 checks once each")

# The quartic's eight singular points: A3 + 4 A2 + 3 A1.
QUARTIC_TYPES = sorted(["A3"] + ["A2"] * 4 + ["A1"] * 3)
SURVIVORS_PER_FIBER = 4
# The generic fibre's completed Gram matrix is 23 x 23 of rank 19, so its
# signature reads (1, 18, 4): four null directions.
GENERIC_PICARD = {"rank": 19, "signature": [1, 18, 4], "invariant_factors": [12]}


def status(check_id: str) -> str:
    return "flagged" if check_id in FLAGGED else "pass"


def apery(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def domb(n: int) -> int:
    """C(2n, n) * sum_k C(n,k)^2 C(2k,k), the sequence the paper calls Domb."""
    return comb(2 * n, n) * sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1))


def lattice_invariants(spec: str) -> dict:
    """rank, signature and |det| of a block sum of U, E8(-1) and <n>."""
    pos = neg = 0
    det = 1
    for block in (b.strip() for b in spec.split("+")):
        if block == "U":
            pos, neg, det = pos + 1, neg + 1, -det
        elif block == "E8(-1)":
            neg += 8
        elif block.startswith("<") and block.endswith(">"):
            n = int(block[1:-1])
            if n == 0:
                raise ValueError("the benchmark only sends non-degenerate lattices")
            pos, neg, det = pos + (n > 0), neg + (n < 0), det * n
        else:
            raise ValueError(f"block {block!r} is not one the benchmark sends")
    return {"rank": pos + neg, "signature": [pos, neg, 0], "abs_det": abs(det)}


def _option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def expected_check_ids(argv: list[str]) -> tuple:
    cmd = argv[0]
    if cmd == "series":
        op = _option(argv, "--op", "all")
        return CHECKS["series"] if op == "all" else CHECKS[f"series-{op}"]
    if cmd == "identities":
        only = _option(argv, "--only")
        return (only,) if only else CHECKS["identities"]
    if cmd == "lattice":
        return ()
    return CHECKS[cmd]


def check_command(argv: list[str], rc, stdout: str) -> list[str]:
    """Mismatches between a valid command's outcome and the expectations."""
    if rc != 0:
        return [f"exit code {rc!r}, expected 0"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    errors = []
    got = tuple(c["check_id"] for c in report["checks"])
    want = expected_check_ids(argv)
    if got != want:
        errors.append(f"checks {got}, expected {want}")
    for c in report["checks"]:
        if c["check_id"] in ALL_CHECKS and c["status"] != status(c["check_id"]):
            errors.append(f"{c['check_id']}: status {c['status']}, expected {status(c['check_id'])}")
    by_id = {c["check_id"]: c["details"] for c in report["checks"]}
    data = report.get("data") or {}
    cmd = argv[0]
    if cmd == "singularities":
        types = sorted(r["type"] for r in by_id.get("quartic-singular-locus", {}).get("rows", []))
        if types != QUARTIC_TYPES:
            errors.append(f"quartic types {types}, expected {QUARTIC_TYPES}")
    elif cmd == "picard":
        for cid in ("picard-generic", "picard-s1", "picard-s-1"):
            n = by_id.get(cid, {}).get("survivor_count")
            if n != SURVIVORS_PER_FIBER:
                errors.append(f"{cid}: {n} survivors, expected {SURVIVORS_PER_FIBER}")
        gen = by_id.get("picard-generic", {})
        for key, value in GENERIC_PICARD.items():
            if gen.get(key) != value:
                errors.append(f"picard-generic {key} {gen.get(key)}, expected {value}")
    elif cmd == "series" and _option(argv, "--op", "all") != "all":
        errors += _check_series(argv, data)
    elif cmd == "lattice":
        want_inv = lattice_invariants(_option(argv, "--spec"))
        got_inv = {
            "rank": data.get("rank"),
            "signature": data.get("signature"),
            "abs_det": prod(data.get("invariant_factors", [])),
        }
        if got_inv != want_inv:
            errors.append(f"lattice {got_inv}, expected {want_inv}")
    return errors


def _check_series(argv: list[str], data: dict) -> list[str]:
    op = _option(argv, "--op")
    n = int(_option(argv, "--n", "50"))
    seq = domb if op == "domb" else apery
    want = [seq(i) for i in range(min(n, 60) + 1)]
    errors = []
    if data.get("coefficients") != want:
        errors.append(f"{op} coefficients differ from the binomial sums")
    annihilates = op == "apery" or "--corrected" in argv
    got = (data.get("annihilation_status") or {}).get("annihilates")
    if got is not annihilates:
        errors.append(f"{op} annihilates={got}, expected {annihilates}")
    return errors


def check_probe(rc, stderr: str) -> bool:
    """Whether a malformed request was rejected as a usage error: exit code 2
    with a message."""
    return rc == 2 and bool(stderr.strip())
