"""The commands of one pass of each workload.

A pass is what one user waits for in one fresh interpreter, issued as typed
(no ``--jobs``).  Together the three workloads run each of the 33 checks of
``k3pencil all`` exactly once per pass:

* ``locus``: ``singularities`` (6 checks), the elimination cascade over QQ
  and QQ(s).
* ``configuration``: ``lines --s generic`` then ``picard --fiber all``
  (10 checks), lines -> divisor configuration -> lattice over QQ(s)(alpha).
* ``queries``: full ``series`` and ``identities`` (17 checks) plus short
  prompt queries and malformed requests, drawn from the seed.

The query mix is stratified so that every seed gives a pass of the same
cost (see below).
"""

from __future__ import annotations

import random

from expected import CHECKS

WORKLOADS = ("locus", "configuration", "queries")

IDENTITY_IDS = CHECKS["identities"]

# A run's figures must not depend on the seed beyond noise, so the seed never
# changes what a pass costs: it picks n inside narrow bands, the --corrected
# flag, which identities are asked for, the order of the blocks of each
# lattice and the order of the commands.  A pass has 33 valid commands whose
# costs (measured when the benchmark was written) are laid out so that each
# reported percentile falls inside a group of commands of about equal cost,
# not on a cliff between groups:
#
# * the 5 slowest, about 0.55 s each: the full `series` and the 4 apery
#   queries (apery pays a fixed 101-term recurrence check).  10% of 33 is
#   3.3, so latency_p90_ms falls inside this group;
# * 6 lattice queries of about 40 ms in the middle, where latency_p50_ms
#   falls, with 13 cheaper commands below and 9 dearer ones above.

# (op, low n, high n) per series query.  fermi and domb cost climbs steeply
# with n (fermi: 4 ms at n = 25, 90 ms at n = 200, 1.4 s at n = 400).
SERIES_BANDS = (
    ("apery", 10, 20),
    ("apery", 25, 35),
    ("apery", 40, 50),
    ("apery", 55, 65),
    ("fermi", 20, 30),
    ("fermi", 45, 55),
    ("fermi", 115, 125),
    ("fermi", 195, 205),
    ("domb", 20, 30),
    ("domb", 45, 55),
    ("domb", 115, 125),
    ("domb", 195, 205),
)

# Lattice queries as blocks.  Rank, group order (1 to 2^10) and the signs of
# the diagonal entries set the cost of SNF and the discriminant form, so the
# blocks are fixed and the seed only orders them.
_MIDDLE = (("U", "E8(-1)", "E8(-1)", "<-12>"), ("U", "U", "E8(-1)", "<-4>", "<-6>", "<-8>"))
LATTICE_BLOCKS = (
    ("U",),
    ("U", "<-2>"),
    ("U", "E8(-1)"),
    ("E8(-1)", "<2>", "<-2>"),
    ("U", "U", "<2>", "<-2>", "<2>", "<-2>"),
    ("U", "E8(-1)", "<-4>"),
    ("E8(-1)", "<-4>", "<6>", "<-10>", "<12>"),
    *(_MIDDLE * 3),
    ("U",) + ("<2>", "<-2>") * 4,
    ("<2>", "<-2>") * 5,
    ("E8(-1)", "E8(-1)", "<-2>", "<2>", "<-2>", "<2>"),
)

# Malformed requests: each should exit 2 with a message.  The last one is a
# control that argparse already rejects.
PROBES = (
    ["lattice", "--spec", "U + <x>"],
    ["lines", "--s", "5"],
    ["singularities", "--surface", "branch", "--s", "7"],
    ["identities", "--only", "bogus"],
    ["series", "--op", "nope"],
)


def pass_commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The (kind, argv) list of one pass.  kind is 'valid' or 'probe'.  The
    same workload and seed always give the same list."""
    if workload == "locus":
        return [("valid", ["singularities"])]
    if workload == "configuration":
        return [("valid", ["lines", "--s", "generic"]), ("valid", ["picard", "--fiber", "all"])]
    if workload != "queries":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"k3pencil-queries-{seed}")
    cmds = [("valid", ["series"]), ("valid", ["identities"])]
    for op, lo, hi in SERIES_BANDS:
        argv = ["series", "--op", op, "--n", str(rng.randint(lo, hi))]
        if rng.random() < 0.5:
            argv.append("--corrected")
        cmds.append(("valid", argv))
    for blocks in LATTICE_BLOCKS:
        cmds.append(("valid", ["lattice", "--spec", " + ".join(rng.sample(blocks, len(blocks)))]))
    for ident in rng.sample(IDENTITY_IDS, 3):
        cmds.append(("valid", ["identities", "--only", ident]))
    cmds.extend(("probe", list(p)) for p in PROBES)
    rng.shuffle(cmds)
    return cmds
