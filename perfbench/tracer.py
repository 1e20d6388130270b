"""Outside-in tracer for the k3pencil package.

The program is not edited to be traced.  Instead, after ``k3pencil.cli`` has
been imported, each traced function is replaced by a wrapper in every
``k3pencil.*`` namespace that refers to it: module globals (modules import
with ``from .polyops import resultant``, so patching the defining module
alone would miss most calls), class dictionaries (``__rmul__ = __mul__``
aliases), and module-level tables such as ``series.OPERATORS`` that hold
functions inside tuples.

Two kinds of wrapper exist:

* a *span* records its layer, name, start and end, and its parent span,
  in memory.  Spans are
  for coarse functions, at most a few tens of thousands of calls per pass.
* a *counter* only counts calls.  It is used for coefficient arithmetic in
  ``field``, which runs 10^5 to 10^6 times per pass and would be distorted
  by timing.  ``itertools.count`` is advanced with ``next``, which is atomic
  under the GIL, so counts stay exact when the picard thread pool runs.

Spans are aggregated when the pass ends.  ``total_s`` is wall time of the
outermost calls of a function (a user waits for it).  ``self_s`` is busy
time: the CPU time of the span's thread during the span
(``time.thread_time``) minus that of its child spans.  The picard thread
pool runs under the GIL, so wall time on its threads would also count the
time each thread waits for the other; CPU time counts only the work.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from math import prod

# (layer, attribute path inside k3pencil.<layer>) of the functions traced with
# spans.  The set per layer is what a layer's self_s is made of; it lists the
# public entry points other layers call, not inner helpers.
SPANS = {
    "cli": ["main"],
    "pencil": [
        "radical_quartic", "radical_quartic_affine", "surface_b", "surface_r",
        "reciprocal_pencil", "affine_quartic", "quartic_f", "branch_cubic",
        "branch_cubic_at", "branch_sextic", "branch_sextic_at",
        "laurent_f_cleared", "quartic_family", "fiber_singular_table",
        "fiber_branch_components",
    ],
    "mpoly": [
        "MPoly.__mul__", "MPoly.__pow__", "MPoly.set_var_poly",
        "MPoly.subst_polys", "MPoly.exact_div", "MPoly.homogenize",
        "MPoly.translate", "parse_poly",
    ],
    "polyops": [
        "resultant", "gcd_poly", "squarefree_decomposition", "squarefree_unit",
        "substitute", "specialize", "gcd_bivariate", "rational_equal",
    ],
    "singular": [
        "verify_singular_locus", "certify_affine_solutions",
        "milnor_ade_classify", "double_cover_type", "intersection_multiplicity",
        "multiplicity_at", "verify_curve_intersections",
    ],
    "cover": [
        "BranchConfig.generic", "BranchConfig.at", "fiber_lines",
        "even_contact_test", "derive_lift", "verify_component_lift",
        "line_matrix", "chain_model_check", "cremona_pullback_check",
    ],
    "lattice": [
        "standard_lattice", "rank_signature", "smith_normal_form",
        "discriminant_group_form", "lattice_invariants", "radical_quotient",
        "disc_forms_isomorphic", "fingerprints_match", "invariants_match",
    ],
    "picard": [
        "build_divisor_config", "enumerate_and_filter", "analyze_fiber",
        "transcendental_invariants", "reflection_isomorphism_check",
    ],
    "series": [
        "annihilation_check", "operator_singularities", "operator_to_recurrence",
        "Recurrence.residual", "Recurrence.predict", "apery", "sum_a", "domb",
    ],
    "identities": [
        "all_identity_checks", "remarkable_identity_check",
        "mandelstam_surface_check", "pencil_parameter_map_check",
        "q_surface_check", "quartic_family_check", "symmetry_group_check",
    ],
}

# Coefficient arithmetic: only counted, being too hot to time.
COUNTERS = {
    "field": ["FieldElement.__mul__", "FieldElement.inv", "RatFunc.__mul__", "QPoly.gcd"],
}


def _resultant_size(args, kwargs, result):
    p, q = args[0], args[1]
    var = args[2] if len(args) > 2 else kwargs["var"]
    return {"sylvester_max": p.degree_in(var) + q.degree_in(var)}


def _group_order(args, kwargs, result):
    return {"group_order_sum": prod(result.invariant_factors)}


def _enumeration(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"assignments": 2 ** len(config.ambiguous_pairs), "survivors": result.survivor_count}


# Statistics read from a traced call's arguments and result, stored under
# the function's name.  A stat ending in "_max" keeps the largest value,
# any other is summed over calls.
HOOKS = {
    ("polyops", "resultant"): _resultant_size,
    ("lattice", "discriminant_group_form"): _group_order,
    ("picard", "enumerate_and_filter"): _enumeration,
}


class Tracer:
    """Holds the spans and counters of one process; ``install`` patches the
    already imported k3pencil modules, ``summary`` aggregates."""

    def __init__(self):
        # one record per span: [layer, name, wall start, wall end,
        # cpu start, cpu end, parent record or None]
        self.spans: list[list] = []
        self.counters: dict[tuple, itertools.count] = {}
        self.stats: dict[tuple, object] = {}
        self._local = threading.local()

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, layer, name, fn):
        spans = self.spans
        wall, cpu = time.perf_counter, time.thread_time
        hook = HOOKS.get((layer, name))
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [layer, name, wall(), None, cpu(), None, stack[-1] if stack else None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = cpu()
                rec[3] = wall()
                stack.pop()
            if hook is not None:
                for stat, value in hook(args, kwargs, result).items():
                    key = (layer, name, stat)
                    if key not in stats:
                        stats[key] = value
                    else:
                        stats[key] = max(stats[key], value) if stat.endswith("_max") else stats[key] + value
            return result

        return wrapper

    def _count_wrapper(self, layer, name, fn):
        counter = self.counters.setdefault((layer, name), itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of SPANS and COUNTERS in all k3pencil
        namespaces.  Call once, after importing ``k3pencil.cli``."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "k3pencil" or n.startswith("k3pencil.")) and m is not None]
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for layer, names in table.items():
                home = sys.modules[f"k3pencil.{layer}"]
                for name in names:
                    raw = _resolve(home, name)
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapped = make(layer, _display(name), fn)
                    _rebind(modules, fn, wrapped)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per traced function: calls, total_s (wall time of the outermost
        calls, so recursion is not counted twice) and self_s (busy time); per
        layer: self_s; plus the counters and the hook statistics.  Keys are
        '<layer>.<name>.<stat>' and '<layer>.self_s'."""
        child_cpu: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec[6] is not None:
                child_cpu[id(rec[6])] += rec[5] - rec[4]
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            layer, name, t0, t1, c0, c1, parent = rec
            own = (c1 - c0) - child_cpu[id(rec)]
            key = f"{layer}.{name}"
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += own
            out[f"{layer}.self_s"] += own
            if not _inside_same(rec):
                out[f"{key}.total_s"] += t1 - t0
        for (layer, name), counter in self.counters.items():
            out[f"{layer}.{name}.calls"] = next(counter)
        for (layer, name, stat), value in self.stats.items():
            out[f"{layer}.{name}.{stat}"] = value
        return dict(out)

    def dump(self, path: str) -> None:
        """Write the spans, one per line: layer, name, wall start, wall end,
        thread CPU seconds, parent line number (or -1).  Wall times are
        seconds from the first span."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for layer, name, t0, t1, c0, c1, parent in self.spans:
                p = index[id(parent)] if parent is not None else -1
                fh.write(f"{layer}\t{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\t{c1 - c0:.9f}\t{p}\n")


def _display(name: str) -> str:
    """'MPoly.__mul__' -> 'MPoly.mul': metric names without dunders."""
    return ".".join(part.strip("_") if part.startswith("__") else part for part in name.split("."))


def _resolve(module, dotted: str):
    """The object named by 'func' or 'Class.method' (a class's raw
    dictionary entry, so staticmethods stay recognisable)."""
    if "." not in dotted:
        return getattr(module, dotted)
    cls, attr = dotted.split(".")
    return vars(getattr(module, cls))[attr]


def _rebind(modules, fn, wrapped) -> None:
    """Replace ``fn`` by ``wrapped`` wherever a k3pencil namespace holds it:
    module globals, class dictionaries (also aliases and staticmethods) and
    module-level dicts whose values are tuples of functions."""
    static = staticmethod(wrapped)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if key.startswith("__"):
                continue
            if value is fn:
                setattr(mod, key, wrapped)
            elif isinstance(value, type) and value.__module__.startswith("k3pencil"):
                for attr, member in list(vars(value).items()):
                    if member is fn:
                        setattr(value, attr, wrapped)
                    elif isinstance(member, staticmethod) and member.__func__ is fn:
                        setattr(value, attr, static)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if isinstance(v, tuple) and any(x is fn for x in v):
                        value[k] = tuple(wrapped if x is fn else x for x in v)


def _inside_same(rec) -> bool:
    """Whether an ancestor span is the same function (a recursive call)."""
    p = rec[6]
    while p is not None:
        if p[0] == rec[0] and p[1] == rec[1]:
            return True
        p = p[6]
    return False
