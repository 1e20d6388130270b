"""The resultant cascade that certified singular loci before the Groebner
length certificate of ``k3pencil.singular``: cascaded pairwise resultants
of the partials bound the coordinates of the solutions, gcds across several
elimination orders strip extraneous factors, and candidate fibres are
re-verified by exact substitution.  Over QQ(s) a nonzero eliminant that is
constant in the curve variables certifies smoothness for generic s.  Kept
as the differential oracle of ``tests/test_singular.py``."""

from itertools import permutations
from typing import Optional, Sequence

from k3pencil.field import FieldElement
from k3pencil.mpoly import MPoly
from k3pencil.polyops import gcd_bivariate, gcd_poly, resultant
from k3pencil.singular import ProjPoint

#: The smallest eliminations a cascade level keeps; further ones are kept
#: only while the kept set has a nonconstant gcd.
PAIR_CAP = 6


def _used_vars(p: MPoly) -> tuple:
    used = set()
    for e in p.terms:
        for i, k in enumerate(e):
            if k:
                used.add(p.vars[i])
    return tuple(v for v in p.vars if v in used)


def _gcd_generic(a: MPoly, b: MPoly) -> Optional[MPoly]:
    """Gcd of polynomials in at most two effective variables; None when the
    computation is out of scope (more variables)."""
    used = set(_used_vars(a)) | set(_used_vars(b))
    if len(used) <= 1:
        return gcd_poly(a, b)
    if len(used) == 2:
        x, y = [v for v in a.vars if v in used]
        return gcd_bivariate(a, b, x, y)
    return None


def _pair_eliminations(polys: list[MPoly], v: str) -> list[MPoly]:
    """Sound nonzero eliminations of v: each returned polynomial vanishes on
    the projection of the common zero set of the system.  The smallest
    polynomial is used as pivot; zero resultants (shared factors) are broken
    by mixing in further system members, and extra pair resultants are added
    until the whole output set has constant gcd, so later levels do not
    collapse on an inherited common factor."""
    with_v = sorted(
        (p for p in polys if p.degree_in(v) > 0),
        key=lambda p: (p.degree_in(v), len(p.terms), p.total_degree()),
    )
    without_v = [p for p in polys if p.degree_in(v) == 0 and not p.is_zero()]
    if len(with_v) < 2:
        return without_v
    out = list(without_v)
    pivot = with_v[0]
    others = with_v[1:] + without_v
    for q in with_v[1:]:
        r = resultant(pivot, q, v)
        if r.is_zero():
            for other in others:
                if other is q:
                    continue
                mix = q + other
                if mix.degree_in(v) > 0:
                    r = resultant(pivot, mix, v)
                    if not r.is_zero():
                        break
                mix = pivot + other
                if mix.degree_in(v) > 0:
                    r = resultant(mix, q, v)
                    if not r.is_zero():
                        break
            else:
                continue
        out.append(r)

    def set_gcd(ps: list[MPoly]) -> Optional[MPoly]:
        acc = None
        for p in ps:
            if p.is_const():
                return p
            acc = p if acc is None else _gcd_generic(acc, p)
            if acc is None or acc.is_const():
                return acc
        return acc

    g = set_gcd(out) if out else None
    if out and g is not None and not g.is_const():
        extra_pairs = [
            (a, b)
            for i, a in enumerate(with_v)
            for b in with_v[i + 1 :]
            if a is not pivot
        ]
        extra_pairs.sort(key=lambda ab: ab[0].degree_in(v) + ab[1].degree_in(v))
        for a, b in extra_pairs:
            r = resultant(a, b, v)
            if r.is_zero():
                continue
            out.append(r)
            g = _gcd_generic(g, r)
            if g is None or g.is_const():
                break
    out.sort(key=lambda p: (p.total_degree(), len(p.terms)))
    kept = out[:PAIR_CAP]
    if len(out) > PAIR_CAP:
        g = set_gcd(kept)
        for p in out[PAIR_CAP:]:
            if g is None or g.is_const():
                break
            kept.append(p)
            g = _gcd_generic(g, p)
    return kept


def _eliminate_to_first(
    system: list[MPoly], vars: Sequence[str], order: Optional[Sequence[str]] = None
) -> MPoly:
    """A nonzero univariate polynomial in vars[0] vanishing on the projection
    of every common solution; gcds across independent eliminations strip the
    extraneous factors that resultant chains introduce."""
    polys = [p for p in system if not p.is_zero()]
    if not polys:
        raise ValueError("elimination of the zero system")
    for v in order if order is not None else vars[1:][::-1]:
        polys = _pair_eliminations(polys, v)
        if not polys:
            raise ValueError(f"elimination degenerated at {v}")
    raw_const = next((p for p in polys if p.is_const()), None)
    if raw_const is not None:
        return raw_const
    gcd_acc: Optional[MPoly] = None
    for p in polys:
        gcd_acc = p if gcd_acc is None else gcd_poly(gcd_acc, p)
        if gcd_acc.is_const():
            break
    if gcd_acc is None or gcd_acc.is_zero():
        raise ValueError("elimination produced no usable polynomial")
    return gcd_acc


def _strip_candidate_roots(e: MPoly, var: str, values: Sequence[FieldElement]) -> MPoly:
    """Divide out (var - a) for each candidate value a as often as possible."""
    out = e
    x = MPoly.variable(e.field, e.vars, var)
    for a in dict.fromkeys(values):
        lin = x - a
        while True:
            try:
                out = out.exact_div(lin)
            except ValueError:
                break
    return out


def cascade_solutions(
    system: list[MPoly], vars: Sequence[str], candidates: list[tuple]
) -> tuple[bool, Optional[str]]:
    """Certify that the common zero set of the system (over the algebraic
    closure) is contained in the candidate list.  Returns (ok, witness)."""
    nonzero = [p for p in system if not p.is_zero()]
    if not nonzero:
        return False, "system is identically zero"
    if any(p.is_const() for p in nonzero):
        # a nonzero constant equation: no solutions at all
        return True, None
    if len(vars) == 1:
        g = None
        for p in nonzero:
            g = p if g is None else gcd_poly(g, p)
            if g.is_const():
                break
        if g.is_const():
            if candidates:
                return False, "claimed point in an empty fibre"
            return True, None
        rest = _strip_candidate_roots(g, vars[0], [c[0] for c in candidates])
        if rest.total_degree() > 0:
            return False, f"unaccounted factor in {vars[0]}: {rest}"
        return True, None
    # lazily sharpen the eliminant over several elimination orders: junk
    # factors from one resultant cascade rarely survive a second order
    e: Optional[MPoly] = None
    rest: Optional[MPoly] = None
    cand_vals = [c[0] for c in candidates]
    for order in permutations(vars[1:]):
        try:
            e_new = _eliminate_to_first(nonzero, vars, order=order[::-1])
        except ValueError:
            continue
        e = e_new if e is None else gcd_poly(e, e_new)
        if e.is_const():
            if candidates:
                return False, "constant eliminant despite claimed points"
            return True, None
        rest = _strip_candidate_roots(e, vars[0], cand_vals)
        if rest.total_degree() <= 0:
            break
    if e is None:
        return False, "all elimination orders degenerated"
    if rest is not None and rest.total_degree() > 0:
        return False, f"unaccounted factor in {vars[0]}: {rest}"
    fibres: dict = {}
    for cand in candidates:
        fibres.setdefault(cand[0].sort_key(), (cand[0], []))[1].append(cand[1:])
    for _, (a, rest_cands) in sorted(fibres.items()):
        restricted = [p.set_var(vars[0], a) for p in nonzero]
        restricted = [p for p in restricted if not p.is_zero()]
        if not restricted:
            return False, f"fibre {vars[0]} = {a} is positive-dimensional"
        ok, witness = cascade_solutions(restricted, vars[1:], rest_cands)
        if not ok:
            return False, f"fibre {vars[0]} = {a}: {witness}"
    return True, None


def cascade_locus(F: MPoly, candidates: Sequence[ProjPoint]) -> tuple[bool, Optional[str]]:
    """(ok, witness): whether the candidates are exactly the singular points
    of the projective hypersurface F = 0 (over the algebraic closure; over
    QQ(s), for generic s), by the cascade on every standard chart."""
    if not F.is_homogeneous():
        raise ValueError("cascade_locus requires a homogeneous input")
    vars = F.vars
    partials = [F.derivative(v) for v in vars]
    # F itself vanishes on the singular locus (Euler relation, char 0); it is
    # redundant but gives the elimination more material to pair with.
    system_polys = partials + [F]
    for P in candidates:
        vals = list(P.coords)
        for dF in partials:
            if not dF.evaluate(vals).is_zero():
                return False, f"partials do not vanish at {P}"
    for chart_i, chart_var in enumerate(vars):
        chart_vars = vars[:chart_i] + vars[chart_i + 1 :]
        system = [p.dehomogenize(chart_var) for p in system_polys]
        chart_cands = []
        for P in candidates:
            c = P.coords[chart_i]
            if not c.is_zero():
                inv = c.inv()
                chart_cands.append(
                    tuple(P.coords[j] * inv for j in range(len(vars)) if j != chart_i)
                )
        ok, witness = cascade_solutions(system, chart_vars, chart_cands)
        if not ok:
            return False, f"chart {chart_var} = 1: {witness}"
    return True, None

