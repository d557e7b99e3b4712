"""Pattern analysis: common-neighborhood closure, maximal and dominant
patterns, pattern equivalence, and the answer-count exponent frak_q.

All state subsets are bitmasks over the state indices.  H is the graph on
states whose edges are the pairs achieving the maximal interaction weight
(self-loops allowed).  R(I) is the set of common H-neighbors of I, with
R(empty) = S.  A pattern is an ordered pair (A, B) with every cross pair
achieving the maximal interaction; it is maximal iff A and B are both fixed
points of R o R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import errors
from .system import SpinSystem, emit_number, to_float

FRAK_Q_MAX_STATES = 24  # safety valve; the closure method needs far less
# the fixed-point sets of R o R and frak_q's distinct answers are each an
# intersection closure: af_potts q=14 has 2^14 fixed-point sets
MAX_CLOSURE = 2 ** 14
# float mode: maximal patterns within this relative weight of the maximum
# count as dominant (and are reported as a near tie)
DOMINANT_REL_TOL = 1e-12


@dataclass(frozen=True)
class Pattern:
    a: int  # bitmask
    b: int  # bitmask

    def swapped(self):
        return Pattern(self.b, self.a)


def weight(system: SpinSystem, p: Pattern):
    return system.lambda_mask(p.a) * system.lambda_mask(p.b)


def _h_masks(system: SpinSystem) -> tuple:
    """The H-neighbourhood of each state as a bitmask: the states it
    interacts with at the maximal weight."""
    top = system.max_interaction
    return tuple(sum(1 << b for b, v in enumerate(row) if v == top)
                 for row in system.interactions)


def r_closure(system: SpinSystem, mask: int) -> int:
    """Common max-interaction neighbors of the states in mask; S for mask=0."""
    result = system.full_mask()
    h = system.derived(_h_masks)
    i = 0
    m = mask
    while m:
        if m & 1:
            result &= h[i]
        m >>= 1
        i += 1
    return result


# ---------------------------------------------------------------------------
# the pattern structure of a system, computed once

@dataclass(frozen=True)
class PatternStructure:
    """Everything derived from a system that depends only on its pattern
    structure, in immutable containers; the ratios are exact in rational
    mode.  Built once per system by structure(), and kept with the
    dominant patterns' equivalence classes (dominant_classes()) in the
    system's memo."""
    r_sets: tuple              # fixed points of R o R, sorted
    maximal: tuple             # (A, R(A)) for A in r_sets
    dominant: tuple            # maximal patterns of maximal weight
    omega_dom: object
    near_tie: bool
    dominant_sides: frozenset  # both sides of every dominant pattern
    n_small_side: int          # dominant patterns with |A| <= |B|
    n_large_side: int          # dominant patterns with |A| >= |B|
    frak_q: Optional[float]    # None above FRAK_Q_MAX_STATES
    rho_int: object
    rho_pat_bulk: object
    rho_pat_bdry: object
    rho_act: object
    rho_hat_act: object        # lam(S)^2 / omega_dom
    lam_s: object              # lam(S)
    # float (lam(A), lam(B)) of the non-dominant maximal patterns with both
    # sides nonempty, in maximal-pattern order
    bulk_pairs: tuple


def structure(system: SpinSystem) -> PatternStructure:
    """The system's pattern structure, memoised on the system."""
    return system.derived(_build_structure)


def _intersection_closure(top, gens):
    """The closure of {top} under intersection with each generator, refused
    beyond MAX_CLOSURE sets."""
    closed = {top}
    frontier = [top]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            x = cur & g
            if x not in closed:
                closed.add(x)
                frontier.append(x)
                if len(closed) > MAX_CLOSURE:
                    raise errors.SpinSpaceTooLarge(
                        f"more than {MAX_CLOSURE} sets in an intersection closure")
    return closed


def _build_structure(system: SpinSystem) -> PatternStructure:
    full = system.full_mask()
    h_masks = system.derived(_h_masks)
    rs = tuple(sorted(_intersection_closure(full, set(h_masks))))
    maximal = tuple(Pattern(a, r_closure(system, a)) for a in rs)

    weights = [weight(system, p) for p in maximal]
    omega = max(weights)
    if system.mode == "float" and not 0 < omega < math.inf:  # a divisor below
        raise errors.TooLarge("omega_dom leaves the float64 range")
    dom = tuple(p for p, w in zip(maximal, weights)
                if w == omega or (system.mode == "float" and abs(w - omega)
                                  <= DOMINANT_REL_TOL * omega))
    near_tie = len(dom) > sum(1 for w in weights if w == omega)
    dom_set = set(dom)
    dom_sides = frozenset(s for p in dom for s in (p.a, p.b))

    zero = system.zero()
    vals = {v for row in system.interactions for v in row}
    top = max(vals)
    below = [v for v in vals if v < top]
    rho_int = max(below) / top if below else zero

    rho_bulk = zero
    for p, w in zip(maximal, weights):
        if p not in dom_set:
            rho_bulk = max(rho_bulk, w / omega)
    # the largest sub-r-set of a dominant side: r-sets are intersections of
    # H-neighbourhoods, so each strict one within a lies in a & h for an h
    # not containing a, itself an r-set, and lambda grows with the set
    rho_bdry = zero
    for a in dom_sides:
        la = system.lambda_mask(a)
        for h in h_masks:
            if a & ~h:
                rho_bdry = max(rho_bdry, system.lambda_mask(a & h) / la)
    lam_s = system.lambda_mask(full)
    rho_act = system.one()
    for a in rs:
        if a != 0:
            rho_act = max(rho_act, lam_s / system.lambda_mask(a))

    return PatternStructure(
        r_sets=rs,
        maximal=maximal,
        dominant=dom,
        omega_dom=omega,
        near_tie=near_tie,
        dominant_sides=dom_sides,
        n_small_side=sum(1 for p in dom if p.a.bit_count() <= p.b.bit_count()),
        n_large_side=sum(1 for p in dom if p.a.bit_count() >= p.b.bit_count()),
        frak_q=(_frak_q(system, dom) if system.n <= FRAK_Q_MAX_STATES
                else None),
        rho_int=rho_int,
        rho_pat_bulk=rho_bulk,
        rho_pat_bdry=rho_bdry,
        rho_act=rho_act,
        rho_hat_act=lam_s * lam_s / omega,
        lam_s=lam_s,
        bulk_pairs=tuple((to_float(system.lambda_mask(p.a)),
                          to_float(system.lambda_mask(p.b)))
                         for p in maximal
                         if p not in dom_set and p.a != 0 and p.b != 0),
    )


def maximal_patterns(system: SpinSystem) -> list:
    """All patterns (A, R(A)) with A ranging over the fixed-point sets."""
    return list(structure(system).maximal)


def dominant_patterns(system: SpinSystem):
    """Maximal-weight patterns and their common weight.

    In float mode near-ties within DOMINANT_REL_TOL of the maximum are
    included and reported via the returned tie flag.
    """
    st = structure(system)
    return list(st.dominant), st.omega_dom, st.near_tie


def find_equivalence(system: SpinSystem, p: Pattern, q: Pattern,
                     direct: bool) -> Optional[tuple]:
    """Search for a bijection phi of the states preserving activities and
    interactions with phi(A)=A', phi(B)=B' (or the swapped target when not
    direct).  Returns phi as a tuple or None."""
    targets = [q] if direct else [q, q.swapped()]
    for tgt in targets:
        phi = _find_direct(system, p, tgt)
        if phi is not None:
            return phi
    return None


def _find_direct(system: SpinSystem, p: Pattern, q: Pattern) -> Optional[tuple]:
    n = system.n
    if p.a.bit_count() != q.a.bit_count() \
            or p.b.bit_count() != q.b.bit_count():
        return None
    acts = system.activities
    inter = system.interactions

    # candidate images: equal activity, equal interaction multiset, and
    # compatible membership in the two pattern sides
    def compatible(i, j):
        if acts[i] != acts[j]:
            return False
        if sorted(inter[i]) != sorted(inter[j]):
            return False
        if bool(p.a >> i & 1) != bool(q.a >> j & 1):
            return False
        if bool(p.b >> i & 1) != bool(q.b >> j & 1):
            return False
        return True

    cands = [[j for j in range(n) if compatible(i, j)] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cands[i]))
    phi = [-1] * n
    used = [False] * n

    def backtrack(k):
        if k == n:
            return True
        i = order[k]
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for i2 in order[:k]:
                if inter[i][i2] != inter[j][phi[i2]]:
                    ok = False
                    break
            if ok:
                phi[i] = j
                used[j] = True
                if backtrack(k + 1):
                    return True
                phi[i] = -1
                used[j] = False
        return False

    if not backtrack(0):
        return None
    result = tuple(phi)
    # re-verify all conditions before returning
    if not (all(acts[i] == acts[result[i]] for i in range(n))
            and all(inter[i][j] == inter[result[i]][result[j]]
                    for i in range(n) for j in range(n))
            and _image(result, p.a) == q.a and _image(result, p.b) == q.b):
        raise AssertionError(f"search returned a non-equivalence {result}")
    return result


def _image(phi, mask):
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << phi[i]
        mask >>= 1
        i += 1
    return out


def equivalence_classes(system: SpinSystem, patterns: list,
                        direct: bool = False) -> list:
    """Partition a pattern list into (direct-)equivalence classes."""
    classes = []
    for p in patterns:
        for cls in classes:
            if find_equivalence(system, cls[0], p, direct) is not None:
                cls.append(p)
                break
        else:
            classes.append([p])
    return classes


def dominant_classes(system: SpinSystem):
    """The dominant patterns' undirected and direct equivalence classes, as
    equivalence_classes orders them; searched once per system, on first
    use: only analyze and breakup read them."""
    return system.derived(_dominant_classes)


def _dominant_classes(system: SpinSystem) -> tuple:
    dom = structure(system).dominant
    return tuple(tuple(map(tuple, equivalence_classes(system, dom, direct)))
                 for direct in (False, True))


def frak_q(system: SpinSystem) -> float:
    """log2 of the number of distinct answers to "which dominant patterns
    have their small side containing I", over all subsets I."""
    if system.n > FRAK_Q_MAX_STATES:
        raise errors.SpinSpaceTooLarge(str(system.n))
    return structure(system).frak_q


def _frak_q(system: SpinSystem, dom) -> float:
    """The answer for I is the intersection of the answers for the
    singletons in I, so the distinct answers form the intersection closure
    of the singleton answers together with the answer for the empty set."""
    small = [p for p in dom if p.a.bit_count() <= p.b.bit_count()]
    singleton = [frozenset(k for k, p in enumerate(small) if p.a >> i & 1)
                 for i in range(system.n)]
    return math.log2(len(_intersection_closure(
        frozenset(range(len(small))), singleton)))


@dataclass
class PatternCatalog:
    maximal: list
    dominant: list
    omega_dom: object
    equivalence_classes: list
    direct_classes: list
    frak_q: float
    all_dominant_equivalent: bool
    near_tie: bool = False

    def to_dict(self, system: SpinSystem):
        def fmt(p):
            return {"A": sorted(system.states[i] for i in system.mask_states(p.a)),
                    "B": sorted(system.states[i] for i in system.mask_states(p.b)),
                    "weight": emit_number(weight(system, p))}

        return {
            "maximal": [fmt(p) for p in self.maximal],
            "dominant": [fmt(p) for p in self.dominant],
            "omega_dom": emit_number(self.omega_dom),
            "equivalence_classes": [[fmt(p) for p in cls]
                                    for cls in self.equivalence_classes],
            "direct_classes": [[fmt(p) for p in cls]
                               for cls in self.direct_classes],
            "frak_q": self.frak_q,
            "all_dominant_equivalent": self.all_dominant_equivalent,
            "near_tie": self.near_tie,
        }


def analyze(system: SpinSystem) -> PatternCatalog:
    maximal = maximal_patterns(system)
    dom, wmax, near_tie = dominant_patterns(system)
    undirected, direct = dominant_classes(system)
    return PatternCatalog(
        maximal=maximal,
        dominant=dom,
        omega_dom=wmax,
        equivalence_classes=list(map(list, undirected)),
        direct_classes=list(map(list, direct)),
        frak_q=frak_q(system),
        all_dominant_equivalent=len(undirected) == 1,
        near_tie=near_tie,
    )
