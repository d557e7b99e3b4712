"""Exact restricted partition functions on the complete bipartite graph
K_{2d,2d}.

Z(Psi, I) sums, over left-side assignments psi in Psi and right-side values
constrained to I,
    prod_j lam[psi(j)] * (sum_{i in I} lam_i prod_j lam[i, psi(j)])^{2d}.

The fast evaluator groups assignments by their multiplicity vector xi over a
small ground set; class membership (value-set equivalence, near-constant
assignments) depends only on xi, and the number of assignments with content
xi is a multinomial (for per-coordinate product constraints, a sum over
groups of coordinates with equal masks of products of multinomials).  In
rational mode the sum runs on SpinSystem.scaled() integer weights and is
divided once by la^{4d} li^{4d^2}.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import errors, patterns
from .system import SpinSystem, make_system

MAX_GROUND = 20
MAX_D = 64
MAX_SUBSET_SIDE = 16
# verify_main_condition draws its random product forms from
# random.Random(seed)
RNG_ID = "python-random"


# ---------------------------------------------------------------------------
# specs

@dataclass
class PsiSpec:
    """Description of a set of left-side assignments [2d] -> S.

    kinds:
      explicit               - psis: list of tuples
      product                - coords: per-coordinate allowed bitmasks
      class                  - cls in {"full", "near_dominant", "near_subset",
                               "balanced"} over ground side J
      class_minus            - cls minus cls2 (same J)
      class_intersect_product- class constraint and per-coordinate masks
    "full" is the value-set-equivalent-to-J class; "near_dominant" /
    "near_subset" are its near-constant subclasses (thresholds eps, eps_bar);
    "balanced" is full minus both.
    """
    kind: str
    J: int = 0
    cls: str = "full"
    cls2: str = None
    eps: float = None
    eps_bar: float = None
    psis: list = None
    coords: list = None


def class_spec(J, cls="full", eps=None, eps_bar=None):
    return PsiSpec(kind="class", J=J, cls=cls, eps=eps, eps_bar=eps_bar)


# ---------------------------------------------------------------------------
# brute force

def z_bruteforce(system: SpinSystem, d: int, psis, I_mask: int):
    """Direct evaluation over an explicit list of assignments."""
    if 2 * d > 6 or system.n > 5:
        raise errors.TooLarge(f"brute force guard: 2d={2*d}, |S|={system.n}")
    return _z_explicit(system, d, psis, I_mask)


def _z_explicit(system, d, psis, I_mask):
    total = system.zero()
    I_states = system.mask_states(I_mask)
    for psi in psis:
        left = system.one()
        for v in psi:
            left *= system.activities[v]
        inner = system.zero()
        for i in I_states:
            t = system.activities[i]
            for v in psi:
                t *= system.interactions[i][v]
            inner += t
        total += left * inner ** (2 * d)
    return total


# ---------------------------------------------------------------------------
# content-level class predicates

# the thresholds each class reads
_THRESHOLDS = {"full": (), "near_dominant": ("eps",),
               "near_subset": ("eps_bar",), "balanced": ("eps", "eps_bar")}


class _ClassContext:
    """Precomputed data for content-level membership tests over a side J."""

    def __init__(self, system, d, J, eps, eps_bar, cls="full", cls2=None):
        self.system = system
        self.d = d
        self.J = J
        self.eps = eps
        self.eps_bar = eps_bar
        self.cls = cls
        self.cls2 = cls2
        for c in filter(None, (cls, cls2)):
            need = _THRESHOLDS.get(c)
            if need is None:
                raise errors.SchemaError(f"unknown class {c!r}")
            if any(getattr(self, t) is None for t in need):
                raise errors.SchemaError(
                    f"class {c!r} needs {' and '.join(need)}")
        self.rJ = patterns.r_closure(system, J)
        if bin(J).count("1") > MAX_SUBSET_SIDE:
            raise errors.GroundSetTooLarge(f"side has {bin(J).count('1')} states")
        # strict subsets of J that are dominant sides
        self.dom_subsets = [a for a in patterns.structure(system).dominant_sides
                            if a != J and a & ~J == 0]
        # proper subsets of J not value-set-equivalent to J
        self.inequiv_subsets = [
            I for I in _submasks(J) if I != J
            and patterns.r_closure(system, I) != self.rJ]

    def ground_mask(self):
        return patterns.r_closure(self.system, self.rJ)

    def _count_in(self, xi, mask):
        return sum(c for s, c in xi.items() if mask >> s & 1)

    def in_full(self, xi):
        supp = 0
        for s in xi:
            supp |= 1 << s
        return patterns.r_closure(self.system, supp) == self.rJ

    def in_near_dominant(self, xi):
        thr = 2 * self.d - 4 * self.eps * self.d
        return any(self._count_in(xi, I) > thr for I in self.dom_subsets)

    def in_near_subset(self, xi):
        thr = 2 * self.d - 4 * self.eps_bar * self.d
        return any(self._count_in(xi, I) > thr for I in self.inequiv_subsets)

    def member(self, xi, cls):
        if not self.in_full(xi):
            return False
        if cls == "full":
            return True
        if cls == "near_dominant":
            return self.in_near_dominant(xi)
        if cls == "near_subset":
            return self.in_near_subset(xi)
        if cls == "balanced":
            return not (self.in_near_dominant(xi) or self.in_near_subset(xi))
        raise errors.SchemaError(f"unknown class {cls!r}")

    def admits(self, xi):
        """xi is in the class cls and, when cls2 is set, not in cls2."""
        return self.member(xi, self.cls) and not (
            self.cls2 is not None and self.member(xi, self.cls2))


def _submasks(mask):
    """All submasks of mask, including 0 and mask itself."""
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return out


# ---------------------------------------------------------------------------
# composition evaluator

def _compositions(total, states):
    """Yield dicts state -> positive count summing to total."""
    if not states:
        if total == 0:
            yield {}
        return
    first, rest = states[0], states[1:]
    for c in range(total + 1):
        for tail in _compositions(total - c, rest):
            if c:
                d = {first: c}
                d.update(tail)
                yield d
            else:
                yield tail


def _multinomial(n, counts):
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def _product_count(coords, xi):
    """Number of assignments with content xi where coordinate j takes a value
    allowed by the bitmask coords[j].  Coordinates with the same mask are
    interchangeable, so each group of them takes a sub-content y of what is
    left, in multinomial(size, y) ways; the last group takes the rest."""
    if sum(xi.values()) != len(coords):
        return 0
    groups = sorted(Counter(coords).items())
    states = sorted(xi)
    memo = {}

    def rec(k, remaining):
        mask, size = groups[k]
        if k == len(groups) - 1:
            if any(c and not mask >> s & 1 for s, c in zip(states, remaining)):
                return 0
            return _multinomial(size, remaining)
        key = (k, remaining)
        if key not in memo:
            memo[key] = sum(
                _multinomial(size, y)
                * rec(k + 1, tuple(c - u for c, u in zip(remaining, y)))
                for y in _sub_contents(remaining, states, mask, size))
        return memo[key]

    if not groups:
        return 1
    return rec(0, tuple(xi[s] for s in states))


def _sub_contents(remaining, states, mask, size, i=0):
    """Count vectors y <= remaining, zero outside mask, summing to size."""
    if i == len(states):
        if size == 0:
            yield ()
        return
    top = min(remaining[i], size) if mask >> states[i] & 1 else 0
    for u in range(top + 1):
        for tail in _sub_contents(remaining, states, mask, size - u, i + 1):
            yield (u,) + tail


def _spec_context(system, d, spec):
    """The spec's class constraint, or None for a plain product."""
    if spec.kind == "product":
        return None
    if spec.kind not in ("class", "class_minus", "class_intersect_product"):
        raise errors.SchemaError(f"unknown spec kind {spec.kind!r}")
    return _ClassContext(system, d, spec.J, spec.eps, spec.eps_bar, spec.cls,
                         spec.cls2 if spec.kind == "class_minus" else None)


def _xi_count(d, spec, ctx, xi):
    """Number of assignments in the spec with content xi."""
    if ctx is not None and not ctx.admits(xi):
        return 0
    if spec.coords is not None:
        return _product_count(spec.coords, xi)
    return _multinomial(2 * d, xi.values())


def z_compositions(system: SpinSystem, d: int, spec: PsiSpec, I_mask: int):
    """Evaluate Z(Psi, I) by summing over multiplicity vectors."""
    if d < 1:
        raise errors.ParamOutOfRange("d must be >= 1")
    if d > MAX_D:
        raise errors.TooLarge(f"d={d}")
    if spec.psis is not None:
        return _z_explicit(system, d, spec.psis, I_mask)
    ctx = _spec_context(system, d, spec)
    if spec.coords is not None:
        ground = functools.reduce(operator.or_, spec.coords, 0)
    else:
        ground = ctx.ground_mask()
    g_states = system.mask_states(ground)
    if len(g_states) > MAX_GROUND:
        raise errors.GroundSetTooLarge(str(len(g_states)))
    I_states = system.mask_states(I_mask)
    sc = system.scaled()
    acts, inter = sc.acts, sc.inter
    total = 0
    for xi in _compositions(2 * d, g_states):
        cnt = _xi_count(d, spec, ctx, xi)
        if cnt == 0:
            continue
        z0 = 1
        for s, c in xi.items():
            z0 *= acts[s] ** c
        z1 = 0
        for i in I_states:
            t = acts[i]
            for s, c in xi.items():
                t *= inter[i][s] ** c
            z1 += t
        total += cnt * z0 * z1 ** (2 * d)
    # K_{2d,2d} has 4d vertices and 4d^2 edges
    return sc.unscale(total, 4 * d, 4 * d * d)


def expand_spec(system: SpinSystem, d: int, spec: PsiSpec, limit=10 ** 6):
    """Explicit list of assignments described by a spec (test oracle use)."""
    if spec.psis is not None:
        return list(spec.psis)
    if system.n ** (2 * d) > limit:
        raise errors.TooLarge("explicit expansion too large")
    ctx = _spec_context(system, d, spec)
    return [psi for psi in itertools.product(range(system.n), repeat=2 * d)
            if (spec.coords is None
                or all(m >> v & 1 for m, v in zip(spec.coords, psi)))
            and (ctx is None or ctx.admits(Counter(psi)))]


# ---------------------------------------------------------------------------
# image-restricted power sums

def exclusion_terms(system: SpinSystem, A_mask: int) -> list:
    """(sign, mask) terms of the inclusion-exclusion sum behind
    lambda_restricted_power, A itself first: the inclusion-maximal
    maximal-pattern sides strictly inside A, and their intersections."""
    # the sides of the maximal patterns are the r_sets; in float mode the
    # inclusion-exclusion sum runs in this set's iteration order
    sides = set(patterns.structure(system).r_sets)
    family = [b for b in sides if b != A_mask and b & ~A_mask == 0]
    # only inclusion-maximal members matter for the union of down-sets
    family = [b for b in family
              if not any(b != c and b & ~c == 0 for c in family)]
    if len(family) > 20:
        raise errors.GroundSetTooLarge(f"{len(family)} excluded sides")
    return [(1, A_mask)] + [
        ((-1) ** r, functools.reduce(operator.and_, combo, A_mask))
        for r in range(1, len(family) + 1)
        for combo in itertools.combinations(family, r)]


def lambda_restricted_power(system: SpinSystem, A_mask: int, n: int):
    """Total activity weight of functions [n] -> A whose image is not inside
    any maximal-pattern side strictly contained in A."""
    return sum(sign * system.lambda_mask(m) ** n
               for sign, m in exclusion_terms(system, A_mask))


# ---------------------------------------------------------------------------
# global enumeration bound

def z_complete_bipartite(system: SpinSystem, d: int):
    """Z with both sides unconstrained: the partition function on K_{2d,2d}."""
    spec = PsiSpec(kind="product", coords=[system.full_mask()] * (2 * d))
    return z_compositions(system, d, spec, system.full_mask())


def shearer_global_bound(system: SpinSystem, d: int) -> float:
    """(1/4d) log Z(K_{2d,2d}): per-vertex upper bound for the log-partition
    function on 2d-regular bipartite host graphs."""
    z = z_complete_bipartite(system, d)
    return math.log(z) / (4 * d)


# ---------------------------------------------------------------------------
# abstract-condition verifier

def normalize_interactions(system: SpinSystem) -> SpinSystem:
    """Rescale interactions so the maximal pair interaction is 1."""
    m = system.max_interaction
    if m == 1:
        return system
    inter = [[v / m for v in row] for row in system.interactions]
    return make_system(system.states, system.activities, inter, mode=system.mode)


def _realized_coordinate_sets(system, d, coords, ctx, cls):
    """For each coordinate, the set of values actually taken by some member
    of (product coords) intersected with the class."""
    realized = []
    for j, mask in enumerate(coords):
        vals = 0
        for v in system.mask_states(mask):
            probe = list(coords)
            probe[j] = 1 << v
            found = False
            ground = functools.reduce(operator.or_, probe, 0)
            for xi in _compositions(2 * d, system.mask_states(ground)):
                if not ctx.member(xi, cls):
                    continue
                if _product_count(probe, xi) > 0:
                    found = True
                    break
            if found:
                vals |= 1 << v
        realized.append(vals)
    return realized


def k_of_product(system, d, coords, ctx, cls="balanced"):
    """Number of coordinates whose realized value set is not value-set
    equivalent to the ground side."""
    realized = _realized_coordinate_sets(system, d, coords, ctx, cls)
    k = 0
    for vals in realized:
        if patterns.r_closure(system, vals) != ctx.rJ:
            k += 1
    return k


def verify_main_condition(system: SpinSystem, d: int, alpha: float,
                          gamma: float, eps: float, eps_bar: float,
                          n_random: int = 100, seed: int = 0,
                          max_restricted: int = 3) -> dict:
    """Numerically check the abstract inequalities behind the explicit
    conditions, for every dominant side.

    The first family of inequalities quantifies over all subsets of the
    balanced class; this is untestable exhaustively, so the policy here
    checks all product forms whose coordinate sets are the side J or one of
    its strict fixed-point subsets (at most `max_restricted` restricted
    coordinates), plus `n_random` seeded random product forms.  Documented
    as a sound-but-incomplete check.
    """
    if system.max_interaction != 1:
        raise errors.NotNormalized(
            "interactions must be normalized to maximum 1")
    st = patterns.structure(system)
    omega_2d = float(st.omega_dom) ** (2 * d)
    rng = random.Random(seed)
    results = []

    def record(name, J, lhs, log_rhs, k=None):
        lhs_f = float(lhs)
        rhs = omega_2d * math.exp(log_rhs)
        alpha_tight = None
        if lhs_f > 0:
            # largest alpha-coefficient the inequality tolerates
            alpha_tight = (2 * gamma * d - math.log(lhs_f / omega_2d))
        results.append({
            "name": name,
            "J": system.labels(J) if J is not None else None,
            "k": k,
            "lhs": lhs_f,
            "rhs": rhs,
            "holds": lhs_f <= rhs,
            "alpha_budget": alpha_tight,
        })

    for J in sorted(st.dominant_sides):
        ctx = _ClassContext(system, d, J, eps, eps_bar)
        strict = [a for a in st.r_sets if a != J and a & ~J == 0 and a != 0]
        # (1) product subsets of the balanced class
        families = []
        for k in range(0, max_restricted + 1):
            for combo in itertools.combinations_with_replacement(strict, k):
                coords = list(combo) + [J] * (2 * d - k)
                families.append(coords)
        for _ in range(n_random):
            coords = [rng.choice([J] + strict) for _ in range(2 * d)]
            families.append(coords)
        seen = set()
        for coords in families:
            key = tuple(sorted(coords))
            if key in seen:
                continue
            seen.add(key)
            spec = PsiSpec(kind="class_intersect_product", J=J,
                           cls="balanced", eps=eps, eps_bar=eps_bar,
                           coords=coords)
            lhs = z_compositions(system, d, spec, system.full_mask())
            k_psi = k_of_product(system, d, coords, ctx) if lhs > 0 else \
                sum(1 for c in coords if patterns.r_closure(system, c) != ctx.rJ)
            record("restricted_left", J, lhs,
                   2 * gamma * d - alpha * k_psi, k=k_psi)
        # (2) right-side restriction
        bal = class_spec(J, "balanced", eps, eps_bar)
        rJ = patterns.r_closure(system, J)
        for I in range(1 << system.n):
            rrI = patterns.r_closure(system, patterns.r_closure(system, I))
            if rJ & ~rrI:  # R(J) not within the double closure
                lhs = z_compositions(system, d, bal, I)
                record("restricted_right", J, lhs, 2 * gamma * d - alpha * d)
        # (3) near-constant assignments
        spec = PsiSpec(kind="class_minus", J=J, cls="full", cls2="balanced",
                       eps=eps, eps_bar=eps_bar)
        lhs = z_compositions(system, d, spec, system.full_mask())
        record("unbalanced", J, lhs, 2 * gamma * d - alpha * d)
        # (4) energetically costly right side
        lhs = z_compositions(system, d, bal, system.full_mask() & ~rJ)
        record("highly_energetic", J, lhs,
               2 * gamma * d - 3 * alpha * eps * d * d)

    # (5) non-dominant sides, summed
    nd_sides = set()
    for p in st.maximal:
        if p not in st.dominant:
            nd_sides.add(p.a)
            nd_sides.add(p.b)
    total = system.zero()
    for I in sorted(nd_sides):
        total += z_compositions(system, d, class_spec(I), system.full_mask())
    record("non_dominant", None, total, 2 * gamma * d - alpha * d)

    return {
        "d": d, "alpha": alpha, "gamma": gamma, "eps": eps,
        "eps_bar": eps_bar,
        "inequalities": results,
        "pass": all(r["holds"] for r in results),
    }
