"""Exact restricted partition functions on the complete bipartite graph
K_{2d,2d}.

Z(Psi, I) sums, over left-side assignments psi in Psi and right-side values
constrained to I,
    prod_j lam[psi(j)] * (sum_{i in I} lam_i prod_j lam[i, psi(j)])^{2d}.

The fast evaluator groups assignments by their multiplicity vector (content)
xi over a small ground set.  Class membership (value-set equivalence,
near-constant assignments) depends only on xi.  In rational mode the sum
runs on SpinSystem.scaled() integer weights and is divided once by
la^{4d} li^{4d^2}.

A class's contents are enumerated over R(R(J)) once per system and d, and
tested for membership a block of rows at a time (_in_class: the R-closure of
each row's support, and one integer matrix product for the near-constant
classes): the system's memo keeps the members in a table, in _sub_contents
order, with the weights of each row per I, built on first use.  A spec
filters its class's table (a spec with no class, the table of every content
over the union of its masks), keeping the rows that are contents of its
assignments, with their counts: _counts builds them in one forward pass
over the spec's groups of equal masks.  verify_main_condition's many specs
share the tables and each group's sub-contents, which the memo keeps too.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import errors, patterns
from .system import SpinSystem, check_float_z, make_system, to_float

MAX_GROUND = 20
# the contents of one table (compositions of 2d into |ground| parts): a
# row keeps its count vector and, per I, two weights with the system (a few
# hundred bytes in rational mode); 10^6 rows are about 10 s of work
MAX_CONTENTS = 10 ** 6
MAX_D = 64
# verify_main_condition draws N_RANDOM random product forms from
# random.Random(seed), after those with at most MAX_RESTRICTED restricted
# coordinates
RNG_ID = "python-random"
N_RANDOM = 100
MAX_RESTRICTED = 3
# product forms plus right-side sets I, summed over the dominant sides,
# that verify_main_condition takes on; more are refused before any sum.  At
# d = 2 on 2 vCPUs one costs 40-130 us: af_potts q=8 (72,520) takes 6 s,
# multi_wr q=16 (263,485) 11 s and af_potts q=9 (927,360) 67 s
MAX_CHECKS = 3 * 10 ** 5


# ---------------------------------------------------------------------------
# specs

# the thresholds each class reads
_THRESHOLDS = {"full": (), "near_dominant": ("eps",),
               "near_subset": ("eps_bar",), "balanced": ("eps", "eps_bar")}


@dataclass
class PsiSpec:
    """A set of left-side assignments psi: [2d] -> S.

    Coordinate j takes a value in the bitmask coords[j] (coords None: any
    value).  When J is set, the content of psi must also lie in the class
    cls over the side J and, when cls2 is set, not in the class cls2.
    "full" is the value-set-equivalent-to-J class; "near_dominant" /
    "near_subset" are its near-constant subclasses (thresholds eps,
    eps_bar); "balanced" is full minus both.
    """
    coords: list = None
    J: int = None
    cls: str = "full"
    cls2: str = None
    eps: float = None
    eps_bar: float = None

    def __post_init__(self):
        for c in filter(None, (self.cls, self.cls2)):
            need = _THRESHOLDS.get(c)
            if need is None:
                raise errors.SchemaError(f"unknown class {c!r}")
            if any(getattr(self, t) is None for t in need):
                raise errors.SchemaError(
                    f"class {c!r} needs {' and '.join(need)}")
        for t in ("eps", "eps_bar"):
            x = getattr(self, t)
            if x is not None and not (math.isfinite(x) and x >= 0):
                raise errors.ParamOutOfRange(f"{t} must be finite and >= 0")

    @property
    def kind(self) -> str:
        """The spec's shape as a name ("product", "class" or
        "class_intersect_product"); perfbench/spans.py counts a call's
        compositions by it."""
        if self.J is None:
            return "product"
        return "class" if self.coords is None else "class_intersect_product"


# ---------------------------------------------------------------------------
# class membership

def _in_class(system, d, spec, states, counts):
    """Which rows of counts (an integer matrix, a count vector over states
    per row) lie in the spec's class cls over its side J and, when cls2 is
    set, not in the class cls2, as a boolean mask over the rows."""
    rJ = patterns.r_closure(system, spec.J)
    # full: the R-closure of the row's support, the meet of its states'
    # closures, is R(J)
    closures = np.array([patterns.r_closure(system, 1 << s) for s in states],
                        dtype=np.uint64)
    keep = np.bitwise_and.reduce(np.where(
        counts > 0, closures, np.uint64(system.full_mask())), axis=1) == rJ

    # near_dominant: more than 2d - 4 eps d coordinates inside one strict
    # dominant side of J; near_subset: more than 2d - 4 eps_bar d inside one
    # subset I of J not value-set equivalent to J.  Then some t outside R(J)
    # lies in R(I), so I lies within J & R({t}), itself such a subset: counts
    # are non-negative, so these sets stand for all of them.  A family is
    # read only when a class of the spec reads it, and only on full rows.
    reads = {spec.cls, spec.cls2}
    dom = [a for a in patterns.structure(system).dominant_sides
           if a != spec.J and a & ~spec.J == 0] \
        if reads & {"near_dominant", "balanced"} else []
    inequiv = sorted({spec.J & patterns.r_closure(system, 1 << t)
                      for t in system.mask_states(system.full_mask() & ~rJ)}) \
        if reads & {"near_subset", "balanced"} else []
    ind = np.array([[a >> s & 1 for a in dom + inequiv] for s in states],
                   dtype=np.int64).reshape(len(states), -1)
    over = counts[keep] @ ind > np.array(
        [2 * d - 4 * (spec.eps or 0) * d] * len(dom)
        + [2 * d - 4 * (spec.eps_bar or 0) * d] * len(inequiv))
    nd, ns = over[:, :len(dom)].any(axis=1), over[:, len(dom):].any(axis=1)
    member = {"full": np.True_, "near_dominant": nd, "near_subset": ns,
              "balanced": ~nd & ~ns}
    keep[keep] = member[spec.cls] & ~member.get(spec.cls2, np.False_)
    return keep


# ---------------------------------------------------------------------------
# contents

def _multinomial(n, counts):
    """n! / prod_c c! for counts summing to n."""
    out = 1
    for c in counts:
        out *= math.comb(n, c)
        n -= c
    return out


def _sub_contents(remaining, states, mask, size, i=0):
    """Count vectors y <= remaining, zero outside mask, summing to size: the
    first state's count outermost, ascending, and the last state's count
    what is left."""
    if i == len(states):
        if size == 0:
            yield ()
        return
    top = min(remaining[i], size) if mask >> states[i] & 1 else 0
    if i == len(states) - 1:
        if size <= top:
            yield (size,)
        return
    for u in range(top + 1):
        for tail in _sub_contents(remaining, states, mask, size - u, i + 1):
            yield (u,) + tail


@dataclass
class _Table:
    """The contents of one class over its ground, each enumerated and tested
    once: rows are count vectors over states (the ground's states,
    ascending), in _sub_contents order."""
    states: list
    rows: list
    # positive -> z0 and (I mask, positive) -> z1p, built by weights()
    z0: dict = field(default_factory=dict)
    by_I: dict = field(default_factory=dict)

    def weights(self, system, d, I_mask, positive=False):
        """The weights of the rows on scaled() weights (with positive, on
        booleans: is each weight positive), as lists over the rows: z0 =
        prod_s acts[s]^c_s and z1p = (sum_{i in I} acts[i] prod_s
        inter[i][s]^c_s)^{2d}."""
        key = I_mask, positive
        if key not in self.by_I:
            sc = system.scaled()
            acts, inter = sc.acts, sc.inter
            if positive:
                acts = [a > 0 for a in acts]
                inter = [[x > 0 for x in row] for row in inter]
            I_states = system.mask_states(I_mask)
            z0s = None if positive in self.z0 else []
            z1ps = []
            for y in self.rows:
                xi = [(s, c) for s, c in zip(self.states, y) if c]
                if z0s is not None:
                    z0 = 1
                    for s, c in xi:
                        z0 *= acts[s] ** c
                    z0s.append(z0)
                z1 = 0
                for i in I_states:
                    t = acts[i]
                    for s, c in xi:
                        t *= inter[i][s] ** c
                    z1 += t
                z1ps.append(z1 ** (2 * d))
            if z0s is not None:
                self.z0[positive] = z0s
            self.by_I[key] = z1ps
        return self.z0[positive], self.by_I[key]


def _table(system, d, spec):
    """The spec's content table, kept in the system's memo: its class's
    contents over R(R(J)) or, when it sets no class, every content over the
    union of its masks."""
    if spec.J is None:
        ground = system.full_mask() if spec.coords is None \
            else functools.reduce(operator.or_, spec.coords, 0)
        key = (_table, d, ground)
    else:
        ground = None
        key = (_table, d, spec.J, spec.cls, spec.cls2, spec.eps, spec.eps_bar)
    return system.derived(key, lambda _: _build_table(system, d, spec, ground))


def _build_table(system, d, spec, ground):
    if spec.J is not None:
        # a content value-set equivalent to J lies within R(R(J))
        ground = patterns.r_closure(
            system, patterns.r_closure(system, spec.J))
    states = system.mask_states(ground)
    if len(states) > MAX_GROUND:
        raise errors.GroundSetTooLarge(str(len(states)))
    size = math.comb(2 * d + len(states) - 1, 2 * d)
    if size > MAX_CONTENTS:
        raise errors.TooLarge(f"{size} contents over {len(states)} states")
    rows = _sub_contents((2 * d,) * len(states), states, ground, 2 * d)
    if spec.J is None:
        return _Table(states, list(rows))
    # the class is tested a block of rows at a time, so that its arrays (about
    # as many columns as states) keep near MAX_CONTENTS entries
    members = []
    while block := list(itertools.islice(rows, MAX_CONTENTS // system.n)):
        members += itertools.compress(block, _in_class(
            system, d, spec, states, np.array(block, dtype=np.int64)))
    return _Table(states, members)


def _counts(system, states, coords):
    """{content: count}: each content (a count vector over states) of the
    assignments [2d] -> states whose coordinate j takes a value in
    coords[j], with the number (> 0) of them.  Folded one group of equal
    masks at a time, by mask, from the first group's sub-contents: the
    group's size coordinates add a sub-content y in multinomial(size, y)
    ways, kept in the system's memo by (states, mask, size).  A one-group
    spec gets the memo's own dict, which callers only read."""
    states = tuple(states)
    memo = system.derived(_counts, lambda _: {})
    groups = []
    for mask, size in sorted(Counter(coords).items()):
        key = states, mask, size
        if key not in memo:
            memo[key] = {y: _multinomial(size, y) for y in _sub_contents(
                (size,) * len(states), states, mask, size)}
        groups.append(memo[key])
    counts = groups[0] if groups else {(0,) * len(states): 1}
    for group in groups[1:]:
        out = {}
        for x, c in counts.items():
            for y, ways in group.items():
                z = tuple(map(operator.add, x, y))
                out[z] = out.get(z, 0) + c * ways
        counts = out
    return counts


def _check_d(d):
    if d < 1:
        raise errors.ParamOutOfRange("d must be >= 1")
    if d > MAX_D:
        raise errors.TooLarge(f"d={d}")


def z_compositions(system: SpinSystem, d: int, spec: PsiSpec, I_mask: int):
    """Evaluate Z(Psi, I) by summing over the contents of the spec."""
    _check_d(d)
    table = _table(system, d, spec)
    # with no coords, every row is a content, in multinomial(2d, y) ways
    counts = {y: _multinomial(2 * d, y) for y in table.rows} \
        if spec.coords is None else _counts(system, table.states, spec.coords)

    def total(positive=False):
        z0, z1p = table.weights(system, d, I_mask, positive)
        return sum(cnt * z0[k] * z1p[k] for k, y in enumerate(table.rows)
                   if (cnt := counts.get(y)))

    try:
        z = total()
    except OverflowError:  # a float power beyond float64
        z = math.inf
    if system.mode == "float":
        check_float_z(z, lambda: total(positive=True))
    # K_{2d,2d} has 4d vertices and 4d^2 edges
    return system.scaled().unscale(z, 4 * d, 4 * d * d)


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


def lambda_restricted_power(system: SpinSystem, A_mask: int, n: int,
                            power=None):
    """Total activity weight of functions [n] -> A whose image is not inside
    any maximal-pattern side strictly contained in A.  power(x), when given,
    stands for x ** n (a caller's cache over the base)."""
    power = power or (lambda x: x ** n)
    return sum(sign * power(system.lambda_mask(m))
               for sign, m in exclusion_terms(system, A_mask))


# ---------------------------------------------------------------------------
# abstract-condition verifier

def normalize_interactions(system: SpinSystem) -> SpinSystem:
    """Rescale interactions so the maximal pair interaction is 1."""
    m = system.max_interaction
    if m == 1:
        return system
    inter = [[v / m for v in row] for row in system.interactions]
    return make_system(system.states, system.activities, inter, mode=system.mode)


def k_of_product(system, d, spec):
    """Number of coordinates of a product-and-class spec whose realized
    value set (the values it takes in some member of the spec) is not value-
    set equivalent to the side J.  Coordinates with equal masks are
    interchangeable and membership depends only on the content, so each
    distinct mask m is probed once, by one pass over the coordinates less
    one with mask m: v is realized there iff some member row y has y_v >= 1
    and y - e_v is a content of that pass."""
    table = _table(system, d, spec)
    coords = spec.coords
    realized = {}
    for m in set(coords):
        rest = list(coords)
        rest.remove(m)
        counts = _counts(system, table.states, rest)
        realized[m] = sum(1 << v for i, v in enumerate(table.states)
                          if m >> v & 1 and any(
                              y[i] and y[:i] + (y[i] - 1,) + y[i + 1:]
                              in counts for y in table.rows))
    rJ = patterns.r_closure(system, spec.J)
    return sum(1 for m in coords
               if patterns.r_closure(system, realized[m]) != rJ)


def verify_main_condition(system: SpinSystem, d: int, alpha: float,
                          gamma: float, eps: float, eps_bar: float,
                          seed: int = 0) -> dict:
    """Numerically check the abstract inequalities behind the explicit
    conditions, for every dominant side.

    The first family of inequalities quantifies over all subsets of the
    balanced class; this is untestable exhaustively, so the policy here
    checks all product forms whose coordinate sets are the side J or one of
    its strict fixed-point subsets (at most MAX_RESTRICTED restricted
    coordinates, and at most 2d), plus N_RANDOM seeded random product
    forms.  Documented as a sound-but-incomplete check.  More than
    MAX_CHECKS product forms and right-side sets are refused (TooLarge)
    before any sum.
    """
    if not (math.isfinite(alpha) and math.isfinite(gamma)):
        raise errors.ParamOutOfRange("alpha and gamma must be finite")
    if system.max_interaction != 1:
        raise errors.NotNormalized(
            "interactions must be normalized to maximum 1")
    _check_d(d)  # before omega_dom^{2d}, which overflows far beyond MAX_D
    st = patterns.structure(system)
    # the inequalities are compared in floats; a side beyond the float64
    # range is refused, and so is an omega_dom^{2d} that underflows to 0
    try:
        omega_2d = to_float(st.omega_dom) ** (2 * d)
    except OverflowError:
        omega_2d = math.inf
    if not 0 < omega_2d < math.inf:
        raise errors.TooLarge("omega_dom^{2d} leaves the float64 range")
    # per side J: 2^|S| sets I, and the product forms: the C(s + k, k)
    # multisets of at most k = min(MAX_RESTRICTED, 2d) of its s strict
    # sides, and N_RANDOM more.  Listing the strict sides takes sides x
    # |r_sets| <= sides x 2^|S| steps, so it waits until the sets I pass
    checks = len(st.dominant_sides) << system.n
    strict = {J: [a for a in st.r_sets if a != J and a & ~J == 0 and a != 0]
              for J in st.dominant_sides} if checks <= MAX_CHECKS else {}
    k_max = min(MAX_RESTRICTED, 2 * d)
    checks += sum(math.comb(len(sub) + k_max, k_max) + N_RANDOM
                  for sub in strict.values())
    if checks > MAX_CHECKS:
        raise errors.TooLarge(f"more than {MAX_CHECKS} product forms and "
                              "right-side sets I")
    rrI = [patterns.r_closure(system, patterns.r_closure(system, I))
           for I in range(1 << system.n)]
    rng = random.Random(seed)
    results = []

    def record(name, J, lhs, log_rhs, k=None):
        lhs_f = to_float(lhs)
        try:
            rhs = omega_2d * math.exp(log_rhs)
        except OverflowError:
            raise errors.TooLarge(
                f"the {name} bound exceeds the float64 range") from None
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
        rJ = patterns.r_closure(system, J)
        # (1) product subsets of the balanced class
        families = [
            list(combo) + [J] * (2 * d - k) for k in range(k_max + 1)
            for combo in itertools.combinations_with_replacement(strict[J], k)]
        pool = [J] + strict[J]
        families += [[rng.choice(pool) for _ in range(2 * d)]
                     for _ in range(N_RANDOM)]
        # each multiset of masks once, where it first comes
        for key in dict.fromkeys(tuple(sorted(c)) for c in families):
            coords = list(key)
            spec = PsiSpec(coords=coords, J=J, cls="balanced", eps=eps,
                           eps_bar=eps_bar)
            lhs = z_compositions(system, d, spec, system.full_mask())
            k_psi = k_of_product(system, d, spec) if lhs > 0 else \
                sum(1 for c in coords if patterns.r_closure(system, c) != rJ)
            record("restricted_left", J, lhs,
                   2 * gamma * d - alpha * k_psi, k=k_psi)
        # (2) right-side restriction
        bal = PsiSpec(J=J, cls="balanced", eps=eps, eps_bar=eps_bar)
        for I in range(1 << system.n):
            if rJ & ~rrI[I]:  # R(J) not within the double closure
                lhs = z_compositions(system, d, bal, I)
                record("restricted_right", J, lhs, 2 * gamma * d - alpha * d)
        # (3) near-constant assignments
        spec = PsiSpec(J=J, cls="full", cls2="balanced", eps=eps,
                       eps_bar=eps_bar)
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
        total += z_compositions(system, d, PsiSpec(J=I), system.full_mask())
    record("non_dominant", None, total, 2 * gamma * d - alpha * d)

    return {
        "d": d, "alpha": alpha, "gamma": gamma, "eps": eps,
        "eps_bar": eps_bar,
        "inequalities": results,
        "pass": all(r["holds"] for r in results),
    }
