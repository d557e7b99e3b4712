"""Breakup extraction: partitioning a configuration on a box into ordered
regions labelled by dominant patterns, separated by a localized defect set,
plus the per-vertex diagnostics used to classify defects.

Conventions.  The reference pattern P0 = (A0, B0) has its first side on the
even sublattice.  A dominant ordered pattern P is "aligned" when it is
direct-equivalent to P0; aligned patterns put their first side on even
vertices, the others on odd vertices.  Sites outside the stored region are
assumed to follow the P0 pattern: their value is only known as a set (A0 on
even sites, B0 on odd sites), and set-membership tests for them succeed only
when guaranteed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import errors, lattice as lat_mod, patterns
from .patterns import Pattern
from .system import SpinSystem


# ---------------------------------------------------------------------------
# context

class BreakupContext:
    def __init__(self, system: SpinSystem, lat, f, p0: Pattern):
        self.system = system
        self.lat = lat
        self.f = f
        dom = patterns.structure(system).dominant
        if p0 not in dom:
            raise errors.BoundaryNotInPattern(
                "reference pattern is not dominant")
        if bin(p0.a).count("1") > bin(p0.b).count("1"):
            raise errors.BoundaryNotInPattern(
                "reference pattern must have its smaller side first")
        self.p0 = p0
        self.pats = list(dom)
        self.aligned = {}
        for p in self.pats:
            self.aligned[p] = patterns.find_equivalence(
                system, p0, p, direct=True) is not None
            if not self.aligned[p] and patterns.find_equivalence(
                    system, p0, p, direct=False) is None:
                raise errors.DominantPatternsNotEquivalent(
                    "a dominant pattern is not equivalent to the reference")
        # bdry on even vertices for aligned patterns, on odd otherwise
        self.bdry = {p: (p.a if self.aligned[p] else p.b) for p in self.pats}
        self.int_ = {p: (p.b if self.aligned[p] else p.a) for p in self.pats}

    def p_even(self, p: Pattern, v) -> bool:
        """v carries the boundary side of p."""
        return (self.lat.parity(v) == 0) == self.aligned[p]

    def _virtual_mask(self, parity):
        return self.p0.a if parity == 0 else self.p0.b

    def missing_degree(self, v):
        return self.lat.degree - len(self.lat.neighbors[v])

    def in_p_pattern(self, p: Pattern, v) -> bool:
        side = self.bdry[p] if self.p_even(p, v) else self.int_[p]
        return side >> self.f[v] & 1 == 1

    def virtual_in(self, v, mask) -> bool:
        """Do the unstored neighbors of v (if any) certainly take values in
        mask?  Unstored neighbors have the opposite parity of v."""
        if self.missing_degree(v) == 0:
            return True
        vm = self._virtual_mask(1 - self.lat.parity(v))
        return vm & ~mask == 0

    def neighborhood_in(self, v, mask) -> bool:
        """All ambient neighbors of v have values in mask."""
        for u in self.lat.neighbors[v]:
            if not mask >> self.f[u] & 1:
                return False
        return self.virtual_in(v, mask)


# ---------------------------------------------------------------------------
# regions

@dataclass
class Regions:
    ctx: BreakupContext
    s_p: dict = field(default_factory=dict)
    t_p: dict = field(default_factory=dict)
    z_p: dict = field(default_factory=dict)
    zp_p: dict = field(default_factory=dict)   # defect cores, expanded
    z_star: frozenset = frozenset()


def _partition(lat, charts: dict, defects: dict):
    """(none, overlap, defect): the sites in no chart, the sites in two
    charts, and the union of the charts' defect sets."""
    none = lat.all_sites().difference(*charts.values())
    overlap = set()
    for x, y in itertools.combinations(charts.values(), 2):
        overlap |= x & y
    return none, overlap, frozenset().union(*defects.values())


def _star(lat, charts: dict, defects: dict) -> frozenset:
    """The partition's three parts plus the closed boundary of every
    chart."""
    none, overlap, defect = _partition(lat, charts, defects)
    return none.union(overlap, defect,
                      *(lat_mod.closed_boundary(lat, x)
                        for x in charts.values()))


def compute_regions(system: SpinSystem, lat, f, p0: Pattern) -> Regions:
    ctx = BreakupContext(system, lat, f, p0)
    reg = Regions(ctx=ctx)
    allv = lat.all_sites()
    for p in ctx.pats:
        s_p = frozenset(v for v in allv if ctx.in_p_pattern(p, v))
        t_p = frozenset(v for v in allv
                        if not ctx.p_even(p, v)
                        and ctx.neighborhood_in(v, ctx.bdry[p]))
        reg.s_p[p] = s_p
        reg.t_p[p] = t_p
        reg.z_p[p] = lat_mod.plus_(lat, t_p)
        reg.zp_p[p] = lat_mod.plus_(lat, t_p - s_p)
    reg.z_star = _star(lat, reg.z_p, reg.zp_p)
    return reg


def localized_defect(lat, reg: Regions, V) -> frozenset:
    """Components of the 5-expanded defect set that reach the exterior or
    cut a vertex of V off from it."""
    return lat_mod.separating_components(
        lat, lat_mod.plus_r(lat, reg.z_star, 5), V)


# ---------------------------------------------------------------------------
# atlas construction

@dataclass
class Atlas:
    ctx: BreakupContext
    x_p: dict
    xp_p: dict
    b: frozenset       # localized defect region

    def x_star(self):
        return _star(self.ctx.lat, self.x_p, self.xp_p)

    def stats(self) -> dict:
        """L = chart edge-boundary size, M = overlap/defect volume,
        N = uncharted volume; recomputed from the stored charts."""
        lat = self.ctx.lat
        edges = set()
        for p in self.ctx.pats:
            for (u, v) in lat_mod.directed_edge_boundary(lat, self.x_p[p]):
                edges.add((min(u, v), max(u, v)))
        none, overlap, defect = _partition(lat, self.x_p, self.xp_p)
        return {"L": len(edges), "M": len(overlap | defect), "N": len(none)}


def construct_breakup(system: SpinSystem, lat, f, p0: Pattern,
                      V=None) -> Atlas:
    """Build an atlas from a configuration: take the raw regions, localize
    the defect set to the components relevant to V, and flood each clean
    component with the unique pattern surrounding it."""
    if V is None:
        V = lat.interior
    reg = compute_regions(system, lat, f, p0)
    ctx = reg.ctx
    b = localized_defect(lat, reg, V)
    x_p = {p: set(reg.z_p[p] & b) for p in ctx.pats}
    comps = lat_mod.components(lat, lat.all_sites() - b)
    for comp in comps:
        ring = lat_mod.plus_r(lat, comp, 5) - comp
        cands = [p for p in ctx.pats
                 if ring <= reg.z_p[p] and not ring & reg.z_star]
        if comp & lat.halo:
            if ctx.p0 not in cands:
                raise errors.BoundaryNotInPattern(
                    "exterior component not surrounded by the reference "
                    "pattern")
            pa = ctx.p0
        elif len(cands) == 1:
            pa = cands[0]
        else:
            raise errors.ValidationError(
                f"component has {len(cands)} surrounding patterns")
        x_p[pa] |= comp
    xp_p = {}
    for p in ctx.pats:
        core = reg.t_p[p] - reg.s_p[p]
        widened = lat_mod.plus_(lat, core) \
            | lat_mod.n_t(lat, lat_mod.plus_(lat, core), lat.degree)
        xp_p[p] = frozenset(widened & b)
    return Atlas(ctx=ctx,
                 x_p={p: frozenset(s) for p, s in x_p.items()},
                 xp_p=xp_p, b=b)


# ---------------------------------------------------------------------------
# verification

def verify_breakup(system: SpinSystem, lat, f, p0: Pattern, atlas: Atlas,
                   V=None) -> dict:
    """Check the defining and derived properties of an atlas against the
    configuration.  Returns a report with per-property status and failure
    witnesses."""
    if V is None:
        V = lat.interior
    ctx = atlas.ctx
    report = {}

    def put(name, ok, witness=None):
        report[name] = {"holds": ok, "witness": witness}

    # exterior belongs to the reference chart
    bad = [v for v in lat.halo if v not in atlas.x_p[ctx.p0]]
    put("exterior_in_reference_chart", not bad, bad[:5])

    # charts are nested and regular
    bad = []
    for p in ctx.pats:
        if not atlas.xp_p[p] <= atlas.x_p[p]:
            bad.append(p)
    put("defect_inside_chart", not bad)
    bad = []
    for p in ctx.pats:
        # charts expand from their interior-side parity; their inner
        # boundary sits on the boundary-side parity
        base = 1 if ctx.aligned[p] else 0
        if not lat_mod.is_regular(lat, atlas.x_p[p], base):
            bad.append(("x", p))
        if not lat_mod.is_regular(lat, atlas.xp_p[p], base):
            bad.append(("x'", p))
    put("charts_regular", not bad, bad[:5])

    x_star = atlas.x_star()
    x5 = lat_mod.plus_r(lat, x_star, 5)

    # membership near the defect set determined by the local configuration
    bad_odd, bad_even = [], []
    for v in x5:
        for p in ctx.pats:
            if not ctx.p_even(p, v):
                lhs = v in atlas.x_p[p]
                rhs = ctx.neighborhood_in(v, ctx.bdry[p])
                if lhs != rhs:
                    bad_odd.append((v, p))
            else:
                lhs = v in atlas.xp_p[p]
                rhs = any(u in atlas.x_p[p] and not ctx.in_p_pattern(p, u)
                          for u in lat.neighbors[v])
                if lhs != rhs:
                    bad_even.append((v, p))
    put("interior_side_membership", not bad_odd, bad_odd[:5])
    put("boundary_side_membership", not bad_even, bad_even[:5])

    # derived consequences
    bad = []
    for v in x5:
        for p in ctx.pats:
            if ctx.p_even(p, v) and v in atlas.x_p[p]:
                if not ctx.bdry[p] >> ctx.f[v] & 1:
                    bad.append((v, p))
    put("chart_boundary_values", not bad, bad[:5])

    bad = []
    for v in x5:
        for p in ctx.pats:
            if not ctx.p_even(p, v) and v in atlas.x_p[p] \
                    and v not in atlas.xp_p[p]:
                if not ctx.int_[p] >> ctx.f[v] & 1:
                    bad.append((v, p))
    put("chart_interior_values", not bad, bad[:5])

    none, _, _ = _partition(lat, atlas.x_p, atlas.xp_p)
    bad = []
    for v in none:
        for p in ctx.pats:
            if not ctx.p_even(p, v) and ctx.neighborhood_in(v, ctx.bdry[p]):
                bad.append((v, p))
    put("uncharted_not_locally_ordered", not bad, bad[:5])

    bad = []
    for p in ctx.pats:
        for (u, v) in lat_mod.directed_edge_boundary(lat, atlas.x_p[p]):
            if not ctx.bdry[p] >> ctx.f[u] & 1 and ctx.p_even(p, u):
                bad.append((u, v, p, "side"))
            if not ctx.p_even(p, v) \
                    and ctx.neighborhood_in(v, ctx.bdry[p]):
                bad.append((u, v, p, "nbhd"))
    put("chart_edge_boundary", not bad, bad[:5])

    bad = []
    for p in ctx.pats:
        for u in atlas.xp_p[p]:
            if not ctx.p_even(p, u):
                continue
            if not ctx.bdry[p] >> ctx.f[u] & 1:
                bad.append((u, p, "value"))
            if ctx.neighborhood_in(u, ctx.int_[p]):
                bad.append((u, p, "nbhd"))
    put("defect_core_values", not bad, bad[:5])

    # the defect set is seen from V
    bad = []
    for comp in lat_mod.components(lat, x5):
        if comp & lat.halo:
            continue
        if not any(not lat_mod.connected_to_infinity(lat, comp, v)
                   for v in V):
            bad.append(sorted(comp)[:3])
    put("defect_seen_from_viewpoints", not bad, bad[:3])

    report["pass"] = all(r["holds"] for k, r in report.items()
                         if isinstance(r, dict))
    return report


# ---------------------------------------------------------------------------
# per-vertex diagnostics

def is_non_dominant(system: SpinSystem, mask) -> bool:
    """The neighborhood value set (a state bitmask) is not value-set-
    equivalent to any side of a dominant pattern."""
    # R maps each side of a maximal pattern to the other side, so the
    # closures of the dominant sides are the dominant sides themselves
    return patterns.r_closure(system, mask) not in \
        patterns.structure(system).dominant_sides


def _omega_matching(system, lat, f, omega, v):
    """Configurations in omega whose neighborhood value set at v is
    equivalent to that of f."""
    target = patterns.r_closure(system, _nv_mask(system, lat, f, v))
    out = []
    for g in omega:
        if patterns.r_closure(system, _nv_mask(system, lat, g, v)) == target:
            out.append(g)
    return out


def _nv_mask(system, lat, f, v):
    out = 0
    for u in lat.neighbors[v]:
        out |= 1 << f[u]
    if len(lat.neighbors[v]) < lat.degree:
        raise errors.TooLarge(
            "diagnostics need the full neighborhood stored")
    return out


def is_restricted(system: SpinSystem, lat, f, omega, v, u) -> bool:
    """Directed edge (v, u): the neighborhood of v pins down neither the
    full compatible value set at u nor at v, across the ensemble omega."""
    mask = _nv_mask(system, lat, f, v)
    if is_non_dominant(system, mask):
        return True
    d_mask = patterns.r_closure(system, mask)
    match = _omega_matching(system, lat, f, omega, v)
    a_mask = 0
    b_mask = 0
    for g in match:
        a_mask |= 1 << g[u]
        b_mask |= 1 << g[v]
    b_mask &= d_mask
    if d_mask != patterns.r_closure(system, a_mask):
        return True
    if patterns.r_closure(system, d_mask) != patterns.r_closure(system, b_mask):
        return True
    return False


def is_unbalanced(system: SpinSystem, lat, f, v, eps, eps_bar) -> bool:
    """Dominant neighborhood that is nearly constant on a strictly smaller
    value set."""
    mask = _nv_mask(system, lat, f, v)
    if is_non_dominant(system, mask):
        return False
    d2 = lat.degree
    r_mask = patterns.r_closure(system, mask)
    dom_sides = patterns.structure(system).dominant_sides
    counts = {}
    for u in lat.neighbors[v]:
        counts[f[u]] = counts.get(f[u], 0) + 1
    sub = mask
    while True:
        cnt = sum(c for s, c in counts.items() if sub >> s & 1)
        equiv = patterns.r_closure(system, sub) == r_mask
        if not equiv and cnt > d2 - 2 * eps_bar * d2:
            return True
        if sub in dom_sides and not equiv and cnt > d2 - 2 * eps * d2:
            return True
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return False


def is_highly_energetic(system: SpinSystem, lat, f, omega, v,
                        eps, eps_bar) -> bool:
    """Dominant, balanced, but no configuration in omega gives v a value in
    the common-neighbor set of its neighborhood values."""
    mask = _nv_mask(system, lat, f, v)
    if is_non_dominant(system, mask):
        return False
    if is_unbalanced(system, lat, f, v, eps, eps_bar):
        return False
    d_mask = patterns.r_closure(system, mask)
    match = _omega_matching(system, lat, f, omega, v)
    b_mask = 0
    for g in match:
        b_mask |= 1 << g[v]
    return b_mask & d_mask == 0


def unique_pattern(system: SpinSystem, lat, omega, v, eps, eps_bar) -> bool:
    """Some value set explains every configuration at v: each g in omega
    either matches it, is unbalanced at v, or has all its out-edges at v
    restricted."""
    for target in patterns.structure(system).r_sets:
        ok = True
        for g in omega:
            if patterns.r_closure(
                    system, _nv_mask(system, lat, g, v)) == target:
                continue
            if is_unbalanced(system, lat, g, v, eps, eps_bar):
                continue
            if all(is_restricted(system, lat, g, omega, v, u)
                   for u in lat.neighbors[v]):
                continue
            ok = False
            break
        if ok:
            return True
    return False


def classify(system: SpinSystem, lat, f, omega, v, u=None,
             eps: float = 0.125, eps_bar: float = 0.125) -> dict:
    """All per-vertex diagnostics at once; `restricted` requires a target
    neighbor u."""
    out = {
        "non_dominant": is_non_dominant(
            system, _nv_mask(system, lat, f, v)),
        "unbalanced": is_unbalanced(system, lat, f, v, eps, eps_bar),
        "highly_energetic": is_highly_energetic(
            system, lat, f, omega, v, eps, eps_bar),
        "unique_pattern": unique_pattern(system, lat, omega, v, eps, eps_bar),
    }
    if u is not None:
        out["restricted"] = is_restricted(system, lat, f, omega, v, u)
    return out


# ---------------------------------------------------------------------------
# restriction scenarios

def scenario_1(system, lat, f, omega, v, bdry_mask, int_mask) -> bool:
    """Neighborhood of v not equivalent to the interior side of p, yet every
    matching configuration keeps v on the boundary side."""
    mask = _nv_mask(system, lat, f, v)
    if patterns.r_closure(system, mask) == \
            patterns.r_closure(system, int_mask):
        return False
    match = _omega_matching(system, lat, f, omega, v)
    return bool(match) and all(bdry_mask >> g[v] & 1 for g in match)


def scenario_2(system, lat, f, omega, v, p: Pattern, q: Pattern,
               bdry_p, bdry_q) -> bool:
    """Two distinct equivalent charts both claim v on their boundary side."""
    if p == q:
        return False
    if patterns.find_equivalence(system, p, q, direct=True) is None:
        return False
    match = _omega_matching(system, lat, f, omega, v)
    both = bdry_p & bdry_q
    return bool(match) and all(both >> g[v] & 1 for g in match)


def scenario_3(system, lat, f, omega, v, u, bdry_mask) -> bool:
    """Neighborhood of v not equivalent to the boundary side, yet every
    matching configuration keeps the neighbor u on it."""
    mask = _nv_mask(system, lat, f, v)
    if patterns.r_closure(system, mask) == \
            patterns.r_closure(system, bdry_mask):
        return False
    match = _omega_matching(system, lat, f, omega, v)
    return bool(match) and all(bdry_mask >> g[u] & 1 for g in match)


def scenario_4(system, lat, f, omega, v, u, p: Pattern, q: Pattern,
               int_p, int_q, t_int) -> bool:
    """Neighborhood of v equivalent to an interior side, while two distinct
    equivalent charts both claim the neighbor u on their interior side."""
    if p == q:
        return False
    if patterns.find_equivalence(system, p, q, direct=True) is None:
        return False
    mask = _nv_mask(system, lat, f, v)
    if patterns.r_closure(system, mask) != \
            patterns.r_closure(system, t_int):
        return False
    match = _omega_matching(system, lat, f, omega, v)
    both = int_p & int_q
    return bool(match) and all(both >> g[u] & 1 for g in match)


def scenario_checks(system: SpinSystem, lat, f, omega, v, u,
                    p0: Pattern) -> dict:
    """Evaluate the four sufficient restriction conditions over all dominant
    charts; any firing scenario is asserted to imply the restriction."""
    ctx = BreakupContext(system, lat, f, p0)
    fired = {"scenario_1": False, "scenario_2": False,
             "scenario_3": False, "scenario_4": False}
    for p in ctx.pats:
        if scenario_1(system, lat, f, omega, v, ctx.bdry[p], ctx.int_[p]):
            fired["scenario_1"] = True
        if scenario_3(system, lat, f, omega, v, u, ctx.bdry[p]):
            fired["scenario_3"] = True
    for p, q in itertools.permutations(ctx.pats, 2):
        if scenario_2(system, lat, f, omega, v, p, q,
                      ctx.bdry[p], ctx.bdry[q]):
            fired["scenario_2"] = True
        for t in ctx.pats:
            if scenario_4(system, lat, f, omega, v, u, p, q,
                          ctx.int_[p], ctx.int_[q], ctx.int_[t]):
                fired["scenario_4"] = True
    if any(fired.values()):
        assert is_restricted(system, lat, f, omega, v, u)
    return fired
