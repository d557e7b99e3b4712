"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library internals: the
partition-function oracle enumerates configurations directly from the
definition, and the generators build host graphs and systems from scratch.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from spinlab import catalog
from spinlab.system import WeightedGraph, config_weight, make_system


# systems whose weights are not all integers (activity or interaction
# denominators above 1), by test id
FRACTIONAL = {
    "hc-3/7": catalog.build("hard_core", lam="3/7"),
    "afi-2/3": catalog.build("af_ising_field", lam="2/3"),
    "wr-5/3": catalog.build("widom_rowlinson", lam="5/3"),
    "mixed": make_system(["0", "1", "2"], ["1", "3/2", "2/5"],
                         [["1", "1/2", "2/3"], ["1/2", "0", "1"],
                          ["2/3", "1", "1/3"]]),
}


def graph_z(system, graph):
    """Brute-force partition function over all configurations of a graph."""
    total = system.zero()
    for f in itertools.product(range(system.n), repeat=graph.n_vertices):
        total += config_weight(system, graph, f)
    return total


def torus_graph(dims) -> WeightedGraph:
    """Simple-graph view of a discrete torus (wrap edges deduplicated); odd
    sides are allowed, unlike on lattice tori."""
    coords = list(itertools.product(*[range(n) for n in dims]))
    index = {c: i for i, c in enumerate(coords)}
    edges = set()
    for c in coords:
        for axis, n in enumerate(dims):
            nb = list(c)
            nb[axis] = (nb[axis] + 1) % n
            u, v = index[c], index[tuple(nb)]
            edges.add((min(u, v), max(u, v)))
    return WeightedGraph(len(coords), sorted(edges))


def prism(graph: WeightedGraph) -> WeightedGraph:
    """Two layer copies of a graph joined by vertical rungs."""
    nv = graph.n_vertices
    edges = [(v, v + nv) for v in range(nv)]
    for (u, v) in graph.edges:
        edges.append((u, v))
        edges.append((u + nv, v + nv))
    return WeightedGraph(2 * nv, edges)


def random_graph(rng: random.Random, n_min=2, n_max=6) -> WeightedGraph:
    nv = rng.randint(n_min, n_max)
    edges = [(i, j) for i in range(nv) for j in range(i + 1, nv)
             if rng.random() < 0.5]
    return WeightedGraph(nv, edges)


def random_rational_system(rng: random.Random, n_min=2, n_max=4,
                           weights=(0, 1, 1, Fraction(1, 2))):
    n = rng.randint(n_min, n_max)
    acts = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n)]
    while True:
        inter = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                inter[i][j] = inter[j][i] = rng.choice(weights)
        if any(v != 0 for row in inter for v in row):
            return make_system([str(i) for i in range(n)], acts, inter)


def float_twins(system):
    """The float system of a system's weights, and the rational system of
    those floats' exact values."""
    acts = [float(a) for a in system.activities]
    inter = [[float(x) for x in row] for row in system.interactions]
    return (make_system(system.states, acts, inter, mode="float"),
            make_system(system.states, map(Fraction, acts),
                        [map(Fraction, row) for row in inter]))


def random_proper_coloring(lat, rng: random.Random, boundary_region):
    """Random proper 3-coloring of a box, halo and internal boundary pinned
    to the (even: {0}, odd: {1,2}) pattern sides; restarts on dead ends."""
    while True:
        f = [None] * lat.n
        ok = True
        for v in sorted(lat.halo):
            f[v] = 0 if lat.parity(v) == 0 else rng.choice([1, 2])
        for v in sorted(lat.interior):
            if v in boundary_region:
                pool = [0] if lat.parity(v) == 0 else [1, 2]
            else:
                pool = [0, 1, 2]
            used = {f[u] for u in lat.neighbors[v] if f[u] is not None}
            pool = [s for s in pool if s not in used]
            if not pool:
                ok = False
                break
            f[v] = rng.choice(pool)
        if ok:
            return f


def random_independent_config(lat, rng: random.Random, boundary_region):
    """Random occupied/empty configuration of a box with no two adjacent
    occupied sites; halo and even internal boundary pinned to empty."""
    f = [None] * lat.n
    for v in sorted(lat.halo):
        f[v] = 0 if lat.parity(v) == 0 else rng.choice([0, 1])
    for v in sorted(lat.interior):
        blocked = any(f[u] == 1 for u in lat.neighbors[v] if f[u] is not None)
        if blocked or (v in boundary_region and lat.parity(v) == 0):
            f[v] = 0
        else:
            f[v] = rng.choice([0, 1])
    return f


def ordered_config(lat, even_state=0, odd_states=(1, 2)):
    """Fully ordered configuration: even sites constant, odd sites
    alternating by column so no vertex sees a single-colored neighborhood."""
    f = [None] * lat.n
    for v in range(lat.n):
        r, c = lat.coords[v]
        if lat.parity(v) == 0:
            f[v] = even_state
        else:
            f[v] = odd_states[c % len(odd_states)]
    return f


def alt2_reference(system, d, C=1.0, c=1.0):
    """check_condition(system, d, "alt2") evaluated literally: one full
    compute_parameters(system, d, s) report per candidate window length s,
    with the same window rules."""
    from spinlab import parameters as pm
    rep = pm.compute_parameters(system, d=d)
    n = system.n
    logd = math.log(d)
    thr = C * (rep.frak_q + logd) * math.sqrt(logd) / d ** 0.25
    rho_int = float(rep.rho_int)
    rho_hat_act = float(rep.rho_hat_act)
    s_lo = 0.0 if rho_int == 0 else \
        2.0 * math.log(d * rho_hat_act) / pm.neg_log(rho_int)
    s_cap = math.ceil(2 * d / n)
    first = max(1, math.ceil(s_lo))
    best = None
    for cand in range(first, first + min(s_cap, 10 ** 4)):
        if cand > s_cap and best is not None:
            break
        a2 = pm.compute_parameters(system, d=d, s=cand).alpha2
        window_hi = min(s_cap,
                        1.0 + a2 * d / (2.0 * n * math.log(2 * d * rho_hat_act))
                        if a2 > 0 and 2 * d * rho_hat_act > 1 else 1.0)
        window = [
            pm._ge("s_window_low", cand, s_lo),
            pm.Inequality("s_window_high", cand, window_hi,
                          holds=cand <= window_hi),
            pm._ge("alpha2", a2, thr),
        ]
        if all(iq.holds for iq in window):
            best = (cand, window)
            break
        if best is None:
            best = (cand, window)
    s_used, ineqs = best
    return pm.ConditionReport(condition="alt2", d=d, C=C, c=c, s=s_used,
                              inequalities=ineqs,
                              passes=all(iq.holds for iq in ineqs))


def product_count_reference(coords, xi):
    """Number of assignments with content xi where coordinate j takes a value
    allowed by the bitmask coords[j], by a DP over the coordinates one at a
    time."""
    items = sorted(xi.items())
    states = [s for s, _ in items]
    memo = {}

    def rec(j, remaining):
        if j == len(coords):
            return 1 if all(c == 0 for c in remaining) else 0
        key = (j, remaining)
        if key in memo:
            return memo[key]
        total = 0
        for k, s in enumerate(states):
            if remaining[k] > 0 and coords[j] >> s & 1:
                nxt = list(remaining)
                nxt[k] -= 1
                total += rec(j + 1, tuple(nxt))
        memo[key] = total
        return total

    return rec(0, tuple(c for _, c in items))


def build_tables_reference(system, d, class_masks):
    """Cumulative heat-bath laws, one neighbor key at a time: for each class
    and each key (2d slot values in base |S|+1, value |S| a free slot),
    activity times the slot interactions from the least significant slot
    up, zeroed outside the class mask, then summed cumulatively."""
    n = system.n
    base = n + 1
    n_keys = base ** (2 * d)
    acts = np.array([float(a) for a in system.activities])
    inter = np.ones((n, base))
    for s in range(n):
        for t in range(n):
            inter[s, t] = float(system.interactions[s][t])
    tables = np.zeros((len(class_masks), n_keys, n))
    for ci, mask in enumerate(class_masks):
        sel = np.array([1.0 if mask >> s & 1 else 0.0 for s in range(n)])
        for key in range(n_keys):
            k = key
            wgt = acts * sel
            for _ in range(2 * d):
                wgt = wgt * inter[:, k % base]
                k //= base
            tables[ci, key] = np.cumsum(wgt)
    return tables


# ---------------------------------------------------------------------------
# lattices and breakups, as the loops and frozenset operations built them
# before the neighbor table and the site masks

def lattice_reference(periodic, dims):
    """coords, index, neighbors, interior, halo and parities of a lattice
    that wraps along the axes flagged in periodic, with its halo across the
    other axes, from one loop over the sites each."""
    interior = list(itertools.product(*[range(n) for n in dims]))
    halo = []
    seen = set()
    for c in interior:
        for axis in range(len(dims)):
            for delta in (-1, 1):
                h = list(c)
                h[axis] += delta
                h = tuple(h)
                if not periodic[axis] and h not in seen \
                        and not all(0 <= x < n for x, n in zip(h, dims)):
                    seen.add(h)
                    halo.append(h)
    coords = interior + halo
    index = {c: i for i, c in enumerate(coords)}
    neighbors = []
    for c in coords:
        cur = []
        for axis in range(len(dims)):
            for delta in (-1, 1):
                h = list(c)
                if periodic[axis]:
                    h[axis] = (h[axis] + delta) % dims[axis]
                else:
                    h[axis] += delta
                j = index.get(tuple(h))
                if j is not None:
                    cur.append(j)
        neighbors.append(tuple(cur))
    return {"coords": coords, "index": index, "neighbors": neighbors,
            "interior": frozenset(range(len(interior))),
            "halo": frozenset(range(len(interior), len(coords))),
            "parity": [sum(c) % 2 for c in coords]}


def ref_plus(lat, U):
    out = set(U)
    for v in U:
        out.update(lat.neighbors[v])
    return frozenset(out)


def ref_plus_r(lat, U, r):
    U = frozenset(U)
    for _ in range(r):
        U = ref_plus(lat, U)
    return U


def ref_closed_boundary(lat, U):
    U = frozenset(U)
    inner = {v for v in U if len(lat.neighbors[v]) < lat.degree
             or any(w not in U for w in lat.neighbors[v])}
    return frozenset(inner) | (ref_plus(lat, U) - U)


def ref_n_t(lat, U, t):
    return frozenset(v for v in range(lat.n)
                     if sum(1 for w in lat.neighbors[v] if w in U) >= t)


def ref_is_regular(lat, U, base_parity=0):
    U = frozenset(U)
    core = frozenset(v for v in U if lat.parity(v) == base_parity)
    if U != ref_plus(lat, core):
        return False
    comp = lat.all_sites() - U
    for v in comp:
        nb = lat.neighbors[v]
        if lat.parity(v) != base_parity or len(nb) < lat.degree:
            continue
        if not any(w in comp and lat.parity(w) != base_parity for w in nb):
            return False
    return True


def ref_components(lat, U):
    U = set(U)
    out = []
    while U:
        start = min(U)
        U.remove(start)
        comp, stack = {start}, [start]
        while stack:
            for w in lat.neighbors[stack.pop()]:
                if w in U:
                    U.remove(w)
                    comp.add(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def ref_connected_to_infinity(lat, blocked, v):
    if v in blocked:
        return False
    seen, stack = {v}, [v]
    while stack:
        u = stack.pop()
        if u in lat.halo:
            return True
        for w in lat.neighbors[u]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return False


def ref_separating_components(lat, B, V):
    keep = set()
    for comp in ref_components(lat, B):
        if comp & lat.halo or any(
                not ref_connected_to_infinity(lat, comp, v) for v in V):
            keep |= comp
    return frozenset(keep)


class RefBreakup:
    """The breakup of a configuration: context, regions, atlas, L/M/N and
    the verification report, one site and one pattern at a time."""

    def __init__(self, system, lat, f, p0):
        from spinlab import patterns
        self.system, self.lat, self.f, self.p0 = system, lat, f, p0
        self.pats = list(patterns.structure(system).dominant)
        self.aligned = {p: patterns.find_equivalence(
            system, p0, p, direct=True) is not None for p in self.pats}
        self.bdry = {p: (p.a if self.aligned[p] else p.b) for p in self.pats}
        self.int_ = {p: (p.b if self.aligned[p] else p.a) for p in self.pats}

    def p_even(self, p, v):
        return (self.lat.parity(v) == 0) == self.aligned[p]

    def in_p_pattern(self, p, v):
        side = self.bdry[p] if self.p_even(p, v) else self.int_[p]
        return side >> self.f[v] & 1 == 1

    def neighborhood_in(self, v, mask):
        lat = self.lat
        if any(not mask >> self.f[u] & 1 for u in lat.neighbors[v]):
            return False
        if len(lat.neighbors[v]) == lat.degree:
            return True
        virtual = self.p0.a if lat.parity(v) == 1 else self.p0.b
        return virtual & ~mask == 0

    def partition(self, charts, defects):
        none = self.lat.all_sites().difference(*charts.values())
        overlap = set()
        for x, y in itertools.combinations(charts.values(), 2):
            overlap |= x & y
        return none, overlap, frozenset().union(*defects.values())

    def star(self, charts, defects):
        none, overlap, defect = self.partition(charts, defects)
        return none.union(overlap, defect, *(
            ref_closed_boundary(self.lat, x) for x in charts.values()))

    def construct(self, V=None):
        """(x_p, xp_p, b); raises as construct_breakup does."""
        from spinlab import errors
        lat = self.lat
        V = lat.interior if V is None else V
        s_p, t_p, z_p = {}, {}, {}
        zp_p = {}
        for p in self.pats:
            s_p[p] = frozenset(v for v in range(lat.n)
                               if self.in_p_pattern(p, v))
            t_p[p] = frozenset(v for v in range(lat.n)
                               if not self.p_even(p, v)
                               and self.neighborhood_in(v, self.bdry[p]))
            z_p[p] = ref_plus(lat, t_p[p])
            zp_p[p] = ref_plus(lat, t_p[p] - s_p[p])
        z_star = self.star(z_p, zp_p)
        b = ref_separating_components(lat, ref_plus_r(lat, z_star, 5), V)
        x_p = {p: set(z_p[p] & b) for p in self.pats}
        for comp in ref_components(lat, lat.all_sites() - b):
            ring = ref_plus_r(lat, comp, 5) - comp
            cands = [p for p in self.pats
                     if ring <= z_p[p] and not ring & z_star]
            if comp & lat.halo:
                if self.p0 not in cands:
                    raise errors.BoundaryNotInPattern("exterior")
                x_p[self.p0] |= comp
            elif len(cands) == 1:
                x_p[cands[0]] |= comp
            else:
                raise errors.ValidationError(f"{len(cands)} patterns")
        xp_p = {}
        for p in self.pats:
            grown = ref_plus(lat, t_p[p] - s_p[p])
            xp_p[p] = frozenset((grown | ref_n_t(lat, grown, lat.degree))
                                & b)
        return {p: frozenset(s) for p, s in x_p.items()}, xp_p, b

    def stats(self, x_p, xp_p):
        edges = set()
        for p in self.pats:
            for u in x_p[p]:
                for v in self.lat.neighbors[u]:
                    if v not in x_p[p]:
                        edges.add((min(u, v), max(u, v)))
        none, overlap, defect = self.partition(x_p, xp_p)
        return {"L": len(edges), "M": len(overlap | defect), "N": len(none)}

    def verify_holds(self, x_p, xp_p, V=None):
        """Property -> holds, for every property verify_breakup checks."""
        lat, pats = self.lat, self.pats
        V = lat.interior if V is None else V
        out = {"exterior_in_reference_chart": lat.halo <= x_p[self.p0],
               "defect_inside_chart": all(xp_p[p] <= x_p[p] for p in pats),
               "charts_regular": all(
                   ref_is_regular(lat, s[p], 1 if self.aligned[p] else 0)
                   for p in pats for s in (x_p, xp_p))}
        x5 = ref_plus_r(lat, self.star(x_p, xp_p), 5)
        nb_b = {p: {v: self.neighborhood_in(v, self.bdry[p])
                    for v in range(lat.n)} for p in pats}
        odd_ok = even_ok = bval = ival = True
        for v in x5:
            for p in pats:
                if not self.p_even(p, v):
                    odd_ok &= (v in x_p[p]) == nb_b[p][v]
                    if v in x_p[p] and v not in xp_p[p]:
                        ival &= bool(self.int_[p] >> self.f[v] & 1)
                else:
                    even_ok &= (v in xp_p[p]) == any(
                        u in x_p[p] and not self.in_p_pattern(p, u)
                        for u in lat.neighbors[v])
                    if v in x_p[p]:
                        bval &= bool(self.bdry[p] >> self.f[v] & 1)
        out.update(interior_side_membership=odd_ok,
                   boundary_side_membership=even_ok,
                   chart_boundary_values=bval, chart_interior_values=ival)
        none = self.partition(x_p, xp_p)[0]
        out["uncharted_not_locally_ordered"] = not any(
            not self.p_even(p, v) and nb_b[p][v] for v in none for p in pats)
        out["chart_edge_boundary"] = not any(
            (self.p_even(p, u) and not self.bdry[p] >> self.f[u] & 1)
            or (not self.p_even(p, v) and nb_b[p][v])
            for p in pats for u in x_p[p] for v in lat.neighbors[u]
            if v not in x_p[p])
        out["defect_core_values"] = not any(
            self.p_even(p, u) and (not self.bdry[p] >> self.f[u] & 1
                                   or self.neighborhood_in(u, self.int_[p]))
            for p in pats for u in xp_p[p])
        out["defect_seen_from_viewpoints"] = all(
            comp & lat.halo or any(
                not ref_connected_to_infinity(lat, comp, v) for v in V)
            for comp in ref_components(lat, x5))
        out["pass"] = all(out.values())
        return out


class RefScenarios:
    """The four restriction scenarios of a system and reference pattern,
    one chart, chart pair and interior side at a time, with a fresh search
    of the neighborhood closure and of omega's matching configurations in
    every predicate.  Direct equivalence is searched once per ordered pair
    of patterns."""

    def __init__(self, system, p0):
        from spinlab import patterns
        self.system, self.p0 = system, p0
        self.pats = list(patterns.structure(system).dominant)
        self.equiv = {(p, q): patterns.find_equivalence(
            system, p, q, direct=True) is not None
            for p in self.pats for q in self.pats}
        aligned = {p: self.equiv[p0, p] for p in self.pats}
        self.bdry = {p: (p.a if aligned[p] else p.b) for p in self.pats}
        self.int_ = {p: (p.b if aligned[p] else p.a) for p in self.pats}

    def r(self, mask):
        from spinlab import patterns
        return patterns.r_closure(self.system, mask)

    def closure_at(self, lat, f, v):
        return self.r(sum({1 << f[u] for u in lat.neighbors[v]}))

    def match(self, lat, f, omega, v):
        target = self.closure_at(lat, f, v)
        return [g for g in omega if self.closure_at(lat, g, v) == target]

    def scenario_1(self, lat, f, omega, v, bdry_mask, int_mask):
        if self.closure_at(lat, f, v) == self.r(int_mask):
            return False
        match = self.match(lat, f, omega, v)
        return bool(match) and all(bdry_mask >> g[v] & 1 for g in match)

    def scenario_2(self, lat, f, omega, v, p, q):
        if p == q or not self.equiv[p, q]:
            return False
        match = self.match(lat, f, omega, v)
        both = self.bdry[p] & self.bdry[q]
        return bool(match) and all(both >> g[v] & 1 for g in match)

    def scenario_3(self, lat, f, omega, v, u, bdry_mask):
        if self.closure_at(lat, f, v) == self.r(bdry_mask):
            return False
        match = self.match(lat, f, omega, v)
        return bool(match) and all(bdry_mask >> g[u] & 1 for g in match)

    def scenario_4(self, lat, f, omega, v, u, p, q, t_int):
        if p == q or not self.equiv[p, q]:
            return False
        if self.closure_at(lat, f, v) != self.r(t_int):
            return False
        match = self.match(lat, f, omega, v)
        both = self.int_[p] & self.int_[q]
        return bool(match) and all(both >> g[u] & 1 for g in match)

    def fired(self, lat, f, omega, v, u):
        out = dict.fromkeys(("scenario_1", "scenario_2", "scenario_3",
                             "scenario_4"), False)
        for p in self.pats:
            out["scenario_1"] |= self.scenario_1(
                lat, f, omega, v, self.bdry[p], self.int_[p])
            out["scenario_3"] |= self.scenario_3(
                lat, f, omega, v, u, self.bdry[p])
        for p, q in itertools.permutations(self.pats, 2):
            out["scenario_2"] |= self.scenario_2(lat, f, omega, v, p, q)
            for t in self.pats:
                out["scenario_4"] |= self.scenario_4(
                    lat, f, omega, v, u, p, q, self.int_[t])
        return out
