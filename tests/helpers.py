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
