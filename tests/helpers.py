"""Shared oracles, lemma checks and generators for the test suite.

The partition-function oracle enumerates configurations directly from the
definition, and the generators build host graphs and systems from scratch.
The heat-bath kernels' row-by-row references, the brute-force K_{2d,2d}
sums, the closed-form parameter tables, the checks of the paper's lemmas
(odd sets, the closed-form inequality report, the per-vertex diagnostics and
the restriction scenarios) and the box and torus builders live here too:
tests are their only callers, so the library keeps only what a subcommand
runs.
"""

import bisect
import dataclasses
import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from spinlab import catalog, errors, gibbs, patterns
from spinlab.breakup import Atlas, BreakupContext
from spinlab.catalog import INF, _pos
from spinlab.kbipartite import PsiSpec
from spinlab.lattice import (Lattice, components, components_m, halo_m,
                             inner_m, labels_m, make_lattice, mask, not_m,
                             plus_m, sites)
from spinlab.parameters import (Inequality, _ge, check_condition,
                                compute_parameters, neg_log)
from spinlab.patterns import Pattern
from spinlab.system import SpinSystem, make_system


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


# ---------------------------------------------------------------------------
# errors that only the oracles and checks below raise

class DomainMismatch(errors.ValidationError):
    pass


class NotACover(errors.ValidationError):
    """The projection map is not a local bijection on some neighborhood."""


class NotLiftPermitting(errors.ValidationError):
    """Some 4-walk in the cover violates the endpoint-distinctness rule."""


class NotTabulated(errors.ValidationError):
    pass


class WrappingSet(errors.ValidationError):
    pass


# ---------------------------------------------------------------------------
# host graphs and configuration weights

@dataclass
class WeightedGraph:
    """Simple undirected host graph; vertices are 0..n-1."""
    n_vertices: int
    edges: list  # list of (u, v) pairs
    parity: Optional[list] = None  # optional proper 2-coloring, values 0/1

    def __post_init__(self):
        for (u, v) in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise errors.SchemaError(f"edge {(u, v)} out of range")
        if self.parity is not None:
            if len(self.parity) != self.n_vertices:
                raise errors.SchemaError("parity labeling has wrong length")
            for (u, v) in self.edges:
                if self.parity[u] == self.parity[v]:
                    raise errors.SchemaError(
                        f"parity labeling is not a proper 2-coloring at edge {(u, v)}")


def config_weight(system: SpinSystem, graph: WeightedGraph, f: Sequence[int]):
    """prod_v lam[f(v)] * prod_{uv} lam[f(u)][f(v)]; exact in rational mode."""
    if len(f) != graph.n_vertices:
        raise DomainMismatch(
            f"configuration has {len(f)} values for {graph.n_vertices} vertices")
    w = system.one()
    for v in range(graph.n_vertices):
        w *= system.activities[f[v]]
    for (u, v) in graph.edges:
        w *= system.interactions[f[u]][f[v]]
    return w


def check_lift_permitting(system: SpinSystem, cover_states, cover_edges, phi) -> bool:
    """Check that an explicit finite cover graph permits lifting.

    (a) phi must restrict to a bijection from each cover neighborhood onto the
        neighborhood of the image (else NotACover);
    (b) every 4-step walk v0..v4 in the cover with v0 != v4 must have
        phi(v0) != phi(v4) (else NotLiftPermitting).

    The base graph has an edge {i,j} (possibly a self-loop) whenever
    lam[i][j] > 0.
    """
    m = len(cover_states)
    if sorted(set(phi)) != list(range(system.n)):
        raise NotACover("phi is not onto the base states")
    if len(phi) != m:
        raise NotACover("phi length mismatch")
    cover_nbrs = [set() for _ in range(m)]
    for (u, v) in cover_edges:
        cover_nbrs[u].add(v)
        cover_nbrs[v].add(u)
    base_nbrs = [set() for _ in range(system.n)]
    for i in range(system.n):
        for j in range(system.n):
            if system.interactions[i][j] > 0:
                base_nbrs[i].add(j)
    for v in range(m):
        images = [phi[u] for u in cover_nbrs[v]]
        if len(set(images)) != len(images) or set(images) != base_nbrs[phi[v]]:
            raise NotACover(
                f"phi is not a bijection from N({cover_states[v]}) onto the "
                f"base neighborhood")
    for v0 in range(m):
        for v1 in cover_nbrs[v0]:
            for v2 in cover_nbrs[v1]:
                for v3 in cover_nbrs[v2]:
                    for v4 in cover_nbrs[v3]:
                        if v4 != v0 and phi[v4] == phi[v0]:
                            raise NotLiftPermitting(
                                f"4-walk {v0}->{v1}->{v2}->{v3}->{v4} has "
                                f"distinct endpoints with equal images")
    return True


# ---------------------------------------------------------------------------
# generators and references

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
            used = {f[u] for u in neighbor_lists(lat)[v] if f[u] is not None}
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
        blocked = any(f[u] == 1 for u in neighbor_lists(lat)[v]
                      if f[u] is not None)
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


def alt2_reference(system, d, C=1.0):
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
    return pm.ConditionReport(condition="alt2", d=d, C=C, s=s_used,
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


# one whole table per system, d and classes: the d = 4 slab's takes about
# 2 s to build one key at a time, and four kernel cases read it
@functools.cache
def _cached_tables(system, d, class_masks):
    return build_tables_reference(system, d, list(class_masks))


def _reference_chains(system, lat, pattern):
    """The whole tables of the interior's classes (allowed masks), each
    interior site's class and neighbor slots (a neighbor outside the
    interior is the free value |S|, held by every site past the interior
    and by the sentinel lat.n) and the pattern tiling."""
    m = len(lat.interior)
    class_masks, cls = np.unique(gibbs.pattern_masks(system, lat, pattern)[:m],
                                 return_inverse=True)
    tables = _cached_tables(system, lat.d, tuple(class_masks.tolist()))
    slots = np.where(lat.nbr[:m] < m, lat.nbr[:m], lat.n)
    init = np.append(gibbs.initial_pattern_config(system, lat, pattern),
                     system.n)
    init[m:] = system.n
    return tables, cls, slots, init


def raster_reference(system, lat, pattern, rng, site, n_sweeps, chains):
    """The raster heat-bath kernel over whole tables, one neighbor slot at
    a time: each update walks its class's nested table slot by slot and
    bisects the row at u times the row's total.  The library's kernel must
    reproduce its traces and final configurations exactly."""
    tables, cls, slots, init = _reference_chains(system, lat, pattern)
    (m, deg), n = slots.shape, system.n
    nested = [t.reshape((n + 1,) * deg + (n,)).tolist() for t in tables]
    plan = [(v, nested[c], tuple(nb)) for v, (c, nb) in
            enumerate(zip(cls.tolist(), slots.tolist()))]
    pick = bisect.bisect_left
    chunk = max(1, 4096 // m)  # sweeps per block of uniforms
    traces, configs = [], []
    for _ in range(chains):
        cfg = init.tolist()
        trace = []
        for lo in range(0, n_sweeps, chunk):
            cur = min(chunk, n_sweeps - lo)
            uniforms = iter(rng.random(cur * m).tolist())
            for _ in range(cur):
                for (v, row, nb), u in zip(plan, uniforms):
                    for x in nb:
                        row = row[cfg[x]]
                    cfg[v] = pick(row, u * row[-1])
                trace.append(cfg[site])
        traces.append(trace)
        configs.append(cfg[:-1])
    return np.array(traces, dtype=np.int64).reshape(chains, n_sweeps), \
        configs


def checkerboard_reference(system, lat, pattern, rng, site, n_sweeps,
                           chains):
    """The checkerboard heat-bath kernel by whole table rows: each
    half-sweep gathers the (sites, chains, |S|) rows of its keys and counts
    the entries below u times each row's total.  The library's kernel must
    reproduce its traces and final configurations exactly."""
    tables, cls, slots, init = _reference_chains(system, lat, pattern)
    n = system.n
    base = n + 1
    n_keys = tables.shape[1]
    flat = tables.reshape(-1, n)
    cfg = np.repeat(init.astype(np.int64)[:, None], chains,
                    axis=1)  # [site][chain]
    halves = [(sites, slots[sites].T, cls[sites, None] * n_keys)
              for sites in (np.flatnonzero(lat.par[:len(slots)] == p)
                            for p in (0, 1)) if len(sites)]
    # the first slot is the most significant digit of the key
    powers = [base ** j for j in range(slots.shape[1] - 1, -1, -1)]
    trace = np.zeros((chains, n_sweeps), dtype=np.int64)
    for sweep in range(n_sweeps):
        for sites, slot_rows, offset in halves:
            key = offset
            for sl, w in zip(slot_rows, powers):
                key = key + cfg[sl] * w
            rows = flat[key]
            u = rng.random(key.shape) * rows[..., -1]
            cfg[sites] = (rows < u[..., None]).sum(-1)
        trace[:, sweep] = cfg[site]
    return trace, [c[:-1] for c in cfg.T.tolist()]


# ---------------------------------------------------------------------------
# K_{2d,2d} sums by brute force

def z_bruteforce(system: SpinSystem, d: int, psis, I_mask: int):
    """Direct evaluation over an explicit list of assignments."""
    if 2 * d > 6 or system.n > 5:
        raise errors.TooLarge(f"brute force guard: 2d={2*d}, |S|={system.n}")
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


def expand_spec(system: SpinSystem, d: int, spec: PsiSpec, limit=10 ** 6):
    """Explicit list of assignments described by a spec (test oracle use),
    each tested against the class definitions assignment by assignment."""
    if system.n ** (2 * d) > limit:
        raise errors.TooLarge("explicit expansion too large")
    return [psi for psi in itertools.product(range(system.n), repeat=2 * d)
            if (spec.coords is None
                or all(m >> v & 1 for m, v in zip(spec.coords, psi)))
            and (spec.J is None or (
                in_class(system, d, spec, spec.cls, psi)
                and not (spec.cls2 is not None
                         and in_class(system, d, spec, spec.cls2, psi))))]


def in_class(system: SpinSystem, d: int, spec: PsiSpec, cls: str, psi):
    """psi lies in the class cls over the side spec.J: full (the R-closure
    of its value set is R(J)), near_dominant (full, and more than
    2d - 4 eps d of its values lie in one dominant side strictly inside J),
    near_subset (full, and more than 2d - 4 eps_bar d of its values lie in
    one subset of J whose R-closure is not R(J)) or balanced (full and
    neither)."""
    rJ = patterns.r_closure(system, spec.J)
    if patterns.r_closure(system, sum({1 << v for v in psi})) != rJ:
        return False
    subsets = [a for a in range(spec.J + 1) if a & ~spec.J == 0]
    near_dominant = any(
        sum(a >> v & 1 for v in psi) > 2 * d - 4 * spec.eps * d
        for a in subsets if a != spec.J
        and a in patterns.structure(system).dominant_sides) \
        if spec.eps is not None else False
    near_subset = any(
        sum(a >> v & 1 for v in psi) > 2 * d - 4 * spec.eps_bar * d
        for a in subsets if patterns.r_closure(system, a) != rJ) \
        if spec.eps_bar is not None else False
    return {"full": True, "near_dominant": near_dominant,
            "near_subset": near_subset,
            "balanced": not (near_dominant or near_subset)}[cls]


# ---------------------------------------------------------------------------
# closed-form pattern parameters of the catalog models

@dataclass
class CatalogEntry:
    name: str
    params: dict = field(default_factory=dict)

    def build(self) -> SpinSystem:
        return catalog.build(self.name, **self.params)

    def expected(self) -> dict:
        return expected_parameters(self.name, **self.params)


def gsum(lam, a):
    """Sum of the first a powers of lam (exact; equals a at lam=1)."""
    return sum((lam ** i for i in range(a)), Fraction(0))


def _ratio(num, den):
    """num/den with den=0 mapped to +inf (a vanishing rho parameter)."""
    if den == 0:
        return INF
    return Fraction(num, den) if not isinstance(num, float) else num / den


def expected_parameters(name, **params) -> dict:
    """Closed forms for omega_dom, 1/rho_bulk, 1/rho_bdry (exact rationals;
    math.inf marks a vanishing rho)."""
    if name == "af_potts":
        q = int(params["q"])
        if q < 3:
            raise NotTabulated("af_potts tabulated for q >= 3")
        lo, hi = q // 2, (q + 1) // 2
        omega = Fraction(lo * hi)
        if lo == 1:
            inv_bulk = INF
        else:
            inv_bulk = (1 + Fraction(1, lo - 1)) * (1 - Fraction(1, hi + 1))
        inv_bdry = 1 + Fraction(1, hi - 1)
        return {"omega_dom": omega, "inv_rho_bulk": inv_bulk, "inv_rho_bdry": inv_bdry}

    if name == "beach":
        lam = _pos(params["lam"], "lam")
        if lam == 1:
            raise NotTabulated("beach regimes split at lam=1")
        if lam > 1:
            omega = (1 + lam) ** 2
            inv_bulk = min(Fraction((1 + lam) ** 2, 4),
                           Fraction((1 + lam) ** 2, 2 + lam))
            inv_bdry = 1 + lam
        else:
            omega = Fraction(4)
            inv_bulk = min(Fraction(4, 2 + lam), Fraction(4, (1 + lam) ** 2))
            inv_bdry = Fraction(2)
        return {"omega_dom": omega, "inv_rho_bulk": inv_bulk, "inv_rho_bdry": inv_bdry}

    if name == "clock":
        q, m = int(params["q"]), int(params["m"])
        if not (1 <= m and 4 * m < q):
            raise errors.ParamOutOfRange("clock requires 1 <= m < q/4")
        return {"omega_dom": Fraction((m + 1) ** 2),
                "inv_rho_bulk": 1 + Fraction(1, m * (m + 2)),
                "inv_rho_bdry": 1 + Fraction(1, m)}

    if name == "hard_core":
        lam = _pos(params["lam"], "lam")
        return {"omega_dom": 1 + lam,
                "inv_rho_bulk": INF,
                "inv_rho_bdry": 1 + lam}

    if name == "widom_rowlinson":
        lam = _pos(params["lam"], "lam")
        return {"omega_dom": (1 + lam) ** 2,
                "inv_rho_bulk": 1 + Fraction(lam ** 2, 1 + 2 * lam),
                "inv_rho_bdry": 1 + lam}

    if name == "multi_occupancy_hc_v2":
        q = int(params["q"])
        lam = _pos(params["lam"], "lam")
        lo, hi = q // 2, (q + 1) // 2
        omega = gsum(lam, lo + 1) * gsum(lam, hi + 1)
        inv_bulk = _ratio(gsum(lam, lo + 1) * gsum(lam, hi + 1),
                          gsum(lam, lo) * gsum(lam, hi + 2))
        inv_bdry = _ratio(gsum(lam, hi + 1), gsum(lam, hi))
        return {"omega_dom": omega, "inv_rho_bulk": inv_bulk, "inv_rho_bdry": inv_bdry}

    if name == "multi_wr":
        q = int(params["q"])
        lam = _pos(params["lam"], "lam")
        if lam == q - 2:
            raise NotTabulated("multi_wr regimes split at lam=q-2")
        if lam < q - 2:
            omega = 1 + q * lam
            return {"omega_dom": omega,
                    "inv_rho_bulk": Fraction(omega, (1 + lam) ** 2),
                    "inv_rho_bdry": Fraction(omega, 1 + lam)}
        return {"omega_dom": (1 + lam) ** 2,
                "inv_rho_bulk": Fraction((1 + lam) ** 2, 1 + q * lam),
                "inv_rho_bdry": 1 + lam}

    if name == "anti_wr":
        q = int(params["q"])
        lam = _pos(params["lam"], "lam")
        lo, hi = q // 2, (q + 1) // 2
        omega = (1 + lam * lo) * (1 + lam * hi)
        return {"omega_dom": omega,
                "inv_rho_bulk": Fraction(omega,
                                         (1 + lam * (lo - 1)) * (1 + lam * (hi + 1))),
                "inv_rho_bdry": Fraction(1 + lam * hi, 1 + lam * (hi - 1))}

    if name == "multi_beach":
        q = int(params["q"])
        lam = _pos(params["lam"], "lam")
        if lam == q - 1:
            raise NotTabulated("multi_beach regimes split at lam=q-1")
        if lam > q - 1:
            return {"omega_dom": (1 + lam) ** 2,
                    "inv_rho_bulk": Fraction((1 + lam) ** 2,
                                             max(Fraction(q * q), q + lam)),
                    "inv_rho_bdry": 1 + lam}
        return {"omega_dom": Fraction(q * q),
                "inv_rho_bulk": Fraction(q * q,
                                         max((1 + lam) ** 2, q + lam)),
                "inv_rho_bdry": Fraction(q)}

    raise NotTabulated(name)


# ---------------------------------------------------------------------------
# closed-form inequality report for the composition-function reduction

def section_defaults(system, d):
    """Default (alpha, gamma, eps, eps_bar, s) used by the closed-form
    inequality check and the abstract-condition verifier.

    For weighted systems both gamma variants are reported: `gamma` uses
    rho_act and `gamma_hat` uses rho_hat_act; the two appear in different
    places of the source derivation and the discrepancy is surfaced, not
    resolved.
    """
    rep = compute_parameters(system, d=d)
    rho_int = float(rep.rho_int)
    logd = math.log(d)
    if rho_int == 0:
        alpha = rep.alpha3 if rep.alpha3 is not None else rep.alpha1
        eps = min(alpha / (64.0 * logd), 0.125) if alpha > 0 else 1.0 / (4 * d)
        eps = max(eps, 1.0 / (4 * d))
        return {"alpha": alpha, "gamma": 0.0, "gamma_hat": 0.0,
                "eps": eps, "eps_bar": 1.0 / (4 * d), "s": 1}
    cond = check_condition(system, d, "alt2")
    s = cond.s if cond.s is not None else 1
    alpha = compute_parameters(system, d=d, s=s).alpha2
    eps = min(alpha / (64.0 * logd), 0.125) if alpha > 0 else 1.0 / (4 * d)
    eps = max(eps, 1.0 / (4 * d))
    eps_bar = max(s / (4.0 * d),
                  alpha * eps / neg_log(rho_int) if alpha > 0 else 0.0)
    eps_bar = max(eps_bar, 1.0 / (4 * d))
    gamma = float(rep.rho_act) * rho_int ** s
    gamma_hat = float(rep.rho_hat_act) * rho_int ** s
    return {"alpha": alpha, "gamma": gamma, "gamma_hat": gamma_hat,
            "eps": eps, "eps_bar": eps_bar, "s": s}


def check_closed_form_bounds(system, d, alpha=None, gamma=None, eps=None,
                             eps_bar=None, c=1.0) -> dict:
    """Arithmetic check of the closed-form inequalities that reduce the
    explicit conditions to the abstract one: the alpha budget, the epsilon
    chain, and the two boundary-entropy bounds."""
    rep = compute_parameters(system, d=d)
    defaults = section_defaults(system, d)
    if alpha is None:
        alpha = defaults["alpha"]
    if gamma is None:
        gamma = defaults["gamma"]
    if eps is None:
        eps = defaults["eps"]
    if eps_bar is None:
        eps_bar = defaults["eps_bar"]
    fq = rep.frak_q
    rho_int = float(rep.rho_int)
    rho_bdry = float(rep.rho_pat_bdry)
    logd = math.log(d)
    hom = rho_int == 0

    budget = ((fq + logd) * math.sqrt(logd) / d ** 0.25
              + (fq + logd) * logd / (eps * eps * d)
              + gamma * d
              + math.sqrt(gamma * (fq + logd) * d ** 1.5 * logd))
    ineqs = [
        _ge("alpha_budget", c * alpha, budget),
        _ge("eps_chain_low", eps_bar, 1.0 / (4 * d)),
        _ge("eps_chain_mid", eps, eps_bar),
        _ge("eps_chain_high", 0.125, eps),
    ]

    def powz(base, expo):
        if base == 0.0:
            return 0.0 if expo > 0 else 1.0
        return base ** expo

    lhs1 = 2.0 ** (fq + 1) * (math.e / (2 * eps)) ** (4 * eps * d) \
        * powz(rho_bdry, 2 * d - 4 * eps * d)
    ineqs.append(Inequality("bdry_entropy", lhs1, 0.25 * math.exp(-alpha * d),
                            holds=lhs1 <= 0.25 * math.exp(-alpha * d)))
    if hom:
        ineqs.append(Inequality("bdry_entropy_weighted", 0.0, 0.0,
                                holds=True, vacuous=True))
    else:
        n_max = rep.n_maximal
        lhs2 = n_max * (math.e / (2 * eps_bar)) ** (4 * eps_bar * d) \
            * powz(rho_bdry, 2 * d - 4 * eps_bar * d)
        ineqs.append(Inequality("bdry_entropy_weighted", lhs2,
                                0.25 * math.exp(-alpha * d),
                                holds=lhs2 <= 0.25 * math.exp(-alpha * d)))
    return {
        "d": d, "alpha": alpha, "gamma": gamma,
        "gamma_hat": defaults["gamma_hat"], "eps": eps, "eps_bar": eps_bar,
        "c": c, "s": defaults["s"],
        "inequalities": [iq.to_dict() for iq in ineqs],
        "pass": all(iq.holds for iq in ineqs),
    }


# ---------------------------------------------------------------------------
# lattices: builders, neighbor lists and the odd-set lemma checks

def make_box(dims) -> Lattice:
    return make_lattice(dims, [False] * len(dims))


def make_torus(dims) -> Lattice:
    return make_lattice(dims, [True] * len(dims))


def neighbor_lists(lat):
    """The stored neighbors of every site, in slot order (a periodic side
    of 2 lists its one neighbor in both slots); built once per lattice."""
    if not hasattr(lat, "_neighbor_lists"):
        lat._neighbor_lists = [tuple(w for w in row if w != lat.n)
                               for row in lat.nbr.tolist()]
    return lat._neighbor_lists


def lattice_dist(lat, u, v) -> int:
    """Graph distance between two sites, wrapping along periodic axes."""
    return sum(min(abs(x - y), n - abs(x - y)) if p else abs(x - y)
               for x, y, n, p in zip(lat.coords[u], lat.coords[v],
                                     lat.dims, lat.periodic))


def edge_boundary_size(lat: Lattice, U) -> int:
    """Number of ambient edges leaving U (halo deficits included)."""
    m = mask(lat, U)
    return int((~m[lat.adj[:, m]]).sum())


def directed_edge_boundary(lat: Lattice, U):
    """Stored pairs (u, v) with u in U, v adjacent and outside U, in the
    order of u and then of the neighbor slot."""
    m = mask(lat, U)
    u, j = np.nonzero((m & ~m[lat.adj] & (lat.adj < lat.n)).T)
    return list(zip(u.tolist(), lat.adj[j, u].tolist()))


def is_odd_set(lat: Lattice, U) -> bool:
    inner = inner_m(lat, mask(lat, U))[:-1]
    return not (inner & (lat.par == 0)).any()


def odd_set_identity(lat: Lattice, U):
    """Returns (|edge boundary| / 2d, |Odd cap U| - |Even cap U|)."""
    U = frozenset(U)
    xyz = np.array(lat.coords)
    for comp in components_m(lat, mask(lat, U)):
        for axis in np.flatnonzero(lat.periodic):
            # a loop around a periodic axis crosses the edge after every
            # coordinate; a component that does so is taken to wrap
            step = comp[:-1] & comp[lat.adj[2 * axis + 1, :-1]]
            if np.unique(xyz[step, axis]).size == lat.dims[axis]:
                raise WrappingSet(
                    "identity only checked for non-wrapping sets")
    return (edge_boundary_size(lat, U) / lat.degree,
            int((2 * lat.par[sorted(U)] - 1).sum()))


def co_connected_closure(lat: Lattice, U, v) -> frozenset:
    """Complement of the connected component of the complement of U that
    contains v; all stored vertices if v is in U.  The exterior is one
    vertex adjacent to every halo site."""
    free = not_m(mask(lat, U))
    if not free[v]:
        return frozenset(range(lat.n))
    lab = labels_m(lat, free)
    outside = lab[free & halo_m(lat)]
    return sites(not_m(np.isin(lab, outside if lab[v] in outside
                               else lab[v])))


def diam_star(lat: Lattice, U) -> int:
    """Sum of component diameters plus twice the component count."""
    return sum(2 + max(lattice_dist(lat, a, b) for a in comp for b in comp)
               for comp in components(lat, U))


def internal_boundary(lat: Lattice) -> frozenset:
    """The interior sites next to the halo, which a pattern boundary
    condition confines to their parity's side."""
    return sites(inner_m(lat, mask(lat, lat.interior)))


def pattern_side(pattern: Pattern, lat: Lattice, v) -> int:
    """The side of a pattern that a site of v's parity takes."""
    return pattern.a if lat.parity(v) == 0 else pattern.b


def random_odd_set(lat: Lattice, rng, density=0.3) -> frozenset:
    """Expansion of a random even-parity subset of the deep interior; such a
    set is always odd and contained in the interior."""
    inside = mask(lat, lat.interior)
    deep = inside & inside[lat.adj].all(axis=0)
    even = np.flatnonzero(deep[:-1] & (lat.par == 0)).tolist()
    return sites(plus_m(lat, mask(
        lat, [v for v in even if rng.random() < density])))


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
            "interior": range(len(interior)),
            "halo": range(len(interior), len(coords)),
            "parity": [sum(c) % 2 for c in coords]}


def ref_plus(lat, U):
    out = set(U)
    for v in U:
        out.update(neighbor_lists(lat)[v])
    return frozenset(out)


def ref_plus_r(lat, U, r):
    U = frozenset(U)
    for _ in range(r):
        U = ref_plus(lat, U)
    return U


def ref_closed_boundary(lat, U):
    U = frozenset(U)
    inner = {v for v in U if len(neighbor_lists(lat)[v]) < lat.degree
             or any(w not in U for w in neighbor_lists(lat)[v])}
    return frozenset(inner) | (ref_plus(lat, U) - U)


def ref_n_t(lat, U, t):
    return frozenset(v for v in range(lat.n)
                     if sum(1 for w in neighbor_lists(lat)[v] if w in U) >= t)


def n_t_m(lat, m, t: int) -> np.ndarray:
    """Stored vertices with at least t neighbors in m, from a mask or a
    stack of masks (the breakup takes t = degree as a bitwise pass)."""
    out = m.take(lat.adj, axis=-1).sum(axis=-2) >= t
    out[..., -1] = False
    return out


def ref_is_regular(lat, U, base_parity=0):
    U = frozenset(U)
    core = frozenset(v for v in U if lat.parity(v) == base_parity)
    if U != ref_plus(lat, core):
        return False
    comp = frozenset(range(lat.n)) - U
    for v in comp:
        nb = neighbor_lists(lat)[v]
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
            for w in neighbor_lists(lat)[stack.pop()]:
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
        for w in neighbor_lists(lat)[u]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return False


def ref_separating_components(lat, B, V):
    keep = set()
    for comp in ref_components(lat, B):
        if not comp.isdisjoint(lat.halo) or any(
                not ref_connected_to_infinity(lat, comp, v) for v in V):
            keep |= comp
    return frozenset(keep)


def charts(atlas: Atlas) -> tuple:
    """An atlas's charts and defect sets as the dicts pattern -> frozenset
    of sites that RefBreakup builds."""
    return tuple({p: sites(m) for p, m in zip(atlas.ctx.pats,
                                              atlas.ctx.unpack(rows))}
                 for rows in (atlas.x, atlas.xp))


def with_charts(atlas: Atlas, x_p: dict, xp_p: dict) -> Atlas:
    """The atlas with its charts and defect sets replaced by x_p and xp_p,
    dicts pattern -> sites."""
    ctx = atlas.ctx
    return dataclasses.replace(
        atlas, x=ctx.pack([mask(ctx.lat, x_p[p]) for p in ctx.pats]),
        xp=ctx.pack([mask(ctx.lat, xp_p[p]) for p in ctx.pats]))


def copy_atlases(atlas: Atlas, lat, copy, f) -> list:
    """An atlas built on a disjoint union of copies of lat, with the copy
    of each union site (see lattice.disjoint_union) and the union's
    configuration f, as one (configuration, atlas on lat) per copy."""
    union = atlas.ctx.lat
    out = []
    for j in range(max(copy) + 1):
        where = np.append(np.flatnonzero(copy == j), union.n)
        fj = np.asarray(f)[where[:-1]].tolist()
        ctx = BreakupContext(atlas.ctx.system, lat, fj, atlas.ctx.p0)
        out.append((fj, Atlas(ctx=ctx, x=atlas.x[:, where],
                              xp=atlas.xp[:, where], b=atlas.b[where])))
    return out


class RefBreakup:
    """The breakup of a configuration: context, regions, atlas, L/M/N and
    the verification report, one site and one pattern at a time."""

    def __init__(self, system, lat, f, p0):
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
        if any(not mask >> self.f[u] & 1 for u in neighbor_lists(lat)[v]):
            return False
        if len(neighbor_lists(lat)[v]) == lat.degree:
            return True
        virtual = self.p0.a if lat.parity(v) == 1 else self.p0.b
        return virtual & ~mask == 0

    def partition(self, charts, defects):
        none = frozenset(range(self.lat.n)).difference(*charts.values())
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
        for comp in ref_components(lat, frozenset(range(lat.n)) - b):
            ring = ref_plus_r(lat, comp, 5) - comp
            cands = [p for p in self.pats
                     if ring <= z_p[p] and not ring & z_star]
            if not comp.isdisjoint(lat.halo):
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
                for v in neighbor_lists(self.lat)[u]:
                    if v not in x_p[p]:
                        edges.add((min(u, v), max(u, v)))
        none, overlap, defect = self.partition(x_p, xp_p)
        return {"L": len(edges), "M": len(overlap | defect), "N": len(none)}

    def verify_holds(self, x_p, xp_p, V=None):
        """Property -> holds, for every property verify_breakup checks."""
        lat, pats = self.lat, self.pats
        V = lat.interior if V is None else V
        out = {"exterior_in_reference_chart": x_p[self.p0].issuperset(
                   lat.halo),
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
                        for u in neighbor_lists(lat)[v])
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
            for p in pats for u in x_p[p] for v in neighbor_lists(lat)[u]
            if v not in x_p[p])
        out["defect_core_values"] = not any(
            self.p_even(p, u) and (not self.bdry[p] >> self.f[u] & 1
                                   or self.neighborhood_in(u, self.int_[p]))
            for p in pats for u in xp_p[p])
        out["defect_seen_from_viewpoints"] = all(
            not comp.isdisjoint(lat.halo) or any(
                not ref_connected_to_infinity(lat, comp, v) for v in V)
            for comp in ref_components(lat, x5))
        out["pass"] = all(out.values())
        return out

    def verify_witnesses(self, x_p, xp_p, V=None):
        """Property -> witness, as verify_breakup reports it: the first five
        failures in site order, then neighbor slot, pattern and kind (for
        defect_seen_from_viewpoints the first three sites of the first
        three blind components), found one site and pattern at a time."""
        lat, pats, n = self.lat, self.pats, self.lat.n
        V = lat.interior if V is None else V
        x5 = ref_plus_r(lat, self.star(x_p, xp_p), 5)
        none = self.partition(x_p, xp_p)[0]

        def first(hits):
            return list(itertools.islice(hits, 5))

        def on(side, v):
            return bool(side >> self.f[v] & 1)

        def nb(p, v):
            return self.neighborhood_in(v, self.bdry[p])

        def odd_hits(keep):
            return first((v, p) for v in range(n) for p in pats
                         if not self.p_even(p, v) and keep(p, v))

        def even_hits(keep):
            return first((v, p) for v in range(n) for p in pats
                         if self.p_even(p, v) and keep(p, v))

        return {
            "exterior_in_reference_chart": first(
                v for v in lat.halo if v not in x_p[self.p0]),
            "defect_inside_chart": None,
            "charts_regular": first(
                (kind, p) for p in pats
                for kind, s in (("x", x_p), ("x'", xp_p))
                if not ref_is_regular(lat, s[p], 1 if self.aligned[p] else 0)),
            "interior_side_membership": odd_hits(
                lambda p, v: v in x5 and (v in x_p[p]) != nb(p, v)),
            "boundary_side_membership": even_hits(
                lambda p, v: v in x5 and (v in xp_p[p]) != any(
                    u in x_p[p] and not self.in_p_pattern(p, u)
                    for u in neighbor_lists(lat)[v])),
            "chart_boundary_values": even_hits(
                lambda p, v: v in x5 and v in x_p[p]
                and not on(self.bdry[p], v)),
            "chart_interior_values": odd_hits(
                lambda p, v: v in x5 and v in x_p[p] and v not in xp_p[p]
                and not on(self.int_[p], v)),
            "uncharted_not_locally_ordered": odd_hits(
                lambda p, v: v in none and nb(p, v)),
            "chart_edge_boundary": first(
                (u, v, p, kind) for u in range(n)
                for v in lat.nbr[u].tolist() if v != n
                for p in pats if u in x_p[p] and v not in x_p[p]
                for kind, bad in (
                    ("side", self.p_even(p, u) and not on(self.bdry[p], u)),
                    ("nbhd", not self.p_even(p, v) and nb(p, v)))
                if bad),
            "defect_core_values": first(
                (u, p, kind) for u in range(n) for p in pats
                if u in xp_p[p] and self.p_even(p, u)
                for kind, bad in (
                    ("value", not on(self.bdry[p], u)),
                    ("nbhd", self.neighborhood_in(u, self.int_[p])))
                if bad),
            "defect_seen_from_viewpoints": [
                sorted(c)[:3] for c in ref_components(lat, x5)
                if c.isdisjoint(lat.halo)
                and all(ref_connected_to_infinity(lat, c, v) for v in V)][:3],
        }


class RefScenarios:
    """The four restriction scenarios of a system and reference pattern,
    one chart, chart pair and interior side at a time, with a fresh search
    of the neighborhood closure and of omega's matching configurations in
    every predicate.  Direct equivalence is searched once per ordered pair
    of patterns."""

    def __init__(self, system, p0):
        self.system, self.p0 = system, p0
        self.pats = list(patterns.structure(system).dominant)
        self.equiv = {(p, q): patterns.find_equivalence(
            system, p, q, direct=True) is not None
            for p in self.pats for q in self.pats}
        aligned = {p: self.equiv[p0, p] for p in self.pats}
        self.bdry = {p: (p.a if aligned[p] else p.b) for p in self.pats}
        self.int_ = {p: (p.b if aligned[p] else p.a) for p in self.pats}

    def r(self, mask):
        return patterns.r_closure(self.system, mask)

    def closure_at(self, lat, f, v):
        return self.r(sum({1 << f[u] for u in neighbor_lists(lat)[v]}))

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


# ---------------------------------------------------------------------------
# per-vertex diagnostics and restriction scenarios

def is_non_dominant(system: SpinSystem, mask) -> bool:
    """The neighborhood value set (a state bitmask) is not value-set-
    equivalent to any side of a dominant pattern."""
    # R maps each side of a maximal pattern to the other side, so the
    # closures of the dominant sides are the dominant sides themselves
    return patterns.r_closure(system, mask) not in \
        patterns.structure(system).dominant_sides


def _omega_matching(system, lat, omega, v, target):
    """Configurations in omega whose neighborhood value set at v has the
    closure target."""
    return [g for g in omega
            if patterns.r_closure(system, _nv_mask(system, lat, g, v))
            == target]


def _nv_mask(system, lat, f, v):
    """The values f puts on the neighbors of v, as a state bitmask; every
    ambient neighbor of v must be stored."""
    nbrs = lat.nbr[v].tolist()
    if lat.n in nbrs:
        raise errors.SchemaError(
            f"site {v} has a neighbor outside the stored region")
    out = 0
    for u in nbrs:
        out |= 1 << f[u]
    return out


def is_restricted(system: SpinSystem, lat, f, omega, v, u) -> bool:
    """Directed edge (v, u): the neighborhood of v pins down neither the
    full compatible value set at u nor at v, across the ensemble omega."""
    mask = _nv_mask(system, lat, f, v)
    if is_non_dominant(system, mask):
        return True
    d_mask = patterns.r_closure(system, mask)
    match = _omega_matching(system, lat, omega, v, d_mask)
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
    for u in neighbor_lists(lat)[v]:
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
    match = _omega_matching(system, lat, omega, v, d_mask)
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
                   for u in neighbor_lists(lat)[v]):
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


def scenario_checks(system: SpinSystem, lat, f, omega, v, u,
                    p0: Pattern) -> dict:
    """Evaluate the four sufficient conditions for the directed edge (v, u)
    to be restricted, over all dominant charts p.  With D the closure of
    the neighborhood values of v, and omega's matching configurations (those
    whose closure at v is D too) nonempty and all:

    1. keeping v on bdry(p), while D is not the closure of int(p);
    2. keeping v on bdry(p) and bdry(q), for distinct direct-equivalent
       p and q;
    3. keeping u on bdry(p), while D is not the closure of bdry(p);
    4. keeping u on int(p) and int(q), for distinct direct-equivalent p
       and q, while D is the closure of some interior side.

    A firing scenario that does not imply the restriction raises."""
    ctx = BreakupContext(system, lat, f, p0)
    d_mask = patterns.r_closure(system, _nv_mask(system, lat, f, v))
    match = _omega_matching(system, lat, omega, v, d_mask)
    at_v = at_u = 0
    for g in match:
        at_v |= 1 << g[v]
        at_u |= 1 << g[u]
    pairs = [pq for cls in patterns.dominant_classes(system)[1]
             for pq in itertools.combinations(cls, 2)]
    bdry, int_ = ctx.bdry, ctx.int_

    def r(mask):
        return patterns.r_closure(system, mask)

    def kept(values, side):
        """The matching configurations exist and keep their values on the
        side."""
        return bool(match) and values & ~side == 0

    fired = {
        "scenario_1": any(d_mask != r(int_[p]) and kept(at_v, bdry[p])
                          for p in ctx.pats),
        "scenario_2": any(kept(at_v, bdry[p] & bdry[q]) for p, q in pairs),
        "scenario_3": any(d_mask != r(bdry[p]) and kept(at_u, bdry[p])
                          for p in ctx.pats),
        "scenario_4": any(d_mask == r(int_[t]) for t in ctx.pats)
        and any(kept(at_u, int_[p] & int_[q]) for p, q in pairs),
    }
    if any(fired.values()) and not is_restricted(system, lat, f, omega, v, u):
        raise AssertionError(
            f"restriction scenarios {fired} fired on an unrestricted edge "
            f"({v}, {u})")
    return fired
