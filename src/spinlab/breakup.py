"""Breakup extraction: partitioning a configuration on a box or slab into
ordered regions labelled by dominant patterns, separated by a localized
defect set.

Conventions.  The reference pattern P0 = (A0, B0) has its first side on the
even sublattice.  A dominant ordered pattern P is "aligned" when it is
direct-equivalent to P0; aligned patterns put their first side on even
vertices, the others on odd vertices.  Sites outside the stored region are
assumed to follow the P0 pattern: their value is only known as a set (A0 on
even sites, B0 on odd sites), and set-membership tests for them succeed only
when guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors, lattice as lat_mod, patterns
from .patterns import Pattern
from .system import SpinSystem


# ---------------------------------------------------------------------------
# context

def _alignment(system: SpinSystem, p0: Pattern) -> dict:
    """Dominant pattern -> is it direct-equivalent to p0."""
    undirected, direct = patterns.dominant_classes(system)
    if len(undirected) > 1:
        raise errors.DominantPatternsNotEquivalent(
            "a dominant pattern is not equivalent to the reference")
    same = next(cls for cls in direct if p0 in cls)
    return {p: p in same for p in undirected[0]}


class BreakupContext:
    """The reference pattern, the dominant patterns and their sides, and
    whole-array views of the configuration.  Site masks (see lattice) that
    depend on the pattern are stacked, one row per pattern of ``pats``."""

    def __init__(self, system: SpinSystem, lat, f, p0: Pattern):
        self.system = system
        self.lat = lat
        dom = patterns.structure(system).dominant
        if p0 not in dom:
            raise errors.BoundaryNotInPattern(
                "reference pattern is not dominant")
        if p0.a.bit_count() > p0.b.bit_count():
            raise errors.BoundaryNotInPattern(
                "reference pattern must have its smaller side first")
        self.p0 = p0
        self.pats = list(dom)
        self.aligned = _alignment(system, p0)
        # bdry on even vertices for aligned patterns, on odd otherwise
        self.bdry = {p: (p.a if self.aligned[p] else p.b) for p in self.pats}
        self.int_ = {p: (p.b if self.aligned[p] else p.a) for p in self.pats}
        # the sentinel slot gets the value system.n, on no side, and the
        # parity 2, neither even nor odd
        self.state = np.append(np.asarray(f, dtype=np.intp), system.n)
        self.par = np.append(lat.par, 2)
        # sites that carry the boundary side of each pattern
        self.even = self.par == np.array(
            [[0 if self.aligned[p] else 1] for p in self.pats])

    def values_m(self, side: dict) -> np.ndarray:
        """Sites whose value is on the given side of each pattern."""
        return np.array([[side[p] >> s & 1 for s in range(self.system.n + 1)]
                         for p in self.pats], dtype=bool).take(self.state, -1)

    def pattern_m(self) -> np.ndarray:
        """Sites whose value is on their side of each pattern."""
        return np.where(self.even, self.values_m(self.bdry),
                        self.values_m(self.int_))

    def nbhd_in_m(self, side: dict) -> np.ndarray:
        """Sites all of whose ambient neighbors have values on the given
        side of each pattern.  An unstored neighbor, of the opposite
        parity, counts only when every value the reference pattern allows
        it is on that side."""
        lat = self.lat
        ok = self.values_m(side)
        ok[:, -1] = True
        virtual = np.array([[self.p0.b & ~side[p] == 0,
                             self.p0.a & ~side[p] == 0, False]
                            for p in self.pats]).take(self.par, axis=-1)
        full = (lat.adj < lat.n).all(axis=0)
        return ok.take(lat.adj, axis=-1).all(axis=1) & (full | virtual)


# ---------------------------------------------------------------------------
# regions

@dataclass
class Regions:
    """The raw regions, as stacked site masks in the order of ctx.pats."""
    ctx: BreakupContext
    z_p: np.ndarray
    zp_p: np.ndarray   # defect cores, expanded
    z_star: np.ndarray


def _partition(charts, defects):
    """(none, overlap, defect) masks: the sites in no chart, the sites in
    two charts, and the union of the charts' defect sets."""
    count = charts.sum(axis=0)
    return lat_mod.not_m(count > 0), count > 1, defects.any(axis=0)


def _star(lat, charts, defects):
    """The partition's three parts plus the closed boundary of every
    chart."""
    none, overlap, defect = _partition(charts, defects)
    return none | overlap | defect \
        | lat_mod.closed_boundary_m(lat, charts).any(axis=0)


def compute_regions(system: SpinSystem, lat, f, p0: Pattern) -> Regions:
    ctx = BreakupContext(system, lat, f, p0)
    t_p = ~ctx.even & ctx.nbhd_in_m(ctx.bdry)
    z_p = lat_mod.plus_m(lat, t_p)
    zp_p = lat_mod.plus_m(lat, t_p & ~ctx.pattern_m())
    return Regions(ctx=ctx, z_p=z_p, zp_p=zp_p, z_star=_star(lat, z_p, zp_p))


# ---------------------------------------------------------------------------
# atlas construction

@dataclass
class Atlas:
    """A breakup as site masks: the charts x and their defect sets xp,
    stacked one row per pattern of ctx.pats, and the localized defect
    region b."""
    ctx: BreakupContext
    x: np.ndarray
    xp: np.ndarray
    b: np.ndarray

    def x_star(self) -> np.ndarray:
        return _star(self.ctx.lat, self.x, self.xp)

    def site_stats(self) -> dict:
        """L = chart edge-boundary size (each stored edge counted as the +1
        step from its lower end), M = overlap/defect volume and N =
        uncharted volume, by site, recomputed from the stored charts."""
        lat, x = self.ctx.lat, self.x
        cut = (x[:, None, :] != x.take(lat.adj[1::2], axis=-1)) \
            & (lat.adj[1::2] < lat.n)
        none, overlap, defect = _partition(x, self.xp)
        return {"L": cut.any(axis=0).sum(axis=0), "M": overlap | defect,
                "N": none}

    def stats(self) -> dict:
        """The site_stats summed over the lattice."""
        return {k: int(v.sum()) for k, v in self.site_stats().items()}


def construct_breakup(system: SpinSystem, lat, f, p0: Pattern,
                      V=None) -> Atlas:
    """Build an atlas from a configuration: take the raw regions, localize
    the defect set to the components relevant to V, and flood each clean
    component with the unique pattern surrounding it.  No clean component
    meets the halo: a halo site's unstored neighbor is the sentinel, False
    in every mask, so the site is on its chart's inner boundary or in no
    chart, in z_star either way, and so in b, which keeps every component
    that touches the halo (copy by copy on a disjoint union)."""
    reg = compute_regions(system, lat, f, p0)
    V = lat_mod.mask(lat, lat.interior if V is None else V)
    b = lat_mod.separating_m(lat, lat_mod.plus_r_m(lat, reg.z_star, 5), V)
    x = reg.z_p & b
    for comp in lat_mod.components_m(lat, lat_mod.not_m(b)):
        ring = lat_mod.plus_r_m(lat, comp, 5) & ~comp
        cands = np.flatnonzero(~(ring & ~reg.z_p).any(axis=1)).tolist()
        if len(cands) != 1:
            raise errors.ValidationError(
                f"component has {len(cands)} surrounding patterns")
        x[cands[0]] |= comp
    xp = (reg.zp_p | lat_mod.n_t_m(lat, reg.zp_p, lat.degree)) & b
    return Atlas(ctx=reg.ctx, x=x, xp=xp, b=b)


# ---------------------------------------------------------------------------
# verification

def verify_breakup(system: SpinSystem, lat, f, p0: Pattern, atlas: Atlas,
                   V=None) -> dict:
    """Check the defining and derived properties of an atlas against the
    configuration.  Returns a report with per-property status and failure
    witnesses: the first five in site order (then neighbor slot, pattern
    and kind), or for the last property the first three sites of the
    first three components."""
    ctx = BreakupContext(system, lat, f, p0)
    pats = ctx.pats
    x, xp = atlas.x, atlas.xp
    V = lat_mod.mask(lat, lat.interior if V is None else V)
    report = {}

    def put(name, ok, witness=None):
        report[name] = {"holds": ok, "witness": witness}

    def put_sites(name, bad, *labels):
        """bad: patterns by sites, then one axis per further label; each
        witness is a site, its pattern and its further labels (no search
        when none fails)."""
        hits = np.argwhere(np.swapaxes(bad, 0, 1))[:5].tolist() \
            if bad.any() else []
        put(name, not hits, [(h[0], *(lab[i] for lab, i in
                                      zip((pats, *labels), h[1:])))
                             for h in hits])

    # exterior belongs to the reference chart
    bad = np.flatnonzero(lat_mod.halo_m(lat)
                         & ~x[pats.index(ctx.p0)])[:5].tolist()
    put("exterior_in_reference_chart", not bad, bad)

    # charts are nested and regular
    put("defect_inside_chart", not (xp & ~x).any())
    # charts expand from their interior-side parity; their inner boundary
    # sits on the boundary-side parity
    ok = lat_mod.is_regular_m(lat, np.stack([x, xp], axis=1),
                              [[int(ctx.aligned[p])] for p in pats])
    bad = [(("x", "x'")[j], pats[k]) for k, j in np.argwhere(~ok)[:5]]
    put("charts_regular", not bad, bad)

    x5 = lat_mod.plus_r_m(lat, _star(lat, x, xp), 5)
    even, odd = ctx.even, lat_mod.not_m(ctx.even)
    val_b = ctx.values_m(ctx.bdry)
    nb_b = ctx.nbhd_in_m(ctx.bdry)

    # membership near the defect set determined by the local configuration
    put_sites("interior_side_membership", x5 & odd & (x != nb_b))
    put_sites("boundary_side_membership", x5 & even & (
        xp != lat_mod.nbhd_m(lat, x & ~ctx.pattern_m())))

    # derived consequences
    put_sites("chart_boundary_values", x5 & even & x & ~val_b)
    put_sites("chart_interior_values",
              x5 & odd & x & ~xp & ~ctx.values_m(ctx.int_))
    put_sites("uncharted_not_locally_ordered",
              _partition(x, xp)[0] & odd & nb_b)

    # stored edges (u, v) leaving a chart, by pattern, slot and u
    leaves = x[:, None, :] & ~x.take(lat.adj, axis=-1) & (lat.adj < lat.n)
    bad = np.stack([leaves & (even & ~val_b)[:, None, :],
                    leaves & (odd & nb_b).take(lat.adj, axis=-1)], axis=-1)
    hits = np.argwhere(bad.transpose(2, 1, 0, 3))[:5].tolist() \
        if bad.any() else []
    put("chart_edge_boundary", not hits,
        [(u, int(lat.adj[j, u]), pats[k], ("side", "nbhd")[t])
         for u, j, k, t in hits])

    put_sites("defect_core_values", np.stack(
        [xp & even & ~val_b, xp & even & ctx.nbhd_in_m(ctx.int_)],
        axis=-1), ("value", "nbhd"))

    # the defect set is seen from V
    blind = x5 & ~lat_mod.separating_m(lat, x5, V)
    bad = [np.flatnonzero(c)[:3].tolist()
           for c in lat_mod.components_m(lat, blind)[:3]]
    put("defect_seen_from_viewpoints", not bad, bad)

    report["pass"] = all(r["holds"] for r in report.values())
    return report
