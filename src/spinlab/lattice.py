"""Finite pieces of Z^{d1} x T^{d2}: boxes, discrete tori and slabs that are
periodic along some axes and open along the others, with the
boundary/closure operations used by the breakup machinery.

A lattice stores its interior sites, then a one-site halo across the open
axes (sites with exactly one coordinate out of range by one, on an open
axis), as indices 0 .. n - 1: one (n, d) array holds their coordinates,
and Lattice.site finds the site at a coordinate.  Vertices outside the
stored region are treated as present in the ambient lattice: boundary and
degree computations account for them, and a virtual "infinity" vertex
adjacent to every halo site stands in for the unbounded exterior
component.  An exterior exists iff some axis is open; operations that
mention infinity raise on a lattice without one.

A lattice is a 2d-regular quotient of Z^d: every site has 2d neighbour
slots.  Along a periodic side of 2 both steps reach the same site, which
then fills both slots, so that edge counts twice; the heat-bath sampler
and the breakup read the slots this way.  gibbs.z_torus instead counts a
torus as a simple graph, with that pair as one edge.

Set operations work on site masks: boolean arrays of length n + 1 whose
last slot, the sentinel that ``nbr`` holds for a missing ambient neighbor,
is always False.  The ``*_m`` functions take and return masks; plus_r,
components, separating_components and connected_to_infinity take any
iterable of sites, return frozensets (or a bool), and convert at the
boundary.

disjoint_union lays k copies of a lattice out as one lattice whose copies
share no edge, so that every mask operation (and the breakup) runs on k
configurations at once; breakup-scan builds a block of samples' breakups
this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import errors

# stored sites (interior and halo) of one lattice, the sampler's own bound
# (gibbs.MAX_TRACE) for one chain; building a 2D box peaks at about 140
# bytes a site (500x500 to 1000x1000), and its arrays keep about 57
MAX_SITES = 10 ** 7


@dataclass
class Lattice:
    dims: tuple
    periodic: tuple           # per axis: True where the axis wraps
    # (n, d) coordinates by site, and sites by coordinate on a grid padded
    # by two along each open axis (n where no site is; read it by site())
    coords: np.ndarray = field(default=None, compare=False, repr=False)
    grid: np.ndarray = field(default=None, compare=False, repr=False)
    interior: range = range(0)   # sites 0 .. m - 1
    halo: range = range(0)       # sites m .. n - 1
    # (n, 2d) neighbor table, axis by axis, -1 step before +1; the sentinel
    # n marks an ambient neighbor that is not stored
    nbr: np.ndarray = field(default=None, compare=False, repr=False)
    # the same table by neighbor slot, (2d, n + 1), with a column of
    # sentinels for the sentinel itself; nbr is a view of it
    adj: np.ndarray = field(default=None, compare=False, repr=False)
    par: np.ndarray = field(default=None, compare=False, repr=False)

    @property
    def kind(self) -> str:
        """"box" (no periodic axis), "slab" (some) or "torus" (all)."""
        return ("box", "slab", "torus")[any(self.periodic)
                                        + all(self.periodic)]

    @property
    def has_exterior(self) -> bool:
        """Whether some axis is open."""
        return not all(self.periodic)

    @property
    def d(self):
        return len(self.dims)

    @property
    def n(self):
        return len(self.coords)

    @property
    def degree(self):
        return 2 * self.d

    def parity(self, v) -> int:
        return int(self.par[v])

    def site(self, coord):
        """The stored site at a coordinate tuple, or None.  Bounds come
        first, since numpy would wrap a negative index."""
        pos = tuple(x + 2 * (not p) for x, p in zip(coord, self.periodic))
        if len(coord) != self.d or not all(
                0 <= x < s for x, s in zip(pos, self.grid.shape)):
            return None
        v = int(self.grid[pos])
        return v if v < self.n else None


def make_lattice(dims, periodic) -> Lattice:
    """Interior sites in lexicographic order, then each halo site in the
    order of its interior neighbor, axis and step.  The halo lies across
    the open axes; a periodic axis wraps, and its side must be even so that
    parity 2-colors the graph.  More than MAX_SITES stored sites are
    refused before any table is built.  Neighbors are looked up on the grid
    of site indices, padded by two along each open axis so that every
    stored site's steps stay on it; steps along a periodic axis wrap."""
    dims, periodic = check_shape(dims, periodic)
    d, wrap = len(dims), np.array(periodic, dtype=bool)
    inner = np.indices(dims).reshape(d, -1).T
    rank = np.arange(len(inner))
    halo, keys = [inner[:0]], [rank[:0]]
    for axis in np.flatnonzero(~wrap):
        for k, (delta, edge) in enumerate(((-1, 0), (1, dims[axis] - 1))):
            sel = inner[:, axis] == edge
            h = inner[sel]
            h[:, axis] += delta
            halo.append(h)
            keys.append(rank[sel] * 2 * d + 2 * axis + k)
    halo = np.concatenate(halo)[np.argsort(np.concatenate(keys))]
    coords = np.concatenate([inner, halo])
    n, m = len(coords), len(inner)
    pos = coords + 2 * ~wrap
    grid = np.full(np.array(dims) + 4 * ~wrap, n, dtype=np.intp)
    grid[tuple(pos.T)] = np.arange(n)
    adj = np.full((2 * d, n + 1), n, dtype=np.intp)
    for axis in range(d):
        for k, delta in enumerate((-1, 1)):
            step = pos.copy()
            step[:, axis] += delta
            if wrap[axis]:
                step[:, axis] %= dims[axis]
            adj[2 * axis + k, :n] = grid[tuple(step.T)]
    return Lattice(dims=dims, periodic=periodic, coords=coords, grid=grid,
                   interior=range(m), halo=range(m, n), nbr=adj[:, :n].T,
                   adj=adj, par=(coords.sum(axis=1) % 2).astype(np.int8))


def disjoint_union(lat: Lattice, k: int) -> tuple:
    """k copies of lat as one lattice, and the copy of each of its sites.
    Every copy's interior comes first, then every copy's halo, so that the
    halo stays one range; each copy keeps its sites' order, and the copies
    share one sentinel.  The union keeps lat's dims and periodic flags (so
    its d, degree and exterior are lat's) but has no grid: site() is
    lat's alone."""
    n, m = lat.n, len(lat.interior)
    copy = np.concatenate([np.repeat(np.arange(k), m),
                           np.repeat(np.arange(k), n - m), [0]])
    orig = np.concatenate([np.tile(np.arange(m), k),
                           np.tile(np.arange(m, n), k), [n]])
    # each (copy, site)'s union site; every copy's sentinel is the union's
    place = np.full((k, n + 1), k * n, dtype=np.intp)
    place[copy[:-1], orig[:-1]] = np.arange(k * n)
    # C-ordered, as make_lattice's: the mask operations reduce across the
    # slots, which an F-ordered table made several times slower
    adj = place.take(copy * (n + 1) + lat.adj.take(orig, 1))
    union = Lattice(dims=lat.dims, periodic=lat.periodic,
                    coords=lat.coords[orig[:-1]], interior=range(k * m),
                    halo=range(k * m, k * n), nbr=adj[:, :-1].T, adj=adj,
                    par=lat.par[orig[:-1]])
    return union, copy[:-1]


def check_shape(dims, periodic) -> tuple:
    """The sides and periodic flags as tuples, refused as make_lattice
    refuses them: an odd periodic side, or more than MAX_SITES stored
    sites."""
    dims, periodic = tuple(dims), tuple(map(bool, periodic))
    if len(periodic) != len(dims):
        raise errors.SchemaError("one periodic flag per axis")
    if any(p and (n < 2 or n % 2) for n, p in zip(dims, periodic)):
        raise errors.ParamOutOfRange(
            "periodic sides must be even (parity must 2-color the graph)")
    if stored_sites(dims, periodic) > MAX_SITES:
        raise errors.TooLarge(f"more than {MAX_SITES} stored sites")
    return dims, periodic


def stored_sites(dims, periodic) -> int:
    """The interior and halo sites of a lattice of this shape."""
    return math.prod(dims) + sum(2 * math.prod(dims[:a] + dims[a + 1:])
                                 for a, p in enumerate(periodic) if not p)


def parse_lattice(spec: str) -> Lattice:
    """"box:4x4+halo", "torus:4x4x4" or "box:12x12x4p+halo": a "p" after a
    box side makes that axis periodic, and every torus axis is."""
    return make_lattice(*parse_shape(spec))


def parse_shape(spec: str) -> tuple:
    """The sides and periodic flags of a lattice spec (see parse_lattice),
    refused as parse_lattice refuses them, without building the lattice."""
    try:
        kind, rest = spec.split(":", 1)
    except ValueError:
        raise errors.SchemaError(f"bad lattice spec {spec!r}")
    halo = rest.endswith("+halo")
    sides = rest.removesuffix("+halo").split("x")
    periodic = [kind == "torus" or x.endswith("p") for x in sides]
    try:
        dims = tuple(int(x[:-1] if x.endswith("p") else x) for x in sides)
    except ValueError:
        raise errors.SchemaError(f"bad lattice dims in {spec!r}")
    if any(n < 1 for n in dims):
        raise errors.SchemaError(f"bad lattice dims in {spec!r}")
    if kind not in ("box", "torus"):
        raise errors.SchemaError(f"unknown lattice kind {kind!r}")
    if halo and all(periodic):
        raise errors.SchemaError("a lattice with no open axis has no halo")
    return check_shape(dims, periodic)


# ---------------------------------------------------------------------------
# site masks; the *_m operations also take a stack of masks, one per row

def mask(lat: Lattice, U) -> np.ndarray:
    m = np.zeros(lat.n + 1, dtype=bool)
    m[np.fromiter(U, dtype=np.intp)] = True
    return m


def sites(m) -> frozenset:
    return frozenset(np.flatnonzero(m).tolist())


def not_m(m) -> np.ndarray:
    out = ~m
    out[..., -1] = False
    return out


def halo_m(lat: Lattice) -> np.ndarray:
    m = np.zeros(lat.n + 1, dtype=bool)
    m[len(lat.interior):lat.n] = True
    return m


# ---------------------------------------------------------------------------
# set operations (all over stored vertices; missing ambient neighbors of halo
# sites count as outside every stored set)

def nbhd_m(lat: Lattice, m) -> np.ndarray:
    return m.take(lat.adj, axis=-1).any(axis=-2)


def outer_m(lat: Lattice, m) -> np.ndarray:
    return nbhd_m(lat, m) & ~m


def inner_m(lat: Lattice, m) -> np.ndarray:
    """Sites of m with an ambient neighbor outside m."""
    return m & ~m.take(lat.adj, axis=-1).all(axis=-2)


def closed_boundary_m(lat: Lattice, m) -> np.ndarray:
    return inner_m(lat, m) | outer_m(lat, m)


def plus_m(lat: Lattice, m) -> np.ndarray:
    return m | nbhd_m(lat, m)


def plus_r_m(lat: Lattice, m, r: int) -> np.ndarray:
    for _ in range(r):
        m = plus_m(lat, m)
    return m


def n_t_m(lat: Lattice, m, t: int) -> np.ndarray:
    """Stored vertices with at least t neighbors in m."""
    out = m.take(lat.adj, axis=-1).sum(axis=-2) >= t
    out[..., -1] = False
    return out


def is_regular_m(lat: Lattice, m, base_parity=0):
    """Whether m is the expansion of its base-parity part, and likewise
    for the complement and its opposite-parity part (ambient exterior
    counts toward the complement): one bool per mask of a stack, with
    base_parity an int or an array that broadcasts over its rows."""
    base = np.append(lat.par, 2) == np.expand_dims(base_parity, -1)
    comp = not_m(m)
    full = (lat.adj < lat.n).all(axis=0)
    lonely = comp & base & full & ~nbhd_m(lat, comp & ~base)
    return (m == plus_m(lat, m & base)).all(axis=-1) & ~lonely.any(axis=-1)


def plus_r(lat: Lattice, U, r: int) -> frozenset:
    return sites(plus_r_m(lat, mask(lat, U), r))


# ---------------------------------------------------------------------------
# connectivity

def labels_m(lat: Lattice, m) -> np.ndarray:
    """Component labels of m: each site of m gets the smallest site of its
    component, every other slot the sentinel n.  FastSV (Zhang, Azad and
    Hu, 2020): every parent is hooked onto the smallest grandparent next to
    one of its children, every site onto the smallest grandparent next to
    it, and paths are halved, until the grandparents stop changing."""
    n = lat.n
    idx = np.flatnonzero(m)
    parent = np.where(m, np.arange(n + 1), n)
    grand = parent.copy()
    while True:
        low = np.minimum(grand, grand.take(lat.adj).min(axis=0))[idx]
        np.minimum.at(parent, parent[idx], low)
        parent[idx] = np.minimum(parent[idx], low)
        parent = np.minimum(parent, grand)
        nxt = parent[parent]
        if np.array_equal(nxt, grand):
            return parent
        grand = nxt


def components_m(lat: Lattice, m) -> list:
    """Component masks of m, in the order of their smallest sites."""
    lab = labels_m(lat, m)
    return [lab == c for c in np.unique(lab[m])]


def components(lat: Lattice, U) -> list:
    """Connected components of U, in the order of their smallest sites."""
    return [sites(c) for c in components_m(lat, mask(lat, U))]


def _require_infinity(lat):
    if not lat.has_exterior:
        raise errors.NoInfinityOnTorus(
            "operation needs an unbounded exterior (an open axis)")


def exterior_m(lat: Lattice, free) -> np.ndarray:
    """Sites of free joined to the exterior through sites of free; halo
    sites are adjacent to the exterior."""
    lab = labels_m(lat, free)
    hit = np.zeros(lat.n + 1, dtype=bool)
    hit[lab[free & halo_m(lat)]] = True
    hit[-1] = False
    return hit[lab]


def connected_to_infinity(lat: Lattice, blocked, v) -> bool:
    """Is v joined to the exterior through stored vertices avoiding blocked?
    Halo vertices are adjacent to the exterior."""
    _require_infinity(lat)
    return bool(exterior_m(lat, not_m(mask(lat, blocked)))[v])


def separating_m(lat: Lattice, B, V) -> np.ndarray:
    """Union of the components of B that either touch the exterior or cut
    some site of V off from it: one flood from the exterior around each
    component that does not touch it."""
    _require_infinity(lat)
    halo = halo_m(lat)
    keep = np.zeros(lat.n + 1, dtype=bool)
    for comp in components_m(lat, B):
        if (comp & halo).any() \
                or not exterior_m(lat, not_m(comp))[V].all():
            keep |= comp
    return keep


def separating_components(lat: Lattice, B, V) -> frozenset:
    """Union of the components of B that either touch the exterior or cut
    some vertex of V off from it."""
    return sites(separating_m(lat, mask(lat, B), mask(lat, V)))
