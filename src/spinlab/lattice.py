"""Finite pieces of the hypercubic lattice Z^d and discrete tori, with the
boundary/closure operations used by the breakup machinery.

A box is stored as its interior sites plus a one-site halo (sites with
exactly one coordinate out of range by one).  Vertices outside the stored
region are treated as present in the ambient lattice: boundary and degree
computations account for them, and a virtual "infinity" vertex adjacent to
every halo site stands in for the unbounded exterior component.  Tori have
no exterior; operations that mention infinity raise on them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import errors


@dataclass
class Lattice:
    kind: str                 # "box" or "torus"
    dims: tuple
    coords: list = field(default_factory=list)
    index: dict = field(default_factory=dict)
    neighbors: list = field(default_factory=list)
    interior: frozenset = frozenset()
    halo: frozenset = frozenset()

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
        return sum(self.coords[v]) % 2

    def all_sites(self):
        return frozenset(range(self.n))

    def dist(self, u, v) -> int:
        a, b = self.coords[u], self.coords[v]
        if self.kind == "torus":
            return sum(min(abs(x - y), n - abs(x - y))
                       for x, y, n in zip(a, b, self.dims))
        return sum(abs(x - y) for x, y in zip(a, b))


def make_box(dims) -> Lattice:
    lat = Lattice(kind="box", dims=tuple(dims))
    interior = list(itertools.product(*[range(n) for n in dims]))
    halo = []
    for c in interior:
        for axis in range(len(dims)):
            for delta in (-1, 1):
                h = list(c)
                h[axis] += delta
                h = tuple(h)
                if not _in_range(h, dims) and h not in lat.index:
                    lat.index[h] = -1  # placeholder, dedupe
                    halo.append(h)
    lat.index.clear()
    lat.coords = interior + halo
    lat.index = {c: i for i, c in enumerate(lat.coords)}
    lat.interior = frozenset(range(len(interior)))
    lat.halo = frozenset(range(len(interior), len(lat.coords)))
    lat.neighbors = _build_neighbors(lat)
    return lat


def make_torus(dims) -> Lattice:
    if any(n < 2 or n % 2 for n in dims):
        raise errors.ParamOutOfRange(
            "torus sides must be even (parity must 2-color the graph)")
    lat = Lattice(kind="torus", dims=tuple(dims))
    lat.coords = list(itertools.product(*[range(n) for n in dims]))
    lat.index = {c: i for i, c in enumerate(lat.coords)}
    lat.interior = frozenset(range(len(lat.coords)))
    lat.halo = frozenset()
    lat.neighbors = _build_neighbors(lat)
    return lat


def parse_lattice(spec: str) -> Lattice:
    """"box:4x4+halo" or "torus:4x4x4"."""
    try:
        kind, rest = spec.split(":", 1)
    except ValueError:
        raise errors.SchemaError(f"bad lattice spec {spec!r}")
    halo = rest.endswith("+halo")
    if halo:
        rest = rest[:-len("+halo")]
    try:
        dims = tuple(int(x) for x in rest.split("x"))
    except ValueError:
        raise errors.SchemaError(f"bad lattice dims in {spec!r}")
    if not dims or any(n < 1 for n in dims):
        raise errors.SchemaError(f"bad lattice dims in {spec!r}")
    if kind == "box":
        return make_box(dims)
    if kind == "torus":
        if halo:
            raise errors.SchemaError("torus has no halo")
        return make_torus(dims)
    raise errors.SchemaError(f"unknown lattice kind {kind!r}")


def _in_range(c, dims):
    return all(0 <= x < n for x, n in zip(c, dims))


def _build_neighbors(lat):
    nbrs = []
    for c in lat.coords:
        cur = []
        for axis in range(lat.d):
            for delta in (-1, 1):
                h = list(c)
                if lat.kind == "torus":
                    h[axis] = (h[axis] + delta) % lat.dims[axis]
                else:
                    h[axis] += delta
                h = tuple(h)
                j = lat.index.get(h)
                if j is not None:
                    cur.append(j)
        nbrs.append(tuple(cur))
    return nbrs


# ---------------------------------------------------------------------------
# set operations (all over stored vertices; missing ambient neighbors of halo
# sites count as outside every stored set)

def nbhd(lat: Lattice, U) -> frozenset:
    out = set()
    for v in U:
        out.update(lat.neighbors[v])
    return frozenset(out)


def outer_boundary(lat: Lattice, U) -> frozenset:
    U = frozenset(U)
    return nbhd(lat, U) - U


def inner_boundary(lat: Lattice, U) -> frozenset:
    """Vertices of U with an ambient neighbor outside U."""
    U = frozenset(U)
    out = set()
    for v in U:
        nb = lat.neighbors[v]
        if len(nb) < lat.degree or any(w not in U for w in nb):
            out.add(v)
    return frozenset(out)


def closed_boundary(lat: Lattice, U) -> frozenset:
    return inner_boundary(lat, U) | outer_boundary(lat, U)


def plus_(lat: Lattice, U) -> frozenset:
    U = frozenset(U)
    return U | nbhd(lat, U)


def plus_r(lat: Lattice, U, r: int) -> frozenset:
    U = frozenset(U)
    for _ in range(r):
        U = plus_(lat, U)
    return U


def n_t(lat: Lattice, U, t: int) -> frozenset:
    """Stored vertices with at least t neighbors in U."""
    U = frozenset(U)
    return frozenset(v for v in range(lat.n)
                     if sum(1 for w in lat.neighbors[v] if w in U) >= t)


def edge_boundary_size(lat: Lattice, U) -> int:
    """Number of ambient edges leaving U (halo deficits included)."""
    U = frozenset(U)
    total = 0
    for v in U:
        nb = lat.neighbors[v]
        total += lat.degree - len(nb)
        total += sum(1 for w in nb if w not in U)
    return total


def directed_edge_boundary(lat: Lattice, U):
    """Stored pairs (u, v) with u in U, v adjacent and outside U."""
    U = frozenset(U)
    out = []
    for u in U:
        for v in lat.neighbors[u]:
            if v not in U:
                out.append((u, v))
    return out


def is_odd_set(lat: Lattice, U) -> bool:
    return all(lat.parity(v) == 1 for v in inner_boundary(lat, U))


def is_regular(lat: Lattice, U, base_parity: int = 0) -> bool:
    """U is the expansion of its base-parity part, and likewise for the
    complement and its opposite-parity part (ambient exterior counts toward
    the complement)."""
    U = frozenset(U)
    core = frozenset(v for v in U if lat.parity(v) == base_parity)
    if U != plus_(lat, core):
        return False
    comp = lat.all_sites() - U
    for v in comp:
        if lat.parity(v) != base_parity:
            continue
        nb = lat.neighbors[v]
        if len(nb) < lat.degree:
            continue  # has an exterior neighbor in the ambient lattice
        if not any(w in comp and lat.parity(w) != base_parity for w in nb):
            return False
    return True


def odd_set_identity(lat: Lattice, U):
    """Returns (|edge boundary| / 2d, |Odd cap U| - |Even cap U|)."""
    U = frozenset(U)
    if lat.kind == "torus":
        for comp in components(lat, U):
            vs = list(comp)
            dmax = max((lat.dist(a, b) for a in vs for b in vs), default=0)
            if dmax >= min(lat.dims):
                raise errors.WrappingSet(
                    "identity only checked for non-wrapping sets")
    lhs = edge_boundary_size(lat, U) / lat.degree
    rhs = sum(1 for v in U if lat.parity(v) == 1) \
        - sum(1 for v in U if lat.parity(v) == 0)
    return lhs, rhs


# ---------------------------------------------------------------------------
# connectivity

def components(lat: Lattice, U, r: int = 1) -> list:
    """Connected components of U, adjacency = graph distance at most r."""
    U = set(U)
    out = []
    while U:
        start = U.pop()
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            near = plus_r(lat, {v}, r) if r > 1 else lat.neighbors[v]
            for w in near:
                if w in U:
                    U.remove(w)
                    comp.add(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def _require_infinity(lat):
    if lat.kind == "torus":
        raise errors.NoInfinityOnTorus(
            "operation needs an unbounded exterior")


def connected_to_infinity(lat: Lattice, blocked, v) -> bool:
    """Is v joined to the exterior through stored vertices avoiding blocked?
    Halo vertices are adjacent to the exterior."""
    _require_infinity(lat)
    blocked = frozenset(blocked)
    if v in blocked:
        return False
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        if u in lat.halo:
            return True
        for w in lat.neighbors[u]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return False


def co_connected_closure(lat: Lattice, U, v) -> frozenset:
    """Complement of the connected component of the complement of U that
    contains v; all stored vertices if v is in U.  The exterior is one
    vertex adjacent to every halo site."""
    U = frozenset(U)
    if v in U:
        return lat.all_sites()
    ext = -1
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        near = lat.halo if u == ext else lat.neighbors[u]
        if u in lat.halo:
            near = (*near, ext)
        for w in near:
            if w not in U and w not in seen:
                seen.add(w)
                stack.append(w)
    return lat.all_sites() - seen


def separating_components(lat: Lattice, B, V) -> frozenset:
    """Union of the components of B that either touch the exterior or cut
    some vertex of V off from it."""
    _require_infinity(lat)
    B = frozenset(B)
    V = frozenset(V)
    keep = set()
    for comp in components(lat, B):
        if comp & lat.halo:
            keep.update(comp)
            continue
        for v in V:
            if not connected_to_infinity(lat, comp, v):
                keep.update(comp)
                break
    return frozenset(keep)


def diam_star(lat: Lattice, U) -> int:
    """Sum of component diameters plus twice the component count."""
    comps = components(lat, U)
    total = 2 * len(comps)
    for comp in comps:
        vs = list(comp)
        dmax = 0
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                dmax = max(dmax, lat.dist(vs[i], vs[j]))
        total += dmax
    return total


def random_odd_set(lat: Lattice, rng, density=0.3) -> frozenset:
    """Expansion of a random even-parity subset of the deep interior; such a
    set is always odd and contained in the interior."""
    deep = [v for v in lat.interior
            if all(w in lat.interior for w in lat.neighbors[v])
            and len(lat.neighbors[v]) == lat.degree]
    seed = [v for v in deep if lat.parity(v) == 0 and rng.random() < density]
    return plus_(lat, frozenset(seed))
