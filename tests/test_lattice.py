import itertools
import random
import tracemalloc

import numpy as np
import pytest

from spinlab import errors
from spinlab import lattice as lm

from helpers import (WrappingSet, co_connected_closure, diam_star,
                     directed_edge_boundary, edge_boundary_size, is_odd_set,
                     lattice_dist, lattice_reference, make_box, make_torus,
                     n_t_m, neighbor_lists, odd_set_identity, random_odd_set,
                     ref_closed_boundary, ref_components,
                     ref_connected_to_infinity, ref_is_regular, ref_n_t,
                     ref_plus, ref_plus_r, ref_separating_components)


def test_box_structure():
    lat = make_box((3, 4))
    assert lat.kind == "box" and lat.d == 2 and lat.degree == 4
    assert len(lat.interior) == 12
    assert len(lat.halo) == 2 * (3 + 4)
    assert lat.n == 26
    center = lat.site((1, 1))
    assert len(neighbor_lists(lat)[center]) == 4
    corner_halo = lat.site((-1, 0))
    # stored neighbors: (0,0) and the halo site (-1,1)
    assert len(neighbor_lists(lat)[corner_halo]) == 2
    assert lat.parity(lat.site((0, 0))) == 0
    assert lat.parity(lat.site((0, 1))) == 1
    assert lattice_dist(lat, lat.site((0, 0)), lat.site((2, 3))) == 5


def test_site_looks_up_stored_coordinates_only():
    lat = lm.parse_lattice("box:4px4+halo")  # axis 0 wraps, axis 1 is open
    assert [lat.site(tuple(c)) for c in lat.coords.tolist()] \
        == list(range(lat.n))
    for c in ((0, -1), (3, 4)):  # halo across the open axis
        assert lat.site(c) in lat.halo
    for c in ((0,), (0, 0, 0), ()):  # wrong length
        assert lat.site(c) is None
    box = lm.parse_lattice("box:4x4+halo")
    for c in ((-1, -1), (4, 4), (-2, 0), (0, 5)):  # padding and beyond
        assert box.site(c) is None
    # a periodic axis is not wrapped: numpy would read (-1, 0) as (3, 0)
    for c in ((-1, 0), (4, 0), (-4, 1), (10 ** 20, 0)):
        assert lat.site(c) is None


def test_a_lattice_retains_under_100_bytes_a_site():
    """Its arrays only: coordinates, site grid, neighbor slots and parity
    take about 57 bytes a site on a 300x300 box (a list of coordinate
    tuples and a dict of them took about 200)."""
    lm.make_lattice((3, 3), (False, False))  # numpy's first-call imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lat = lm.make_lattice((300, 300), (False, False))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / lat.n < 100


def test_torus_structure():
    lat = make_torus((4, 6))
    assert lat.n == 24 and not lat.halo
    v = lat.site((0, 0))
    assert sorted(tuple(lat.coords[u].tolist())
                  for u in neighbor_lists(lat)[v]) \
        == [(0, 1), (0, 5), (1, 0), (3, 0)]
    # wraps
    assert lattice_dist(lat, lat.site((0, 0)), lat.site((3, 5))) == 2
    with pytest.raises(errors.ParamOutOfRange):
        make_torus((3, 4))  # odd side breaks the 2-coloring


def test_slab_structure():
    lat = lm.make_lattice((4, 3), (True, False))
    assert lat.kind == "slab" and lat.has_exterior
    assert lat.periodic == (True, False)
    # the halo lies across the open axis only
    assert sorted(tuple(lat.coords[v].tolist()) for v in lat.halo) \
        == sorted([(r, -1) for r in range(4)] + [(r, 3) for r in range(4)])
    v = lat.site((0, 1))
    assert sorted(tuple(lat.coords[u].tolist())
                  for u in neighbor_lists(lat)[v]) \
        == [(0, 0), (0, 2), (1, 1), (3, 1)]
    # 1 + 2
    assert lattice_dist(lat, lat.site((0, 0)), lat.site((3, 2))) == 3
    assert make_box((3, 4)).has_exterior
    assert not make_torus((4, 4)).has_exterior
    for sides in ((3, 4), (0, 4)):
        with pytest.raises(errors.ParamOutOfRange):
            lm.make_lattice(sides, (True, False))  # odd or empty period
    with pytest.raises(errors.SchemaError, match="one periodic flag"):
        lm.make_lattice((4, 4), (True,))


def test_parse_lattice_periodic_axes():
    lat = lm.parse_lattice("box:12x12x4p+halo")
    assert lat.dims == (12, 12, 4) and lat.periodic == (False, False, True)
    assert lat.kind == "slab" and len(lat.halo) == 2 * 2 * 12 * 4
    assert lm.parse_lattice("box:4px4p").kind == "torus"
    assert lm.parse_lattice("torus:4px4").periodic == (True, True)
    assert lm.parse_lattice("box:3x4").periodic == (False, False)
    for bad in ("box:4px4p+halo", "box:4pp", "box:px4", "box:-2px4"):
        with pytest.raises(errors.SchemaError):
            lm.parse_lattice(bad)
    with pytest.raises(errors.ParamOutOfRange):
        lm.parse_lattice("box:3px4+halo")


def test_slab_has_an_exterior_and_wraps_only_along_periodic_axes():
    lat = lm.make_lattice((6, 6), (True, False))
    # a column wraps along the periodic axis 0; a row only spans the open
    # axis 1, and its identity is checked
    column = frozenset(lat.site((r, 2)) for r in range(6))
    with pytest.raises(WrappingSet):
        odd_set_identity(lat, column)
    row = lm.sites(lm.plus_m(lat, lm.mask(
        lat, {lat.site((2, c)) for c in (2, 4)})))
    assert is_odd_set(lat, row)
    lhs, rhs = odd_set_identity(lat, row)
    assert lhs == rhs
    # the exterior lies on both sides of the open axis: one ring around the
    # periodic axis cuts nothing off, two rings cut off the sites between
    ring = frozenset(lat.site((r, 3)) for r in range(6))
    v = lat.site((0, 1))
    assert lm.connected_to_infinity(lat, ring, v)
    assert lm.separating_components(lat, ring, {v}) == frozenset()
    assert not lm.connected_to_infinity(
        lat, ring | {lat.site((r, 0)) for r in range(6)}, v)
    edge = frozenset(lat.site((r, -1)) for r in range(3))
    assert lm.separating_components(lat, ring | edge, {v}) == edge


def test_parse_lattice():
    lat = lm.parse_lattice("box:3x4+halo")
    assert lat.kind == "box" and lat.dims == (3, 4)
    lat = lm.parse_lattice("torus:4x4")
    assert lat.kind == "torus"
    assert lm.parse_shape("box:4x4") == lm.parse_shape("box:4x4+halo")
    for bad in ("torus:4x4+halo", "box:0x4", "box:axb", "prism:4x4", "junk"):
        with pytest.raises(errors.SchemaError):
            lm.parse_lattice(bad)


def test_stored_sites_beyond_the_bound_are_refused(monkeypatch):
    """The interior and the halo across the open axes count: a 6x6 box
    stores 36 + 24 sites, a 6x8 slab periodic along its first axis 48 + 12,
    a 6x7 box 42 + 26."""
    monkeypatch.setattr(lm, "MAX_SITES", 60)
    assert lm.make_lattice((6, 6), (False, False)).n == 60
    assert lm.make_lattice((6, 8), (True, False)).n == 60
    with pytest.raises(errors.TooLarge):
        lm.make_lattice((6, 7), (False, False))


def test_boundary_operators():
    lat = make_box((4, 4))
    v = lat.site((1, 1))
    u_set = {v}
    nb = {lat.site(c) for c in ((0, 1), (2, 1), (1, 0), (1, 2))}
    m = lm.mask(lat, u_set)
    assert lm.sites(lm.nbhd_m(lat, m)) == nb
    assert lm.sites(lm.outer_m(lat, m)) == nb
    assert lm.sites(lm.inner_m(lat, m)) == frozenset(u_set)
    assert lm.sites(lm.closed_boundary_m(lat, m)) == nb | u_set
    assert lm.sites(lm.plus_m(lat, m)) == nb | u_set
    assert lm.plus_r(lat, u_set, 2) \
        == lm.sites(lm.plus_m(lat, lm.plus_m(lat, m)))
    assert edge_boundary_size(lat, u_set) == 4
    assert len(directed_edge_boundary(lat, u_set)) == 4
    # halo sites carry their unstored ambient edges
    h = lat.site((-1, 0))
    assert edge_boundary_size(lat, {h}) == 4
    assert len(directed_edge_boundary(lat, {h})) == 2


def test_plus_shape_is_tight_odd_set():
    lat = make_box((5, 5))
    center = lat.site((2, 2))
    u_set = lm.sites(lm.plus_m(lat, lm.mask(lat, {center})))
    assert is_odd_set(lat, u_set)
    assert lm.is_regular_m(lat, lm.mask(lat, u_set))
    assert edge_boundary_size(lat, u_set) == 12  # equality case
    lhs, rhs = odd_set_identity(lat, u_set)
    assert lhs == rhs == 3
    # a single odd site is not the expansion of its even part
    odd_site = lat.site((2, 1))
    assert not lm.is_regular_m(lat, lm.mask(lat, {odd_site}))


def test_n_t_degree_bound():
    lat = make_box((6, 6))
    rng = random.Random(3)
    sites = sorted(lat.interior)
    for _ in range(25):
        u_set = frozenset(v for v in sites if rng.random() < 0.4)
        for t in range(1, 5):
            n_t = lm.sites(n_t_m(lat, lm.mask(lat, u_set), t))
            assert len(n_t) * t <= lat.degree * len(u_set)
    assert lm.sites(n_t_m(lat, lm.mask(lat, range(lat.n)), 5)) \
        == frozenset()


def test_wrapping_set_detection():
    lat = make_torus((6, 6))
    wrap = frozenset(lat.site((0, c)) for c in range(6)) \
        | frozenset(lat.site((r, 0)) for r in range(6))
    with pytest.raises(WrappingSet):
        odd_set_identity(lat, wrap)


def test_components():
    lat = make_box((6, 6))
    a = lat.site((0, 0))
    b = lat.site((0, 1))
    c = lat.site((3, 3))
    comps = lm.components(lat, {a, b, c})
    assert sorted(len(x) for x in comps) == [1, 2]
    assert diam_star(lat, {a, c}) == 4
    assert diam_star(lat, {a, b}) == 3


def test_connectivity_to_exterior():
    lat = make_box((5, 5))
    center = lat.site((2, 2))
    ring = frozenset(lat.site(c) for c in ((1, 2), (3, 2), (2, 1), (2, 3)))
    assert lm.connected_to_infinity(lat, frozenset(), center)
    assert not lm.connected_to_infinity(lat, ring, center)
    assert not lm.connected_to_infinity(lat, ring, next(iter(ring)))
    far = lat.site((0, 0))
    assert lm.connected_to_infinity(lat, ring, far)
    torus = make_torus((4, 4))
    with pytest.raises(errors.NoInfinityOnTorus):
        lm.connected_to_infinity(torus, frozenset(), 0)
    with pytest.raises(errors.NoInfinityOnTorus):
        lm.separating_components(torus, frozenset(), frozenset())


def test_co_connected_closure():
    lat = make_box((5, 5))
    center = lat.site((2, 2))
    ring = frozenset(lat.site(c) for c in ((1, 2), (3, 2), (2, 1), (2, 3)))
    far = lat.site((0, 0))
    assert co_connected_closure(lat, ring, far) == ring | {center}
    assert co_connected_closure(lat, ring, center) \
        == frozenset(range(lat.n)) - {center}
    assert co_connected_closure(lat, ring, next(iter(ring))) \
        == frozenset(range(lat.n))
    # a wall across the box: the two sides meet through the exterior
    wall = frozenset(v for v, c in enumerate(lat.coords) if c[1] == 2)
    assert co_connected_closure(lat, wall, far) == wall
    # a torus has no exterior, so two walls cut it in two
    torus = make_torus((4, 4))
    walls = frozenset(v for v, c in enumerate(torus.coords) if c[1] in (0, 2))
    strip = frozenset(v for v, c in enumerate(torus.coords) if c[1] == 1)
    assert co_connected_closure(torus, walls, torus.site((3, 1))) \
        == frozenset(range(torus.n)) - strip


def test_separating_components():
    lat = make_box((8, 8))
    center = lat.site((4, 4))
    # connected square ring enclosing the center
    ring = frozenset(lat.site((r, c)) for r in (3, 4, 5) for c in (3, 4, 5)
                     if (r, c) != (4, 4))
    blob = frozenset({lat.site((0, 0))})
    kept = lm.separating_components(lat, ring | blob, {center})
    assert kept == ring  # the far blob neither wraps the viewpoint nor
    # touches the exterior halo
    halo_piece = frozenset({lat.site((-1, 3))})
    kept = lm.separating_components(lat, ring | halo_piece, {center})
    assert kept == ring | halo_piece
    # a disconnected diamond of four singletons cuts nothing by itself
    diamond = frozenset(lat.site(c)
                        for c in ((3, 4), (5, 4), (4, 3), (4, 5)))
    assert lm.separating_components(lat, diamond, {center}) == frozenset()


def test_random_odd_set_is_interior():
    lat = make_box((8, 8))
    rng = random.Random(4)
    for _ in range(10):
        u_set = random_odd_set(lat, rng)
        assert u_set.issubset(lat.interior)
        assert is_odd_set(lat, u_set)


# ---------------------------------------------------------------------------
# the neighbor table against the loops it replaced; site order feeds the
# halo extension's random stream, configuration keys and every rng_id
# contract

@pytest.mark.parametrize("kind, dims", [
    ("box", (5,)), ("box", (1,)), ("box", (3, 4)), ("box", (1, 3)),
    ("box", (4, 1)), ("box", (1, 1)), ("box", (2, 3, 2)), ("box", (3, 1, 2)),
    ("torus", (2,)), ("torus", (4,)), ("torus", (2, 2)), ("torus", (4, 6)),
    ("torus", (2, 4)), ("torus", (2, 2, 4)),
    # slabs, periodic along the flagged axes
    ((True, False), (4, 3)), ((False, True), (3, 4)),
    ((True, False, False), (2, 3, 2)), ((True, True, False), (4, 4, 3))])
def test_lattice_tables_match_loop_builder(kind, dims):
    if kind in ("box", "torus"):
        lat = (make_box if kind == "box" else make_torus)(dims)
        periodic = (kind == "torus",) * len(dims)
    else:
        lat, periodic, kind = lm.make_lattice(dims, kind), kind, "slab"
    assert lat.kind == kind and lat.periodic == periodic
    ref = lattice_reference(periodic, dims)
    assert list(map(tuple, lat.coords.tolist())) == ref["coords"]
    # every stored coordinate is found, and nothing else within two steps
    assert all(lat.site(c) == ref["index"].get(c) for c in
               itertools.product(*[range(-2, n + 2) for n in dims]))
    assert neighbor_lists(lat) == ref["neighbors"]
    assert lat.interior == ref["interior"] and lat.halo == ref["halo"]
    assert [lat.parity(v) for v in range(lat.n)] == ref["parity"]
    assert lat.nbr.shape == (lat.n, 2 * lat.d)
    assert [tuple(w for w in row if w != lat.n) for row in lat.nbr.tolist()] \
        == ref["neighbors"]


@pytest.mark.parametrize("spec", [
    "box:5x4+halo", "box:4x4x2p+halo", "box:3x2x2+halo", "box:1x1+halo",
    "torus:4x2"])
@pytest.mark.parametrize("k", [1, 3])
def test_disjoint_union_maps_each_copy_back_to_the_lattice(spec, k):
    lat = lm.parse_lattice(spec)
    n, m = lat.n, len(lat.interior)
    union, copy, orig = lm.disjoint_union(lat, k)
    assert union.n == k * n and copy.shape == orig.shape == (k * n,)
    assert union.interior == range(k * m) and union.halo == range(k * m, k * n)
    assert (union.dims, union.periodic, union.d) == (lat.dims, lat.periodic,
                                                     lat.d)
    # every copy's interior, then every copy's halo
    assert copy.tolist() == [j for j in range(k) for _ in range(m)] \
        + [j for j in range(k) for _ in range(n - m)]
    assert orig.tolist() == [*range(m)] * k + [*range(m, n)] * k
    # so one row of values a copy is block[copy, orig] on the union
    block = np.arange(k * n).reshape(k, n)
    assert np.array_equal(block[copy, orig], np.concatenate(
        (block[:, :m], block[:, m:]), axis=None))
    # the sentinel is shared, and nbr is the slot table by site
    assert (union.adj[:, -1] == k * n).all() and union.adj.flags.c_contiguous
    assert np.array_equal(union.nbr, union.adj[:, :-1].T)
    assert np.array_equal(lm.halo_m(union)[:-1], np.arange(k * n) >= k * m)
    for j in range(k):
        # copy j's sites in union order are lat's sites 0 .. n - 1
        where = np.append(np.flatnonzero(copy == j), k * n)
        assert np.array_equal(orig[where[:-1]], np.arange(n))
        assert np.array_equal(union.adj[:, where], where[lat.adj])
        assert np.array_equal(union.par[where[:-1]], lat.par)
        assert np.array_equal(union.coords[where[:-1]], lat.coords)


@pytest.mark.parametrize("dims", [(6, 6), (5, 7), (4, 3, 3), (9,)])
def test_mask_operations_match_site_sets(dims):
    _check_mask_operations(make_box(dims), random.Random(sum(dims)))


@pytest.mark.parametrize("spec", ["box:6px5", "box:4x4px3", "box:2px5"])
def test_mask_operations_match_site_sets_on_slabs(spec):
    _check_mask_operations(lm.parse_lattice(spec), random.Random(spec))


def _check_mask_operations(lat, rng):
    for density in (0.1, 0.4, 0.8):
        for _ in range(5):
            U = frozenset(v for v in range(lat.n) if rng.random() < density)
            V = frozenset(rng.sample(range(lat.n), 3))
            m = lm.mask(lat, U)
            assert lm.sites(lm.plus_m(lat, m)) == ref_plus(lat, U)
            assert lm.plus_r(lat, U, 3) == ref_plus_r(lat, U, 3)
            assert lm.sites(lm.closed_boundary_m(lat, m)) \
                == ref_closed_boundary(lat, U)
            for t in range(2 * lat.d + 1):
                assert lm.sites(n_t_m(lat, m, t)) == ref_n_t(lat, U, t)
            stack, want = [], []
            for base in (0, 1):
                core = frozenset(v for v in U if lat.parity(v) == base)
                for W in (U, ref_plus(lat, core)):
                    want.append(ref_is_regular(lat, W, base))
                    stack.append(lm.mask(lat, W))
                    assert lm.is_regular_m(lat, stack[-1], base) == want[-1]
            # one call on the stack, a parity per row or per row of rows
            stack = np.array(stack)
            assert lm.is_regular_m(lat, stack, [0, 0, 1, 1]).tolist() == want
            assert lm.is_regular_m(lat, stack.reshape(2, 2, -1),
                                   [[0], [1]]).ravel().tolist() == want
            assert lm.components(lat, U) == ref_components(lat, U)
            assert lm.separating_components(lat, U, V) \
                == ref_separating_components(lat, U, V)
            for v in V:
                assert lm.connected_to_infinity(lat, U, v) \
                    == ref_connected_to_infinity(lat, U, v)


@pytest.mark.parametrize("spec, k", [
    ("box:7x5+halo", 1), ("box:9+halo", 1), ("box:4x3x3+halo", 1),
    ("box:6px5+halo", 1), ("box:4x3+halo", 3)])
def test_stacked_mask_operations_match_row_by_row(spec, k):
    """Each *_m operation on a (P, n + 1) and a (P, 2, n + 1) stack of
    masks is the same call on each row; k > 1 runs on a disjoint union of
    k copies."""
    lat = lm.disjoint_union(lm.parse_lattice(spec), k)[0]
    rng = np.random.default_rng(sum(map(ord, spec)) + k)
    flat = rng.random((6, lat.n + 1)) < np.linspace(0.05, 0.95, 6)[:, None]
    flat[:, -1] = False
    ops = [lm.nbhd_m, lm.inner_m, lm.outer_m, lm.closed_boundary_m,
           lambda lat, m: lm.plus_r_m(lat, m, 3)]
    ops += [lambda lat, m, t=t: n_t_m(lat, m, t)
            for t in range(2 * lat.d + 1)]
    for stack in (flat, flat.reshape(3, 2, -1)):
        for op in ops:
            got = op(lat, stack)
            assert got.shape == stack.shape
            for row in np.ndindex(stack.shape[:-1]):
                assert np.array_equal(got[row], op(lat, stack[row]))


@pytest.mark.parametrize("spec, k", [
    ("box:7x5+halo", 1), ("box:9+halo", 1), ("box:4x3x3+halo", 1),
    ("box:6px5+halo", 1), ("box:4x3+halo", 3)])
def test_packed_rows_match_the_bool_call_on_each_mask(spec, k):
    """P = 11 masks packed 8 to a byte (R = 2 uint8 rows, bit j of row r
    for mask 8r + j), with the 5 unused bits clear or set as ``~`` sets
    them: each set operation and is_regular_m, unpacked to P masks, is the
    bool call on each mask, alone or in an (R, 2, n + 1) stack."""
    lat = lm.disjoint_union(lm.parse_lattice(spec), k)[0]
    rng = np.random.default_rng(sum(map(ord, spec)) + k)
    P, base = 11, rng.integers(0, 2, 11)
    flat = rng.random((P, lat.n + 1)) < np.linspace(0.05, 0.95, P)[:, None]
    flat[:, -1] = False
    flat[::2] = [lm.plus_m(lat, m & (np.append(lat.par, 2) == b))
                 for m, b in zip(flat[::2], base[::2])]   # regular ones

    def pack(rows):
        return np.packbits(rows, axis=0, bitorder="little")

    def unpack(rows):
        return np.unpackbits(rows, axis=0, count=P,
                             bitorder="little").view(bool)

    unused = ~pack(np.ones((P, 1), dtype=bool))
    ops = [lm.nbhd_m, lm.inner_m, lm.outer_m, lm.closed_boundary_m,
           lambda lat, m: lm.plus_r_m(lat, m, 3)]
    for packed in (pack(flat), pack(flat) | unused):
        assert packed.shape == (2, lat.n + 1)
        for op in ops:
            got = unpack(op(lat, packed))
            for p in range(P):
                assert np.array_equal(got[p], op(lat, flat[p]))
        want = [bool(lm.is_regular_m(lat, m, b)) for m, b in zip(flat, base)]
        assert 0 < sum(want) < P
        got = unpack(lm.is_regular_m(lat, packed, pack(base)))
        assert got.tolist() == want
        pair = np.stack([packed, lm.not_m(packed) & ~unused], axis=1)
        got = unpack(lm.is_regular_m(lat, pair, pack(base[:, None])))
        assert got.tolist() == [
            [w, bool(lm.is_regular_m(lat, lm.not_m(m), b))]
            for w, m, b in zip(want, flat, base)]


def test_masks_keep_the_sentinel_slot_false():
    lat = make_box((4, 5))
    m = lm.mask(lat, {0, 7, lat.n - 1})
    for out in (lm.nbhd_m(lat, m), lm.plus_r_m(lat, m, 3),
                lm.closed_boundary_m(lat, m), n_t_m(lat, m, 0),
                lm.not_m(m), lm.inner_m(lat, lm.not_m(m))):
        assert out.shape == (lat.n + 1,) and not out[-1]
    stack = np.stack([m, lm.not_m(m)])
    assert (lm.plus_m(lat, stack)[1] == lm.plus_m(lat, stack[1])).all()
