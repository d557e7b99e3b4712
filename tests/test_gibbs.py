import bisect
import functools
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinlab import catalog, errors, gibbs, patterns
from spinlab import lattice as lm
from spinlab.patterns import Pattern
from spinlab.system import MAX_STATES, log_number, make_system

from helpers import (FRACTIONAL, build_tables_reference,
                     checkerboard_reference, float_twins, graph_z,
                     internal_boundary, make_box, make_torus, neighbor_lists,
                     pattern_side, random_rational_system, raster_reference,
                     torus_graph)

AF3 = catalog.build("af_potts", q=3)
HC = catalog.build("hard_core", lam=1)
P0_AF3 = Pattern(0b001, 0b110)
P0_HC = Pattern(0b01, 0b11)


# ---------------------------------------------------------------------------
# boundary conditions

def test_pattern_boundary_region():
    lat = make_box((6, 6))
    region = internal_boundary(lat)
    assert len(region) == 20  # the inner frame of a 6x6 box
    assert region == frozenset(
        v for v in lat.interior
        if any(lat.coords[v][i] in (0, 5) for i in range(2)))
    masks = gibbs.pattern_masks(AF3, lat, P0_AF3)
    assert masks[lat.site((2, 2))] == AF3.full_mask()
    assert masks[lat.site((0, 2))] == P0_AF3.a  # even frame site
    assert masks[lat.site((0, 1))] == P0_AF3.b  # odd frame site


def test_sample_halo_extension():
    lat = make_box((4, 4))
    rng = np.random.Generator(np.random.PCG64(0))
    halo = gibbs.sample_halo_extension(HC, lat, P0_HC, rng)
    assert set(halo) == set(lat.halo)
    for v, s in halo.items():
        side = P0_HC.a if lat.parity(v) == 0 else P0_HC.b
        assert side >> s & 1
    assert all(halo[v] == 0 for v in lat.halo if lat.parity(v) == 0)
    with pytest.raises(errors.EmptySupport):
        gibbs.sample_halo_extension(HC, lat, Pattern(0, 0b11), rng)


# ---------------------------------------------------------------------------
# exact box evaluation against direct enumeration

def _enumerate_box(system, lat, pattern, site=None):
    """Direct enumeration oracle: interior configurations with region sites
    confined to their pattern side, weighted by activities and the grid
    interactions among interior sites."""
    region = internal_boundary(lat)
    sites = sorted(lat.interior)
    masks = []
    for v in sites:
        if v in region:
            masks.append(pattern_side(pattern, lat, v))
        else:
            masks.append(system.full_mask())
    choices = [system.mask_states(m) for m in masks]
    interior = set(lat.interior)
    edges = sorted({(min(u, v), max(u, v)) for v in sites
                    for u in neighbor_lists(lat)[v] if u in interior})
    pos = {v: i for i, v in enumerate(sites)}
    total = system.zero()
    marg = [system.zero()] * system.n
    for f in itertools.product(*choices):
        w = system.one()
        for s in f:
            w *= system.activities[s]
        for (u, v) in edges:
            w *= system.interactions[f[pos[u]]][f[pos[v]]]
        total += w
        if site is not None:
            marg[f[pos[site]]] += w
    return total, marg


def test_exact_measure_against_enumeration():
    lat = make_box((3, 3))
    bc = P0_AF3
    center = lat.site((1, 1))
    total, marg = _enumerate_box(AF3, lat, bc, center)
    assert gibbs.z_pattern_box(AF3, lat, bc) == total
    exact = gibbs.exact_measure(AF3, lat, bc, (1, 1))
    for s in range(3):
        assert exact[AF3.states[s]] == marg[s] / total
    prob_out = gibbs.prob_not_in_pattern(AF3, lat, bc, (1, 1))
    assert prob_out == 1 - exact["1"]  # center is an even site


def test_exact_measure_hard_core():
    lat = make_box((3, 4))
    bc = P0_HC
    total, marg = _enumerate_box(HC, lat, bc, lat.site((1, 1)))
    assert gibbs.z_pattern_box(HC, lat, bc) == total
    exact = gibbs.exact_measure(HC, lat, bc, (1, 1))
    assert exact["1"] == marg[1] / total


def test_exact_measure_empty_support():
    sys2 = catalog.build("af_potts", q=2)
    lat = make_box((2, 2))
    bc = Pattern(0b01, 0b01)  # forces equal neighbors
    with pytest.raises(errors.EmptySupport):
        gibbs.exact_measure(sys2, lat, bc, (0, 0))


def test_dp_guards():
    for lat in (make_torus((4, 4)), make_box((3, 3, 3))):
        with pytest.raises(errors.UnsupportedLattice):
            gibbs.z_pattern_box(AF3, lat, P0_AF3)
    with pytest.raises(errors.StateSpaceTooLarge):
        gibbs.z_pattern_box(AF3, make_box((1, 14)),
                            P0_AF3)


@pytest.mark.parametrize("system", FRACTIONAL.values(),
                         ids=list(FRACTIONAL))
def test_box_kernel_with_fractional_weights(system):
    lat = make_box((3, 4))
    bc = min(patterns.structure(system).dominant,
                                   key=lambda p: (p.a, p.b))
    # first, last and an inner interior position of the raster
    for site in ((0, 0), (2, 3), (1, 2)):
        v = lat.site(site)
        total, marg = _enumerate_box(system, lat, bc, v)
        assert gibbs.z_pattern_box(system, lat, bc) == total
        law = gibbs.site_law(system, lat, bc, site)
        assert law.z == total
        assert law.marginal == {system.states[s]: marg[s] / total
                                for s in range(system.n)}
        side = system.mask_states(pattern_side(bc, lat, v))
        assert law.prob_not_in_pattern \
            == 1 - sum(marg[s] for s in side) / total


def _close(x, exact):
    return abs(x - exact) <= 1e-12 * abs(exact)


# random systems with zero interactions among them (hard constraints in
# float mode), then the systems with fractional weights
TWINS = [random_rational_system(random.Random(seed)) for seed in range(12)] \
    + list(FRACTIONAL.values())


@pytest.mark.parametrize("k", range(len(TWINS)))
def test_float_box_frontier_matches_its_rational_twin(k):
    """The dense float frontier against the dict frontier on the same
    weights: Z and every Z_s within 1e-12 relative, on thin and square
    boxes, at the first, an inner and the last raster position."""
    system, exact = float_twins(TWINS[k])
    rng = random.Random(k)
    bc = Pattern(rng.randint(1, system.full_mask()),
                                       rng.randint(1, system.full_mask()))
    for dims in ((1, 4), (4, 1), (3, 4), (4, 3), (5, 5)):
        lat = make_box(dims)
        z = gibbs.z_pattern_box(exact, lat, bc)
        assert _close(gibbs.z_pattern_box(system, lat, bc), z)
        for site in (0, len(lat.interior) // 2, len(lat.interior) - 1):
            if z == 0:
                with pytest.raises(errors.EmptySupport):
                    gibbs.site_law(system, lat, bc, site)
                continue
            law, ref = (gibbs.site_law(s, lat, bc, site)
                        for s in (system, exact))
            assert _close(law.z, ref.z)
            assert all(_close(law.marginal[s] * law.z,
                              ref.marginal[s] * ref.z) for s in ref.marginal)


def test_float_box_frontier_guards():
    soft = catalog.build("af_potts", q=3, beta=1)
    bc = P0_AF3
    for lat in (make_torus((4, 4)), make_box((3, 3, 3))):
        with pytest.raises(errors.UnsupportedLattice):
            gibbs.z_pattern_box(soft, lat, bc)
    with pytest.raises(errors.StateSpaceTooLarge):
        gibbs.z_pattern_box(soft, lm.parse_lattice("box:1x14"), bc)
    hard, _ = float_twins(catalog.build("af_potts", q=2))
    with pytest.raises(errors.EmptySupport):
        gibbs.site_law(hard, make_box((2, 2)),
                       Pattern(0b01, 0b01), (0, 0))


def test_float_site_confined_to_its_side_is_exactly_never_outside():
    """prob_not_in_pattern sums the outside marginals from the system's
    zero: raster site 0 of the float wr-5/3 twin on a 5x3 box can take no
    value off its side and reads 0.0, where 1 - (inside mass) read one ulp,
    1.1e-16."""
    system, _ = float_twins(FRACTIONAL["wr-5/3"])
    law = gibbs.site_law(system, make_box((5, 3)),
                         Pattern(0b011, 0b101), 0)
    assert law.prob_not_in_pattern == 0.0


def test_float_box_takes_one_array_step_per_site():
    """af_potts q=3 beta=1 on 10x10: Z and a centre site's law take about
    45 ms together on 2 vCPUs (a dict frontier of the same 3^10 states took
    over 2 s)."""
    soft = catalog.build("af_potts", q=3, beta=1)
    lat, bc = make_box((10, 10)), P0_AF3
    t0 = time.monotonic()
    z = gibbs.z_pattern_box(soft, lat, bc)
    law = gibbs.site_law(soft, lat, bc, (5, 5))
    assert time.monotonic() - t0 < 1.0
    assert _close(z, 9.837492414276652e+21) and _close(law.z, z)


def test_box_rows_are_built_once_per_system(monkeypatch):
    """Repeated site_law calls on one system build each allowed mask's
    local-weight row once, in rational and in float mode; a fresh system
    builds its own and gets the same law."""
    built = []
    local_weights = gibbs._local_weights

    def counting(acts, inter, slots, masks):
        built.extend(masks)
        return local_weights(acts, inter, slots, masks)

    monkeypatch.setattr(gibbs, "_local_weights", counting)
    lat, bc = make_box((4, 4)), P0_AF3
    for params in ({"q": 3}, {"q": 3, "beta": 1}):
        system = catalog.build("af_potts", **params)
        laws = [gibbs.site_law(system, lat, bc, site)
                for site in ((1, 1), (2, 2), (1, 1))]
        assert built and len(built) == len(set(built))
        assert set(system._memo[gibbs._box_rows]) == set(built)
        built.clear()
        fresh = catalog.build("af_potts", **params)
        assert gibbs.site_law(fresh, lat, bc, (1, 1)) == laws[0] == laws[2]
        assert built
        built.clear()


# ---------------------------------------------------------------------------
# torus partition functions

def test_z_torus_transfer_matches_enumeration():
    for system in (HC, catalog.build("af_ising_field", lam=2)):
        assert gibbs.z_torus(system, (4, 4)) \
            == graph_z(system, torus_graph((4, 4)))


@pytest.mark.parametrize("system", FRACTIONAL.values(),
                         ids=list(FRACTIONAL))
def test_z_torus_with_fractional_weights(system):
    for dims in ((3, 3), (3, 4), (4, 3)):
        if system.n ** (dims[0] * dims[1]) > 10 ** 5:
            continue
        assert gibbs.z_torus(system, dims) == graph_z(system,
                                                      torus_graph(dims))


def test_z_torus_fractional_matches_enumeration():
    system = FRACTIONAL["hc-3/7"]
    assert gibbs.z_torus(system, (4, 4)) \
        == graph_z(system, torus_graph((4, 4)))


def _record_primes(monkeypatch):
    """Each rational transfer trace's (bound, primes)."""
    seen = []
    crt_primes = gibbs._crt_primes

    def recorded(bound):
        seen.append((bound, crt_primes(bound)))
        return seen[-1][1]
    monkeypatch.setattr(gibbs, "_crt_primes", recorded)
    return seen


@pytest.mark.parametrize("name, dims", [("hc-3/7", (3, 3)),
                                        ("afi-2/3", (3, 4)),
                                        ("mixed", (3, 3))])
def test_z_torus_residues_rebuild_z_from_several_primes(monkeypatch, name,
                                                         dims):
    """The residue traces, rebuilt by the Chinese remainder theorem, give Z
    exactly, and the scaled Z lies below the bound the primes exceed."""
    system = FRACTIONAL[name]
    seen = _record_primes(monkeypatch)
    z = gibbs.z_torus(system, dims)
    assert z == graph_z(system, torus_graph(dims))
    (bound, primes), = seen
    assert len(primes) >= 2 and math.prod(primes) > bound
    sc = system.scaled()
    sites = math.prod(dims)
    assert z * sc.la ** sites * sc.li ** (2 * sites) <= bound


@pytest.mark.parametrize("bound", [0, 1, 2 ** 20, 2 ** 40 - 1, 2 ** 40,
                                   10 ** 50, 7 ** 1000])
def test_crt_primes_are_the_fewest_whose_product_exceeds_the_bound(bound):
    primes = gibbs._crt_primes(bound)
    assert math.prod(primes) > bound
    assert not primes or math.prod(primes[:-1]) <= bound
    assert primes == sorted(set(primes), reverse=True)
    assert all(p < 2 ** 20 and all(p % f for f in range(2, math.isqrt(p) + 1))
               for p in primes)


def test_z_torus_float_matches_exact_sums():
    """Float mode takes the trace in float64; the oracle is the exact Z of
    the same float weights read as rationals (a float enumeration sums too
    many terms to be accurate to 1e-12)."""
    system = catalog.build("af_potts", q=3, beta=1)
    exact = make_system(system.states,
                        [str(Fraction(a)) for a in system.activities],
                        [[str(Fraction(x)) for x in row]
                         for row in system.interactions])
    for dims in ((3, 3), (4, 4), (3, 5), (5, 3)):
        oracle = float(gibbs.z_torus(exact, dims))
        z = gibbs.z_torus(system, dims)
        assert isinstance(z, float)
        assert abs(z - oracle) <= 1e-12 * oracle


def _count_columns(monkeypatch):
    seen = []
    columns = gibbs._torus_columns

    def counted(*args):
        for item in columns(*args):
            seen.append(item)
            yield item
    monkeypatch.setattr(gibbs, "_torus_columns", counted)
    return seen


def test_z_torus_columns_run_along_the_shorter_side(monkeypatch):
    system = catalog.build("af_potts", q=3, beta=1)
    seen = _count_columns(monkeypatch)
    gibbs.z_torus(system, (12, 4))
    assert len(seen) == 81 and all(len(col) == 4 for col, _ in seen)
    # af_potts beta=inf, 6x4: the proper 3-colourings of a 4-cycle, against
    # the 66 of a 6-cycle with the axes the other way round
    seen.clear()
    z = gibbs.z_torus(AF3, (6, 4))
    assert len(seen) == 18
    seen.clear()
    assert gibbs._z_torus_transfer(AF3, (6, 4)) == z == 98466
    assert len(seen) == 66


def test_z_torus_column_guard_stops_early(monkeypatch):
    system = catalog.build("af_potts", q=3, beta=1)
    seen = _count_columns(monkeypatch)
    with pytest.raises(errors.StateSpaceTooLarge):
        gibbs.z_torus(system, (12, 12))
    assert len(seen) == gibbs.MAX_COLUMNS + 1  # of 3^12 = 531,441


def test_z_torus_small_side_enumeration():
    # a side of length 2 is one edge, in a column or along the transfer;
    # an odd side next to it is allowed, a side of 1 is not
    z = gibbs.z_torus(HC, (2, 4))
    assert z == graph_z(HC, torus_graph((2, 4)))
    for system in (HC, AF3):
        for dims in ((2, 3), (3, 2)):
            assert gibbs.z_torus(system, dims) \
                == graph_z(system, torus_graph(dims))
    with pytest.raises(errors.ParamOutOfRange):
        gibbs.z_torus(HC, (1, 4))


def test_z_torus_guard():
    # af_potts q=3 beta=1 has 3^16 columns on 4x4
    with pytest.raises(errors.StateSpaceTooLarge):
        gibbs.z_torus(catalog.build("af_potts", q=3, beta=1), (4, 4, 4))


@pytest.mark.parametrize("system, dims", [
    *[(s, dims) for s in (HC, AF3, catalog.build("af_potts", q=2),
                          FRACTIONAL["mixed"])
      for dims in ((2,), (3,), (5,), (2, 2, 2))],
    *[(s, (2, 2, 3)) for s in (catalog.build("af_ising_field", lam=2),
                               FRACTIONAL["hc-3/7"])]])
def test_z_torus_cycles_and_3d_tori(system, dims):
    """Cycles (a column of one site) and 3D tori with sides of 2 against
    brute force, and each float twin within 1e-12 of its rational system."""
    z = gibbs.z_torus(system, dims)
    assert z == graph_z(system, torus_graph(dims))
    twin, exact = float_twins(system)
    oracle = gibbs.z_torus(exact, dims)
    assert abs(gibbs.z_torus(twin, dims) - oracle) <= 1e-12 * oracle


def test_z_torus_is_the_same_along_each_axis():
    system = catalog.build("hard_core", lam=2)
    zs = {gibbs._z_torus_transfer(system, dims)
          for dims in ((4, 4, 3), (3, 4, 4), (4, 3, 4))}
    assert len(zs) == 1 and zs == {gibbs.z_torus(system, (3, 4, 4))}


@pytest.mark.parametrize("lam", [1e200, 1e-200])
def test_float_z_torus_beyond_the_float_range_is_refused(lam):
    """hard_core with both activities 1e200 (1e-200) on 4x4: a Z that
    overflows (underflows) float64 is refused, not nan (0.0)."""
    system = make_system(["0", "1"], [lam, lam], [[1.0, 1.0], [1.0, 0.0]],
                         mode="float")
    with pytest.raises(errors.TooLarge):
        gibbs.z_torus(system, (4, 4))


@pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
def test_float_torus_column_that_underflows_is_refused(dims):
    """Activities [1, 1e-200] and interactions [[1, 1], [1, 1e100]]: a
    column's product of positive factors underflows to 0.0 before the
    later interactions would bring it back into range.  Pruning it dropped
    terms (Z = 1.0 where the exact Z of the same weights is 2.0), so the
    float evaluation is refused, and the rational twin answers."""
    system = make_system(["0", "1"], [1.0, 1e-200],
                         [[1.0, 1.0], [1.0, 1e100]], mode="float")
    with pytest.raises(errors.TooLarge):
        gibbs.z_torus(system, dims)
    _, exact = float_twins(system)
    assert float(gibbs.z_torus(exact, dims)) == pytest.approx(2.0)


def test_float_z_torus_of_an_empty_support_is_zero():
    """af_potts q=2 beta=inf on a 3x3 torus: no proper 2-colouring of an odd
    cycle, an exact 0 in both modes."""
    system, exact = float_twins(catalog.build("af_potts", q=2))
    assert gibbs.z_torus(system, (3, 3)) == 0.0
    assert gibbs.z_torus(exact, (3, 3)) == 0


def test_log_z_per_site():
    val = log_number(gibbs.z_torus(HC, (4, 4))) / math.prod((4, 4))
    z = gibbs.z_torus(HC, (4, 4))
    assert abs(val - math.log(z) / 16) < 1e-12
    # the big-integer log path agrees with math.log on moderate numbers
    assert abs(log_number(7 ** 500) - 500 * math.log(7)) < 1e-6


# ---------------------------------------------------------------------------
# MCMC

def test_initial_pattern_config():
    lat = make_box((4, 4))
    init = gibbs.initial_pattern_config(AF3, lat,
                                        P0_AF3)
    for v in range(lat.n):
        assert init[v] == (0 if lat.parity(v) == 0 else 1)
    with pytest.raises(errors.NoAdmissibleStart):
        gibbs.initial_pattern_config(
            AF3, lat, Pattern(0, 0b110))


def test_mcmc_guards():
    bc = P0_AF3
    with pytest.raises(errors.UnsupportedLattice):
        gibbs.run_mcmc(AF3, make_torus((4, 4)), bc, 0, n_sweeps=10)
    # hard constraints without a universally compatible state
    with pytest.raises(errors.IrreducibilityUnknown):
        gibbs.run_mcmc(AF3, make_box((4, 4)), bc, (1, 1), n_sweeps=10)
    res = gibbs.run_mcmc(AF3, make_box((4, 4)), bc, (1, 1), n_sweeps=10,
                         force=True)
    assert res.n_sweeps == 10
    with pytest.raises(errors.SchemaError):
        gibbs.run_mcmc(AF3, make_box((4, 4)), bc, (1, 1), n_sweeps=-1,
                       force=True)
    big = catalog.build("af_potts", q=30)
    with pytest.raises(errors.StateSpaceTooLarge):
        cum, offsets = gibbs._build_rows(big, 4, [(big.full_mask(), 0)])


def test_mcmc_bookkeeping_and_determinism():
    system = catalog.build("af_potts", q=3, beta=1)
    lat = make_box((4, 4))
    bc = P0_AF3
    res1 = gibbs.run_mcmc(system, lat, bc, (2, 2), n_sweeps=100, seed=7)
    assert res1.burn_in == 10 and res1.rng_id == "numpy-pcg64"
    assert sum(res1.trace_counts.values()) == 90
    assert abs(sum(res1.marginal.values()) - 1.0) < 1e-12
    res2 = gibbs.run_mcmc(system, lat, bc, (2, 2), n_sweeps=100, seed=7)
    assert res1.marginal == res2.marginal
    assert res1.config == res2.config
    res3 = gibbs.run_mcmc(system, lat, bc, (2, 2), n_sweeps=100, seed=8)
    assert res3.config != res1.config


def test_raster_golden_trace():
    """One raster chain's stream, pinned before the loop was rewritten."""
    system = catalog.build("af_potts", q=3, beta=1)
    lat = make_box((4, 4))
    bc = P0_AF3
    res = gibbs.run_mcmc(system, lat, bc, (2, 2), n_sweeps=200, seed=5)
    assert res.rng_id == gibbs.RNG_ID
    assert res.trace_counts == {"1": 116, "2": 39, "3": 25}
    assert res.config == [0, 1, 0, 1, 1, 0, 2, 0, 0, 1, 0, 1, 2, 0, 1, 0] \
        + [3] * 16  # halo sites hold |S|


def test_checkerboard_golden_trace():
    """Thirteen checkerboard chains' stream, pinned before the kernel was
    rewritten column by column."""
    system = catalog.build("af_potts", q=3, beta=1)
    lat = make_box((4, 4))
    bc = P0_AF3
    res = gibbs.run_mcmc(system, lat, bc, (2, 2), n_sweeps=200, seed=5,
                         chains=13)
    assert res.rng_id == gibbs.CHECKERBOARD_RNG_ID
    assert res.trace_counts == {"1": 1595, "2": 391, "3": 354}
    assert res.config == [0, 1, 0, 2, 1, 2, 1, 0, 0, 1, 0, 2, 2, 0, 2, 0] \
        + [3] * 16
    assert res.configs[-1] == [0, 2, 0, 1, 2, 0, 2, 0, 0, 2, 0, 1, 1, 0, 2,
                               0] + [3] * 16


AF3_SOFT = catalog.build("af_potts", q=3, beta=1)
KERNEL_CASES = {  # system, lattice, pattern, sweeps[, recorded site]
    "af3-6x6": (AF3_SOFT, "box:6x6+halo", P0_AF3, 300),
    "af3-64x64": (AF3_SOFT, "box:64x64+halo", P0_AF3, 3),
    "hc2-cylinder": (catalog.build("hard_core", lam=2), "box:4px4+halo",
                     Pattern(0b01, 0b11), 400),
    "wr2-5x7": (catalog.build("widom_rowlinson", lam=2), "box:5x7+halo",
                Pattern(0b011, 0b011), 200),
    "af4-3x3x3": (catalog.build("af_potts", q=4), "box:3x3x3+halo",
                  Pattern(0b0011, 0b1100), 200),
    "af3-4d-slab": (AF3_SOFT, "box:4x4x2px2p+halo", P0_AF3, 100),
    "af3-side-2": (AF3_SOFT, "box:2px3+halo", P0_AF3, 1000),
    "clock9-8x8": (catalog.build("clock", q=9, m=2, beta=1), "box:8x8+halo",
                   Pattern(0b111, 0b111), 100),
    "hc1-1d": (HC, "box:17+halo", P0_HC, 400),
    # one site, every slot free: its row is read with no subscript
    "af3-1x1": (AF3_SOFT, "box:1x1+halo", Pattern(0b110, 0b001), 300),
    # 196 sites, near the raster kernel's 199, recording the last corner
    "af3-14x14-corner": (AF3_SOFT, "box:14x14+halo", P0_AF3, 60, 195),
    # 17 states: the raster kernel's pick is a tree 5 comparisons deep
    "af17-1d": (catalog.build("af_potts", q=17, beta=1), "box:9+halo",
                Pattern(0b1, (1 << 17) - 2), 200),
}


@pytest.mark.parametrize("chains", [1, 3])
@pytest.mark.parametrize("kernel", ["raster", "checkerboard"])
@pytest.mark.parametrize("case", KERNEL_CASES)
def test_kernels_reproduce_the_reference_kernels(case, kernel, chains):
    """Each kernel's traces and final configurations equal those of its
    row-by-row reference in tests/helpers.py, bit for bit: on 1D, 2D, 3D
    and 4D lattices, slabs and a periodic side of 2, soft and hard
    constraints, 2 to 17 states, one site and 196 sites.  The final values
    are Python ints, as the reference's are."""
    system, spec, pattern, n_sweeps, *site = KERNEL_CASES[case]
    lat = lm.parse_lattice(spec)
    sampler = gibbs._Chains(system, lat, pattern)
    site = site[0] if site else len(lat.interior) // 2
    reference = {"raster": raster_reference,
                 "checkerboard": checkerboard_reference}[kernel]
    runs = [run(np.random.Generator(np.random.PCG64(4)), site, n_sweeps,
                chains)
            for run in (getattr(sampler, kernel),
                        functools.partial(reference, system, lat, pattern))]
    (trace, configs), (ref_trace, ref_configs) = runs
    assert trace.dtype == ref_trace.dtype
    assert np.array_equal(trace, ref_trace)
    assert configs == ref_configs
    assert all(type(x) is int for c in configs for x in c)


def test_raster_sweeps_compile_once_per_plan():
    """run_mcmc compiles the raster sweep of a site plan (each site's kind
    and stored slots, and the recorded site) and number of states once.
    Another recorded site, or a pattern that changes the sites' kinds,
    builds a new sweep; a pattern whose kinds fall in the same order reuses
    it with its own rows.  A q = 4 system whose plan equals a q = 3 one's
    builds its own sweep, with a deeper pick, which the reference kernel
    reproduces."""
    lat = make_box((5, 5))
    af4, p4 = catalog.build("af_potts", q=4, beta=1), Pattern(0b1, 0b1110)
    gibbs._raster_sweeps.cache_clear()

    def builds(pattern, site, system=AF3_SOFT):
        res = gibbs.run_mcmc(system, lat, pattern, site, n_sweeps=3)
        assert res.rng_id == gibbs.RNG_ID
        return gibbs._raster_sweeps.cache_info().misses

    assert [builds(P0_AF3, (2, 2)), builds(P0_AF3, (2, 2)),
            builds(P0_AF3, (1, 2)), builds(Pattern(0b011, 0b011), (1, 2)),
            builds(Pattern(0b010, 0b100), (1, 2)),
            builds(p4, (1, 2), af4)] == [1, 1, 2, 3, 3, 4]
    q3, q4 = gibbs._Chains(AF3_SOFT, lat, P0_AF3), gibbs._Chains(af4, lat, p4)
    assert np.array_equal(q3.kind, q4.kind)
    assert np.array_equal(q3.slots, q4.slots)
    (trace, configs), (ref_trace, ref_configs) = [
        run(np.random.Generator(np.random.PCG64(4)), lat.site((1, 2)), 200, 1)
        for run in (q4.raster,
                    functools.partial(raster_reference, af4, lat, p4))]
    assert np.array_equal(trace, ref_trace) and configs == ref_configs
    assert gibbs._raster_sweeps.cache_info().misses == 4


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1e6),
                min_size=MAX_STATES, max_size=MAX_STATES),
       st.sampled_from([0.0, 1 - 2 ** -53]) | st.floats(0, 1,
                                                         exclude_max=True))
@example([0.0] * MAX_STATES, 0.5)
def test_raster_pick_is_bisect_left(weights, u):
    """The raster kernel's generated pick over a cumulative row of |S| = 1
    to MAX_STATES states returns bisect_left(row, u * row[-1]): with zero
    weights, ties and an all-zero row, at u = 0 and just below 1."""
    for n in range(1, MAX_STATES + 1):
        row = list(itertools.accumulate(weights[:n]))
        x = u * row[-1]
        assert eval(_picks(n), {"r": row, "x": x}) \
            == bisect.bisect_left(row, x)


@functools.cache
def _picks(n):
    return compile(gibbs._lower_bound(0, n - 1), "pick", "eval")


def test_mcmc_refuses_a_long_trace_before_building_tables(monkeypatch):
    def build(*args):
        raise AssertionError("tables built before the trace bound")

    monkeypatch.setattr(gibbs, "_build_rows", build)
    bc = P0_AF3
    lat = make_box((4, 4))  # 32 stored sites
    for chains, n_sweeps in ((1, gibbs.MAX_TRACE + 1),
                             (gibbs.MAX_TRACE // 33 + 1, 1)):
        with pytest.raises(errors.TooLarge):
            gibbs.run_mcmc(AF3_SOFT, lat, bc, (1, 1), n_sweeps=n_sweeps,
                           chains=chains)


@pytest.mark.parametrize("system", [catalog.build("af_potts", q=3, beta=1),
                                    catalog.build("hard_core", lam=2)],
                         ids=["af_potts", "hard_core"])
@pytest.mark.parametrize("d", [2, 3])
def test_build_tables_matches_reference(system, d):
    """Each kind's rows (an allowed mask and f free slots) are the reference
    table restricted to the values its slots hold, |S| on f free slots and
    0 .. |S|-1 on the others, wherever the free slots are."""
    n, deg = system.n, 2 * d
    masks = sorted({system.full_mask(), 0b001, 0b010, system.full_mask() - 1})
    kinds = [(mask, f) for mask in masks for f in range(deg + 1)]
    tables = build_tables_reference(system, d, masks)
    cum, offsets = gibbs._build_rows(system, deg, kinds)
    for (mask, f), lo, hi in zip(kinds, offsets, offsets[1:]):
        rows = cum[:, lo:hi].T
        table = tables[masks.index(mask)].reshape((n + 1,) * deg + (n,))
        for free in itertools.combinations(range(deg), f):
            assert np.array_equal(rows, table[tuple(
                slice(n, None) if j in free else slice(n)
                for j in range(deg))].reshape(rows.shape))


def test_kernel_choice_follows_chains_times_sites():
    system = catalog.build("af_potts", q=3, beta=1)
    lat = make_box((6, 6))
    bc = P0_AF3
    below = (gibbs.CHECKERBOARD_MIN_UPDATES - 1) // len(lat.interior)
    for chains, rng_id in ((below, gibbs.RNG_ID),
                           (below + 1, gibbs.CHECKERBOARD_RNG_ID)):
        res = gibbs.run_mcmc(system, lat, bc, (3, 3), n_sweeps=5,
                             chains=chains)
        assert res.rng_id == rng_id and res.chains == chains
        assert len(res.configs) == chains
        assert sum(res.trace_counts.values()) == 4 * chains
    with pytest.raises(errors.SchemaError):
        gibbs.run_mcmc(system, lat, bc, (3, 3), n_sweeps=5, chains=0)


def test_checkerboard_matches_exact_marginal():
    system = catalog.build("af_potts", q=3, beta=1)
    lat = make_box((6, 6))
    bc = P0_AF3
    res = gibbs.run_mcmc(system, lat, bc, (3, 3), n_sweeps=4000, seed=3,
                         chains=64)
    assert res.rng_id == gibbs.CHECKERBOARD_RNG_ID and res.n_batches == 64
    assert sum(res.trace_counts.values()) == 64 * 3600
    dev = abs(res.marginal["1"] - 0.5416622264791822)
    assert dev <= 4 * res.se["1"], (dev, res.se["1"])
    # every chain stays inside the boundary constraint
    allowed = gibbs.pattern_masks(system, lat, bc)
    for cfg in res.configs:
        for v in lat.interior:
            assert allowed[v] >> cfg[v] & 1


@pytest.mark.parametrize("chains, rng_id", [
    (1, gibbs.RNG_ID), (16, gibbs.CHECKERBOARD_RNG_ID)])
def test_mcmc_on_a_cylinder_matches_enumeration(chains, rng_id):
    """hard_core lam=1 on box:4px4+halo: axis 0 wraps, axis 1 is open, so
    the internal boundary is columns 0 and 3, whose even sites are held
    empty.  The oracle weighs all 2^16 interior configurations."""
    lat = lm.parse_lattice("box:4px4+halo")
    bc = P0_HC
    assert internal_boundary(lat) \
        == frozenset(4 * r + c for r in range(4) for c in (0, 3))
    grid = ((np.arange(2 ** 16)[:, None] >> np.arange(16)) & 1) \
        .reshape(-1, 4, 4).astype(bool)  # [config, row, column]
    ok = ~(grid & np.roll(grid, 1, axis=1)).any(axis=(1, 2))  # wraps
    ok &= ~(grid[:, :, 1:] & grid[:, :, :-1]).any(axis=(1, 2))
    r, c = np.indices((4, 4))
    ok &= ~grid[:, ((r + c) % 2 == 0) & ((c == 0) | (c == 3))].any(axis=1)
    exact = grid[ok].mean(axis=0)
    # (0, 2) neighbors (3, 2) across the wrap: 0.099, or 0.140 without it;
    # (1, 1) is off the boundary: 0.099, or 0.068 on the 4x4 box
    for site in ((0, 2), (1, 1)):
        res = gibbs.run_mcmc(HC, lat, bc, site, chains=chains, seed=11,
                             n_sweeps=20000 if chains == 1 else 2000)
        assert res.rng_id == rng_id
        dev = abs(res.marginal["1"] - exact[site])
        assert dev <= 4 * res.se["1"], (site, dev, res.se["1"])


def test_periodic_side_of_two_is_a_double_edge_for_the_sampler():
    """On box:2px3+halo the across neighbour of a site fills both slots of
    the periodic axis, so its interaction enters the heat-bath law squared
    (z_torus counts that pair as one edge instead)."""
    system = catalog.build("af_potts", q=3, beta=1)
    lat = lm.parse_lattice("box:2px3+halo")
    v, across = lat.site((0, 1)), lat.site((1, 1))
    assert lat.nbr[v].tolist() == [across, across, lat.site((0, 0)),
                                   lat.site((0, 2))]
    chains = gibbs._Chains(system, lat, P0_AF3)
    values = [1, 1, 0, 2]  # the slot values: across twice, then axis 1
    assert chains.slots[v].tolist() == lat.nbr[v].tolist()  # none free
    row = chains.cum[:, chains.offsets[chains.kind[v]]
                     + np.ravel_multi_index(values, (system.n,) * 4)]
    law = np.diff(row, prepend=0.0) / row[-1]
    wgt = np.array([float(system.activities[s])
                    * math.prod(float(system.interactions[s][x])
                                for x in values) for s in range(system.n)])
    assert np.allclose(law, wgt / wgt.sum(), rtol=1e-12, atol=0)
    single = wgt / np.array([float(system.interactions[s][1])
                             for s in range(system.n)])
    assert not np.allclose(law, single / single.sum(), rtol=1e-3)


def test_raster_kernel_on_a_five_dimensional_slab_is_quick():
    """One raster chain on box:4x4x2px2px2p+halo (d = 5, 128 sites): 100
    sweeps take about 0.15 s on 2 vCPUs.  Only the rows a site can reach
    are built and nested; nesting every class's whole table (9.4 M floats)
    took over 4 s."""
    lat = lm.parse_lattice("box:4x4x2px2px2p+halo")
    t0 = time.monotonic()
    res = gibbs.run_mcmc(AF3_SOFT, lat, P0_AF3, (1, 1, 0, 0, 0),
                         n_sweeps=100)
    assert time.monotonic() - t0 < 3.0
    assert res.rng_id == gibbs.RNG_ID and res.n_sweeps == 100


def test_chains_on_a_five_dimensional_slab_stay_small():
    """_Chains on box:4x4x2px2px2p+halo builds only the rows its sites can
    reach: about 5 MB under tracemalloc, where the whole tables of its
    classes peaked at 144 MB."""
    lat = lm.parse_lattice("box:4x4x2px2px2p+halo")
    tracemalloc.start()
    try:
        gibbs._Chains(AF3_SOFT, lat, P0_AF3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20, peak


def test_checkerboard_on_a_six_dimensional_slab_reads_its_rows_in_place():
    """box:8x8x2px2px2px2p+halo (d = 6, 3.0 M cumulative weights, 24 MB):
    the checkerboard kernel reads the one array of rows without copying it,
    so 20 sweeps allocate under 2 MB of their own, and a 20-sweep run_mcmc
    peaks near 48 MB under tracemalloc.  A second, F-ordered copy of the
    rows, which numpy copied again on every half-sweep, made these 38 MB
    and 62 MB."""
    lat = lm.parse_lattice("box:8x8x2px2px2px2p+halo")
    sampler = gibbs._Chains(AF3_SOFT, lat, P0_AF3)
    peaks = []
    for run in (lambda: sampler.checkerboard(
                    np.random.Generator(np.random.PCG64(0)), 3, 20, 1),
                lambda: gibbs.run_mcmc(AF3_SOFT, lat, P0_AF3,
                                       (3, 3, 0, 0, 0, 0), n_sweeps=20)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2 * 2 ** 20, peaks
    assert peaks[1] <= 50 * 2 ** 20, peaks


def test_rows_of_a_six_dimensional_slab_are_built_without_a_masked_copy():
    """box:8x8x2px2px2px2p+halo: beside the 24 MB of rows, building them
    holds one kind's products (12.75 MB for the kind with no free slot),
    about 39.5 MB in all under tracemalloc.  Masking the products after
    multiplying held a second copy of that block: 47.5 MB."""
    lat = lm.parse_lattice("box:8x8x2px2px2px2p+halo")
    tracemalloc.start()
    try:
        gibbs._Chains(AF3_SOFT, lat, P0_AF3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 43 * 2 ** 20, peak


def test_slab_runs_the_sampler_but_not_the_box_dp():
    lat = lm.parse_lattice("box:4x4px3+halo")
    bc = P0_AF3
    with pytest.raises(errors.UnsupportedLattice):
        gibbs.z_pattern_box(AF3, lm.parse_lattice("box:4px4+halo"), bc)
    res = gibbs.run_mcmc(AF3, lat, bc, (1, 1, 1), n_sweeps=20, force=True)
    for v in internal_boundary(lat):
        assert pattern_side(bc, lat, v) >> res.config[v] & 1


@pytest.mark.parametrize("chains", [1, 16])
def test_mcmc_runs_in_three_dimensions(chains):
    """A 3x3x3 box: one chain (27 sites) takes the raster kernel, 16 chains
    the checkerboard kernel."""
    system = catalog.build("af_potts", q=3, beta=1)
    lat = make_box((3, 3, 3))
    bc = P0_AF3
    res = gibbs.run_mcmc(system, lat, bc, (1, 1, 1), n_sweeps=50, seed=2,
                         chains=chains)
    assert res.rng_id == (gibbs.RNG_ID if chains == 1
                          else gibbs.CHECKERBOARD_RNG_ID)
    assert abs(sum(res.marginal.values()) - 1.0) < 1e-12
    for cfg in res.configs:
        assert all(0 <= cfg[v] < 3 for v in lat.interior)
        for v in internal_boundary(lat):
            assert pattern_side(bc, lat, v) >> cfg[v] & 1
