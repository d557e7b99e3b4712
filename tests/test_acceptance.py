"""End-to-end checks of the library's headline behaviors: closed-form
parameter tables, pattern structure, partition-function oracles, global
enumeration bounds, boundary identities, breakup extraction, restriction
scenarios, sampling accuracy, transformation identities, and the condition
checker."""

import math
import random
import time
from fractions import Fraction

import pytest

from helpers import (NotLiftPermitting, NotTabulated, charts,
                     check_lift_permitting, classify, config_weight,
                     edge_boundary_size, expand_spec, expected_parameters,
                     graph_z, internal_boundary, is_odd_set, make_box,
                     make_torus, neighbor_lists, odd_set_identity,
                     ordered_config, prism, random_graph,
                     random_independent_config, random_odd_set,
                     random_proper_coloring, random_rational_system,
                     scenario_checks, torus_graph, z_bruteforce)
from spinlab import breakup as bk
from spinlab import catalog, gibbs
from spinlab import kbipartite as kb
from spinlab import lattice as lm
from spinlab import parameters, patterns
from spinlab.patterns import Pattern
from spinlab.system import (bipartite_cover, product, project_from_doubled,
                            reweight)

INF = math.inf


# ---------------------------------------------------------------------------
# 1. closed-form parameter table over the model grid

GRID_Q = range(3, 9)
GRID_LAM = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2),
            Fraction(4)]
GRID_M = [1, 2]


def _grid_combos():
    combos = []
    for q in GRID_Q:
        combos.append(("af_potts", {"q": q}, "af_potts"))
    for q in GRID_Q:
        for m in GRID_M:
            if 4 * m < q:
                combos.append(("clock", {"q": q, "m": m}, "clock"))
    for lam in GRID_LAM:
        combos.append(("hard_core", {"lam": lam}, "hard_core"))
        combos.append(("widom_rowlinson", {"lam": lam}, "wr"))
        combos.append(("beach", {"lam": lam},
                       "beach_hi" if lam > 1 else "beach_lo"))
    for q in GRID_Q:
        for lam in GRID_LAM:
            combos.append(("multi_wr", {"q": q, "lam": lam},
                           "multi_wr_lo" if lam < q - 2 else "multi_wr_hi"))
            combos.append(("anti_wr", {"q": q, "lam": lam}, "anti_wr"))
            combos.append(("multi_beach", {"q": q, "lam": lam},
                           "multi_beach_hi" if lam > q - 1
                           else "multi_beach_lo"))
            combos.append(("multi_occupancy_hc_v2", {"q": q, "lam": lam},
                           "mo_hc"))
    return combos


def test_parameter_table_matches_closed_forms():
    t0 = time.monotonic()
    rows_seen = set()
    n_checked = 0
    for name, params, row in _grid_combos():
        try:
            exp = expected_parameters(name, **params)
        except NotTabulated:
            continue
        system = catalog.build(name, **params)
        st = patterns.structure(system)
        omega, rho_bulk, rho_bdry = (st.omega_dom, st.rho_pat_bulk,
                                     st.rho_pat_bdry)
        assert omega == exp["omega_dom"], (name, params)
        for rho, inv in ((rho_bulk, exp["inv_rho_bulk"]),
                         (rho_bdry, exp["inv_rho_bdry"])):
            if inv == INF:
                assert rho == 0, (name, params)
            else:
                assert rho != 0 and Fraction(1) / rho == inv, (name, params)
        rows_seen.add(row)
        n_checked += 1
    assert n_checked == 139
    assert rows_seen == {
        "af_potts", "clock", "hard_core", "wr", "beach_lo", "beach_hi",
        "multi_wr_lo", "multi_wr_hi", "anti_wr", "multi_beach_lo",
        "multi_beach_hi", "mo_hc"}
    assert len(rows_seen) == 12
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. dominant-pattern structure

def test_dominant_pattern_structure():
    t0 = time.monotonic()
    expected_counts = {3: 6, 4: 6, 5: 20, 6: 20, 7: 70, 8: 70}
    for q, count in expected_counts.items():
        system = catalog.build("af_potts", q=q)
        dom, _, _ = patterns.dominant_patterns(system)
        assert len(dom) == count
        lo, hi = q // 2, (q + 1) // 2
        comb = math.comb(q, lo)
        assert count == (comb if lo == hi else 2 * comb)

    for q, m in ((5, 1), (9, 2)):
        system = catalog.build("clock", q=q, m=m)
        dom, omega, _ = patterns.dominant_patterns(system)
        assert omega == (m + 1) ** 2
        expected = set()
        for i in range(q):
            mask = 0
            for k in range(m + 1):
                mask |= 1 << ((i + k) % q)
            expected.add(Pattern(mask, mask))
        assert set(dom) == expected
        assert all(p.a == p.b for p in dom)

    for lam, count in ((Fraction(2), 2), (Fraction(1, 2), 1)):
        dom, _, _ = patterns.dominant_patterns(catalog.build("beach", lam=lam))
        assert len(dom) == count
    system = catalog.build("beach", lam=1)
    dom, _, _ = patterns.dominant_patterns(system)
    assert len(dom) == 3
    assert len(patterns.dominant_classes(system)[0]) != 1
    classes = patterns.equivalence_classes(system, dom)
    assert sorted(len(c) for c in classes) == [1, 2]
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 3. composition evaluator vs. brute force

def _random_spec(rng, system, d):
    n = system.n
    kind = rng.choice(["product", "class", "class", "class_minus",
                       "class_intersect_product"])
    eps = rng.choice([0.125, 0.25])
    eps_bar = rng.choice([0.125, 0.25])
    if kind == "product":
        coords = [rng.randrange(1, 1 << n) for _ in range(2 * d)]
        return kb.PsiSpec(coords=coords)
    J = rng.randrange(1, 1 << n)
    classes = ["full", "near_dominant", "near_subset", "balanced"]
    cls = rng.choice(classes)
    if kind == "class":
        return kb.PsiSpec(J=J, cls=cls, eps=eps, eps_bar=eps_bar)
    if kind == "class_minus":
        cls2 = rng.choice([c for c in classes if c != cls])
        return kb.PsiSpec(J=J, cls=cls, cls2=cls2, eps=eps, eps_bar=eps_bar)
    coords = [rng.randrange(1, 1 << n) for _ in range(2 * d)]
    return kb.PsiSpec(coords=coords, J=J, cls=cls, eps=eps, eps_bar=eps_bar)


def test_composition_evaluator_matches_brute_force():
    t0 = time.monotonic()
    rng = random.Random(12345)
    for _ in range(200):
        system = random_rational_system(rng, 2, 4)
        d = rng.choice([1, 2])
        spec = _random_spec(rng, system, d)
        i_mask = rng.randrange(1, 1 << system.n)
        fast = kb.z_compositions(system, d, spec, i_mask)
        slow = z_bruteforce(system, d, expand_spec(system, d, spec), i_mask)
        assert fast == slow

    # hand-checked value: 2-state hard-core on K_{2,2}, both sides free
    hc = catalog.build("hard_core", lam=1)
    spec = kb.PsiSpec(coords=[0b11, 0b11])
    assert kb.z_compositions(hc, 1, spec, 0b11) == 7

    # a dominant pattern contributes exactly its weight to the 2d-th power
    for name, params in (("af_potts", {"q": 3}), ("hard_core", {"lam": 2}),
                         ("widom_rowlinson", {"lam": 2})):
        system = catalog.build(name, **params)
        dom, omega, _ = patterns.dominant_patterns(system)
        for p in dom:
            for d in (1, 2):
                spec = kb.PsiSpec(coords=[p.a] * (2 * d))
                assert kb.z_compositions(system, d, spec, p.b) \
                    == omega ** (2 * d)
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 4. global enumeration bounds on the 4x4 torus

MODELS_SMALL = [
    ("af_potts", {"q": 3}),
    ("af_potts", {"q": 4}),
    ("af_potts_field", {"q": 3, "lam": 2}),
    ("af_ising_field", {"lam": 2}),
    ("hard_core", {"lam": 1}),
    ("hard_core_unequal", {"lam_e": 2, "lam_o": 3}),
    ("widom_rowlinson", {"lam": 1}),
    ("beach", {"lam": 2}),
    ("multi_wr", {"q": 3, "lam": 1}),
    ("anti_wr", {"q": 3, "lam": 1}),
    ("multi_beach", {"q": 2, "lam": 1}),
    ("multi_occupancy_hc_v1", {"q": 3, "lam": 1}),
    ("multi_occupancy_hc_v2", {"q": 3, "lam": 1}),
]


def test_torus_partition_function_bounds():
    t0 = time.monotonic()
    for name, params in MODELS_SMALL:
        system = catalog.build(name, **params)
        assert system.mode == "rational" and system.n <= 4
        z = gibbs.z_torus(system, (4, 4))
        full = system.full_mask()
        zk = kb.z_compositions(system, 2, kb.PsiSpec(coords=[full] * 4), full)
        _, omega, _ = patterns.dominant_patterns(system)
        assert z <= zk * zk, name
        assert z >= omega ** 8, name
        bound = math.log(zk) / 8
        assert math.log(z) <= 16 * bound + 1e-9, name
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 5. boundary identity for odd sets

def test_odd_set_boundary_identity():
    t0 = time.monotonic()
    rng = random.Random(0)
    for dims in ((10, 10), (5, 5, 5)):
        lat = make_box(dims)
        deg = lat.degree
        for _ in range(100):
            u_set = random_odd_set(lat, rng)
            assert is_odd_set(lat, u_set)
            lhs, rhs = odd_set_identity(lat, u_set)
            assert lhs == rhs
            if u_set:
                assert edge_boundary_size(lat, u_set) >= deg * (deg - 1)
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 6. breakup construction soundness

def test_breakup_construction_sound_on_random_configs():
    t0 = time.monotonic()
    rng = random.Random(0)
    lat = make_box((6, 6))

    af3 = catalog.build("af_potts", q=3)
    p0_af3 = Pattern(0b001, 0b110)
    region = internal_boundary(lat)
    for _ in range(50):
        f = random_proper_coloring(lat, rng, region)
        atlas = bk.construct_breakup(af3, lat, f, p0_af3)
        report = bk.verify_breakup(af3, lat, f, p0_af3, atlas)
        assert report["pass"], report
        assert lm.plus_r(lat, lm.sites(atlas.x_star()), 5) \
            == lm.sites(atlas.b)

    hc = catalog.build("hard_core", lam=1)
    p0_hc = Pattern(0b01, 0b11)
    region = internal_boundary(lat)
    for _ in range(50):
        f = random_independent_config(lat, rng, region)
        atlas = bk.construct_breakup(hc, lat, f, p0_hc)
        report = bk.verify_breakup(hc, lat, f, p0_hc, atlas)
        assert report["pass"], report
        assert lm.plus_r(lat, lm.sites(atlas.x_star()), 5) \
            == lm.sites(atlas.b)
    assert time.monotonic() - t0 < 60.0


def test_breakup_trivial_on_ordered_config():
    lat = make_box((6, 6))
    af3 = catalog.build("af_potts", q=3)
    p0 = Pattern(0b001, 0b110)
    f = ordered_config(lat)
    atlas = bk.construct_breakup(af3, lat, f, p0)
    assert bk.verify_breakup(af3, lat, f, p0, atlas)["pass"]
    assert atlas.stats() == {"L": 0, "M": 0, "N": 0}
    x_p = charts(atlas)[0]
    assert x_p[p0] == frozenset(range(lat.n))
    for p in atlas.ctx.pats:
        if p != p0:
            assert x_p[p] == frozenset()


# ---------------------------------------------------------------------------
# 7. restriction scenarios

def _af3_background(lat):
    f = [None] * lat.n
    for v in range(lat.n):
        _, c = lat.coords[v]
        f[v] = 0 if lat.parity(v) == 0 else (1 if c % 2 == 0 else 2)
    return f


def test_scenario_witnesses():
    t0 = time.monotonic()
    lat = make_torus((4, 4))
    v = lat.site((0, 0))

    af3 = catalog.build("af_potts", q=3)
    p0_af3 = Pattern(0b001, 0b110)

    # a vertex whose whole neighborhood is pinned to one value
    f = _af3_background(lat)
    for u in neighbor_lists(lat)[v]:
        f[u] = 1
    f[v] = 0
    omega = [tuple(f)]
    u = neighbor_lists(lat)[v][0]
    fired = scenario_checks(af3, lat, tuple(f), omega, v, u, p0_af3)
    assert fired == {"scenario_1": True, "scenario_2": False,
                     "scenario_3": False, "scenario_4": False}

    # a split neighborhood keeping one neighbor on a boundary side
    f = _af3_background(lat)
    nb = neighbor_lists(lat)[v]
    f[nb[0]], f[nb[1]], f[nb[2]], f[nb[3]] = 1, 1, 2, 2
    f[v] = 0
    omega = [tuple(f)]
    u = nb[0]
    fired = scenario_checks(af3, lat, tuple(f), omega, v, u, p0_af3)
    assert fired["scenario_3"] and fired["scenario_4"]

    af4 = catalog.build("af_potts", q=4)
    p0_af4 = Pattern(0b0011, 0b1100)
    f = [0 if lat.parity(w) == 0 else 2 for w in range(lat.n)]
    nb = neighbor_lists(lat)[v]
    f[nb[0]], f[nb[1]], f[nb[2]], f[nb[3]] = 2, 2, 3, 3
    f[v] = 0
    omega = [tuple(f)]
    fired = scenario_checks(af4, lat, tuple(f), omega, v, nb[0], p0_af4)
    assert fired["scenario_2"]
    fired = scenario_checks(af4, lat, tuple(f), omega, v, nb[2], p0_af4)
    assert fired["scenario_4"]

    # randomized sweep; the implication scenario => restricted is checked
    # inside scenario_checks for every firing tuple
    rng = random.Random(0)
    for i in range(500):
        system, p0 = (af3, p0_af3) if i % 2 == 0 else (af4, p0_af4)
        f = tuple(rng.randrange(system.n) for _ in range(lat.n))
        omega = {f}
        for _ in range(rng.randrange(3)):
            g = list(f)
            for _ in range(rng.randint(1, 3)):
                g[rng.randrange(lat.n)] = rng.randrange(system.n)
            omega.add(tuple(g))
        vv = rng.randrange(lat.n)
        uu = rng.choice(neighbor_lists(lat)[vv])
        scenario_checks(system, lat, f, sorted(omega), vv, uu, p0)

    # unique explaining value set without any restriction
    hc = catalog.build("hard_core", lam=1)
    f = [0] * lat.n
    f[v] = 1
    omega = [tuple(f)]
    cls = classify(hc, lat, tuple(f), omega, v, u=neighbor_lists(lat)[v][0])
    assert cls["restricted"] is False
    assert cls["unique_pattern"] is True
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 8. sampler agrees with the exact marginal

def test_mcmc_matches_exact_marginal():
    t0 = time.monotonic()
    system = catalog.build("af_potts", q=3, beta=1)
    lat = make_box((6, 6))
    boundary = Pattern(0b001, 0b110)
    site = (3, 3)
    exact = gibbs.exact_measure(system, lat, boundary, site)
    assert abs(exact["1"] - 0.5416622264791822) < 1e-9
    for seed in (1, 2, 3):
        res = gibbs.run_mcmc(system, lat, boundary, site,
                             n_sweeps=10 ** 6, seed=seed)
        for label in system.states:
            dev = abs(res.marginal[label] - exact[label])
            assert dev <= 3 * res.se[label], (seed, label, dev,
                                              res.se[label])
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 9. transformation identities

def test_reweight_invariance_on_regular_graph():
    t0 = time.monotonic()
    system = catalog.build("af_potts", q=3, beta=1)
    rew = reweight(system, [1.7, 0.4, 2.5], d=2)
    g = torus_graph((4, 4))  # 4-regular, matching 2d = 4
    rng = random.Random(1)
    for _ in range(50):
        f = [rng.randrange(3) for _ in range(g.n_vertices)]
        w1 = config_weight(system, g, f)
        w2 = config_weight(rew, g, f)
        assert abs(w2 - w1) <= 1e-10 * abs(w1)
    assert time.monotonic() - t0 < 30.0


def test_product_system_factorizes():
    t0 = time.monotonic()
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng)
        s1 = random_rational_system(rng, 2, 3)
        s2 = random_rational_system(rng, 2, 2)
        sp = product(s1, s2)
        assert graph_z(sp, g) == graph_z(s1, g) * graph_z(s2, g)
    assert time.monotonic() - t0 < 30.0


def test_projection_matches_doubled_graph():
    t0 = time.monotonic()
    rng = random.Random(10)
    for _ in range(20):
        g = random_graph(rng)
        system = random_rational_system(rng, 2, 2)
        proj = project_from_doubled(system)
        assert graph_z(system, prism(g)) == graph_z(proj, g)
    assert time.monotonic() - t0 < 30.0


def test_bipartite_cover_of_hard_core():
    hc = catalog.build("hard_core", lam=1)
    cover, phi = bipartite_cover(hc)
    assert cover.n == 4
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)
             if cover.interactions[i][j] > 0]
    degs = sorted(sum(1 for e in edges if v in e) for v in range(4))
    assert degs == [1, 1, 2, 2]  # a path on four vertices
    assert check_lift_permitting(hc, cover.states, edges, phi) is True


def test_lift_permitting_cycles():
    # triangle system; its 6-cycle double cover keeps 4-walk endpoints apart
    tri = catalog.build("af_potts", q=3)
    c6 = [(i, (i + 1) % 6) for i in range(6)]
    phi6 = [i % 3 for i in range(6)]
    assert check_lift_permitting(tri, [str(i) for i in range(6)], c6,
                                 phi6) is True
    # 4-cycle system; its 8-cycle double cover does not
    from spinlab.system import make_system
    c4 = make_system(["0", "1", "2", "3"], [1, 1, 1, 1],
                     [[1 if min((i - j) % 4, (j - i) % 4) == 1 else 0
                       for j in range(4)] for i in range(4)])
    c8 = [(i, (i + 1) % 8) for i in range(8)]
    phi8 = [i % 4 for i in range(8)]
    with pytest.raises(NotLiftPermitting):
        check_lift_permitting(c4, [str(i) for i in range(8)], c8, phi8)


# ---------------------------------------------------------------------------
# 10. condition checker on the hard-core model

def test_condition_checker_hard_core():
    t0 = time.monotonic()
    system = catalog.build("hard_core", lam=1)

    rep = parameters.check_condition(system, 100, "simple")
    assert not rep.passes
    main = rep.inequalities[0]
    assert main.lhs == math.log(2)
    assert main.rhs == 2 * math.log(100) ** 1.5 / 100 ** 0.25
    assert rep.inequalities[1].vacuous  # no soft interactions present

    rep = parameters.check_condition(system, 10 ** 12, "simple")
    assert rep.passes
    assert abs(rep.inequalities[0].rhs - 0.29048612803298374) < 1e-12

    ds = sorted({int(round(100 * (1e10) ** (i / 12))) for i in range(13)})
    verdicts = [parameters.check_condition(system, d, "simple").passes
                for d in ds]
    assert verdicts == sorted(verdicts)  # one threshold crossing
    assert verdicts[0] is False and verdicts[-1] is True
    assert time.monotonic() - t0 < 1.0
