import random

import numpy as np
import pytest

from spinlab import breakup as bk
from spinlab import catalog, cli, errors, patterns
from spinlab import lattice as lm
from spinlab.patterns import Pattern

import helpers
from helpers import (RefBreakup, RefScenarios, _nv_mask, charts, classify,
                     copy_atlases, is_highly_energetic, is_non_dominant,
                     is_restricted, is_unbalanced, make_box, make_torus,
                     neighbor_lists, ordered_config, scenario_checks,
                     with_charts)
from test_breakup_golden import BREAKUPS, _config as _golden_config

AF3 = catalog.build("af_potts", q=3)
AF4 = catalog.build("af_potts", q=4)
AF5 = catalog.build("af_potts", q=5)
P0 = Pattern(0b001, 0b110)
P0_AF4 = Pattern(0b0011, 0b1100)
P0_AF5 = Pattern(0b00011, 0b11100)


# ---------------------------------------------------------------------------
# context validation

def test_context_rejects_bad_reference_patterns():
    lat = make_box((4, 4))
    f = [0] * lat.n
    with pytest.raises(errors.BoundaryNotInPattern):
        bk.BreakupContext(AF3, lat, f, Pattern(0b111, 0b111))
    # dominant but with the larger side first
    with pytest.raises(errors.BoundaryNotInPattern):
        bk.BreakupContext(AF3, lat, f, Pattern(0b110, 0b001))


def test_context_rejects_inequivalent_dominant_patterns():
    beach = catalog.build("beach", lam=1)
    dom, _, _ = patterns.dominant_patterns(beach)
    p0 = next(p for p in dom
              if bin(p.a).count("1") <= bin(p.b).count("1"))
    lat = make_box((4, 4))
    with pytest.raises(errors.DominantPatternsNotEquivalent):
        bk.BreakupContext(beach, lat, [0] * lat.n, p0)


# ---------------------------------------------------------------------------
# atlas construction on explicit configurations

def test_ordered_config_gives_trivial_atlas():
    lat = make_box((12, 12))
    f = ordered_config(lat)
    atlas = bk.construct_breakup(AF3, lat, f, P0)
    assert atlas.stats() == {"L": 0, "M": 0, "N": 0}
    assert charts(atlas)[0][P0] == frozenset(range(lat.n))
    report = bk.verify_breakup(AF3, lat, f, P0, atlas)
    assert report["pass"], [k for k, v in report.items()
                            if isinstance(v, dict) and not v["holds"]]


def test_single_flip_creates_local_defect():
    lat = make_box((12, 12))
    f = ordered_config(lat)
    flip = lat.site((6, 6))  # even site, moved off its pattern side
    f[flip] = 1
    atlas = bk.construct_breakup(AF3, lat, f, P0)
    report = bk.verify_breakup(AF3, lat, f, P0, atlas)
    assert report["pass"], [k for k, v in report.items()
                            if isinstance(v, dict) and not v["holds"]]
    stats = atlas.stats()
    assert stats["N"] >= 1
    assert all(flip not in x for x in charts(atlas)[0].values())
    assert atlas.b[flip]
    assert lm.sites(atlas.x_star()) <= lm.sites(atlas.b)


def test_verify_detects_corrupted_atlas():
    lat = make_box((12, 12))
    f = ordered_config(lat)
    atlas = bk.construct_breakup(AF3, lat, f, P0)
    h = next(iter(lat.halo))
    x_p, xp_p = charts(atlas)
    broken = with_charts(atlas, {p: (s - {h} if p == P0 else s)
                                 for p, s in x_p.items()}, xp_p)
    report = bk.verify_breakup(AF3, lat, f, P0, broken)
    assert not report["pass"]
    assert not report["exterior_in_reference_chart"]["holds"]


def test_verify_reads_the_configuration_it_is_given():
    lat = make_box((12, 12))
    f = ordered_config(lat)
    atlas = bk.construct_breakup(AF3, lat, f, P0)
    g = list(f)
    g[lat.site((6, 6))] = 1
    report = bk.verify_breakup(AF3, lat, g, P0, atlas)
    assert not report["pass"]
    assert bk.verify_breakup(AF3, lat, f, P0, atlas)["pass"]


def test_defect_localization_depends_on_viewpoints():
    lat = make_box((28, 28))
    f = ordered_config(lat)
    flip = lat.site((14, 14))
    f[flip] = 1
    # a far-away viewpoint is not cut off by the defect: it gets papered over
    far = frozenset({lat.site((2, 2))})
    atlas = bk.construct_breakup(AF3, lat, f, P0, V=far)
    assert not atlas.b[flip]
    assert flip in charts(atlas)[0][P0]
    report = bk.verify_breakup(AF3, lat, f, P0, atlas, V=far)
    assert report["pass"], [k for k, v in report.items()
                            if isinstance(v, dict) and not v["holds"]]
    # a viewpoint next to the defect keeps it in the atlas
    near = frozenset({lat.site((14, 15))})
    atlas = bk.construct_breakup(AF3, lat, f, P0, V=near)
    assert atlas.b[flip]
    report = bk.verify_breakup(AF3, lat, f, P0, atlas, V=near)
    assert report["pass"]


# ---------------------------------------------------------------------------
# agreement with the site-by-site construction and verification

HC = catalog.build("hard_core", lam=1)


def _defect_config(lat, rng, density, margin, even=(0,), odd=(1, 2),
                   states=3):
    """Pattern tiling (even sites in `even`, odd sites in `odd`) with
    uniformly random values at a fraction of the sites at least `margin`
    sites away from the box edge, in the way the benchmark's stored
    configurations are made."""
    f = []
    for v, c in enumerate(lat.coords):
        s = rng.choice(even if lat.parity(v) == 0 else odd)
        inner = min(min(x, n - 1 - x) for x, n in zip(c, lat.dims)) >= margin
        if inner and rng.random() < density:
            s = rng.randrange(states)
        f.append(s)
    return f


def _flip(lat, f, site, value=1):
    f = list(f)
    f[lat.site(site)] = value
    return f


def _cases():
    rng = random.Random(7)
    out = []
    for side in (24, 48):
        lat = make_box((side, side))
        for _ in range(2):
            out.append((AF3, lat, _defect_config(lat, rng, 0.03, 8), P0,
                        {lat.site((side // 2, side // 2))}))
    lat = make_box((32, 32))
    out.append((AF3, lat, _defect_config(lat, rng, 0.02, 13), P0,
                {lat.site((16, 16))}))
    lat = make_box((28, 28))
    flip = _flip(lat, ordered_config(lat), (14, 14))
    for V in (None, {lat.site((14, 15))}, {lat.site((2, 2))}):
        out.append((AF3, lat, flip, P0, V))
    lat = make_box((12, 12))
    flip = _flip(lat, ordered_config(lat), (6, 6))
    for V in (None, {lat.site((6, 6))}, {lat.site((0, 0))}):
        out.append((AF3, lat, flip, P0, V))
    out.append((AF3, lat, _flip(lat, ordered_config(lat), (0, 0)), P0,
                {lat.site((0, 0))}))
    out.append((AF3, lat, _defect_config(lat, rng, 0.3, 2), P0, None))
    box3 = make_box((6, 6, 6))
    out.append((AF3, box3, _defect_config(box3, rng, 0.05, 2), P0,
                {box3.site((3, 3, 3))}))
    out.append((AF4, lat, _defect_config(lat, rng, 0.1, 3, (0, 1), (2, 3),
                                         4), Pattern(0b0011, 0b1100), None))
    out.append((HC, lat, _defect_config(lat, rng, 0.1, 2, (0,), (0, 1), 2),
                Pattern(0b01, 0b11), {lat.site((6, 6))}))
    return out


def _corrupted(atlas, lat):
    """(x_p, xp_p) pairs, each with one fault: a halo site dropped from the
    reference chart, a defect site outside its chart, a chart site
    flipped."""
    x_p, xp_p = charts(atlas)
    p0 = atlas.ctx.p0
    some = next(p for p in atlas.ctx.pats if x_p[p])
    v = min(x_p[some])
    out = [({**x_p, p0: x_p[p0] - {min(lat.halo)}}, xp_p),
           ({**x_p, some: x_p[some] - {v}}, {**xp_p, some: xp_p[some] | {v}}),
           ({**x_p, some: x_p[some] ^ {max(lat.interior) // 2}}, xp_p)]
    return out


def _holds(report):
    return {k: (v if isinstance(v, bool) else v["holds"])
            for k, v in report.items()}


@pytest.mark.parametrize("case", range(len(_cases())))
def test_breakup_matches_site_by_site_reference(case):
    system, lat, f, p0, V = _cases()[case]
    ref = RefBreakup(system, lat, f, p0)
    x_p, xp_p, b = ref.construct(V)
    atlas = bk.construct_breakup(system, lat, f, p0, V)
    assert lm.sites(atlas.b) == b
    assert charts(atlas) == (x_p, xp_p)
    assert lm.sites(atlas.x_star()) == ref.star(x_p, xp_p)
    assert atlas.stats() == ref.stats(x_p, xp_p)
    assert _holds(bk.verify_breakup(system, lat, f, p0, atlas, V)) \
        == ref.verify_holds(x_p, xp_p, V)
    for bad_x, bad_xp in _corrupted(atlas, lat):
        broken = with_charts(atlas, bad_x, bad_xp)
        holds = _holds(bk.verify_breakup(system, lat, f, p0, broken, V))
        assert holds == ref.verify_holds(bad_x, bad_xp, V)
        assert not holds["pass"]
        assert lm.sites(broken.x_star()) == ref.star(bad_x, bad_xp)
        assert broken.stats() == ref.stats(bad_x, bad_xp)


def _case_groups():
    """The cases of _cases() that share a system, lattice and reference
    pattern, as lists."""
    groups = {}
    for case in _cases():
        system, lat, _, p0, _ = case
        groups.setdefault((id(system), id(lat), p0), []).append(case)
    return list(groups.values())


@pytest.mark.parametrize("k", [1, 3])
def test_breakup_on_a_disjoint_union_is_each_copys_own(k):
    """One breakup of k copies of a lattice, each with its own
    configuration and viewpoints (every window of k cases of a group, in
    turn), equals each copy's own breakup, charts, defect region and
    stats alike."""
    for group in _case_groups():
        system, lat, _, p0, _ = group[0]
        union, copy, _ = lm.disjoint_union(lat, k)
        for start in range(len(group)):
            cases = [group[(start + j) % len(group)] for j in range(k)]
            f = np.zeros(union.n, dtype=np.intp)
            V = []
            for j, (_, _, fj, _, Vj) in enumerate(cases):
                where = np.flatnonzero(copy == j)
                f[where] = fj
                V += where[list(lat.interior if Vj is None else Vj)].tolist()
            atlas = bk.construct_breakup(system, union, f, p0, V)
            stats = {key: np.bincount(copy, v[:-1], k).tolist()
                     for key, v in atlas.site_stats().items()}
            for j, ((_, _, fj, _, Vj), (gj, own)) in enumerate(
                    zip(cases, copy_atlases(atlas, lat, copy, f))):
                ref = bk.construct_breakup(system, lat, fj, p0, Vj)
                assert gj == list(fj)
                assert np.array_equal(own.x, ref.x)
                assert np.array_equal(own.xp, ref.xp)
                assert np.array_equal(own.b, ref.b)
                assert {key: v[j] for key, v in stats.items()} \
                    == ref.stats()


def _packed_cases():
    """Every case of _cases(), the q = 5 and q = 7 inputs of the golden
    file (3 and 9 byte rows) and, for every group of _case_groups(), a
    disjoint union of three copies holding its first three cases."""
    out = list(_cases())
    for name in ("af5_box12", "af7_box10"):
        model, params, pattern, spec, seed, density, margin, seen = \
            BREAKUPS[name]
        system, lat = catalog.build(model, **params), lm.parse_lattice(spec)
        values = _golden_config(system, pattern, lat, seed, density,
                                margin)["values"]
        f = [system.states.index(values[",".join(map(str, c))])
             for c in lat.coords.tolist()]
        out.append((system, lat, f, cli._parse_pattern(system, pattern),
                    {cli._lattice_site(lat, s) for s in seen.split(";")}))
    for group in _case_groups():
        system, lat, _, p0, _ = group[0]
        union, copy, orig = lm.disjoint_union(lat, 3)
        block = np.array([group[j % len(group)][2] for j in range(3)])
        out.append((system, union, block[copy, orig], p0, None))
    return out


def test_atlas_rows_are_packed_with_the_unused_bits_clear():
    """construct_breakup's x and xp are packed rows whose bits past the
    last pattern are clear (the popcount of x_star and site_stats counts
    every set bit); unpacked they are the reference's charts, and x_star
    and site_stats read them as the reference does."""
    for system, lat, f, p0, V in _packed_cases():
        atlas = bk.construct_breakup(system, lat, f, p0, V)
        ctx = atlas.ctx
        used = np.packbits(np.ones(len(ctx.pats), bool), bitorder="little")
        for rows in (atlas.x, atlas.xp):
            assert rows.dtype == np.uint8
            assert rows.shape == (len(used), lat.n + 1)
            assert not (rows & ~used[:, None]).any()
        ref = RefBreakup(system, lat, f, p0)
        x_p, xp_p, _ = ref.construct(V)
        assert [tuple(map(lm.sites, ctx.unpack(rows)))
                for rows in (atlas.x, atlas.xp)] \
            == [tuple(x_p[p] for p in ctx.pats),
                tuple(xp_p[p] for p in ctx.pats)]
        assert lm.sites(atlas.x_star()) == ref.star(x_p, xp_p)
        none, overlap, defect = ref.partition(x_p, xp_p)
        st = atlas.site_stats()
        assert (lm.sites(st["M"]), lm.sites(st["N"])) \
            == (overlap | defect, none)
        assert atlas.stats() == ref.stats(x_p, xp_p)


def _lemma_cases():
    """Every case of _cases(), then uniformly random halos around tiled,
    partly random and random interiors on a 1x1 box, a 1D box, a slab and
    a 3D box, each alone and as a disjoint union of three copies."""
    out = list(_cases())
    rng = random.Random(31)
    for spec in ("box:1x1+halo", "box:17+halo", "box:8x6p+halo",
                 "box:4x4x4+halo"):
        for lat in (lm.parse_lattice(spec),
                    lm.disjoint_union(lm.parse_lattice(spec), 3)[0]):
            for system, p0 in ((AF3, P0), (HC, Pattern(0b01, 0b11))):
                sides = [[s for s in range(system.n) if side >> s & 1]
                         for side in (p0.a, p0.b)]
                for density in (0, 0.2, 1):
                    f = [rng.randrange(system.n)
                         if v in lat.halo or rng.random() < density
                         else rng.choice(sides[lat.parity(v)])
                         for v in range(lat.n)]
                    V = None if density == 1 else {rng.choice(lat.interior)}
                    out.append((system, lat, f, p0, V))
    return out


def test_the_halo_lies_in_z_star_and_in_the_defect_region():
    """A halo site's unstored neighbor is the sentinel, so the site is on
    its chart's inner boundary or in no chart: it is in z_star, hence in
    b, and no clean component meets the halo."""
    for system, lat, f, p0, V in _lemma_cases():
        halo = lm.halo_m(lat)
        reg = bk.compute_regions(system, lat, f, p0)
        assert not (halo & ~reg.z_star).any()
        atlas = bk.construct_breakup(system, lat, f, p0, V)
        assert not (halo & ~atlas.b).any()
        assert not any((comp & halo).any() for comp in
                       lm.components_m(lat, lm.not_m(atlas.b)))


@pytest.mark.parametrize("spec", ["box:40x8p+halo", "box:40x4px4p+halo"])
def test_a_component_between_two_phases_is_refused(spec):
    """On a slab the exterior has two sides.  With the hard-core pattern
    on the upper half and its shift on the lower half, the wall between
    them cuts no viewpoint off, so one clean component spans the slab,
    and its ring lies in one chart above and in another below."""
    lat = lm.parse_lattice(spec)
    f = [int(sum(c) % 2 == (c[0] < 20)) for c in lat.coords.tolist()]
    V = {lat.site((2,) + (0,) * (lat.d - 1))}
    p0 = Pattern(0b01, 0b11)
    with pytest.raises(errors.ValidationError,
                       match="^component has 0 surrounding patterns$"):
        bk.construct_breakup(HC, lat, f, p0, V)
    with pytest.raises(errors.ValidationError):
        RefBreakup(HC, lat, f, p0).construct(V)


def test_verify_witnesses_come_in_site_order():
    lat = make_box((12, 12))
    f = ordered_config(lat)
    atlas = bk.construct_breakup(AF3, lat, f, P0)
    dropped = sorted(lat.halo)[-7:]
    x_p, xp_p = charts(atlas)
    broken = with_charts(atlas, {**x_p, P0: x_p[P0] - set(dropped)}, xp_p)
    report = bk.verify_breakup(AF3, lat, f, P0, broken)
    assert report["exterior_in_reference_chart"]["witness"] == dropped[:5]
    witness = report["chart_edge_boundary"]["witness"]
    assert witness and [w[0] for w in witness] == sorted(w[0] for w in witness)


def test_verify_witnesses_match_the_reference_past_eight_patterns():
    """af_potts q = 5 has 20 dominant patterns, three bytes of packed
    rows: an atlas of a planted configuration, corrupted at a few sites of
    a few charts (most past the eighth pattern), gets the report, holds and
    witnesses both, that the site-by-site reference finds."""
    lat = make_box((12, 12))
    rng = random.Random(5)
    f = [rng.choice((0, 1) if lat.parity(v) == 0 else (2, 3, 4))
         for v in range(lat.n)]
    for v in rng.sample([lat.site((i, j)) for i in range(3, 9)
                         for j in range(3, 9)], 4):
        f[v] = rng.randrange(5)
    atlas = bk.construct_breakup(AF5, lat, f, P0_AF5)
    x_p, xp_p = charts(atlas)
    pats = atlas.ctx.pats
    for i, v in enumerate(rng.sample(range(lat.n), 8)):
        p = pats[0] if i == 0 else rng.choice(pats[8:])
        sets = (x_p, xp_p)[i % 2]
        sets[p] = sets[p] ^ {v}
    report = bk.verify_breakup(AF5, lat, f, P0_AF5,
                               with_charts(atlas, x_p, xp_p))
    ref = RefBreakup(AF5, lat, f, P0_AF5)
    holds = ref.verify_holds(x_p, xp_p)
    witnesses = ref.verify_witnesses(x_p, xp_p)
    assert report == {**{name: {"holds": holds[name], "witness": w}
                         for name, w in witnesses.items()}, "pass": False}
    assert sum(bool(w) for w in witnesses.values()) >= 5


# ---------------------------------------------------------------------------
# per-vertex diagnostics

def test_non_dominant_neighborhood_is_restricted():
    lat = make_torus((6, 6))
    f = ordered_config(lat)
    v = lat.site((1, 1))
    nbs = sorted(neighbor_lists(lat)[v])
    for u, s in zip(nbs, (0, 1, 2, 0)):
        f[u] = s
    assert is_non_dominant(AF3, _nv_mask(AF3, lat, f, v))
    for u in nbs:
        assert is_restricted(AF3, lat, f, [], v, u)


def test_is_unbalanced_thresholds():
    lat = make_torus((4, 4))
    f = ordered_config(lat, even_state=0, odd_states=(1, 1))
    v = lat.site((1, 1))
    nbs = sorted(neighbor_lists(lat)[v])
    for u, s in zip(nbs, (2, 2, 2, 3)):
        f[u] = s
    assert is_unbalanced(AF4, lat, f, v, eps=0.125, eps_bar=0.25)
    assert not is_unbalanced(AF4, lat, f, v, eps=0.125, eps_bar=0.125)


def test_is_highly_energetic():
    lat = make_torus((4, 4))
    f = ordered_config(lat)
    v = lat.site((1, 1))
    nbs = sorted(neighbor_lists(lat)[v])
    for u, s in zip(nbs, (1, 1, 2, 2)):
        f[u] = s
    f[v] = 1
    assert is_highly_energetic(AF3, lat, f, [f], v, 0.125, 0.125)
    assert not is_unbalanced(AF3, lat, f, v, 0.125, 0.125)


def test_scenarios_silent_on_ordered_config():
    lat = make_torus((6, 6))
    f = ordered_config(lat, odd_states=(1, 2))
    g = ordered_config(lat, odd_states=(2, 1))
    v = lat.site((1, 1))
    u = sorted(neighbor_lists(lat)[v])[0]
    # with both orderings present, nothing pins v or u to one side
    fired = scenario_checks(AF3, lat, f, [f, g], v, u, P0)
    assert fired == {"scenario_1": False, "scenario_2": False,
                     "scenario_3": False, "scenario_4": False}
    # a singleton ensemble trivially pins the neighbor, and the firing
    # scenarios are internally checked to imply the restriction
    fired = scenario_checks(AF3, lat, f, [f], v, u, P0)
    assert fired["scenario_3"]
    assert is_restricted(AF3, lat, f, [f], v, u)


def test_classify_keys():
    lat = make_torus((4, 4))
    f = ordered_config(lat)
    v = lat.site((1, 1))
    u = sorted(neighbor_lists(lat)[v])[0]
    out = classify(AF3, lat, f, [f], v)
    assert set(out) == {"non_dominant", "unbalanced", "highly_energetic",
                        "unique_pattern"}
    out = classify(AF3, lat, f, [f], v, u)
    assert "restricted" in out


def test_diagnostics_refuse_a_halo_site_as_bad_input():
    lat = lm.parse_lattice("box:4x4+halo")
    f = [0] * lat.n
    v = min(lat.halo)
    u = neighbor_lists(lat)[v][0]
    for call in (lambda: classify(AF3, lat, f, [f], v),
                 lambda: is_unbalanced(AF3, lat, f, v, 0.125, 0.125),
                 lambda: scenario_checks(AF3, lat, f, [f], v, u, P0)):
        with pytest.raises(errors.ValidationError) as info:
            call()
        assert not isinstance(info.value, errors.ResourceGuard)


# ---------------------------------------------------------------------------
# restriction scenarios

def _scenario_cases(rng, system, lat, n):
    """n random (f, omega, v, u) at interior sites v: f uniform, or one
    dominant pattern's values with a few neighbors of v redrawn; omega is f
    and up to two copies with v or its neighbors redrawn."""
    dom = patterns.structure(system).dominant
    sites = sorted(lat.interior)
    for _ in range(n):
        v = rng.choice(sites)
        if rng.random() < 0.25:
            f = [rng.randrange(system.n) for _ in range(lat.n)]
        else:
            p = rng.choice(dom)
            sides = [system.mask_states(p.a), system.mask_states(p.b)]
            f = [rng.choice(sides[lat.parity(w)]) for w in range(lat.n)]
            for w in rng.sample(neighbor_lists(lat)[v], rng.randint(0, 3)):
                f[w] = rng.randrange(system.n)
        omega = {tuple(f)}
        for _ in range(rng.randrange(3)):
            g = list(f)
            for w in rng.sample([v, *neighbor_lists(lat)[v]],
                                rng.randint(1, 2)):
                g[w] = rng.randrange(system.n)
            omega.add(tuple(g))
        yield tuple(f), sorted(omega), v, rng.choice(neighbor_lists(lat)[v])


def test_scenarios_match_the_one_chart_at_a_time_reference():
    rng = random.Random(1)
    fired_count = dict.fromkeys(("scenario_1", "scenario_2", "scenario_3",
                                 "scenario_4"), 0)
    n_cases = 0
    for system, p0 in ((AF3, P0), (AF4, P0_AF4)):
        ref = RefScenarios(system, p0)
        for lat in (make_torus((4, 4)), make_box((6, 6))):
            for f, omega, v, u in _scenario_cases(rng, system, lat, 60):
                fired = scenario_checks(system, lat, f, omega, v, u, p0)
                assert fired == ref.fired(lat, f, omega, v, u)
                n_cases += 1
                for k, hit in fired.items():
                    fired_count[k] += hit
    assert n_cases >= 200
    # every scenario both fires and stays silent somewhere
    assert all(0 < c < n_cases for c in fired_count.values()), fired_count


def test_scenario_without_restriction_raises(monkeypatch):
    lat = make_torus((6, 6))
    f = ordered_config(lat)
    v = lat.site((1, 1))
    u = sorted(neighbor_lists(lat)[v])[0]
    assert scenario_checks(AF3, lat, f, [f], v, u, P0)["scenario_3"]
    monkeypatch.setattr(helpers, "is_restricted", lambda *args: False)
    with pytest.raises(AssertionError):
        scenario_checks(AF3, lat, f, [f], v, u, P0)


def test_dominant_equivalence_is_searched_once_per_system(monkeypatch):
    from spinlab import parameters

    calls = [0]
    find_direct = patterns._find_direct

    def counting(*args):
        calls[0] += 1
        return find_direct(*args)

    monkeypatch.setattr(patterns, "_find_direct", counting)
    # the condition checkers never read the classes
    system = catalog.build("af_potts", q=4)
    for which in ("simple", "alt1", "alt2", "alt3"):
        parameters.check_condition(system, 100, which)
    assert calls == [0]

    lat = make_box((8, 8))
    f = ordered_config(lat, even_state=0, odd_states=(2, 3))
    patterns.analyze(system)
    bk.construct_breakup(system, lat, f, P0_AF4)
    assert calls[0] > 0
    calls[0] = 0
    patterns.analyze(system)
    rng = random.Random(2)
    for g, omega, v, u in _scenario_cases(rng, system, lat, 50):
        scenario_checks(system, lat, g, omega, v, u, P0_AF4)
    bk.construct_breakup(system, lat, f, P0_AF4)
    assert calls == [0]
