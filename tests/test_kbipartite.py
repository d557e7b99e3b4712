import itertools
import json
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from spinlab import catalog, errors
from spinlab import kbipartite as kb
from spinlab.system import make_system

from helpers import (FRACTIONAL, expand_spec, float_twins,
                     product_count_reference, random_rational_system,
                     section_defaults, z_bruteforce)

HC = catalog.build("hard_core", lam=1)
AF3 = catalog.build("af_potts", q=3)
# a 4-state system whose memo the _counts examples share
AF4 = catalog.build("af_potts", q=4)


def test_resource_guards():
    with pytest.raises(errors.TooLarge):
        kb.z_compositions(HC, 65, kb.PsiSpec(J=0b11), 0b11)
    with pytest.raises(errors.TooLarge):
        z_bruteforce(HC, 4, [(0,) * 8], 0b11)
    with pytest.raises(errors.TooLarge):
        z_bruteforce(catalog.build("multi_wr", q=6, lam=1), 1, [(0, 0)],
                     0b1)
    big = catalog.build("multi_beach", q=11, lam=1)  # 22-state side
    with pytest.raises(errors.GroundSetTooLarge):
        kb.z_compositions(big, 2, kb.PsiSpec(J=big.full_mask()),
                          big.full_mask())
    with pytest.raises(errors.TooLarge):
        expand_spec(AF3, 10, kb.PsiSpec(J=0b111))


def test_an_18_state_side_is_answered():
    """A side of 18 states at d = 2 has a table of C(21, 4) = 5,985
    contents, which MAX_GROUND and MAX_CONTENTS admit.  z_bruteforce refuses
    17 or more states, so the value is checked through its class: on an
    18-state ferromagnetic Potts system R({t}) = {t}, so R(J) is empty for
    J = S and exactly the non-constant contents are full, and Z is the
    complete Z less the 18 constant products.  On af_potts q=18 R(I) is the
    complement of I, and no content of 4 coordinates covers S: Z is 0."""
    q = 18
    ferro = make_system([str(i) for i in range(q)],
                        [Fraction(i + 1, 3) for i in range(q)],
                        [[2 if i == j else 1 for j in range(q)]
                         for i in range(q)])
    full = ferro.full_mask()
    for I in (full, 0b101, 1 << 17):
        const = sum(kb.z_compositions(ferro, 2, kb.PsiSpec(coords=[1 << t] * 4),
                                      I) for t in range(q))
        assert kb.z_compositions(ferro, 2, kb.PsiSpec(J=full), I) == \
            kb.z_compositions(ferro, 2, kb.PsiSpec(coords=[full] * 4), I) - const
    af = catalog.build("af_potts", q=q)
    assert kb.z_compositions(af, 2, kb.PsiSpec(J=af.full_mask()),
                             af.full_mask()) == 0


def test_a_table_beyond_max_contents_is_refused_before_it_is_built():
    """6 states at d=20 have C(45, 5) = 1,221,759 contents."""
    system = catalog.build("af_potts", q=6)
    with pytest.raises(errors.TooLarge):
        kb.z_compositions(system, 20, kb.PsiSpec(), system.full_mask())
    assert not system._memo


def test_unknown_spec_kinds():
    with pytest.raises(errors.SchemaError):
        kb.z_compositions(HC, 1, kb.PsiSpec(J=0b11, cls="weird"), 0b11)


def test_class_partition_counts():
    # the near-constant subclasses carve the full class into parts
    eps = eps_bar = 0.125
    j_mask = 0b110
    full = len(expand_spec(AF3, 2, kb.PsiSpec(J=j_mask, cls="full",
                                              eps=eps, eps_bar=eps_bar)))
    balanced = len(expand_spec(AF3, 2, kb.PsiSpec(
        J=j_mask, cls="balanced", eps=eps, eps_bar=eps_bar)))
    rest = len(expand_spec(
        AF3, 2, kb.PsiSpec(J=j_mask, cls="full", cls2="balanced", eps=eps,
                           eps_bar=eps_bar)))
    assert full == balanced + rest
    # intersecting with the unconstrained product changes nothing
    spec = kb.PsiSpec(coords=[AF3.full_mask()] * 4, J=j_mask,
                      cls="balanced", eps=eps, eps_bar=eps_bar)
    assert len(expand_spec(AF3, 2, spec)) == balanced
    assert kb.z_compositions(AF3, 2, spec, 0b111) == kb.z_compositions(
        AF3, 2, kb.PsiSpec(J=j_mask, cls="balanced", eps=eps,
                           eps_bar=eps_bar), 0b111)


def test_lambda_restricted_power_closed_forms():
    for n in range(1, 6):
        # assignments into {0,1} that are not all-0
        assert kb.lambda_restricted_power(HC, 0b11, n) == 2 ** n - 1
        # assignments onto all three values' closure: miss all three
        # two-value sides
        assert kb.lambda_restricted_power(AF3, 0b111, n) \
            == 3 ** n - 3 * 2 ** n + 3
        assert kb.lambda_restricted_power(AF3, 0b001, n) == 1


def test_complete_bipartite_and_global_bound():
    def z_complete(d):
        full = HC.full_mask()
        return kb.z_compositions(HC, d, kb.PsiSpec(coords=[full] * (2 * d)),
                                 full)

    assert z_complete(1) == 7
    brute = z_bruteforce(
        HC, 2, [(a, b, c, d) for a in range(2) for b in range(2)
                for c in range(2) for d in range(2)], 0b11)
    assert z_complete(2) == brute
    assert abs(math.log(z_complete(1)) / 4 - math.log(7) / 4) < 1e-15


def test_normalize_interactions():
    from spinlab.system import make_system
    scaled = make_system(["0", "1"], [1, 1], [[2, 2], [2, 0]])
    norm = kb.normalize_interactions(scaled)
    assert norm.interactions == ((1, 1), (1, 0))
    assert kb.normalize_interactions(HC) is HC  # already normalized


def test_k_of_product():
    j_mask = 0b110
    spec = kb.PsiSpec(coords=[j_mask] * 4, J=j_mask, cls="balanced",
                      eps=0.125, eps_bar=0.125)
    assert kb.k_of_product(AF3, 2, spec) == 0


@pytest.mark.parametrize("system", [AF3, catalog.build("beach", lam=1)],
                         ids=["af_potts", "beach"])
def test_k_of_product_matches_the_expanded_members(system):
    """Each coordinate's realized set, read off the explicit members."""
    st = kb.patterns.structure(system)
    for J in sorted(st.dominant_sides):
        rJ = kb.patterns.r_closure(system, J)
        masks = [J] + [a for a in st.r_sets if a and a != J and a & ~J == 0]
        for eps in (0.125, 0.3):
            for coords in itertools.product(masks, repeat=4):
                spec = kb.PsiSpec(coords=list(coords), J=J, cls="balanced",
                                  eps=eps, eps_bar=eps)
                members = expand_spec(system, 2, spec)
                if not members:
                    continue
                realized = [sum({1 << psi[j] for psi in members})
                            for j in range(4)]
                assert kb.k_of_product(system, 2, spec) == sum(
                    kb.patterns.r_closure(system, r) != rJ
                    for r in realized)


def test_verify_main_condition(monkeypatch):
    from spinlab.system import make_system
    scaled = make_system(["0", "1"], [1, 1], [[2, 2], [2, 0]])
    with pytest.raises(errors.NotNormalized):
        kb.verify_main_condition(scaled, 3, 0.1, 0.0, 0.1, 0.1)

    defaults = section_defaults(HC, 3)
    monkeypatch.setattr(kb, "N_RANDOM", 20)
    rep = kb.verify_main_condition(HC, 3, defaults["alpha"],
                                   defaults["gamma"], defaults["eps"],
                                   defaults["eps_bar"], seed=0)
    assert rep["pass"], [r for r in rep["inequalities"] if not r["holds"]]
    names = {r["name"] for r in rep["inequalities"]}
    assert names == {"restricted_left", "restricted_right", "unbalanced",
                     "highly_energetic", "non_dominant"}
    assert all(set(r) >= {"name", "J", "lhs", "rhs", "holds",
                          "alpha_budget"} for r in rep["inequalities"])


GOLDEN = json.loads(
    (Path(__file__).parent / "verify_main_condition_golden.json").read_text())


@pytest.mark.parametrize("name, model, params, d", [
    ("af_potts_q3_b1_d3", "af_potts", {"q": 3, "beta": 1}, 3),
    ("hard_core_l2_d4", "hard_core", {"lam": 2}, 4),
])
def test_verify_main_condition_matches_its_golden_report(name, model, params,
                                                         d):
    """The whole report at seed 0 (the seeded families, every lhs, k and
    bound), pinned from the backward recursive counter that the forward
    pass replaced."""
    system = kb.normalize_interactions(catalog.build(model, **params))
    rep = kb.verify_main_condition(system, d, 0.2, 0.0, 0.125, 0.125, seed=0)
    golden = GOLDEN[name]
    assert len(rep["inequalities"]) == len(golden["inequalities"])
    for got, want in zip(rep["inequalities"], golden["inequalities"]):
        assert got == want
    assert json.loads(json.dumps(rep)) == golden


def test_verify_main_condition_on_a_multi_type_model_is_quick():
    """multi_wr q=8 lam=2 at d=2 takes about 0.3 s with one pass per
    distinct mask; one counter per probed (mask, value) took 7.7 s."""
    system = kb.normalize_interactions(catalog.build("multi_wr", q=8, lam=2))
    start = time.perf_counter()
    rep = kb.verify_main_condition(system, 2, 0.2, 0.0, 0.125, 0.125)
    assert time.perf_counter() - start < 3.0
    assert rep["inequalities"]


@st.composite
def _masks_and_content(draw):
    n = draw(st.integers(1, 4))
    coords = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=8))
    # the content of an arbitrary assignment of the right length, so the
    # count is mostly nonzero; sometimes one count is off by one
    values = draw(st.lists(st.integers(0, n - 1), min_size=len(coords),
                           max_size=len(coords)))
    xi = dict(Counter(values))
    if xi and draw(st.booleans()):
        s = draw(st.sampled_from(sorted(xi)))
        xi[s] += draw(st.sampled_from([-1, 1]))
    return coords, xi


@given(_masks_and_content())
def test_grouped_product_count_matches_reference(case):
    coords, xi = case
    states = sorted(xi)
    assert kb._counts(AF4, states, coords).get(
        tuple(xi[s] for s in states), 0) == product_count_reference(coords, xi)


def test_a_second_pass_over_the_same_masks_reads_the_memo(monkeypatch):
    """Each group's sub-contents stay in the system's memo with its table:
    a second z_compositions with the same masks, even to another I,
    enumerates nothing again."""
    calls = []
    sub_contents = kb._sub_contents

    def counting(*args):
        calls.append(args)
        return sub_contents(*args)

    monkeypatch.setattr(kb, "_sub_contents", counting)
    system = catalog.build("af_potts", q=3)
    spec = kb.PsiSpec(coords=[0b111, 0b011, 0b011, 0b110], J=0b110,
                      cls="balanced", eps=0.125, eps_bar=0.125)
    first = kb.z_compositions(system, 2, spec, 0b111)
    assert calls
    calls.clear()
    assert kb.z_compositions(system, 2, spec, 0b111) == first
    kb.z_compositions(system, 2, spec, 0b101)
    assert not calls


@pytest.mark.parametrize("system", FRACTIONAL.values(),
                         ids=list(FRACTIONAL))
def test_compositions_with_fractional_weights(system):
    full = system.full_mask()
    for d in (1, 2):
        complete = kb.PsiSpec(coords=[full] * (2 * d))
        specs = [complete,
                 kb.PsiSpec(coords=[full, 1] * d)]  # every other coord fixed
        specs += [kb.PsiSpec(J=J, cls=cls, eps=0.125, eps_bar=0.125)
                  for J in sorted(kb.patterns.structure(system).dominant_sides)
                  for cls in ("full", "balanced")]
        for spec in specs:
            for i_mask in (full, full & ~1):
                fast = kb.z_compositions(system, d, spec, i_mask)
                slow = z_bruteforce(system, d, expand_spec(system, d, spec),
                                    i_mask)
                assert fast == slow and type(fast) is Fraction


def _evaluated_specs(monkeypatch, system, d):
    """The (spec, I) of every z_compositions call and the spec of every
    k_of_product call that verify_main_condition makes, with the values."""
    sums, ks = [], []
    z_compositions, k_of_product = kb.z_compositions, kb.k_of_product

    def z_recorder(system, d, spec, I_mask):
        z = z_compositions(system, d, spec, I_mask)
        sums.append((spec, I_mask, z))
        return z

    def k_recorder(system, d, spec):
        k = k_of_product(system, d, spec)
        ks.append((spec, k))
        return k

    with monkeypatch.context() as m:
        m.setattr(kb, "z_compositions", z_recorder)
        m.setattr(kb, "k_of_product", k_recorder)
        m.setattr(kb, "N_RANDOM", 10)
        kb.verify_main_condition(system, d, 0.2, 0.0, 0.125, 0.125)
    return sums, ks


VERIFIED = {
    "af_potts_b1": catalog.build("af_potts", q=3, beta=1),
    "af_potts_binf": AF3,
    "hard_core": catalog.build("hard_core", lam=2),
    "widom_rowlinson": catalog.build("widom_rowlinson", lam=2),
    "beach": catalog.build("beach", lam=1),
    **{f"random{seed}": kb.normalize_interactions(
        random_rational_system(random.Random(seed)))
       for seed in range(3)},
}


@pytest.mark.parametrize("name", VERIFIED)
def test_verify_sums_match_the_expanded_members(monkeypatch, name):
    """Every sum and k that verify_main_condition takes at d <= 3, against
    the explicit members of its spec: equal in rational mode, within 1e-12
    relative in float mode (the float twin of a rational system too)."""
    system = VERIFIED[name]
    twins = [system] if system.mode == "float" else \
        [system, float_twins(system)[0]]
    for twin in twins:
        for d in (1, 2, 3):
            sums, ks = _evaluated_specs(monkeypatch, twin, d)
            assert sums
            for spec, I_mask, z in sums:
                slow = z_bruteforce(twin, d, expand_spec(twin, d, spec),
                                    I_mask)
                if twin.mode == "float":
                    assert abs(z - slow) <= 1e-12 * abs(slow)
                else:
                    assert z == slow
            for spec, k in ks:
                members = expand_spec(twin, d, spec)
                realized = [sum({1 << psi[j] for psi in members})
                            for j in range(2 * d)]
                rJ = kb.patterns.r_closure(twin, spec.J)
                assert k == sum(kb.patterns.r_closure(twin, r) != rJ
                                for r in realized)


def test_verify_enumerates_each_class_once(monkeypatch):
    """Within one verify_main_condition call, each class's contents are
    enumerated once and each content is tested for membership once."""
    system = catalog.build("af_potts", q=3, beta=1)
    built, tested = Counter(), Counter()
    in_class = kb._in_class

    def counting_in_class(system, d, spec, states, counts):
        key = d, spec.J, spec.cls, spec.cls2, spec.eps, spec.eps_bar
        built[key] += 1
        for row in counts.tolist():
            tested[key, tuple(zip(states, row))] += 1
        return in_class(system, d, spec, states, counts)

    monkeypatch.setattr(kb, "_in_class", counting_in_class)
    kb.verify_main_condition(system, 3, 0.2, 0.0, 0.125, 0.125)
    assert built and set(built.values()) == {1}
    assert tested and set(tested.values()) == {1}


def test_a_side_with_many_inequivalent_subsets_stays_small():
    """A 12-state side J = {a} + B, with B 11 states, where every subset of
    B is not value-set equivalent to J (they all keep t in their R-closure)
    and every set holding a is.  Testing a content against each of the
    2^11 subsets of B in one integer product peaked at 25 MB under
    tracemalloc at d = 2; only the sets J & R({t}) for t outside R(J) are
    needed, here B and the empty set."""
    b = 11
    a, B, t, u = 0, range(1, b + 1), b + 1, b + 2
    edges = {(a, u)} | {(x, u) for x in B} | {(x, t) for x in B}
    n = b + 3
    system = kb.make_system(
        [f"s{i}" for i in range(n)], [1] * n,
        [[1 if (i, j) in edges or (j, i) in edges else Fraction(1, 2)
          for j in range(n)] for i in range(n)])
    J = (1 << (b + 1)) - 1
    tracemalloc.start()
    try:
        kb.z_compositions(system, 2, kb.PsiSpec(
            J=J, cls="balanced", eps=0.25, eps_bar=0.25), system.full_mask())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    # near_subset: a in the content (full), and more than 2d - 4 eps_bar d
    # = 2 of its 2d = 4 coordinates in B
    table = kb._table(system, 2, kb.PsiSpec(J=J, cls="near_subset",
                                            eps_bar=0.25))
    assert table.rows == [
        y for y in kb._sub_contents((4,) * (b + 1), list(range(b + 1)), J, 4)
        if y[0] and sum(y[1:]) > 2]
