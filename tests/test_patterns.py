import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinlab import catalog, errors, patterns
from spinlab.patterns import Pattern
from spinlab.system import make_system

AF3 = catalog.build("af_potts", q=3)
AF4 = catalog.build("af_potts", q=4)
HC = catalog.build("hard_core", lam=1)
BEACH = catalog.build("beach", lam=2)


# ---------------------------------------------------------------------------
# closure operator

def test_r_closure_basics():
    assert patterns.r_closure(AF3, 0) == 0b111          # empty set -> S
    assert patterns.r_closure(AF3, 0b001) == 0b110
    assert patterns.r_closure(AF3, 0b011) == 0b100
    assert patterns.r_closure(AF3, 0b111) == 0
    assert patterns.r_closure(HC, 0b01) == 0b11
    assert patterns.r_closure(HC, 0b11) == 0b01


@given(st.integers(0, 15), st.integers(0, 15))
def test_r_closure_antitone_and_triple(a, b):
    for system in (AF4, BEACH):
        if a & ~b == 0:  # a subset of b
            ra = patterns.r_closure(system, a)
            rb = patterns.r_closure(system, b)
            assert rb & ~ra == 0
        r = patterns.r_closure(system, a)
        rr = patterns.r_closure(system, r)
        assert patterns.r_closure(system, rr) == r


def test_is_pattern_and_weight():
    assert 0b110 & ~patterns.r_closure(AF3, 0b001) == 0
    assert 0b010 & ~patterns.r_closure(AF3, 0b001) == 0
    assert not 0b001 & ~patterns.r_closure(AF3, 0b001) == 0
    assert patterns.weight(AF3, Pattern(0b001, 0b110)) == 2
    assert patterns.weight(HC, Pattern(0b01, 0b11)) == 2


# ---------------------------------------------------------------------------
# maximal / dominant structure

def test_af3_structure():
    assert len(patterns.structure(AF3).r_sets) == 8  # every subset is closed
    maximal = patterns.maximal_patterns(AF3)
    assert len(maximal) == 8
    dom, omega, near_tie = patterns.dominant_patterns(AF3)
    assert omega == 2 and len(dom) == 6 and not near_tie
    assert Pattern(0b001, 0b110) in dom and Pattern(0b110, 0b001) in dom
    assert len(patterns.dominant_classes(AF3)[0]) == 1
    direct = patterns.equivalence_classes(AF3, dom, direct=True)
    assert sorted(len(c) for c in direct) == [3, 3]
    assert len(patterns.equivalence_classes(AF3, dom)) == 1
    st = patterns.structure(AF3)
    assert (st.n_small_side, st.n_large_side) == (3, 3)


def test_structure_is_memoised_and_immutable():
    system = catalog.build("af_potts", q=3)
    st = patterns.structure(system)
    assert patterns.structure(system) is st
    assert system == AF3  # the cache takes no part in equality
    for name in ("r_sets", "maximal", "dominant", "bulk_pairs"):
        assert isinstance(getattr(st, name), tuple)
    assert isinstance(st.dominant_sides, frozenset)
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.omega_dom = 3
    # the public readers hand out copies
    patterns.maximal_patterns(system).clear()
    patterns.dominant_patterns(system)[0].clear()
    assert len(st.maximal) == len(patterns.maximal_patterns(system)) == 8
    assert len(patterns.dominant_patterns(system)[0]) == 6
    assert len(patterns.structure(system).r_sets) == 8


def test_frak_q_values():
    assert abs(patterns.frak_q(AF3) - math.log2(5)) < 1e-12
    assert patterns.frak_q(HC) == 1.0


def test_frak_q_guard():
    big = catalog.build("multi_beach", q=13, lam=1)  # 26 states
    with pytest.raises(errors.SpinSpaceTooLarge):
        patterns.frak_q(big)


def test_find_equivalence():
    p = Pattern(0b001, 0b110)
    q = Pattern(0b010, 0b101)
    phi = patterns.find_equivalence(AF3, p, q, direct=True)
    assert phi is not None
    assert patterns._image(phi, p.a) == q.a
    assert patterns._image(phi, p.b) == q.b
    # swap is reachable only without directness
    assert patterns.find_equivalence(AF3, p, p.swapped(), direct=False) \
        is not None


# the path 0-1-2-3-4-5 on states: interaction 2 along it, 1 elsewhere; its
# only symmetries are the identity and the reversal
PATH6 = make_system([str(i) for i in range(6)], [1] * 6,
                    [[2 if abs(i - j) == 1 else 1 for j in range(6)]
                     for i in range(6)])


def _brute_equivalent(system, p, q, direct):
    """Some permutation of the states keeps the activities and the
    interactions and maps p onto q (or onto q swapped, if not direct)."""
    n, acts, inter = system.n, system.activities, system.interactions
    targets = [q] if direct else [q, q.swapped()]
    for phi in itertools.permutations(range(n)):
        if all(acts[i] == acts[phi[i]] for i in range(n)) \
                and all(inter[i][j] == inter[phi[i]][phi[j]]
                        for i in range(n) for j in range(n)) \
                and any(patterns._image(phi, p.a) == t.a
                        and patterns._image(phi, p.b) == t.b
                        for t in targets):
            return True
    return False


@pytest.mark.parametrize("system", [AF3, AF4, HC, BEACH, PATH6,
                                    catalog.build("af_potts_field", q=3,
                                                  lam=2)])
def test_find_equivalence_matches_brute_force(system):
    """The backtracking search against all n! permutations, on patterns
    mapped by a random permutation or drawn at random."""
    rng = random.Random(system.n)
    n = system.n
    for _ in range(60):
        p = Pattern(rng.randrange(2 ** n), rng.randrange(2 ** n))
        phi = rng.sample(range(n), n)
        for q in (Pattern(patterns._image(phi, p.a),
                          patterns._image(phi, p.b)),
                  Pattern(rng.randrange(2 ** n), rng.randrange(2 ** n))):
            for direct in (True, False):
                assert (patterns.find_equivalence(system, p, q, direct)
                        is not None) == _brute_equivalent(system, p, q,
                                                          direct)


def test_find_equivalence_undoes_a_choice():
    """State 2 must go to 3, so the path is reversed; the search first
    fixes the endpoints 0 and 5, finds no image for 1, and undoes them."""
    phi = patterns.find_equivalence(PATH6, Pattern(0b000100, 0),
                                    Pattern(0b001000, 0), direct=True)
    assert phi == (5, 4, 3, 2, 1, 0)


def test_activity_asymmetry_blocks_direct_equivalence():
    system = catalog.build("af_potts_field", q=3, lam=2)
    dom, omega, _ = patterns.dominant_patterns(system)
    assert omega == 4
    assert set(dom) == {Pattern(0b001, 0b110), Pattern(0b110, 0b001)}
    direct = patterns.equivalence_classes(system, dom, direct=True)
    assert sorted(len(c) for c in direct) == [1, 1]
    assert len(patterns.dominant_classes(system)[0]) == 1  # swap works


def _near_tie_path_system(mode, lam3):
    # path 0-1-2-3 on states; two inequivalent maximal patterns whose
    # weights differ only through the last activity
    inter = [[1 if abs(i - j) == 1 else 0 for j in range(4)]
             for i in range(4)]
    return make_system(["0", "1", "2", "3"], [1, 1, 1, lam3], inter,
                       mode=mode)


def test_near_tie_detection():
    floaty = _near_tie_path_system("float", 1.0 + 2e-13)
    dom, _, near_tie = patterns.dominant_patterns(floaty)
    assert near_tie and len(dom) == 4
    exact = _near_tie_path_system(
        "rational", Fraction(10 ** 13 + 2, 10 ** 13))
    dom, _, near_tie = patterns.dominant_patterns(exact)
    assert not near_tie and len(dom) == 2


def test_analyze_catalog_dict():
    cat = patterns.analyze(AF3)
    payload = cat.to_dict(AF3)
    assert payload["omega_dom"] == 2
    assert len(payload["dominant"]) == 6
    assert payload["all_dominant_equivalent"] is True
    assert payload["near_tie"] is False
    assert {"A": ["1"], "B": ["2", "3"], "weight": 2} in payload["dominant"]
