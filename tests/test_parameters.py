import dataclasses
import math
import random
from fractions import Fraction

import pytest

from spinlab import catalog, errors, parameters, patterns
from spinlab.system import make_system

from helpers import alt2_reference, check_closed_form_bounds, section_defaults

AF3 = catalog.build("af_potts", q=3)
HC = catalog.build("hard_core", lam=1)

INF = math.inf


def test_neg_log():
    assert parameters.neg_log(1) == 0.0
    assert parameters.neg_log(0) == INF
    assert abs(parameters.neg_log(0.5) - math.log(2)) < 1e-15
    with pytest.raises(ValueError):
        parameters.neg_log(-1)


def test_interaction_ratio():
    assert patterns.structure(AF3).rho_int == 0
    soft = catalog.build("af_potts", q=3, beta=1)
    assert abs(patterns.structure(soft).rho_int - math.exp(-1)) < 1e-15
    from spinlab.system import make_system
    flat = make_system(["a", "b"], [1, 1], [[1, 1], [1, 1]])
    assert patterns.structure(flat).rho_int == 0  # all weights equal


def test_pattern_ratios_af3():
    st = patterns.structure(AF3)
    omega, rho_bulk, rho_bdry, rho_act = (st.omega_dom, st.rho_pat_bulk,
                                          st.rho_pat_bdry, st.rho_act)
    assert (omega, rho_bulk, rho_bdry, rho_act) == (2, 0, Fraction(1, 2), 3)


def test_pattern_ratios_hard_core():
    st = patterns.structure(HC)
    omega, rho_bulk, rho_bdry, rho_act = (st.omega_dom, st.rho_pat_bulk,
                                          st.rho_pat_bdry, st.rho_act)
    assert omega == 2 and rho_bulk == 0
    assert rho_bdry == Fraction(1, 2)  # activity of {0} over {0,1}
    assert rho_act == 2


def test_alpha0():
    assert abs(parameters.alpha0_of(HC) - math.log(2)) < 1e-12
    assert abs(parameters.alpha0_of(AF3) - math.log(2)) < 1e-12


def test_compute_parameters_report():
    rep = parameters.compute_parameters(AF3, d=10)
    assert rep.n_maximal == 8 and rep.n_dominant == 6
    assert rep.n_small_side == 3 and rep.n_large_side == 3
    assert rep.rho_hat_act == Fraction(9, 2)  # lam(S)^2 / omega
    assert rep.alpha1 < rep.alpha0
    assert rep.rho_bulk_star == 0.0  # no non-dominant mass here
    assert abs(rep.alpha3 - math.log(2)) < 1e-12
    payload = rep.to_dict()
    assert payload["rho_pat_bdry"] == "1/2"
    with pytest.raises(errors.ParamOutOfRange):
        parameters.compute_parameters(AF3, d=1)


def test_check_condition_guards():
    with pytest.raises(errors.ParamOutOfRange):
        parameters.check_condition(HC, 1, "simple")
    with pytest.raises(errors.ParamOutOfRange):
        parameters.check_condition(HC, 100, "weird")
    soft = catalog.build("af_potts", q=3, beta=1)
    with pytest.raises(errors.Alt3OnWeightedSystem):
        parameters.check_condition(soft, 100, "alt3")
    with pytest.raises(errors.Alt3OnWeightedSystem):
        parameters.rho_bulk_star_of(soft, 2)


HOMOMORPHISMS = {
    "widom_rowlinson": catalog.build("widom_rowlinson", lam=2),
    "widom_rowlinson_third": catalog.build("widom_rowlinson", lam="1/3"),
    "af_potts4": catalog.build("af_potts", q=4),
    "multi_beach": catalog.build("multi_beach", q=3, lam=2),
    "multi_occupancy": catalog.build("multi_occupancy_hc_v2", q=3, lam="5/3"),
}


@pytest.mark.parametrize("system", HOMOMORPHISMS.values(),
                         ids=list(HOMOMORPHISMS))
def test_rho_bulk_star_log_space_matches_exact(system, monkeypatch):
    exact = [parameters.rho_bulk_star_of(system, d) for d in (2, 10, 1000)]
    monkeypatch.setattr(parameters, "EXACT_BITS", -1)  # log space throughout
    for d, want in zip((2, 10, 1000), exact):
        got = parameters.rho_bulk_star_of(system, d)
        assert want > 0 and abs(got - want) <= 1e-13 * want, (d, got, want)


def test_rho_bulk_star_float_mode_at_any_d():
    """Float powers leave the float range near d = 200 here; past that the
    float system takes log space and agrees with the rational one."""
    from spinlab.system import make_system
    wr = HOMOMORPHISMS["widom_rowlinson"]
    flt = make_system(wr.states, [float(a) for a in wr.activities],
                      [[float(x) for x in row] for row in wr.interactions],
                      mode="float")
    for d in (10, 100, 10 ** 4, 10 ** 12):
        want = parameters.rho_bulk_star_of(wr, d)
        got = parameters.rho_bulk_star_of(flt, d)
        assert abs(got - want) <= 1e-12 * want, (d, got, want)


def test_check_condition_alternatives():
    rep = parameters.check_condition(HC, 10 ** 12, "alt1")
    assert rep.passes
    assert rep.inequalities[1].vacuous

    rep = parameters.check_condition(HC, 10 ** 12, "alt3")
    assert rep.passes
    assert abs(rep.inequalities[0].lhs - math.log(2)) < 1e-12

    soft = catalog.build("af_potts", q=3, beta=1)
    rep = parameters.check_condition(soft, 100, "alt2")
    assert rep.condition == "alt2" and rep.s is not None
    payload = rep.to_dict()
    assert set(payload) >= {"condition", "d", "inequalities", "pass", "s"}
    assert all({"name", "lhs", "rhs", "holds", "margin"}
               <= set(iq) for iq in payload["inequalities"])


def test_inequality_margins():
    iq = parameters.Inequality("x", 1.0, 0.0, holds=True, vacuous=True)
    assert iq.margin == INF
    iq = parameters.Inequality("x", 2.0, 0.0, holds=True)
    assert iq.margin == INF
    iq = parameters.Inequality("x", 1.0, 2.0, holds=False)
    assert iq.margin == 0.5


def test_section_defaults_and_closed_form_bounds():
    defaults = section_defaults(HC, 1000)
    assert set(defaults) == {"alpha", "gamma", "gamma_hat", "eps",
                             "eps_bar", "s"}
    assert defaults["gamma"] == 0.0
    assert defaults["eps"] >= defaults["eps_bar"] >= 1.0 / 4000

    result = check_closed_form_bounds(HC, 10 ** 4)
    assert isinstance(result["pass"], bool)
    names = [iq["name"] for iq in result["inequalities"]]
    assert names == ["alpha_budget", "eps_chain_low", "eps_chain_mid",
                     "eps_chain_high", "bdry_entropy",
                     "bdry_entropy_weighted"]
    chain = {iq["name"]: iq for iq in result["inequalities"]}
    assert chain["eps_chain_low"]["holds"]
    assert chain["eps_chain_mid"]["holds"]
    assert chain["eps_chain_high"]["holds"]

    soft = catalog.build("af_potts", q=3, beta=2)
    result = check_closed_form_bounds(soft, 100)
    assert isinstance(result["pass"], bool)
    assert result["gamma"] > 0


@pytest.mark.parametrize("model", [
    ("af_potts", {"q": 3, "beta": 1}),
    ("af_potts", {"q": 3}),
    ("hard_core", {"lam": 2}),
    ("widom_rowlinson", {"lam": 2}),
    ("clock", {"q": 9, "m": 2, "beta": 1}),
])
@pytest.mark.parametrize("d", [10, 100, 1000])
def test_alt2_matches_per_candidate_reference(model, d):
    system = catalog.build(model[0], **model[1])
    rep = parameters.check_condition(system, d, "alt2")
    ref = alt2_reference(system, d)
    assert rep.to_dict() == ref.to_dict()
    assert rep.s == ref.s
    s = rep.s
    pen = parameters._penalty(patterns.structure(system), d)
    assert parameters._alpha2(system, d, s, pen)[1] == \
        parameters.compute_parameters(system, d=d, s=s).alpha2


@pytest.mark.parametrize("lam", [2 * 10 ** 7, 10 ** 8])
def test_d_scaled_logs_beyond_the_float_range(lam):
    """At d = 2^1000 a strong field takes d rho_act, 2 d rho_hat_act and the
    window power's base 2 d lam(S) / lam(B) beyond the float range.  Their
    logs are then log d + log x, so simple, alt1 and alt2 report finite
    terms and pass, as they do at d = 2^990, where every product is
    finite."""
    system = catalog.build("af_potts_field", q=3, beta=1, lam=lam)
    for d in (2 ** 990, 2 ** 1000):
        for which in ("simple", "alt1", "alt2"):
            rep = parameters.check_condition(system, d, which)
            assert rep.passes, (d, which)
            assert all(math.isfinite(iq.lhs) and math.isfinite(iq.rhs)
                       for iq in rep.inequalities), (d, which)
    rho_act = patterns.structure(system).rho_act
    assert 2 ** 1000 * rho_act == INF
    assert parameters._log_times(2 ** 1000, rho_act) == \
        math.log(2 ** 1000) + math.log(rho_act)
    assert parameters._log_times(2 ** 990, rho_act) == \
        math.log(2 ** 990 * rho_act)



def test_an_interaction_ratio_that_reads_one_is_refused_by_alt2():
    """A rational rho_int of 1 - 10^-20 reads 1.0 in floats, so alt2's
    s_lo = 2 log(d rho_hat_act) / -log(rho_int) is unbounded: TooLarge, not
    a division by zero.  simple and alt1 still answer."""
    near_one = 1 - Fraction(1, 10 ** 20)
    system = make_system(
        ["a", "b"], [1, 2], [[1, near_one], [near_one, 1]])
    assert float(patterns.structure(system).rho_int) == 1.0
    with pytest.raises(errors.TooLarge):
        parameters.check_condition(system, 10, "alt2")
    for which in ("simple", "alt1"):
        assert parameters.check_condition(system, 10, which).passes is False


def test_alt2_without_bulk_pairs_needs_no_float_of_the_weights():
    """Rational hard_core at lam = 10^400 has no bulk pair, so rho_hat_bulk
    is 0 for every window, however far omega_dom and lam(S) lie beyond the
    float range: alpha2 is inf, and alt2 passes at its first window."""
    system = catalog.build("hard_core", lam=10 ** 400)
    assert patterns.structure(system).bulk_pairs == ()
    for d in (10, 10 ** 6, 2 ** 1000):
        rep = parameters.check_condition(system, d, "alt2")
        assert (rep.s, rep.passes) == (1, True)
        assert rep.inequalities[2].lhs == INF
        assert parameters.compute_parameters(system, d=d, s=1).alpha2 == INF


def test_alt2_takes_a_later_window_as_the_reference_does(monkeypatch):
    """No catalog or random system has been seen to fail alt2's first
    window and pass a later one, so this case feeds the checker a pattern
    structure made up for it: a tiny rho_int and a bulk pair whose ratio is
    dominated by the rho_int^s term, so alpha2 grows with s at first."""
    system = catalog.build("af_potts", q=3, beta=1)
    made_up = dataclasses.replace(
        patterns.structure(system), rho_int=Fraction(1, 10 ** 4),
        rho_hat_act=Fraction(1), lam_s=Fraction(10 ** 6),
        omega_dom=Fraction(1), bulk_pairs=((1e-12, 1.0),),
        rho_pat_bdry=Fraction(0))
    monkeypatch.setattr(patterns, "structure", lambda _: made_up)
    # the largest C at which window 3 still passes: its alpha2 equals the
    # threshold to within rounding
    edge = parameters._alpha2(system, 10, 3, parameters._penalty(made_up, 10))[1] \
        / parameters.check_condition(system, 10, "alt2", 1.0, s=3).inequalities[2].rhs
    while not parameters.check_condition(system, 10, "alt2", edge, s=3).passes:
        edge = math.nextafter(edge, 0)
    for C, s, passes in ((0.1, 2, True), (0.5, 3, True), (edge, 3, True),
                         (2.0, 1, False)):
        rep = parameters.check_condition(system, 10, "alt2", C)
        assert (rep.s, rep.passes) == (s, passes)
        assert rep.to_dict() == alt2_reference(system, 10, C).to_dict()


def test_alt2_search_matches_the_reference_on_made_up_structures(monkeypatch):
    """alt2's search over windows reports what trying every candidate in
    turn reports, on random made-up pattern structures at d <= 100 whose
    large lam(S) and small rho_int make alpha2 grow with s at first.  Many
    pass only at a later window, some only two or more windows after the
    first, past the first window's successor."""
    rng = random.Random(25)
    bases = [catalog.build("hard_core", lam=2),
             catalog.build("af_potts", q=3, beta=1),
             catalog.build("clock", q=9, m=2, beta=1)]
    later = beyond_next = 0
    for _ in range(1500):
        system = rng.choice(bases)
        made_up = dataclasses.replace(
            patterns.structure(system),
            rho_int=Fraction(10 ** rng.uniform(-5, -1.3)),
            rho_hat_act=Fraction(10 ** rng.uniform(-1, 0.5)),
            lam_s=Fraction(10 ** rng.uniform(3, 8)),
            omega_dom=Fraction(10 ** rng.uniform(-1, 1)),
            bulk_pairs=tuple((10 ** rng.uniform(-14, -1),
                              10 ** rng.uniform(-2, 1))
                             for _ in range(rng.randint(1, 3))),
            rho_pat_bdry=Fraction(rng.choice([0, 10 ** rng.uniform(-5, -1)])))
        d = rng.choice([5, 7, 10, 20, 30, 50, 100])
        C = rng.choice([0.01, 0.1, 0.3, 1.0])
        with monkeypatch.context() as m:
            m.setattr(patterns, "structure", lambda _: made_up)
            rep = parameters.check_condition(system, d, "alt2", C)
            assert rep.to_dict() == alt2_reference(system, d, C).to_dict()
        first = max(1, math.ceil(rep.inequalities[0].rhs))
        later += rep.passes and rep.s > first
        beyond_next += rep.passes and rep.s > first + 1
    assert later >= 20 and beyond_next >= 5, (later, beyond_next)
