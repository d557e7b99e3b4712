import json
import math
from fractions import Fraction

import pytest

from spinlab import catalog, cli, errors, patterns

from helpers import CatalogEntry, NotTabulated, expected_parameters, gsum

INF = math.inf


def test_model_name_validation():
    with pytest.raises(errors.ParamOutOfRange):
        catalog.build("ferro_potts", q=3)
    with pytest.raises(errors.ParamOutOfRange):
        catalog.build("af_potts", q=1)
    with pytest.raises(errors.ParamOutOfRange):
        catalog.build("clock", q=8, m=2)  # needs 4m < q
    with pytest.raises(errors.ParamOutOfRange):
        catalog.build("clock", q=5, m=0)
    with pytest.raises(errors.ParamOutOfRange):
        catalog.build("hard_core", lam=0)
    with pytest.raises(errors.ParamOutOfRange):
        catalog.build("hard_core", lam=-1)
    with pytest.raises(errors.ParamOutOfRange):
        catalog.build("af_potts", q=3, beta=-1)
    with pytest.raises(errors.ParamOutOfRange):
        catalog.build("af_potts_field", q=3)  # lam required


@pytest.mark.parametrize("name, params, detail", [
    ("af_potts", {"q": 3, "beta": None}, "beta is required"),
    ("af_potts_field", {"q": 1, "lam": 2}, "af_potts_field requires q >= 2"),
    ("multi_wr", {"q": 0, "lam": 1}, "multi_wr requires q >= 1"),
    ("anti_wr", {"q": 1, "lam": 1}, "anti_wr requires q >= 2"),
    ("multi_beach", {"q": 0, "lam": 1}, "multi_beach requires q >= 1"),
    ("multi_occupancy_hc_v1", {"q": 0, "lam": 1},
     "multi_occupancy_hc requires q >= 1"),
    ("multi_occupancy_hc_v2", {"q": -2, "lam": 1},
     "multi_occupancy_hc requires q >= 1")])
def test_parameter_below_the_model_minimum_is_out_of_range(name, params,
                                                           detail):
    with pytest.raises(errors.ParamOutOfRange, match=f"^{detail}$"):
        catalog.build(name, **params)


@pytest.mark.parametrize("argv", [
    ["af_potts", "--q", "3", "--beta", "abc"],
    ["af_potts", "--q", "3", "--beta", "nan"],
    ["af_potts"],
    ["af_ising_field", "--lam", "2", "--beta", "-1"],
    ["hard_core", "--q", "3", "--lam", "1"],  # parameters a model lacks
    ["af_potts", "--q", "3", "--lam", "2"],
    ["beach", "--lam", "2", "--beta", "1"],
    ["hard_core", "--lam", "1/0"],
])
def test_bad_catalog_parameter_is_out_of_range(capsys, argv):
    assert cli.main(["catalog", *argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParamOutOfRange"


@pytest.mark.parametrize("name, params, n", [
    ("af_potts", {"q": 65}, 65),
    ("af_potts_field", {"q": 65, "lam": 2}, 65),
    ("clock", {"q": 65, "m": 2}, 65),
    ("multi_wr", {"q": 64, "lam": 1}, 65),
    ("anti_wr", {"q": 64, "lam": 1}, 65),
    ("multi_beach", {"q": 33, "lam": 1}, 66),
    ("multi_occupancy_hc_v1", {"q": 64, "lam": 1}, 65),
    ("multi_occupancy_hc_v2", {"q": 64, "lam": 1}, 65)])
def test_state_count_is_checked_before_any_table(monkeypatch, name, params,
                                                 n):
    """A q-dependent state count above MAX_STATES is refused before the
    q x q table is built: catalog af_potts --q 100000 would build 10^10
    entries."""
    def refuse(*args, **kwargs):
        raise AssertionError("make_system reached")
    monkeypatch.setattr(catalog, "make_system", refuse)
    with pytest.raises(errors.SchemaError,
                       match=rf"^too many states \({n} > 64\)$"):
        catalog.build(name, **params)


def test_zero_temperature_is_exact():
    system = catalog.build("af_potts", q=3)
    assert system.mode == "rational"
    assert system.interactions[0][0] == 0
    assert system.interactions[0][1] == 1
    system = catalog.build("af_potts", q=3, beta="inf")
    assert system.mode == "rational"


def test_finite_temperature_is_float():
    system = catalog.build("af_potts", q=3, beta=1)
    assert system.mode == "float"
    assert abs(system.interactions[0][0] - math.exp(-1)) < 1e-15
    assert system.interactions[0][1] == 1.0
    ising = catalog.build("af_ising_field", lam=2, beta=0.5)
    assert abs(ising.interactions[1][1] - math.exp(-2.0)) < 1e-15


def test_builder_structures():
    beach = catalog.build("beach", lam=3)
    assert beach.states == ("-2", "-1", "1", "2")
    assert beach.activities == (3, 1, 1, 3)
    assert beach.interactions[0][3] == 0   # -2 with 2 forbidden
    assert beach.interactions[0][2] == 0   # -2 with 1 forbidden
    assert beach.interactions[1][2] == 1   # -1 with 1 allowed

    wr = catalog.build("widom_rowlinson", lam=2)
    assert wr.activities == (2, 1, 2)
    assert wr.interactions[0][2] == 0 and wr.interactions[0][1] == 1

    mb = catalog.build("multi_beach", q=2, lam=3)
    assert mb.states == ("(0,1)", "(0,2)", "(1,1)", "(1,2)")
    assert mb.activities == (1, 1, 3, 3)

    v1 = catalog.build("multi_occupancy_hc_v1", q=3, lam=1)
    assert v1.activities == (1, 1, Fraction(1, 2), Fraction(1, 6))
    v2 = catalog.build("multi_occupancy_hc_v2", q=3, lam=2)
    assert v2.activities == (1, 2, 4, 8)
    assert v2.interactions[2][2] == 0 and v2.interactions[2][1] == 1

    clock = catalog.build("clock", q=5, m=1)
    assert clock.interactions[0][1] == 1
    assert clock.interactions[0][2] == 0
    assert clock.interactions[0][4] == 1  # wraps around


def test_expected_parameters_regime_boundaries():
    with pytest.raises(NotTabulated):
        expected_parameters("af_potts", q=2)
    with pytest.raises(NotTabulated):
        expected_parameters("beach", lam=1)
    with pytest.raises(NotTabulated):
        expected_parameters("multi_wr", q=4, lam=2)
    with pytest.raises(NotTabulated):
        expected_parameters("multi_beach", q=3, lam=2)
    with pytest.raises(NotTabulated):
        expected_parameters("af_ising_field", lam=1)


def test_expected_parameters_spot_values():
    exp = expected_parameters("af_potts", q=3)
    assert exp == {"omega_dom": 2, "inv_rho_bulk": INF, "inv_rho_bdry": 2}
    exp = expected_parameters("hard_core", lam=Fraction(1, 2))
    assert exp["omega_dom"] == Fraction(3, 2)
    assert exp["inv_rho_bulk"] == INF
    exp = expected_parameters("clock", q=9, m=2)
    assert exp["omega_dom"] == 9
    assert exp["inv_rho_bulk"] == Fraction(9, 8)
    assert exp["inv_rho_bdry"] == Fraction(3, 2)


def test_catalog_entry_round_trip():
    entry = CatalogEntry("widom_rowlinson", {"lam": 2})
    system = entry.build()
    st = patterns.structure(system)
    omega, rho_bulk, rho_bdry = (st.omega_dom, st.rho_pat_bulk,
                                 st.rho_pat_bdry)
    exp = entry.expected()
    assert omega == exp["omega_dom"]
    assert Fraction(1) / rho_bulk == exp["inv_rho_bulk"]
    assert Fraction(1) / rho_bdry == exp["inv_rho_bdry"]


def test_gsum():
    assert gsum(Fraction(1), 4) == 4
    assert gsum(Fraction(2), 3) == 7
    assert gsum(Fraction(1, 2), 2) == Fraction(3, 2)
