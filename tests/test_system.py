import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinlab import cli, errors, patterns
from spinlab.system import (ScaledWeights, SpinSystem, bipartite_cover,
                            emit_number, load_system, make_system,
                            parse_number, product, project_from_doubled,
                            reweight, validate_system)

from helpers import (DomainMismatch, NotACover, WeightedGraph,
                     check_lift_permitting, config_weight)


# ---------------------------------------------------------------------------
# number parsing / serialization

@given(st.fractions(min_value=-10 ** 9, max_value=10 ** 9,
                    max_denominator=10 ** 6))
def test_rational_round_trip(x):
    assert parse_number(emit_number(x), "rational") == x


def test_parse_number_rational():
    assert parse_number("3/4", "rational") == Fraction(3, 4)
    assert parse_number(5, "rational") == Fraction(5)
    assert parse_number(2.0, "rational") == Fraction(2)
    with pytest.raises(errors.SchemaError):
        parse_number(0.5, "rational")  # non-integral float needs "p/q"
    with pytest.raises(errors.SchemaError):
        parse_number(True, "rational")
    with pytest.raises(errors.SchemaError):
        parse_number("1/0", "rational")
    with pytest.raises(errors.SchemaError):
        parse_number("abc", "rational")
    with pytest.raises(errors.SchemaError):
        parse_number(1, "imaginary")


def test_parse_number_float():
    assert parse_number("1/2", "float") == 0.5
    assert parse_number(0.25, "float") == 0.25
    with pytest.raises(errors.SchemaError):
        parse_number(False, "float")


def test_emit_number():
    assert emit_number(Fraction(4, 2)) == 2
    assert emit_number(Fraction(1, 3)) == "1/3"
    assert emit_number(0.5) == 0.5


# ---------------------------------------------------------------------------
# validation

def _hc_raw(**overrides):
    raw = {
        "states": ["0", "1"],
        "activities": [1, 2],
        "interactions": [[1, 1], [1, 0]],
        "mode": "rational",
    }
    raw.update(overrides)
    return raw


def test_validate_system_ok():
    system = validate_system(_hc_raw())
    assert system.n == 2
    assert system.activities == (Fraction(1), Fraction(2))
    assert system.max_interaction == 1
    assert patterns.r_closure(system, 0b01) == 0b11
    assert patterns.r_closure(system, 0b10) == 0b01
    assert system.full_mask() == 0b11
    assert system.lambda_mask(0b11) == 3
    assert system.mask_states(0b10) == [1]


def test_scaled_weights_are_built_once_per_system():
    rational = make_system(["0", "1"], ["3/2", "1/3"],
                           [["1", "1/4"], ["1/4", "0"]])
    floats = make_system(["0", "1"], [1.5, 2.0], [[1.0, 0.25], [0.25, 0.0]],
                         mode="float")
    for system in (rational, floats):
        sc = system.scaled()
        assert system.scaled() is sc
        fresh = SpinSystem(system.states, system.activities,
                           system.interactions, system.mode).scaled()
        assert fresh is not sc and fresh == sc
    assert rational.scaled() == ScaledWeights((9, 2), ((4, 1), (1, 0)), 6, 4,
                                              exact=True)


def test_a_system_is_frozen():
    """What is derived from a system is kept in its memo, so no field of a
    system can be assigned."""
    system = make_system(["0", "1"], [1, 2], [[1, 1], [1, 0]])
    sc = system.scaled()
    for name in ("states", "activities", "interactions", "mode", "_memo"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(system, name, getattr(system, name))
    assert [f.name for f in dataclasses.fields(system)] == [
        "states", "activities", "interactions", "mode", "_memo"]
    assert system.scaled() is sc


def test_validate_system_errors():
    with pytest.raises(errors.SchemaError):
        validate_system([1, 2])
    with pytest.raises(errors.SchemaError):
        validate_system(_hc_raw(states=[]))
    with pytest.raises(errors.SchemaError):
        validate_system(_hc_raw(states=["0", "0"]))
    with pytest.raises(errors.SchemaError):
        raw = _hc_raw()
        del raw["activities"]
        validate_system(raw)
    with pytest.raises(errors.SchemaError):
        validate_system(_hc_raw(mode="complex"))
    with pytest.raises(errors.SchemaError):
        validate_system(_hc_raw(activities=[1]))
    with pytest.raises(errors.SchemaError):
        validate_system(_hc_raw(interactions=[[1, 1]]))
    with pytest.raises(errors.SchemaError):
        validate_system(_hc_raw(interactions=[[1, -1], [-1, 0]]))
    with pytest.raises(errors.NonPositiveActivity):
        validate_system(_hc_raw(activities=[0, 1]))
    with pytest.raises(errors.NonSymmetricInteractions):
        validate_system(_hc_raw(interactions=[[1, 1], [0, 1]]))
    with pytest.raises(errors.AllZeroInteractions):
        validate_system(_hc_raw(interactions=[[0, 0], [0, 0]]))
    with pytest.raises(errors.SchemaError):
        validate_system({
            "states": [str(i) for i in range(65)],
            "activities": [1] * 65,
            "interactions": [[1] * 65] * 65,
        })


@pytest.mark.parametrize("overrides, error", [
    ({"states": None}, "SchemaError"),
    ({"states": 2}, "SchemaError"),
    ({"states": "ab"}, "SchemaError"),  # not the states a and b
    ({"activities": None}, "SchemaError"),
    ({"activities": 1}, "SchemaError"),
    ({"interactions": None}, "SchemaError"),
    ({"interactions": 1.5}, "SchemaError"),
    ({"interactions": [1, 1]}, "SchemaError"),
    ({"mode": "float", "activities": ["1e400", 1]}, "TooLarge"),
    ({"mode": "float", "interactions": [[1, "1e400"], ["1e400", 0]]},
     "TooLarge"),
    ({"mode": "float", "activities": [10 ** 400, 1]}, "TooLarge"),
    ({"activities": [float("inf"), 1]}, "TooLarge"),  # JSON 1e400
    ({"mode": "float", "interactions": [[1, 1], [1, -float("inf")]]},
     "TooLarge"),
    ({"activities": [float("nan"), 1]}, "SchemaError"),
    ({"mode": "float", "activities": [1, float("nan")]}, "SchemaError"),
])
def test_system_file_of_the_wrong_shape_is_refused(tmp_path, capsys,
                                                   overrides, error):
    """A field of the wrong JSON type is a SchemaError (exit 2), and a
    float-mode number beyond float64 is TooLarge (exit 3), for every
    subcommand that reads a system file."""
    raw = _hc_raw(**overrides)
    with pytest.raises(getattr(errors, error)):
        validate_system(raw)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(raw))
    code = 3 if error == "TooLarge" else 2
    for argv in (["analyze"], ["check", "--sweep", "d=2:3"],
                 ["exact", "--lattice", "box:2x2+halo", "--pattern",
                  "A=0;B=1", "--site", "0,0"], ["zfun", "--d", "1", "--psi", "complete"]):
        assert cli.main([argv[0], "--system", str(path), *argv[1:]]) == code
        assert json.loads(capsys.readouterr().err)["error"] == error


def test_to_dict_round_trip(tmp_path):
    system = make_system(["a", "b"], [1, Fraction(1, 3)], [[0, 1], [1, 0]])
    path = tmp_path / "sys.json"
    path.write_text(system.to_json())
    again = load_system(path)
    assert again == system


def test_load_system_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(errors.SchemaError):
        load_system(path)


# ---------------------------------------------------------------------------
# host graphs and configuration weights

def test_weighted_graph_validation():
    with pytest.raises(errors.SchemaError):
        WeightedGraph(2, [(0, 2)])
    with pytest.raises(errors.SchemaError):
        WeightedGraph(2, [(0, 1)], parity=[0])
    with pytest.raises(errors.SchemaError):
        WeightedGraph(2, [(0, 1)], parity=[0, 0])
    g = WeightedGraph(2, [(0, 1)], parity=[0, 1])
    assert g.n_vertices == 2


def test_config_weight():
    system = make_system(["0", "1"], [1, 2], [[1, 1], [1, 0]])
    path3 = WeightedGraph(3, [(0, 1), (1, 2)])
    assert config_weight(system, path3, (0, 1, 0)) == 2
    assert config_weight(system, path3, (1, 0, 1)) == 4
    assert config_weight(system, path3, (1, 1, 0)) == 0
    with pytest.raises(DomainMismatch):
        config_weight(system, path3, (0, 0))


# ---------------------------------------------------------------------------
# transformations

def test_reweight_validation():
    system = make_system(["0", "1"], [1, 2], [[1, 1], [1, 0]])
    with pytest.raises(errors.SchemaError):
        reweight(system, [1.0], d=2)
    with pytest.raises(errors.NonPositiveMultiplier):
        reweight(system, [1.0, 0.0], d=2)
    out = reweight(system, [2.0, 3.0], d=2)
    assert out.mode == "float"
    assert out.activities[0] == 2.0
    assert abs(out.interactions[0][1] - 6.0 ** -0.25) < 1e-15


def test_product_structure():
    s1 = make_system(["a", "b"], [1, 2], [[1, 1], [1, 0]])
    s2 = make_system(["x", "y"], [3, 1], [[0, 1], [1, 1]])
    sp = product(s1, s2)
    assert sp.n == 4
    assert sp.states == ("(a,x)", "(a,y)", "(b,x)", "(b,y)")
    i_ax, i_by = 0, 3
    assert sp.activities[i_ax] == 3
    assert sp.interactions[i_ax][i_by] == s1.interactions[0][1] \
        * s2.interactions[0][1]
    f1 = make_system(["a"], [1.0], [[1.0]], mode="float")
    with pytest.raises(errors.SchemaError):
        product(s1, f1)


def test_projection_structure():
    hc = make_system(["0", "1"], [1, 2], [[1, 1], [1, 0]])
    proj = project_from_doubled(hc)
    assert proj.states == ("(0,0)", "(0,1)", "(1,0)")
    assert proj.activities == (Fraction(1), Fraction(2), Fraction(2))
    # pair states interact through componentwise cross interactions
    assert proj.interactions[1][2] == 1   # (0,1)-(1,0): lam01 * lam10
    assert proj.interactions[1][1] == 0   # (0,1)-(0,1): lam00 * lam11


def test_projection_empty():
    degenerate = SpinSystem(states=("a",), activities=(Fraction(1),),
                            interactions=((Fraction(0),),), mode="rational")
    with pytest.raises(errors.EmptyProjectedSpace):
        project_from_doubled(degenerate)


def test_bipartite_cover_structure():
    hc = make_system(["0", "1"], [1, 2], [[1, 1], [1, 0]])
    cover, phi = bipartite_cover(hc)
    assert cover.n == 4
    assert phi == [0, 1, 0, 1]
    assert cover.activities == hc.activities * 2
    # no same-layer interactions
    assert cover.interactions[0][1] == 0
    assert cover.interactions[2][3] == 0
    assert cover.interactions[0][3] == hc.interactions[0][1]


def test_lift_permitting_validation():
    tri = make_system(["0", "1", "2"], [1, 1, 1],
                      [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    c6 = [(i, (i + 1) % 6) for i in range(6)]
    with pytest.raises(NotACover):
        # phi not onto the base states
        check_lift_permitting(tri, [str(i) for i in range(6)], c6,
                              [0, 1, 0, 1, 0, 1])
    with pytest.raises(NotACover):
        # wrong length
        check_lift_permitting(tri, [str(i) for i in range(6)], c6, [0, 1, 2])
    with pytest.raises(NotACover):
        # neighborhoods don't map bijectively (missing edges)
        check_lift_permitting(tri, [str(i) for i in range(6)],
                              [(0, 1), (2, 3), (4, 5)], [0, 1, 2, 0, 1, 2])
