import hashlib
import itertools
import json
import math
import time
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinlab import (breakup as breakup_mod, catalog, cli, errors, gibbs,
                     kbipartite, parameters, patterns)
from spinlab import lattice as lm
from spinlab.system import load_system, make_system

from helpers import (copy_atlases, make_box, ordered_config, pattern_side,
                     z_bruteforce)


@pytest.fixture
def sysfile(tmp_path):
    def write(name, system):
        path = tmp_path / name
        path.write_text(json.dumps(system.to_dict(), default=str))
        return str(path)
    return write


@pytest.fixture
def hc_path(sysfile):
    return sysfile("hc.json", catalog.build("hard_core", lam=1))


@pytest.fixture
def af3_path(sysfile):
    return sysfile("af3.json", catalog.build("af_potts", q=3))


@pytest.fixture
def af3_soft_path(sysfile):
    return sysfile("af3b1.json", catalog.build("af_potts", q=3, beta=1))


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_catalog_output_round_trips(tmp_path):
    out = tmp_path / "af4.json"
    assert cli.main(["catalog", "af_potts", "--q", "4",
                     "--out", str(out)]) == 0
    system = load_system(str(out))
    assert system == catalog.build("af_potts", q=4)
    assert _read(out)["meta"]["subcommand"] == "catalog"


def test_analyze(tmp_path, af3_path, capsys):
    out = tmp_path / "analysis.json"
    assert cli.main(["analyze", "--system", af3_path,
                     "--out", str(out)]) == 0
    payload = _read(out)
    assert len(payload["dominant"]) == 6
    assert "warning" not in capsys.readouterr().err


def test_analyze_warns_on_near_tie(tmp_path, sysfile, capsys):
    tied = make_system(["0", "1"], [1, 1],
                       [[1.0, 1.0], [1.0, 1.0 - 1e-12]], mode="float")
    path = sysfile("tied.json", tied)
    assert cli.main(["analyze", "--system", path]) == 0
    captured = capsys.readouterr()
    assert "nearly tied" in captured.err


def test_invalid_system_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": []}')
    assert cli.main(["analyze", "--system", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--system", "{missing}"],
    ["analyze", "--system", "{tmp}"],
    ["transform", "--system", "{af3}", "--op", "product",
     "--system2", "{missing}"],
    ["transform", "--system", "{af3}", "--op", "reweight",
     "--multipliers", "a,b", "--d", "2"],
    ["breakup", "--system", "{af3}", "--lattice", "box:4x4+halo",
     "--config", "{missing}", "--pattern", "A=1;B=2,3",
     "--seen-from", "1,1"],
])
def test_unreadable_input_is_a_schema_error(tmp_path, af3_path, capsys,
                                            argv):
    names = {"missing": str(tmp_path / "missing.json"), "tmp": str(tmp_path),
             "af3": af3_path}
    assert cli.main([a.format(**names) for a in argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


@pytest.mark.parametrize("argv", [
    ["zfun", "--d", "-1", "--psi", "complete"],
    ["zfun", "--d", "0", "--psi", "complete"],
    ["verify-cond", "--d", "-1", "--alpha", "0.2", "--eps", "0.125",
     "--epsbar", "0.125"],
])
def test_dimension_below_one_is_out_of_range(af3_path, capsys, argv):
    assert cli.main([argv[0], "--system", af3_path, *argv[1:]]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParamOutOfRange"


@pytest.mark.parametrize("argv", [
    ["zfun", "--d", "2", "--psi", "class:J=1,2,3:near_dominant:eps=nan"],
    ["zfun", "--d", "2", "--psi", "class:J=2,3:balanced:eps=0.1:epsbar=-1"],
    ["zfun", "--d", "2", "--psi", "class:J=2,3:near_subset:epsbar=inf"],
    ["verify-cond", "--d", "2", "--alpha", "0.2", "--eps", "-5",
     "--epsbar", "0.125"],
    ["verify-cond", "--d", "2", "--alpha", "nan", "--eps", "0.125",
     "--epsbar", "0.125"],
    ["verify-cond", "--d", "2", "--alpha", "0.2", "--gamma", "inf",
     "--eps", "0.125", "--epsbar", "0.125"],
    ["verify-cond", "--d", "2", "--alpha", "0.2", "--eps", "0.125",
     "--epsbar", "nan"],
    ["check", "--condition", "alt2", "--d", "4", "--s", "0"],
    ["check", "--condition", "alt2", "--d", "4", "--s", "-3"],
    ["check", "--d", "4", "--C", "nan"],
    ["check", "--d", "4", "--C", "0"],
    ["check", "--sweep", "d=10:100", "--C", "-1"],
    # an infinite multiplier, and pair products that underflow to 0 before
    # their -1/2d power or overflow (reading interaction (0,1) as 0)
    *[["transform", "--op", "reweight", "--multipliers", ms, "--d", "2"]
      for ms in ("1,inf,1", "1e-320,1,1", "1e300,1e300,1")],
])
def test_out_of_range_numbers_are_refused(af3_path, capsys, argv):
    assert cli.main([argv[0], "--system", af3_path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "ParamOutOfRange"
    assert captured.out == ""


BEYOND_FLOAT = str(10 ** 400)  # too large for float(); 2^1000 is taken
HUGE_DIMENSIONS = [
    *[(["verify-cond", "--d", d, "--alpha", "0.2", "--eps", "0.125",
        "--epsbar", "0.125"], 3, "TooLarge")
      for d in ("65", "1000", BEYOND_FLOAT)],
    *[(["check", "--condition", condition, "--d", d], 2, "ParamOutOfRange")
      for condition in ("simple", "alt1", "alt2", "alt3")
      for d in (BEYOND_FLOAT, str(2 ** 1000 + 1))],
    (["check", "--condition", "alt2", "--d", "4", "--s", BEYOND_FLOAT], 2,
     "ParamOutOfRange"),
    *[(["transform", "--op", "reweight", "--multipliers", "1,2,3", "--d", d],
       2, "ParamOutOfRange") for d in ("0", "-1", BEYOND_FLOAT)]]


@pytest.mark.parametrize("argv, code, error", HUGE_DIMENSIONS)
def test_huge_dimensions_are_refused(af3_path, capsys, argv, code, error):
    assert cli.main([argv[0], "--system", af3_path, *argv[1:]]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == error
    assert captured.out == ""


def test_verify_cond_refuses_a_runaway_run_before_any_sum(sysfile, capsys,
                                                           monkeypatch):
    """af_potts q=10 at d=2 has 252 dominant sides, each with 5,556 product
    forms and 2^10 right-side sets (more than a minute of sums): verify-cond
    refuses it with TooLarge, exit 3, before the first sum, within a
    second."""
    def no_sum(*args):
        raise AssertionError("z_compositions ran")
    monkeypatch.setattr(kbipartite, "z_compositions", no_sum)
    path = sysfile("af10.json", catalog.build("af_potts", q=10))
    t0 = time.perf_counter()
    assert cli.main(["verify-cond", "--system", path, "--d", "2",
                     "--alpha", "1", "--gamma", "1", "--eps", "0.1",
                     "--epsbar", "0.1"]) == 3
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err) == {
        "error": "TooLarge", "detail": "more than 300000 product forms and "
        "right-side sets I"}


def _hard_core(activities):
    return {"states": ["0", "1"], "activities": activities,
            "interactions": [[1, 1], [1, 0]]}


def _soft_potts(activities):
    return {"states": ["1", "2", "3"], "activities": activities,
            "interactions": [["1/2" if i == j else 1 for j in range(3)]
                             for i in range(3)]}


VERIFY = ["verify-cond", "--alpha", "0.2", "--eps", "0.125", "--epsbar",
          "0.125"]
BEYOND_THE_FLOAT_RANGE = [
    # omega_dom^{2d}, and the float weights of the pattern structure
    (_hard_core([1, "1e10"]), [*VERIFY, "--d", "64"]),
    (_hard_core([1, "1e400"]), [*VERIFY, "--d", "3"]),
    # omega_dom^{2d} underflowing to 0, where every bound would read 0
    (_hard_core(["1e-200", "1e-200"]), [*VERIFY, "--d", "2"]),
    # a Z_float beyond float64, and a Z of more than 4,300 digits
    (_hard_core([1, "1e10"]), ["zfun", "--d", "64", "--psi", "complete"]),
    (_hard_core([1, "1e-400"]), ["zfun", "--d", "64", "--psi", "complete"]),
    # a gamma whose restricted_left bound leaves float64
    (_hard_core([1, 1]), [*VERIFY, "--d", "3", "--gamma", "1e4"]),
    # the float weights of the sampler and of a reweighted system
    (_soft_potts([1, 1, "1e400"]),
     ["mcmc", "--lattice", "box:4x4+halo", "--pattern", "A=1;B=2,3",
      "--site", "1,1", "--sweeps", "10"]),
    (_soft_potts([1, 1, "1e400"]),
     ["transform", "--op", "reweight", "--multipliers", "1,1,1", "--d", "2"]),
    # float activities whose omega_dom, which the pattern structure divides
    # by, is 0 or inf; and a float zfun sum that overflows, or underflows
    # to 0 although every term is positive
    *[({**_hard_core([x, x]), "mode": "float"}, argv)
      for x in (1e-200, 1e200)
      for argv in (["analyze"], ["check", "--d", "4"], [*VERIFY, "--d", "2"],
                   ["zfun", "--d", "2", "--psi", "complete"])],
]


@pytest.mark.parametrize("raw, argv", BEYOND_THE_FLOAT_RANGE)
def test_values_beyond_the_float_range_are_refused(tmp_path, capsys, raw,
                                                   argv):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(raw))
    assert cli.main([argv[0], "--system", str(path), *argv[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "TooLarge"


def test_a_reweighted_interaction_beyond_the_float_range_is_refused(
        tmp_path, capsys):
    """The multipliers, their pair products and the activities are in
    range, but the interaction 1e300 times (1e-20 * 1e-20)^(-1/2) is
    not."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "activities": [1, 1],
        "interactions": [[1e300, 1], [1, 1]], "mode": "float"}))
    assert cli.main(["transform", "--system", str(path), "--op", "reweight",
                     "--multipliers", "1e-20,1", "--d", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "ParamOutOfRange",
        "detail": "a reweighted interaction leaves the float range"}


@pytest.mark.parametrize("argv, detail", [
    (["check"], "--d required without --sweep"),
    (["transform", "--op", "product"], "product needs --system2")])
def test_a_missing_companion_option_is_a_schema_error(af3_path, capsys, argv,
                                                      detail):
    assert cli.main([argv[0], "--system", af3_path, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {"error": "SchemaError",
                                             "detail": detail}


@pytest.mark.parametrize("condition", ["simple", "alt1", "alt2", "alt3"])
def test_check_takes_dimensions_up_to_the_bound(af3_path, capsys, condition):
    assert cli.main(["check", "--system", af3_path, "--condition", condition,
                     "--d", str(2 ** 1000)]) == 0


def test_alt2_window_beyond_the_float_powers_fails_alpha2(sysfile, capsys):
    """rho_hat_bulk's window power overflows at s = 10^32; the ratio is then
    unbounded and alpha2 is -inf."""
    path = sysfile("wr2.json", catalog.build("widom_rowlinson", lam=2))
    assert cli.main(["check", "--system", path, "--condition", "alt2",
                     "--d", "4", "--s", str(10 ** 32)]) == 0
    payload = json.loads(capsys.readouterr().out)
    alpha2 = [iq for iq in payload["inequalities"] if iq["name"] == "alpha2"]
    assert alpha2[0]["lhs"] == -math.inf and payload["pass"] is False


def test_only_alt3_computes_rho_bulk_star(hc_path, capsys, monkeypatch):
    def run():
        out = {}
        for cond in ("simple", "alt1", "alt2"):
            for opts in (["--d", "1000"], ["--sweep", "d=10:1e6:geometric:4"]):
                assert cli.main(["check", "--system", hc_path,
                                 "--condition", cond, *opts]) == 0
                text = capsys.readouterr().out
                out[cond, opts[0]] = text if opts[0] == "--sweep" else {
                    k: v for k, v in json.loads(text).items() if k != "meta"}
        return out

    before = run()

    def refuse(*args, **kwargs):
        raise AssertionError("rho_bulk_star_of called")
    monkeypatch.setattr(parameters, "rho_bulk_star_of", refuse)
    assert run() == before


@pytest.mark.parametrize("command, argv, rng", [
    ("catalog", ["af_potts", "--q", "3"], None),
    ("analyze", ["--system", "{af3}"], None),
    ("check", ["--system", "{af3}", "--d", "4"], None),
    ("zfun", ["--system", "{af3}", "--d", "2", "--psi", "complete"], None),
    ("verify-cond", ["--system", "{af3}", "--d", "2", "--alpha", "0.2",
                     "--eps", "0.125", "--epsbar", "0.125"], "python-random"),
    ("exact", ["--system", "{af3}", "--lattice", "box:3x3+halo",
               "--pattern", "A=1;B=2,3", "--site", "1,1"], None),
    ("transform", ["--system", "{af3}", "--op", "project"], None),
])
def test_meta_rng_names_the_generator_drawn_from(tmp_path, af3_path,
                                                  command, argv, rng):
    out = tmp_path / "out.json"
    argv = [a.format(af3=af3_path) for a in argv]
    assert cli.main([command, *argv, "--out", str(out)]) == 0
    assert _read(out)["meta"]["rng"] == rng


# the subcommands that read a --system, with the --seed each takes (None:
# it takes none); an argv without --out is run with one
ENVELOPE = [
    ("analyze", [], None),
    ("check", ["--d", "4"], None),
    ("zfun", ["--d", "2", "--psi", "complete"], None),
    ("verify-cond", ["--d", "2", "--alpha", "0.2", "--eps", "0.125",
                     "--epsbar", "0.125", "--seed", "5"], 5),
    ("exact", ["--lattice", "box:3x3+halo", "--pattern", "A=1;B=2,3",
               "--site", "1,1"], None),
    ("mcmc", ["--lattice", "box:3x3+halo", "--pattern", "A=1;B=2,3",
              "--site", "1,1", "--sweeps", "20", "--seed", "7"], 7),
    ("breakup", ["--lattice", "box:4x4+halo", "--config", "{config}",
                 "--pattern", "A=1;B=2,3", "--seen-from", "1,1"], None),
    ("transform", ["--op", "project"], None),
]


@pytest.mark.parametrize("command, argv, seed", ENVELOPE,
                         ids=[c for c, _, _ in ENVELOPE])
def test_every_json_payload_carries_the_same_meta(tmp_path, af3_soft_path,
                                                  command, argv, seed):
    lat = make_box((4, 4))
    f = ordered_config(lat)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"values": {
        ",".join(map(str, c)): str(f[v] + 1)
        for v, c in enumerate(lat.coords)}}))
    out = tmp_path / "out.json"
    assert cli.main([command, "--system", af3_soft_path,
                     *[a.format(config=config) for a in argv],
                     "--out", str(out)]) == 0
    meta = _read(out)["meta"]
    assert set(meta) == {"tool", "version", "subcommand", "rng", "seed",
                         "wall_time_s", "system_sha256"}
    with open(af3_soft_path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    assert (meta["tool"], meta["subcommand"], meta["seed"],
            meta["system_sha256"]) == ("spinlab", command, seed, sha)
    assert meta["wall_time_s"] >= 0


@pytest.mark.parametrize("argv", [
    ["check", "--sweep", "d=2:10:geometric:3"],
    ["breakup-scan", "--lattice", "box:4x4+halo", "--pattern", "A=1;B=2,3",
     "--sweeps", "10", "--samples", "1"]])
def test_csv_outputs_carry_no_meta(tmp_path, af3_soft_path, argv):
    out = tmp_path / "out.csv"
    assert cli.main([argv[0], "--system", af3_soft_path, *argv[1:],
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert text.split("\n")[0] in ("d,pass,min_margin", "sample,seed,L,M,N")
    assert "meta" not in text and "spinlab" not in text


def test_check_single_dimension(tmp_path, hc_path):
    out = tmp_path / "check.json"
    assert cli.main(["check", "--system", hc_path,
                     "--d", str(10 ** 12), "--out", str(out)]) == 0
    payload = _read(out)
    assert payload["pass"] is True
    assert payload["d"] == 10 ** 12


def test_check_sweep_csv(tmp_path, hc_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["check", "--system", hc_path, "--sweep",
                     "d=100:1e12:geometric:13", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,pass,min_margin"
    passes = [int(line.split(",")[1]) for line in lines[1:]]
    assert len(passes) == 13
    assert passes == sorted(passes)  # verdict flips at most once, upward
    assert passes[-1] == 1


@pytest.mark.parametrize("spec,code,rows", [
    ("d=100:1e6:geometric:1", 0, [100]),
    ("d=100:100:geometric:3", 0, [100]),
    ("d=0:10", 2, None),
    ("d=-5:10", 2, None),
    ("d=100:10", 2, None),
    ("d=10:100:geometric:0", 2, None),
    ("d=abc:100", 2, None),
    ("d=10:xyz", 2, None),
    ("d=10", 2, None),
    ("d=10:100:geometric:2.5", 2, None),
    ("d=10:100:linear:3", 2, None),
    ("d=10:100:geometric:3:4", 2, None),
    ("d=nan:100", 2, None),
    ("d=10:inf", 2, None),
])
def test_check_sweep_spec(tmp_path, hc_path, capsys, spec, code, rows):
    out = tmp_path / "sweep.csv"
    assert cli.main(["check", "--system", hc_path, "--sweep", spec,
                     "--out", str(out)]) == code
    if code == 0:
        lines = out.read_text().strip().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == rows
    else:
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


@pytest.mark.parametrize("npoints", ["3000000", "3000000000"])
def test_check_sweep_work_follows_the_distinct_dimensions(tmp_path, hc_path,
                                                          npoints):
    """Millions of points over two integers are two rows, found without a
    pass over every point (1.4 s for 3e6 points when it made one)."""
    out = tmp_path / "sweep.csv"
    t0 = time.monotonic()
    assert cli.main(["check", "--system", hc_path, "--sweep",
                     f"d=2:3:geometric:{npoints}", "--out", str(out)]) == 0
    assert time.monotonic() - t0 < 1.0
    rows = out.read_text().strip().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == [2, 3]


@pytest.mark.parametrize("lo, hi, npoints", [
    (2, 3, 1000), (1, 1000, 5000), (10, 1e12, 13), (100, 1e6, 25),
    (1.5, 40.5, 301), (7, 7.4, 9), (3, 1e4, 20000)])
def test_check_sweep_rows_match_every_point(lo, hi, npoints):
    """The distinct d, as rounding every one of the NPOINTS points gives
    them."""
    every = {int(round(lo * (hi / lo) ** (i / (npoints - 1))))
             for i in range(npoints)}
    assert cli._parse_sweep(f"d={lo}:{hi}:geometric:{npoints}") \
        == sorted(every)


# min_margin at d=100, below the d where rho_bulk_star_of leaves the float
# range; pinned so that its large-d fallback cannot move these values
WR2_D100 = {"simple": "0.06269457284459981", "alt1": "0.129586876620485",
            "alt2": "0.129586876620485", "alt3": "0.13036007086265247"}


@pytest.mark.parametrize("condition", sorted(WR2_D100))
def test_check_sweep_widom_rowlinson_large_d(tmp_path, sysfile, condition):
    path = sysfile("wr2.json", catalog.build("widom_rowlinson", lam=2))
    out = tmp_path / "sweep.csv"
    assert cli.main(["check", "--system", path, "--condition", condition,
                     "--sweep", "d=10:1e5:geometric:5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    assert [r[0] for r in rows[1:]] == ["10", "100", "1000", "10000", "100000"]
    assert rows[2][2] == WR2_D100[condition]


# the rows of the d <= 10^5 points of d=100:1e12:geometric:13, as the
# exact arithmetic computes them
WR2_EXACT_ROWS = {
    "simple": [(100, 0, 0.06269457284459981), (681, 0, 0.06007005509725029),
               (4642, 0, 0.06592304282035158),
               (31623, 0, 0.07833511646625152)],
    "alt3": [(100, 0, 0.13036007086265247), (681, 0, 0.13780557099637436),
             (4642, 0, 0.15987253604247473),
             (31623, 0, 0.19697996588509603)]}


@pytest.mark.parametrize("condition", sorted(WR2_EXACT_ROWS))
def test_check_sweep_reaches_any_dimension(tmp_path, sysfile, condition):
    path = sysfile("wr2.json", catalog.build("widom_rowlinson", lam=2))
    out = tmp_path / "sweep.csv"
    spec = "d=100:1e12:geometric:13"
    t0 = time.monotonic()
    assert cli.main(["check", "--system", path, "--condition", condition,
                     "--sweep", spec, "--out", str(out)]) == 0
    # about 0.02 s on 2 vCPUs; exact powers took over 60 s at d = 10^7
    assert time.monotonic() - t0 < 5.0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    assert [int(r[0]) for r in rows[1:]] == cli._parse_sweep(spec)
    assert len(rows) == 14 and rows[-1][:2] == [str(10 ** 12), "1"]
    assert all(0 < float(r[2]) < math.inf for r in rows[1:])
    for (d, passes, margin), row in zip(WR2_EXACT_ROWS[condition], rows[1:]):
        assert (int(row[0]), int(row[1])) == (d, passes)
        assert abs(float(row[2]) - margin) <= 1e-12 * margin


def test_alt2_sweep_builds_structure_once(tmp_path, af3_soft_path,
                                          monkeypatch):
    built = []
    build = patterns._build_structure
    monkeypatch.setattr(patterns, "_build_structure",
                        lambda system: built.append(system) or build(system))
    assert cli.main(["check", "--system", af3_soft_path, "--condition",
                     "alt2", "--sweep", "d=10:1e6:geometric:4",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("model, spec", [
    (("widom_rowlinson", {"lam": 2}), "d=10:1e5:geometric:5"),
    (("hard_core", {"lam": 2}), "d=10:1e12:geometric:13")])
def test_alt2_sweep_runs_the_scalar_formula_at_most_twice_a_point(
        tmp_path, sysfile, monkeypatch, model, spec):
    """The scalar alpha2 runs on the first window and, where that fails, on
    its successor, which scores no higher, so no later window can pass;
    trying every candidate in turn made 17,408 and 36,403 calls on these
    sweeps."""
    calls = []
    alpha2 = parameters._alpha2
    monkeypatch.setattr(parameters, "_alpha2",
                        lambda *args: calls.append(args) or alpha2(*args))
    path = sysfile("system.json", catalog.build(model[0], **model[1]))
    assert cli.main(["check", "--system", path, "--condition", "alt2",
                     "--sweep", spec, "--out", str(tmp_path / "sweep.csv")]) == 0
    assert 0 < len(calls) <= 2 * len(cli._parse_sweep(spec))


def test_alt2_to_large_dimensions_warns_nothing(tmp_path, sysfile):
    """alt2 warns nothing where its floats overflow.  On a field of 10^-305
    at d = 1000, the window power's base 2 d lam(S) / lam(B) is near 4
    10^308 and overflows, so the power is taken as exp(e log(base)).  At
    d = 2^1000, 2 d lam(S) overflows in floats, and the window power's base
    is taken in logs."""
    wr2 = sysfile("wr2.json", catalog.build("widom_rowlinson", lam=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["check", "--system", wr2, "--condition", "alt2",
                         "--sweep", "d=10:1e12:geometric:13",
                         "--out", str(tmp_path / "sweep.csv")]) == 0
        for lam, d in (("1e-305", 1000), ("1e-20", 2 ** 1000),
                       (2 * 10 ** 7, 2 ** 1000)):
            field = sysfile("field.json", catalog.build(
                "af_potts_field", q=3, beta=1, lam=lam))
            assert cli.main(["check", "--system", field, "--condition",
                             "alt2", "--d", str(d),
                             "--out", str(tmp_path / "check.json")]) == 0


# check inputs whose pattern-structure ratios leave the float range: a
# rational activity of 10^400 (rho_act, lam(S) and omega_dom), and a float
# field of 10^200, whose rho_hat_act = lam(S)^2 / omega_dom reads inf
RATIOS_BEYOND_THE_FLOAT_RANGE = [
    *[(("hard_core", {"lam": 10 ** 400}), condition)
      for condition in ("simple", "alt1", "alt2", "alt3")],
    (("af_potts_field", {"q": 3, "beta": 1, "lam": "1e200"}), "alt2")]


@pytest.mark.parametrize("model, condition", RATIOS_BEYOND_THE_FLOAT_RANGE)
@pytest.mark.parametrize("d", ["4", "1000", str(2 ** 1000)],
                         ids=["4", "1000", "2^1000"])
def test_check_ratios_beyond_the_float_range(sysfile, capsys, model,
                                             condition, d):
    """Each ends in an answer or in a TooLarge refusal, never a traceback."""
    path = sysfile("system.json", catalog.build(model[0], **model[1]))
    code = cli.main(["check", "--system", path, "--condition", condition,
                     "--d", d])
    out, err = capsys.readouterr()
    if code:
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "TooLarge"
    else:
        assert json.loads(out)["condition"] == condition


def test_a_pattern_structure_beyond_the_closure_bound_is_refused(
        tmp_path, sysfile, capsys):
    """af_potts q=15 has 2^15 fixed-point sets of R o R, beyond
    patterns.MAX_CLOSURE = 2^14: analyze and check refuse it with
    SpinSpaceTooLarge (exit 3) while the closure grows, within a second.
    q=14 has 2^14 and answers."""
    path = sysfile("q15.json", catalog.build("af_potts", q=15, beta=1))
    for cmd in (["analyze"], ["check", "--condition", "alt2", "--d", "10"]):
        start = time.perf_counter()
        assert cli.main(cmd + ["--system", path]) == 3
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().err)["error"] == \
            "SpinSpaceTooLarge"
    path = sysfile("q14.json", catalog.build("af_potts", q=14, beta=1))
    out = tmp_path / "check.json"
    assert cli.main(["check", "--system", path, "--condition", "alt2",
                     "--d", "10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["condition"] == "alt2"


def test_check_output_is_deterministic(tmp_path, hc_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for out in (out1, out2):
        assert cli.main(["check", "--system", hc_path, "--d", "1000",
                         "--out", str(out)]) == 0
    p1, p2 = _read(out1), _read(out2)
    p1.pop("meta"), p2.pop("meta")
    assert p1 == p2


def test_zfun_complete(tmp_path, hc_path):
    out = tmp_path / "z.json"
    assert cli.main(["zfun", "--system", hc_path, "--d", "1",
                     "--psi", "complete", "--out", str(out)]) == 0
    payload = _read(out)
    assert int(str(payload["Z"])) == 7
    assert payload["Z_float"] == 7.0


def test_zfun_resource_guard(tmp_path, hc_path, capsys):
    assert cli.main(["zfun", "--system", hc_path, "--d", "100",
                     "--psi", "complete"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("psi", [
    "class:J=1:balanced", "class:J=1:near_subset:eps=0.1",
    "class:J=1:full:eps=x", "class:J=1:other", "class:J=1:full:foo=1",
    # more than 2d coordinates, an unknown kind, a class without J=
    "product:1|2|3|1|2", "explicit:1", "class:balanced", "class:"])
def test_bad_psi_is_a_schema_error(af3_path, capsys, psi):
    assert cli.main(["zfun", "--system", af3_path, "--d", "2",
                     "--psi", psi]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


@pytest.mark.parametrize("system, psi", [
    ("af3", "product:1|2,3|1,2|3"), ("af3", "product:2|2|1,3|1,2,3"),
    ("af3", "product:1,2,3|1,2,3|1,2,3|1,2,3"), ("hc", "product:0|1|0,1|1")])
def test_zfun_product_matches_brute_force(af3_path, hc_path, capsys, system,
                                          psi):
    path = {"af3": af3_path, "hc": hc_path}[system]
    assert cli.main(["zfun", "--system", path, "--d", "2", "--psi", psi]) == 0
    z = Fraction(str(json.loads(capsys.readouterr().out)["Z"]))
    loaded = load_system(path)
    coords = [[loaded.states.index(x) for x in grp.split(",")]
              for grp in psi.removeprefix("product:").split("|")]
    assert z == z_bruteforce(loaded, 2, itertools.product(*coords),
                             loaded.full_mask())


def test_zfun_short_product_is_padded_with_every_state(af3_path, capsys):
    def z(psi):
        assert cli.main(["zfun", "--system", af3_path, "--d", "2",
                         "--psi", psi]) == 0
        return json.loads(capsys.readouterr().out)["Z"]
    assert z("product:1|2,3") == z("product:1|2,3|1,2,3|1,2,3") \
        != z("product:1|2,3|1|1")


@pytest.mark.parametrize("pattern", ["A1;B2", "A=1", "A=1;B=9"])
def test_bad_pattern_is_a_schema_error(af3_path, capsys, pattern):
    assert cli.main(["exact", "--system", af3_path, "--lattice",
                     "box:3x3+halo", "--pattern", pattern,
                     "--site", "1,1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


def test_exact_marginal(tmp_path, af3_path):
    out = tmp_path / "exact.json"
    assert cli.main(["exact", "--system", af3_path,
                     "--lattice", "box:3x3+halo",
                     "--pattern", "A=1;B=2,3", "--site", "1,1",
                     "--out", str(out)]) == 0
    payload = _read(out)
    total = sum(Fraction(str(v)) for v in payload["marginal"].values())
    assert total == 1
    assert Fraction(str(payload["Z"])) > 0
    assert set(payload["marginal"]) == {"1", "2", "3"}


@pytest.mark.parametrize("model,lattice,site", [
    ("af3", "box:3x3+halo", "1,1"),
    ("af3", "box:4x5+halo", "0,0"),   # first raster position
    ("af3", "box:4x5+halo", "3,4"),   # last raster position
    ("af3_soft", "box:4x5+halo", "0,0"),
    ("af3_soft", "box:4x5+halo", "3,4"),
    ("af3_soft", "box:5x4+halo", "2,1"),
    ("hc", "box:3x4+halo", "1,2"),
])
def test_exact_payload_is_consistent(tmp_path, af3_path, af3_soft_path,
                                     hc_path, model, lattice, site):
    path = {"af3": af3_path, "af3_soft": af3_soft_path, "hc": hc_path}[model]
    system = load_system(path)
    pattern = "A=1;B=2,3" if model != "hc" else "A=0;B=0,1"
    out = tmp_path / "exact.json"
    assert cli.main(["exact", "--system", path, "--lattice", lattice,
                     "--pattern", pattern, "--site", site,
                     "--out", str(out)]) == 0
    payload = _read(out)
    lat = lm.parse_lattice(lattice)
    bc = cli._parse_pattern(system, pattern)
    v = lat.site(tuple(int(x) for x in site.split(",")))
    side = [system.states[s]
            for s in system.mask_states(pattern_side(bc, lat, v))]
    z_box = gibbs.z_pattern_box(system, lat, bc)
    if system.mode == "rational":
        num = lambda x: Fraction(str(x))
        assert num(payload["Z"]) == z_box
        assert num(payload["prob_not_in_pattern"]) \
            == 1 - sum(num(payload["marginal"][s]) for s in side)
    else:
        assert payload["Z"] == pytest.approx(z_box, rel=1e-12)
        assert payload["prob_not_in_pattern"] == pytest.approx(
            1 - sum(payload["marginal"][s] for s in side), abs=1e-15)


def test_exact_empty_support(tmp_path, sysfile, capsys):
    path = sysfile("af2.json", catalog.build("af_potts", q=2))
    assert cli.main(["exact", "--system", path, "--lattice", "box:2x2+halo",
                     "--pattern", "A=1;B=1", "--site", "0,0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "EmptySupport"


def test_float_z_beyond_the_float_range_is_refused(af3_soft_path, capsys):
    """Z of af_potts q=3 beta=1 on 300x6 exceeds the float64 range: a
    TooLarge refusal, not a payload of Infinity and NaN."""
    assert cli.main(["exact", "--system", af3_soft_path, "--lattice",
                     "box:300x6+halo", "--pattern", "A=1;B=2,3",
                     "--site", "150,3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "TooLarge"


def test_float_z_below_the_float_range_is_refused(sysfile, capsys):
    """Z of a float system with activities 1e-3 on a 20x6 box underflows
    float64: a TooLarge refusal, not an empty support."""
    tiny = make_system(["1", "2", "3"], [1e-3] * 3,
                       [[0.5 if i == j else 1.0 for j in range(3)]
                        for i in range(3)], mode="float")
    assert cli.main(["exact", "--system", sysfile("tiny.json", tiny),
                     "--lattice", "box:20x6+halo", "--pattern", "A=1;B=2,3",
                     "--site", "10,3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "TooLarge"


@pytest.mark.parametrize("command", ["mcmc", "breakup-scan"])
def test_sweeps_beyond_the_trace_bound_are_refused(af3_soft_path, capsys,
                                                   command):
    """1e300 sweeps on a 16x16 box (the checkerboard kernel) are refused
    before any kernel runs."""
    argv = [command, "--system", af3_soft_path, "--lattice",
            "box:16x16+halo", "--pattern", "A=1;B=2,3", "--sweeps", "1e300"]
    if command == "mcmc":
        argv += ["--site", "8,8"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "TooLarge",
        "detail": f"chains x sweeps above {gibbs.MAX_TRACE}"}


@pytest.mark.parametrize("command", ["mcmc", "breakup-scan"])
def test_a_long_trace_is_refused_before_the_lattice_is_built(
        af3_soft_path, capsys, monkeypatch, command):
    """2e7 sweeps on a 1000x1000 box are refused from the spec's shape: no
    lattice of a million sites is built first."""
    built = []
    monkeypatch.setattr(lm, "make_lattice", lambda *args: built.append(args))
    argv = [command, "--system", af3_soft_path, "--lattice",
            "box:1000x1000+halo", "--pattern", "A=1;B=2,3", "--sweeps", "2e7"]
    if command == "mcmc":
        argv += ["--site", "1,1"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "TooLarge",
        "detail": f"chains x sweeps above {gibbs.MAX_TRACE}"}
    assert built == []


@pytest.mark.parametrize("lattice, width", [("box:500x500+halo", 500),
                                            ("box:1x3000000+halo", 3000000)])
def test_exact_refuses_a_wide_box_before_building_it(af3_soft_path, capsys,
                                                     monkeypatch, lattice,
                                                     width):
    """3^w frontier states are refused from the spec's sides: no lattice of
    250,000 or 3,000,000 sites is built first."""
    built = []
    monkeypatch.setattr(lm, "make_lattice", lambda *args: built.append(args))
    assert cli.main(["exact", "--system", af3_soft_path, "--lattice",
                     lattice, "--pattern", "A=1;B=2,3", "--site", "0,0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "StateSpaceTooLarge", "detail": f"3^{width} frontier states"}
    assert built == []


@pytest.mark.parametrize("lattice, sites, rng", [
    ("box:20x20+halo", 400, gibbs.CHECKERBOARD_RNG_ID),
    ("box:4x4+halo", 16, gibbs.RNG_ID)])
def test_one_state_system_samples_on_both_kernels(tmp_path, lattice, sites,
                                                  rng):
    """A system of one state has no state to compare against in the
    checkerboard kernel's column-wise pick: every site holds it."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"states": ["a"], "activities": [1],
                                "interactions": [[1]]}))
    out = tmp_path / "mcmc.json"
    assert cli.main(["mcmc", "--system", str(path), "--lattice", lattice,
                     "--pattern", "A=a;B=a", "--site", "1,1", "--sweeps",
                     "50", "--out", str(out)]) == 0
    payload = _read(out)
    assert payload["meta"]["rng"] == rng
    assert payload["marginal"] == {"a": 1.0}
    assert list(payload["final_config"].values()) == ["a"] * sites


@pytest.mark.parametrize("command", ["exact", "mcmc"])
def test_a_lattice_beyond_the_site_bound_is_refused(af3_soft_path, capsys,
                                                    command):
    """10^14 sites are refused before any table of the lattice is built."""
    assert cli.main([command, "--system", af3_soft_path, "--lattice",
                     "box:10000000x10000000+halo", "--pattern", "A=1;B=2,3",
                     "--site", "1,1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "TooLarge",
        "detail": f"more than {lm.MAX_SITES} stored sites"}


def test_samples_beyond_the_trace_bound_are_refused(af3_path, capsys):
    """1e12 samples of a 6x6 box would hold 61 x 1e12 int64 values in the
    checkerboard kernel: refused before any kernel runs."""
    assert cli.main(["breakup-scan", "--system", af3_path, "--lattice",
                     "box:6x6+halo", "--pattern", "A=1;B=2,3", "--sweeps",
                     "0", "--samples", "1e12", "--force"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "TooLarge",
        "detail": f"chains x (stored sites + 1) above {gibbs.MAX_TRACE}"}


@pytest.mark.parametrize("command", ["exact", "mcmc"])
@pytest.mark.parametrize("site", ["9,9", "1", "a,b", "-1,0", "1,1,1", ""])
def test_bad_site_is_a_schema_error(af3_soft_path, capsys, command, site):
    argv = [command, "--system", af3_soft_path, "--lattice", "box:3x3+halo",
            "--pattern", "A=1;B=2,3", "--site", site]
    if command == "mcmc":
        argv += ["--sweeps", "10"]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


@pytest.mark.parametrize("command", ["mcmc", "breakup"])
def test_a_site_past_a_periodic_side_is_a_schema_error(tmp_path,
                                                       af3_soft_path, capsys,
                                                       command):
    """(-1, 0) is off box:4px4+halo, whose first axis wraps: a lookup that
    let numpy wrap the index would read it as the interior site (3, 0)."""
    lat = lm.parse_lattice("box:4px4+halo")
    if command == "mcmc":
        argv = ["--site", "-1,0", "--sweeps", "10"]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"values": {
            ",".join(map(str, c)): str(s + 1)
            for c, s in zip(lat.coords.tolist(), ordered_config(lat))}}))
        argv = ["--config", str(cfg), "--seen-from", "-1,0"]
    assert cli.main([command, "--system", af3_soft_path, "--lattice",
                     "box:4px4+halo", "--pattern", "A=1;B=2,3", *argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


@pytest.mark.parametrize("command, option, value", [
    ("mcmc", "--sweeps", "abc"), ("mcmc", "--sweeps", "-5"),
    ("mcmc", "--sweeps", "2.5"), ("mcmc", "--sweeps", "inf"),
    ("breakup-scan", "--sweeps", "x"), ("breakup-scan", "--samples", "-1"),
    ("breakup-scan", "--samples", "1.5")])
def test_bad_count_is_a_schema_error(af3_soft_path, capsys, command, option,
                                     value):
    argv = [command, "--system", af3_soft_path, "--lattice", "box:3x3+halo",
            "--pattern", "A=1;B=2,3", option, value]
    if command == "mcmc":
        argv += ["--site", "1,1"]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


@pytest.mark.parametrize("command, seed", [("mcmc", "-1"),
                                           ("breakup-scan", "-3")])
def test_negative_seed_is_a_schema_error(af3_soft_path, capsys, command,
                                         seed):
    argv = [command, "--system", af3_soft_path, "--lattice", "box:3x3+halo",
            "--pattern", "A=1;B=2,3", "--sweeps", "10", "--seed", seed]
    if command == "mcmc":
        argv += ["--site", "1,1"]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "SchemaError",
                   "detail": "seed must be at least 0"}


@pytest.mark.parametrize("argv, detail", [
    (["zfun", "--system", "{af3}", "--d", "abc", "--psi", "complete"],
     "Invalid value for '--d'"),
    (["zfun", "--d", "2", "--psi", "complete"], "Missing option '--system'"),
    (["mcmc", "--system", "{af3}", "--lattice", "box:3x3+halo", "--pattern",
      "A=1;B=2,3", "--site", "1,1", "--seed", "1.5"], "'--seed'"),
    (["nosuch"], "No such command 'nosuch'"),
    (["zfun", "--bogus"], "No such option '--bogus'"),
    ([], "Commands:")])
def test_click_usage_error_is_a_schema_error(af3_soft_path, capsys, argv,
                                             detail):
    assert cli.main([a.format(af3=af3_soft_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert not out
    error = json.loads(err)
    assert error["error"] == "SchemaError" and detail in error["detail"]


def test_help_is_unchanged(capsys):
    assert cli.main(["zfun", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("Usage:") and "--psi" in out and not err


def test_mcmc_smoke(tmp_path, af3_soft_path):
    out = tmp_path / "mcmc.json"
    assert cli.main(["mcmc", "--system", af3_soft_path,
                     "--lattice", "box:4x4+halo",
                     "--pattern", "A=1;B=2,3", "--site", "2,2",
                     "--sweeps", "2000", "--seed", "1",
                     "--out", str(out)]) == 0
    payload = _read(out)
    assert payload["burn_in"] == 200
    assert abs(sum(payload["marginal"].values()) - 1.0) < 1e-12
    assert set(payload["final_config"]) == {f"{x},{y}" for x in range(4)
                                            for y in range(4)}


@pytest.mark.parametrize("spec, k", [
    ("box:17+halo", 1), ("box:4x3x3+halo", 1), ("box:6px5+halo", 1),
    ("box:3x4+halo", 3)])
def test_site_names_join_each_coordinate_by_commas(spec, k):
    """d = 1, negative halo coordinates, a periodic axis, and a disjoint
    union's repeated coordinates."""
    lat = lm.disjoint_union(lm.parse_lattice(spec), k)[0]
    assert cli._site_names(lat) == [",".join(map(str, c))
                                    for c in lat.coords.tolist()]


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text() | st.fractions() | st.sets(st.integers(), max_size=2))
_PAYLOADS = st.recursive(_SCALARS, lambda kids: (
    st.lists(kids, max_size=4) | st.tuples(kids, kids)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4)
    | st.dictionaries(st.integers() | st.booleans(), kids, max_size=3)
    | st.dictionaries(st.floats(allow_nan=False), kids, max_size=3)),
    max_leaves=40)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_PAYLOADS)
def test_emitted_json_is_json_dumps_byte_for_byte(obj):
    """Nested and empty containers, keys that json turns into text,
    NaN and infinities, newlines and commas inside strings, and objects
    that default=str writes as strings (fractions, sets)."""
    assert cli._dumps(obj) \
        == json.dumps(obj, indent=2, sort_keys=True, default=str)


def test_mcmc_reaches_a_six_dimensional_slab(tmp_path, af3_soft_path,
                                             capsys, monkeypatch):
    """q = 3 samples box:8x8x2px2px2px2p+halo (d = 6); the d = 7 slab's
    9.0 M neighbor keys exceed gibbs.MAX_ROWS and are refused before any
    row is built."""
    out = tmp_path / "mcmc.json"
    argv = ["mcmc", "--system", af3_soft_path, "--pattern", "A=1;B=2,3",
            "--sweeps", "20"]
    assert cli.main([*argv, "--lattice", "box:8x8x2px2px2px2p+halo",
                     "--site", "3,3,0,0,0,0", "--out", str(out)]) == 0
    payload = _read(out)
    assert payload["n_batches"] == 18 and payload["meta"]["rng"] \
        == gibbs.CHECKERBOARD_RNG_ID

    def build(*args):
        raise AssertionError("rows built past MAX_ROWS")

    monkeypatch.setattr(gibbs, "_local_weights", build)
    assert cli.main([*argv, "--lattice", "box:8x8x2px2px2px2px2p+halo",
                     "--site", "3,3,0,0,0,0,0"]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "StateSpaceTooLarge", "detail": "9034497 neighbor keys"}


def test_breakup_command(tmp_path, af3_path):
    lat = make_box((6, 6))
    system = catalog.build("af_potts", q=3)
    f = ordered_config(lat)
    values = {",".join(str(x) for x in lat.coords[v]): system.states[f[v]]
              for v in range(lat.n)}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"values": values}))
    out = tmp_path / "breakup.json"
    assert cli.main(["breakup", "--system", af3_path,
                     "--lattice", "box:6x6+halo", "--config", str(cfg),
                     "--pattern", "A=1;B=2,3", "--seen-from", "3,3",
                     "--out", str(out)]) == 0
    payload = _read(out)
    assert payload["verify"]["pass"] is True
    assert payload["stats"] == {"L": 0, "M": 0, "N": 0}
    # for a fully-ordered configuration the only residue is the halo rim
    halo_coords = {",".join(str(x) for x in lat.coords[v])
                   for v in lat.halo}
    assert set(payload["X_star"]) <= halo_coords


def test_breakup_config_must_cover_all_sites(tmp_path, af3_path):
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps({"values": {"0,0": "1"}}))
    assert cli.main(["breakup", "--system", af3_path,
                     "--lattice", "box:6x6+halo", "--config", str(cfg),
                     "--pattern", "A=1;B=2,3", "--seen-from", "3,3"]) == 2


@pytest.mark.parametrize("seen_from, config", [
    ("9,9", None), ("a,b", None), ("1,1;", None),
    ("1,1", {"values": {"x,y": "1"}}),
    ("1,1", {"values": {"9,9": "1"}}),
    ("1,1", {"values": {"0,0": "7"}}),
    ("1,1", ["not", "an", "object"]),
    ("1,1", "{not json"),
])
def test_breakup_bad_input_is_a_schema_error(tmp_path, af3_path, capsys,
                                             seen_from, config):
    if config is None:
        lat = make_box((4, 4))
        f = ordered_config(lat)
        config = {"values": {",".join(map(str, lat.coords[v])): str(f[v] + 1)
                             for v in range(lat.n)}}
    cfg = tmp_path / "config.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    assert cli.main(["breakup", "--system", af3_path,
                     "--lattice", "box:4x4+halo", "--config", str(cfg),
                     "--pattern", "A=1;B=2,3",
                     "--seen-from", seen_from]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


@pytest.mark.parametrize("argv", [
    ["exact", "--lattice", "torus:4x4", "--site", "1,1"],
    ["exact", "--lattice", "box:3x3x3+halo", "--site", "1,1,1"],
    ["mcmc", "--lattice", "torus:4x4", "--site", "1,1", "--sweeps", "10"],
])
def test_unsupported_lattice_is_a_validation_error(af3_soft_path, capsys,
                                                   argv):
    assert cli.main(argv + ["--system", af3_soft_path,
                            "--pattern", "A=1;B=2,3"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] \
        == "UnsupportedLattice"


@pytest.mark.parametrize("lattice", [
    "box:3px4+halo", "box:0px4+halo", "box:4x1p+halo", "torus:4x3"])
def test_odd_or_zero_periodic_side_is_a_validation_error(af3_soft_path,
                                                         capsys, lattice):
    assert cli.main(["mcmc", "--system", af3_soft_path, "--lattice", lattice,
                     "--pattern", "A=1;B=2,3", "--site", "1,1",
                     "--sweeps", "10"]) == 2
    assert set(json.loads(capsys.readouterr().err)) == {"error", "detail"}


def test_breakup_scan_on_a_slab_verifies_every_atlas(tmp_path, af3_path,
                                                     monkeypatch):
    """The scan's one breakup of its four samples' disjoint union, split
    into one atlas per sample on the slab itself, passes verify_breakup
    there, and each CSV row gives its sample's stats."""
    unions, built = {}, []
    union_of, construct = lm.disjoint_union, breakup_mod.construct_breakup

    def spy_union(lat, k):
        union, copy, orig = union_of(lat, k)
        unions[id(union)] = lat, copy
        return union, copy, orig

    def spy_construct(system, lat, f, pat, V):
        atlas = construct(system, lat, f, pat, V)
        built.append((system, lat, f, pat, atlas))
        return atlas
    monkeypatch.setattr(lm, "disjoint_union", spy_union)
    monkeypatch.setattr(breakup_mod, "construct_breakup", spy_construct)
    out = tmp_path / "scan.csv"
    assert cli.main(["breakup-scan", "--system", af3_path,
                     "--lattice", "box:12x12x4p+halo",
                     "--pattern", "A=1;B=2,3", "--sweeps", "100",
                     "--samples", "4", "--force", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    [(system, union, f, pat, atlas)] = built
    lat, copy = unions[id(union)]
    center = {lat.site((6, 6, 2))}
    samples = copy_atlases(atlas, lat, copy, f)
    assert len(rows) == len(samples) == 4
    for k, (row, (fk, own)) in enumerate(zip(rows, samples)):
        report = breakup_mod.verify_breakup(system, lat, fk, pat, own, center)
        assert report["pass"], [key for key, v in report.items()
                                if isinstance(v, dict) and not v["holds"]]
        st = own.stats()
        assert row == f"{k},{k},{st['L']},{st['M']},{st['N']}"


def _one_breakup_a_sample(system, lat, configs, seed):
    """The scan's rows with one breakup per sample on the lattice itself."""
    pat = cli._parse_pattern(system, "A=1;B=2,3")
    center = {lat.site(tuple(x // 2 for x in lat.dims))}
    rows = []
    for k, f in enumerate(configs):
        u = np.random.Generator(np.random.PCG64(10 ** 6 + seed + k)).random(
            len(lat.halo))
        f = list(f)
        for v, s in zip(lat.halo,
                        gibbs.sample_halo_extension(system, lat, pat, u)):
            f[v] = s
        st = breakup_mod.construct_breakup(system, lat, f, pat, center).stats()
        rows.append(f"{k},{seed + k},{st['L']},{st['M']},{st['N']}")
    return rows


@pytest.mark.parametrize("lattice, samples", [
    # one block; a full block and one more sample; blocks of two and one
    ("box:6x6+halo", 5), ("box:4x4x2p+halo", cli.SCAN_BLOCK_SITES
                          // lm.stored_sites((4, 4, 2), (0, 0, 1)) + 1),
    ("box:40x40+halo", 3), ("box:3x3x3+halo", 2), ("box:6x6+halo", 1)])
@pytest.mark.parametrize("beta", [{"beta": 1}, {}])
def test_breakup_scan_rows_are_one_breakup_a_sample(tmp_path, sysfile,
                                                    lattice, samples, beta):
    system = catalog.build("af_potts", q=3, **beta)
    out = tmp_path / "scan.csv"
    assert cli.main(["breakup-scan", "--system", sysfile("af3.json", system),
                     "--lattice", lattice, "--pattern", "A=1;B=2,3",
                     "--sweeps", "30", "--samples", str(samples),
                     "--seed", "11", "--force", "--out", str(out)]) == 0
    lat = lm.parse_lattice(lattice)
    configs = gibbs.run_mcmc(system, lat, cli._parse_pattern(system,
                                                             "A=1;B=2,3"),
                             0, n_sweeps=30, seed=11, force=True,
                             chains=samples).configs
    assert out.read_text().splitlines()[1:] \
        == _one_breakup_a_sample(system, lat, configs, 11)


def test_breakup_scan_views_each_sample_from_its_centre(tmp_path, af3_path,
                                                        monkeypatch):
    """Samples with one flipped site at the centre of a 28x28 box, mixed
    with ordered samples, in a block of four and a block of one: the flip's
    defect is far from the halo and charted only because the centre views
    it, in every copy."""
    system = load_system(af3_path)
    lat = lm.parse_lattice("box:28x28+halo")
    flip = ordered_config(lat)
    flip[lat.site((14, 14))] = 1
    configs = [ordered_config(lat), flip, flip, ordered_config(lat), flip]
    monkeypatch.setattr(gibbs, "run_mcmc", lambda *args, **kwargs:
                        SimpleNamespace(configs=np.array(configs)))
    out = tmp_path / "scan.csv"
    assert cli.main(["breakup-scan", "--system", af3_path,
                     "--lattice", "box:28x28+halo", "--pattern", "A=1;B=2,3",
                     "--sweeps", "0", "--samples", "5", "--seed", "3",
                     "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows == _one_breakup_a_sample(system, lat, configs, 3)
    assert [row.split(",")[2] != "0" for row in rows] \
        == [f is flip for f in configs]


@pytest.mark.parametrize("lattice", ["box:6x6+halo", "box:40x40+halo"])
def test_breakup_scan_refuses_when_a_later_sample_is_refused(
        af3_path, capsys, monkeypatch, lattice):
    """A refusal from the breakup of the block that holds the last of three
    samples, the only block (6x6) or the second of two (40x40, two samples
    a block), ends the scan with exit 2 and no partial CSV."""
    n, copies = lm.parse_lattice(lattice).n, []
    construct = breakup_mod.construct_breakup

    def refused_at_the_last_sample(system, union, *args):
        copies.append(union.n // n)
        if sum(copies) == 3:
            raise errors.ValidationError("component has 2 surrounding "
                                         "patterns")
        return construct(system, union, *args)
    monkeypatch.setattr(breakup_mod, "construct_breakup",
                        refused_at_the_last_sample)
    assert cli.main(["breakup-scan", "--system", af3_path,
                     "--lattice", lattice, "--pattern", "A=1;B=2,3",
                     "--sweeps", "20", "--samples", "3", "--force"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "ValidationError",
        "detail": "component has 2 surrounding patterns"}
    assert copies == ([3] if lattice == "box:6x6+halo" else [2, 1])


@pytest.mark.parametrize("side, rng_id", [
    (4, gibbs.RNG_ID), (16, gibbs.CHECKERBOARD_RNG_ID)])
def test_mcmc_meta_reports_the_kernel_that_ran(tmp_path, af3_soft_path,
                                               side, rng_id):
    out = tmp_path / "mcmc.json"
    assert cli.main(["mcmc", "--system", af3_soft_path,
                     "--lattice", f"box:{side}x{side}+halo",
                     "--pattern", "A=1;B=2,3", "--site", "2,2",
                     "--sweeps", "20", "--out", str(out)]) == 0
    assert _read(out)["meta"]["rng"] == rng_id


def test_breakup_scan_csv(tmp_path, af3_soft_path):
    out = tmp_path / "scan.csv"
    assert cli.main(["breakup-scan", "--system", af3_soft_path,
                     "--lattice", "box:6x6+halo",
                     "--pattern", "A=1;B=2,3", "--sweeps", "200",
                     "--samples", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample,seed,L,M,N"
    assert len(lines) == 3
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == k and int(fields[1]) == k
        assert all(int(x) >= 0 for x in fields[2:])


def test_breakup_scan_runs_its_samples_as_chains_of_one_run(
        tmp_path, af3_soft_path, monkeypatch):
    calls = []
    run_mcmc = gibbs.run_mcmc

    def spy(*args, **kwargs):
        res = run_mcmc(*args, **kwargs)
        calls.append((kwargs["seed"], res.chains, res.rng_id))
        return res
    monkeypatch.setattr(gibbs, "run_mcmc", spy)
    argv = ["breakup-scan", "--system", af3_soft_path,
            "--lattice", "box:6x6+halo", "--pattern", "A=1;B=2,3",
            "--sweeps", "50", "--seed", "7"]
    assert cli.main(argv + ["--samples", "8",
                            "--out", str(tmp_path / "a.csv")]) == 0
    assert calls == [(7, 8, gibbs.CHECKERBOARD_RNG_ID)]
    lines = (tmp_path / "a.csv").read_text().strip().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] \
        == [[str(k), str(7 + k)] for k in range(8)]
    assert cli.main(argv + ["--samples", "0",
                            "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_text() == "sample,seed,L,M,N\n"
    assert len(calls) == 1


def test_transform_project(tmp_path, hc_path):
    out = tmp_path / "proj.json"
    assert cli.main(["transform", "--system", hc_path, "--op", "project",
                     "--out", str(out)]) == 0
    payload = _read(out)
    assert len(payload["states"]) == 3


def test_transform_bipartite_cover(tmp_path, hc_path):
    out = tmp_path / "cover.json"
    assert cli.main(["transform", "--system", hc_path,
                     "--op", "bipartite-cover", "--out", str(out)]) == 0
    payload = _read(out)
    assert len(payload["states"]) == 4
    assert len(payload["phi"]) == 4
    assert sorted(payload["phi"].values()) == ["0", "0", "1", "1"]


def test_transform_reweight_missing_args(hc_path):
    assert cli.main(["transform", "--system", hc_path,
                     "--op", "reweight"]) == 2


def test_unknown_subcommand():
    assert cli.main(["frobnicate"]) == 2
