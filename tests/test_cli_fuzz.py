"""Grammar fuzz of the CLI arguments and of system files: every input ends
in exit 0, or in exit 2 (validation) or 3 (resource guard) with a JSON
error on stderr, never in a traceback.  Lattice sides stay at most 4 and
sweeps at most 100, so each example runs in milliseconds."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spinlab import catalog, cli

LABELS = ["1", "2", "3"]

_int_text = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "a", "",
                             "1.5", " 2"])
# sides 0-4, each periodic (a "p" suffix) or not: odd and zero periodic
# sides, boxes periodic along every axis and "p" under "torus:" included
_dims = st.lists(st.builds(lambda n, p: f"{n}p" if p else str(n),
                           st.integers(0, 4), st.booleans()),
                 min_size=1, max_size=3)
lattices = st.one_of(
    st.builds(lambda kind, dims, halo: f"{kind}:{'x'.join(dims)}"
              + ("+halo" if halo else ""),
              st.sampled_from(["box", "torus", "ball"]), _dims, st.booleans()),
    st.sampled_from(["", "box", "box:", "box:4x", "box:axb", ":4x4",
                     "box:4x4+halo+halo", "box:-2x3+halo", "box:4pp",
                     "box:px4", "box:4px4p+halo", "torus:4px4p"]))
_side = st.one_of(
    st.lists(st.sampled_from(LABELS), max_size=3).map(",".join),
    st.sampled_from(["all", "", "9", "1,,2", "x"]))
patterns = st.one_of(
    st.builds(lambda a, b: f"A={a};B={b}", _side, _side),
    st.sampled_from(["", "A=1", "B=2;A=1", "A=1;B=2;C=3", "A1;B2", ";;",
                     "A=1;A=2"]))
psis = st.one_of(
    st.just("complete"),
    st.builds(lambda j, cls, extra: f"class:J={j}:{cls}{extra}", _side,
              st.sampled_from(["full", "balanced", "near_dominant",
                               "near_subset", "other", ""]),
              st.sampled_from(["", ":eps=0.1", ":epsbar=0.2:eps=0.3",
                               ":eps=x", ":foo=1", ":eps", ":eps=nan",
                               ":eps=0.1:epsbar=-1", ":epsbar=inf",
                               ":eps=-0.0:epsbar=0"])),
    st.builds(lambda groups: "product:" + "|".join(groups),
              st.lists(_side, max_size=5)),
    st.sampled_from(["", "class", "class:", "product", "explicit:1",
                     "class:1:full"]))
_bound = st.sampled_from(["0", "1", "2", "3.5", "-3", "20", "1e2", "abc",
                          "nan", "inf", ""])
sweeps_spec = st.one_of(
    st.builds(lambda lo, hi, rest: f"d={lo}:{hi}{rest}", _bound, _bound,
              st.sampled_from(["", ":geometric", ":geometric:1",
                               ":geometric:5", ":geometric:0",
                               ":geometric:x", ":linear", ":geometric:3:9"])),
    st.sampled_from(["", "d=", "d=2", "2:10", "d=2:10:geometric:-4"]))
sites = st.one_of(
    st.lists(_int_text, min_size=0, max_size=4).map(",".join),
    st.sampled_from(["", ",", "1;1", "(1,1)"]))
seen_from = st.lists(sites, min_size=1, max_size=3).map(";".join)
counts = st.sampled_from(["0", "1", "5", "100", "1e2", "1e1", "-5", "abc",
                          "2.5", "inf", "nan", "", "-0"])
# reweight multipliers: in range, non-finite, non-positive, or taking a pair
# product or a weight out of the float range
multipliers = st.sampled_from(["1", "2", "0.5", "inf", "-inf", "nan", "0",
                               "-1", "1e300", "1e-300", "1e-320", "x", ""])
# values for options click parses as floats: thresholds, exponents and
# constants, in range or not
reals = st.sampled_from(["0", "0.125", "0.3", "1", "2.5", "-5", "-0.1", "nan",
                         "inf", "-inf", "1e-3", "abc", ""])


def _configs(dims):
    """Config files for a 2D box, valid or not."""
    n0, n1 = dims

    def full(fill):
        return {f"{r},{c}": fill(r, c)
                for r in range(-1, n0 + 1) for c in range(-1, n1 + 1)
                if (0 <= r < n0) or (0 <= c < n1)}
    ordered = full(lambda r, c: "1" if (r + c) % 2 == 0 else "2")
    return st.one_of(
        st.just(json.dumps({"values": ordered})),
        st.builds(lambda key, label: json.dumps(
            {"values": {**ordered, key: label}}),
            sites, st.sampled_from(LABELS + ["9", ""])),
        st.builds(lambda drop: json.dumps({"values": {
            k: v for i, (k, v) in enumerate(ordered.items()) if i != drop}}),
            st.integers(0, len(ordered) - 1)),
        st.sampled_from(["", "{", "[]", "3", '{"values": 3}',
                         '{"values": {"0,0": 1}}', "null"]))


@pytest.fixture(scope="module")
def systems(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = []
    for name, model, params in (
            ("af3.json", "af_potts", {"q": 3}),
            ("af3b1.json", "af_potts", {"q": 3, "beta": 1}),
            # no bulk pairs: a huge activity reaches the condition checkers
            ("hc2.json", "hard_core", {"lam": 2}),
            ("field.json", "af_potts_field", {"q": 3, "beta": 1, "lam": 2})):
        path = root / name
        path.write_text(catalog.build(model, **params).to_json())
        out.append(str(path))
    return root, out


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, code)
    if code:
        detail = json.loads(err.getvalue().strip().splitlines()[-1])
        assert set(detail) == {"error", "detail"}, (argv, detail)


# values for options click parses as integers, well-typed or not
ints = st.one_of(st.integers(-2, 3).map(str),
                 st.sampled_from(["abc", "", "2.5", "1e1", " 2", "0x3"]))


# check's dimensions: small, up to 2^1000 and just beyond, or ill-typed
dimensions = st.one_of(
    ints, st.integers(2, 2 ** 1000 + 2).map(str),
    st.sampled_from([str(2 ** 1000 - 1), str(2 ** 1000), str(2 ** 1000 + 1),
                     "1e300"]))


# catalog parameters: rationals and integers in range or not, a zero
# denominator, non-finite and beyond float64
catalog_values = st.sampled_from(["-1", "0", "1", "2", "3", "1/2", "1/0",
                                  "1e400", "nan", "inf", "abc", ""])
# JSON values of the wrong type for a system file's fields or entries
wrong_json = st.sampled_from([None, 3, 1.5, True, "ab", "1e400", "1/0",
                              float("inf"), float("nan"), [1, 1], [[1]],
                              {"a": 1}, [None, None]])


@st.composite
def system_files(draw, system_paths, root):
    """A valid system file, or one with a field or an entry replaced by a
    value of the wrong JSON type."""
    path = draw(st.sampled_from(system_paths))
    if draw(st.booleans()):
        return path
    with open(path) as fh:
        raw = json.load(fh)
    key = draw(st.sampled_from(["states", "activities", "interactions",
                                "mode"]))
    if key != "mode" and draw(st.booleans()):
        raw[key][draw(st.integers(0, len(raw[key]) - 1))] = draw(wrong_json)
    else:
        raw[key] = draw(wrong_json)
    bad = root / "bad_system.json"
    bad.write_text(json.dumps(raw))
    return str(bad)


@st.composite
def invocations(draw, system_paths, root):
    """A subcommand and its options, each option one "--name=value" token
    (or a bare flag); sometimes one option is dropped, which leaves a
    required option missing as often as not."""
    command = draw(st.sampled_from(["exact", "mcmc", "breakup-scan", "zfun",
                                    "check", "verify-cond", "breakup",
                                    "transform", "catalog", "nosuch"]))
    if command == "catalog":
        opts = [draw(st.sampled_from([*catalog._BUILDERS, "nosuch"]))]
        for name in draw(st.lists(st.sampled_from(
                ["q", "lam", "lam-e", "lam-o", "beta", "m"]), unique=True)):
            opts.append(f"--{name}={draw(catalog_values)}")
    else:
        opts = [f"--system={draw(system_files(system_paths, root))}"]
    if command == "zfun":
        d = draw(st.one_of(st.integers(1, 3).map(str), ints))
        opts += [f"--d={d}", f"--psi={draw(psis)}"]
    elif command == "check":
        cond = draw(st.sampled_from(["simple", "alt1", "alt2", "alt3", "x"]))
        opts += [draw(st.one_of(st.builds("--sweep={}".format, sweeps_spec),
                                st.builds("--d={}".format, dimensions))),
                 f"--condition={cond}"]
        if draw(st.booleans()):
            opts.append(f"--C={draw(reals)}")
        if draw(st.booleans()):
            opts.append(f"--s={draw(ints)}")
    elif command == "verify-cond":
        d = draw(st.one_of(st.integers(1, 3).map(str), ints))
        opts += [f"--d={d}", f"--alpha={draw(reals)}", f"--eps={draw(reals)}",
                 f"--epsbar={draw(reals)}"]
        if draw(st.booleans()):
            opts.append(f"--gamma={draw(reals)}")
    elif command == "breakup":
        dims = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        config = root / "config.json"
        config.write_text(draw(_configs(dims)))
        lattice = draw(st.one_of(
            st.just(f"box:{dims[0]}x{dims[1]}+halo"), lattices))
        opts += [f"--lattice={lattice}", f"--pattern={draw(patterns)}",
                 f"--config={config}", f"--seen-from={draw(seen_from)}"]
    elif command == "transform":
        ms = draw(st.one_of(st.lists(multipliers, min_size=3, max_size=3),
                            st.lists(multipliers, max_size=4)))
        d = draw(st.one_of(st.integers(1, 3).map(str), ints))
        opts += ["--op=reweight", f"--multipliers={','.join(ms)}", f"--d={d}"]
    elif command not in ("catalog", "nosuch"):
        opts += [f"--lattice={draw(lattices)}", f"--pattern={draw(patterns)}"]
        if command == "exact":
            opts.append(f"--site={draw(sites)}")
        else:
            opts += [f"--sweeps={draw(counts)}", "--force"]
            if draw(st.booleans()):
                opts.append(f"--seed={draw(ints)}")
        if command == "mcmc":
            opts.append(f"--site={draw(sites)}")
        if command == "breakup-scan":
            samples = draw(st.sampled_from(["0", "1", "2", "-1", "x"]))
            opts.append(f"--samples={samples}")
    if draw(st.booleans()):
        del opts[draw(st.integers(0, len(opts) - 1))]
    return [command, *opts]


def test_cli_grammar_fuzz(systems):
    root, paths = systems

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocations(paths, root))
    def check(argv):
        _run(argv)

    check()
