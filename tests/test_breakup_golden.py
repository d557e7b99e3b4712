"""The `breakup` payloads (without `meta`) and `breakup-scan` CSVs of a
fixed set of seeded inputs, pinned byte for byte in
tests/breakup_golden.json.  Regenerate that file only for a change that
means to move these outputs:

    PYTHONPATH=src python tests/test_breakup_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from spinlab import catalog, cli
from spinlab import lattice as lm

GOLDEN = Path(__file__).parent / "breakup_golden.json"

# name -> (model, params, pattern, lattice, seed, defect density, margin,
# seen-from sites); every side of a pattern is a set of state labels
BREAKUPS = {
    "af3_box20_s1": ("af_potts", {"q": 3}, "A=1;B=2,3", "box:20x20+halo",
                     1, 0.04, 4, "10,10"),
    "af3_box20_s2": ("af_potts", {"q": 3}, "A=1;B=2,3", "box:20x20+halo",
                     2, 0.08, 3, "5,5;14,14"),
    "hc_box12": ("hard_core", {"lam": 1}, "A=0;B=0,1", "box:12x12+halo",
                 3, 0.1, 2, "6,6"),
    "af3_box6x6x6": ("af_potts", {"q": 3}, "A=1;B=2,3", "box:6x6x6+halo",
                     4, 0.05, 2, "3,3,3"),
    "af3_slab10x10x4p": ("af_potts", {"q": 3}, "A=1;B=2,3",
                         "box:10x10x4p+halo", 5, 0.05, 3, "5,5,0"),
}

# name -> breakup-scan arguments after --system
SCANS = {
    "scan_af3b1_box6": ("af_potts", {"q": 3, "beta": 1}, [
        "--lattice", "box:6x6+halo", "--pattern", "A=1;B=2,3",
        "--sweeps", "200", "--samples", "40", "--seed", "1", "--force"]),
    "scan_af3b1_slab6x6x2p": ("af_potts", {"q": 3, "beta": 1}, [
        "--lattice", "box:6x6x2p+halo", "--pattern", "A=1;B=2,3",
        "--sweeps", "100", "--samples", "12", "--seed", "7", "--force"]),
}


def _config(system, pattern, lat, seed, density, margin):
    """The pattern tiling (a value of A on even sites, of B on odd ones)
    with uniformly random values at a fraction of the sites at least
    `margin` steps inside every open side."""
    rng = random.Random(seed)
    a, b = (side.split("=")[1].split(",") for side in pattern.split(";"))
    values = {}
    for v, c in enumerate(lat.coords.tolist()):
        s = rng.choice(b if lat.parity(v) else a)
        if all(p or margin <= x < n - margin
               for x, n, p in zip(c, lat.dims, lat.periodic)) \
                and rng.random() < density:
            s = rng.choice(system.states)
        values[",".join(map(str, c))] = s
    return {"values": values}


def _system_file(tmp, model, params):
    path = tmp / f"{model}-{'-'.join(map(str, params.values()))}.json"
    path.write_text(json.dumps(catalog.build(model, **params).to_dict(),
                               default=str))
    return str(path)


def _breakup(tmp, name):
    model, params, pattern, spec, seed, density, margin, seen = \
        BREAKUPS[name]
    system = catalog.build(model, **params)
    config = tmp / f"{name}-config.json"
    config.write_text(json.dumps(_config(
        system, pattern, lm.parse_lattice(spec), seed, density, margin)))
    out = tmp / f"{name}.json"
    code = cli.main(["breakup", "--system", _system_file(tmp, model, params),
                     "--lattice", spec, "--config", str(config),
                     "--pattern", pattern, "--seen-from", seen,
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    del payload["meta"]
    return payload


def _scan(tmp, name):
    model, params, args = SCANS[name]
    out = tmp / f"{name}.csv"
    assert cli.main(["breakup-scan", "--system",
                     _system_file(tmp, model, params), *args,
                     "--out", str(out)]) == 0
    return out.read_text()


def _dumps(obj):
    return json.dumps(obj, indent=1, sort_keys=True)


GOLDEN_OUTPUTS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("name", sorted(BREAKUPS))
def test_breakup_payload_matches_its_golden_copy(tmp_path, name):
    assert _dumps(_breakup(tmp_path, name)) == _dumps(GOLDEN_OUTPUTS[name])


@pytest.mark.parametrize("name", sorted(SCANS))
def test_breakup_scan_csv_matches_its_golden_copy(tmp_path, name):
    assert _scan(tmp_path, name) == GOLDEN_OUTPUTS[name]


def test_the_golden_file_holds_exactly_these_outputs():
    assert sorted(GOLDEN_OUTPUTS) == sorted([*BREAKUPS, *SCANS])


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outputs = {name: _breakup(tmp, name) for name in BREAKUPS}
        outputs.update({name: _scan(tmp, name) for name in SCANS})
    GOLDEN.write_text(_dumps(outputs) + "\n")
