"""Inputs, job lists and output checks of the three benchmark workloads.

Every input the program sees is a file generated here from the workload
seed:

* System files get fresh seeded state labels.  The state order is kept, so
  the arithmetic, the amount of work and every exact output are the same
  for every seed; the labels in the outputs are mapped back before they are
  compared with the values pinned in ``pinned.json``.
* Stored configurations get seeded defects.
* Every sampler run gets a seed drawn from the workload seed.

A job is one in-process ``spinlab.cli.main`` call, or a direct call for the
computations that have no subcommand (torus partition functions).  Its
check returns ``None`` when the output is right and a message otherwise.
"""

from __future__ import annotations

import json
import math
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"

# name -> (catalog model, parameters); canonical labels come from the catalog
MODELS = {
    "af3b1": ("af_potts", {"q": 3, "beta": 1}),
    "af3inf": ("af_potts", {"q": 3, "beta": math.inf}),
    "hc2": ("hard_core", {"lam": 2}),
    "clock9": ("clock", {"q": 9, "m": 2, "beta": 1}),
    "wr2": ("widom_rowlinson", {"lam": 2}),
}
HOMOMORPHISM = ("af3inf", "hc2", "wr2")

# exact marginal of the pattern's A state at site 3,3 of box:6x6+halo,
# af_potts q=3 beta=1, pattern A=1;B=2,3 (also pinned by the test suite)
REFERENCE_MARGINAL = 0.5416622264791822
# The reference chains keep fixed sampler seeds, so their 4-SE check has the
# same outcome on every run instead of a 3e-4 chance of a false alarm each.
REFERENCE_SEEDS = (1, 2, 3, 4, 5, 6)

SWEEP = "d=10:1e5:geometric:5"
# alt2 costs grow with d (10^4 candidate windows, each recomputing the
# parameters); rational af_potts passes 10 s at d >= 10^4, so it stops at 10^3
ALT2_SWEEPS = {
    "af3b1": "d=10:1e6:geometric:2",
    "af3inf": "d=10:1e3:geometric:3",
    "hc2": "d=10:1e3:geometric:3",
    "clock9": "d=10:1e3:geometric:3",
    "wr2": SWEEP,
}
# stored configurations: (side, number of configurations); defects are kept
# DEFECT_MARGIN sites away from the box edge so that the exterior stays in
# the reference chart
CONFIGS = {16: 2, 48: 2, 64: 2}
DEFECT_MARGIN = 8
DEFECT_DENSITY = 0.03
FLOAT_RTOL = 1e-12


@dataclass
class Job:
    kind: str                    # metric family of the job
    key: str                     # seed-independent name of the job
    argv: list = None            # spinlab CLI arguments, run in process
    call: object = None          # zero-argument callable instead of argv
    check: object = None         # output -> None | mismatch message
    known_defect: str = None     # exception the parent commit raises here
    work: int = 0                # sweep points, site updates or samples


@dataclass
class Inputs:
    root: Path
    canonical: dict = field(default_factory=dict)  # model -> seeded -> canon
    configs: dict = field(default_factory=dict)    # side -> [paths]
    rng: random.Random = None

    def path(self, model):
        return str(self.root / f"{model}.json")

    def label(self, model, canon):
        """Seeded label of the state whose catalog label is ``canon``."""
        back = self.canonical[model]
        return next(s for s, c in back.items() if c == canon)

    def pattern(self, model, a, b):
        lab = lambda xs: ",".join(self.label(model, x) for x in xs)
        return f"A={lab(a)};B={lab(b)}"


def _fresh_labels(rng, n):
    out = []
    while len(out) < n:
        s = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if s not in out and s != "all":
            out.append(s)
    return out


def make_inputs(spinlab, seed: int, root: Path) -> Inputs:
    """Write every input file of every workload under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    inp = Inputs(root=root, rng=rng)
    for name, (model, params) in MODELS.items():
        system = spinlab.catalog.build(model, **params)
        raw = system.to_dict()
        labels = _fresh_labels(rng, len(raw["states"]))
        inp.canonical[name] = dict(zip(labels, raw["states"]))
        raw["states"] = labels
        with open(inp.path(name), "w") as fh:
            json.dump(raw, fh)
    for n, count in CONFIGS.items():
        inp.configs[n] = []
        for k in range(count):
            path = root / f"config{n}-{k}.json"
            with open(path, "w") as fh:
                json.dump({"values": _defect_config(inp, rng, n)}, fh)
            inp.configs[n].append(str(path))
    return inp


def _defect_config(inp, rng, n):
    """af_potts q=3 pattern tiling A=1 (even) / B=2,3 (odd) on box:nxn+halo
    with uniformly random values at a fraction of the sites away from the
    edge."""
    lab = [inp.label("af3inf", c) for c in ("1", "2", "3")]
    interior = [(r, c) for r in range(n) for c in range(n)]
    halo = ([(-1, c) for c in range(n)] + [(n, c) for c in range(n)]
            + [(r, -1) for r in range(n)] + [(r, n) for r in range(n)])
    values = {}
    for r, c in interior + halo:
        s = lab[0] if (r + c) % 2 == 0 else rng.choice(lab[1:])
        inner = min(r, c, n - 1 - r, n - 1 - c) >= DEFECT_MARGIN
        if inner and rng.random() < DEFECT_DENSITY:
            s = rng.choice(lab)
        values[f"{r},{c}"] = s
    return values


# ---------------------------------------------------------------------------
# output checks

def _load_pinned():
    with open(PINNED_PATH) as fh:
        return json.load(fh)


PINNED = _load_pinned() if PINNED_PATH.exists() else {}


def _close(a, b, path="$"):
    """None if a and b agree (floats to FLOAT_RTOL, everything else exactly),
    else the first difference."""
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                and not isinstance(a, bool) and not isinstance(b, bool):
            if a == b or (math.isnan(a) and math.isnan(b)):
                return None
            if abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)):
                return None
        return f"{path}: {a!r} != {b!r}"
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(a)} != {sorted(b)}"
        for k in a:
            diff = _close(a[k], b[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _close(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


class Pinned:
    """Check that the canonical form of an output (seeded labels mapped back
    to catalog labels) equals the one pinned at the parent commit."""

    def __init__(self, key, canon):
        self.key = key
        self.canon = canon

    def __call__(self, out):
        if self.key not in PINNED:
            return f"no pinned value for {self.key}"
        return _close(self.canon(out), PINNED[self.key])




def _payload(out):
    data = json.loads(out)
    data.pop("meta", None)
    return data


def _relabel(back):
    """Map seeded labels in a payload back to catalog labels."""
    def fix(x):
        if isinstance(x, dict):
            if set(x) >= {"A", "B"}:  # a formatted pattern
                x = dict(x, A=sorted(back[s] for s in x["A"]),
                         B=sorted(back[s] for s in x["B"]))
            return {back.get(k, k): fix(v) for k, v in x.items()}
        if isinstance(x, list):
            return [fix(v) for v in x]
        return x
    return fix


def _sweep_rows(out):
    lines = out.strip().splitlines()
    if not lines or lines[0] != "d,pass,min_margin":
        raise ValueError("not a sweep CSV")
    rows = []
    for line in lines[1:]:
        d, ok, margin = line.split(",")
        rows.append([int(d), int(ok), float(margin)])
    return rows


def _sweep_points(spec):
    """d values of a geometric sweep, as the CLI computes them."""
    lo, hi, _, npts = spec.split("=", 1)[1].split(":")
    lo, hi, npts = float(lo), float(hi), int(npts)
    return sorted({int(round(lo * (hi / lo) ** (i / (npts - 1))))
                   for i in range(npts)})


def _check_any_sweep(spec):
    """For a known defect: any well-formed answer is accepted."""
    def check(out):
        rows = _sweep_rows(out)
        if [r[0] for r in rows] != _sweep_points(spec):
            return "sweep rows do not match the requested d values"
        return None
    return check


def _check_verify_cond(back):
    def canon(out):
        data = _payload(out)
        for r in data["inequalities"]:
            if r["J"] is not None:
                r["J"] = ",".join(back[s] for s in r["J"].split(","))
        return data
    return canon


def _check_value(expected):
    def check(out):
        z = json.loads(out)["Z"]
        return None if z == expected else f"Z = {z}, expected {expected}"
    return check


def _proper_colourings_knn(q, n):
    """Proper q-colourings of K_{n,n}: inclusion-exclusion over the image T
    of the left side, times (q - |T|)^n colourings of the right side."""
    total = 0
    for k in range(1, q + 1):
        onto = sum((-1) ** j * math.comb(k, j) * (k - j) ** n
                   for j in range(k + 1))
        total += math.comb(q, k) * onto * (q - k) ** n
    return total


def _check_reference_chain(label):
    def check(out):
        data = json.loads(out)
        dev = abs(data["marginal"][label] - REFERENCE_MARGINAL)
        bound = 4 * data["se"][label]
        if not dev <= bound:
            return f"marginal off by {dev:.4g} > 4 SE = {bound:.4g}"
        return _check_chain_shape(data)
    return check


def _check_chain(out):
    return _check_chain_shape(json.loads(out))


def _check_chain_shape(data):
    if abs(sum(data["marginal"].values()) - 1.0) > 1e-9:
        return "marginal does not sum to 1"
    if not all(se >= 0 for se in data["se"].values()):
        return "negative standard error"
    return None


def _check_scan(samples):
    def check(out):
        lines = out.strip().splitlines()
        if lines[0] != "sample,seed,L,M,N" or len(lines) != samples + 1:
            return "scan CSV has the wrong shape"
        for line in lines[1:]:
            if any(int(x) < 0 for x in line.split(",")):
                return f"negative entry in {line!r}"
        return None
    return check


def _check_breakup(out):
    verify = json.loads(out)["verify"]
    if verify.get("pass") is not True:
        bad = [k for k, v in verify.items()
               if isinstance(v, dict) and not v["holds"]]
        return f"verify_breakup fails: {bad}"
    return None


# ---------------------------------------------------------------------------
# job builders

def _analyze(inp, m):
    return Job("analyze", f"analyze:{m}", ["analyze", "--system", inp.path(m)],
               check=Pinned(f"analyze:{m}",
                             lambda out: _relabel(inp.canonical[m])(
                                 _payload(out))))


def _check_sweep(inp, m, cond, spec):
    key = f"check:{m}:{cond}:{spec}"
    job = Job("check", key, ["check", "--system", inp.path(m),
                             "--condition", cond, "--sweep", spec],
              work=len(_sweep_points(spec)))
    if m == "wr2":
        # OverflowError in the parameter computation for every d >= 1000
        job.known_defect = "OverflowError"
        job.check = _check_any_sweep(spec)
    else:
        job.check = Pinned(key, _sweep_rows)
    return job


def _verify_cond(inp, m, d):
    key = f"verify-cond:{m}:{d}"
    return Job("verify_cond", key,
               ["verify-cond", "--system", inp.path(m), "--d", str(d),
                "--alpha", "0.2", "--eps", "0.125", "--epsbar", "0.125"],
               check=Pinned(key, _check_verify_cond(inp.canonical[m])))


def _exact(inp, m, lattice, site):
    key = f"exact:{m}:{lattice}:{site}"
    return Job("exact", key,
               ["exact", "--system", inp.path(m), "--lattice", lattice,
                "--pattern", inp.pattern(m, ["1"], ["2", "3"]),
                "--site", site],
               check=Pinned(key, lambda out: _relabel(inp.canonical[m])(
                   _payload(out))))


def _z_torus(spinlab, inp, m, dims):
    key = f"z_torus:{m}:{dims[0]}x{dims[1]}"

    def call():
        system = spinlab.system.load_system(inp.path(m))
        return json.dumps(
            {"Z": spinlab.system.emit_number(spinlab.gibbs.z_torus(system,
                                                                   dims))})
    return Job("z_torus", key, call=call,
               check=Pinned(key, lambda out: json.loads(out)["Z"]))


def _zfun(inp, m, d, psi, check=None):
    key = f"zfun:{m}:{d}:{psi}"
    return Job("zfun", key,
               ["zfun", "--system", inp.path(m), "--d", str(d), "--psi", psi],
               check=check or Pinned(key, lambda out: _payload(out)["Z"]))


def _mcmc(inp, m, side, site, sweeps, seed, check):
    return Job("mcmc", f"mcmc:{m}:{side}x{side}:{sweeps}",
               ["mcmc", "--system", inp.path(m),
                "--lattice", f"box:{side}x{side}+halo",
                "--pattern", inp.pattern(m, ["1"], ["2", "3"]),
                "--site", site, "--sweeps", str(sweeps), "--seed", str(seed)],
               check=check, work=sweeps * side * side)


def _scan(inp, m, sweeps, samples, seed):
    return Job("scan", f"breakup-scan:{m}:{sweeps}x{samples}",
               ["breakup-scan", "--system", inp.path(m),
                "--lattice", "box:6x6+halo",
                "--pattern", inp.pattern(m, ["1"], ["2", "3"]),
                "--sweeps", str(sweeps), "--samples", str(samples),
                "--seed", str(seed), "--force"],
               check=_check_scan(samples), work=samples)


def _breakup(inp, side, k):
    return Job("breakup", f"breakup:af3inf:{side}x{side}:{k}",
               ["breakup", "--system", inp.path("af3inf"),
                "--lattice", f"box:{side}x{side}+halo",
                "--config", inp.configs[side][k],
                "--pattern", inp.pattern("af3inf", ["1"], ["2", "3"]),
                "--seen-from", f"{side // 2},{side // 2}"],
               check=_check_breakup)


def _seed(inp):
    return inp.rng.randrange(2 ** 31)


def conditions(spinlab, inp):
    jobs = [_analyze(inp, m) for m in MODELS]
    for m in MODELS:
        for cond in ("simple", "alt1", "alt2", "alt3"):
            if cond == "alt3" and m not in HOMOMORPHISM:
                continue
            spec = ALT2_SWEEPS[m] if cond == "alt2" else SWEEP
            jobs.append(_check_sweep(inp, m, cond, spec))
    # clock9 is left out: 3.8 s at d=3 and 13 s at d=5 (9-state compositions)
    for m in ("af3b1", "af3inf", "hc2", "wr2"):
        for d in (3, 4, 5):
            jobs.append(_verify_cond(inp, m, d))
    return jobs


def exact(spinlab, inp):
    balanced = (f"class:J={inp.label('af3inf', '2')},"
                f"{inp.label('af3inf', '3')}:balanced:eps=0.125:epsbar=0.125")
    return [
        _exact(inp, "af3b1", "box:8x8+halo", "4,4"),
        _exact(inp, "af3inf", "box:9x9+halo", "4,4"),
        _z_torus(spinlab, inp, "af3inf", (6, 4)),
        _z_torus(spinlab, inp, "af3b1", (4, 4)),
        _z_torus(spinlab, inp, "hc2", (8, 8)),
        _zfun(inp, "af3inf", 16, "complete",
              _check_value(_proper_colourings_knn(3, 32))),
        _zfun(inp, "hc2", 64, "complete", _check_value(2 * 3 ** 128 - 1)),
        Job("zfun", "zfun:af3inf:64:class-balanced",
            ["zfun", "--system", inp.path("af3inf"), "--d", "64",
             "--psi", balanced],
            check=Pinned("zfun:af3inf:64:class-balanced",
                          lambda out: _payload(out)["Z"])),
    ]


def sampling(spinlab, inp):
    side = 64
    site = f"{inp.rng.randrange(side)},{inp.rng.randrange(side)}"
    jobs = [
        _mcmc(inp, "af3b1", side, site, 500, _seed(inp), _check_chain),
        _mcmc(inp, "af3b1", 6, "3,3", 25000, REFERENCE_SEEDS[0],
              _check_reference_chain(inp.label("af3b1", "1"))),
        _scan(inp, "af3inf", 200, 40, _seed(inp)),
    ]
    for n in (48, 64):
        jobs += [_breakup(inp, n, k) for k in range(CONFIGS[n])]
    return jobs


def background(spinlab, inp):
    """Short jobs of every kind, run by every workload so that every
    end-to-end metric is defined (and nonzero) on every workload.  Several
    short jobs per kind rather than one long one: a short job's time is
    calibrated by kernel runs close to it (see run.py).  The widom_rowlinson
    overflow is in here, so fail_frac is never 0."""
    ref = inp.label("af3b1", "1")
    return [
        _check_sweep(inp, "af3b1", "alt2", "d=10:300:geometric:3"),
        _check_sweep(inp, "hc2", "alt2", "d=10:300:geometric:3"),
        _check_sweep(inp, "wr2", "simple", SWEEP),
        _verify_cond(inp, "af3b1", 3),
        _verify_cond(inp, "hc2", 4),
        _verify_cond(inp, "wr2", 3),
        _exact(inp, "af3b1", "box:6x6+halo", "3,3"),
        _exact(inp, "af3inf", "box:5x5+halo", "2,2"),
        _z_torus(spinlab, inp, "af3inf", (4, 4)),
        _z_torus(spinlab, inp, "af3inf", (4, 6)),
        _z_torus(spinlab, inp, "hc2", (6, 4)),
        _zfun(inp, "hc2", 16, "complete", _check_value(2 * 3 ** 32 - 1)),
        _zfun(inp, "hc2", 24, "complete", _check_value(2 * 3 ** 48 - 1)),
        _zfun(inp, "af3inf", 6, "complete",
              _check_value(_proper_colourings_knn(3, 12))),
    ] + [
        _mcmc(inp, "af3b1", 6, "3,3", 2000, seed,
              _check_reference_chain(ref))
        for seed in REFERENCE_SEEDS[1:]
    ] + [
        _scan(inp, "af3inf", 200, 2, _seed(inp)) for _ in range(3)
    ] + [
        _breakup(inp, 16, k) for k in range(CONFIGS[16])
    ]


WORKLOADS = {"conditions": conditions, "exact": exact, "sampling": sampling}


def jobs_for(workload, spinlab, inp):
    return WORKLOADS[workload](spinlab, inp) + background(spinlab, inp)
