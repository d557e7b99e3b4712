"""Command-line front end.  All structured output is JSON (rational values
serialized as "p/q" strings); sweeps and scans emit CSV.  Exit codes:
0 success, 2 validation/schema error, 3 resource guard tripped."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import sys
import time

import click
import numpy as np

from . import (__version__, breakup as breakup_mod, catalog as catalog_mod,
               errors, gibbs, kbipartite, lattice as lat_mod, parameters,
               patterns)
from .patterns import Pattern
from .system import (bipartite_cover, emit_number, load_system, product,
                     project_from_doubled, reweight, to_float)

# stored sites that breakup-scan joins into one breakup (68 copies of a 6x6
# box, 2 of 40x40).  Each component away from the halo costs a pass over
# the whole union: 40 made-up 20x20 samples with two islands each take
# 12 ms in blocks of 8 against 15 ms one at a time; 40x40 ties at blocks of 2
SCAN_BLOCK_SITES = 4096


def _meta(subcommand, system_path=None, seed=None, t0=None, rng=None):
    """Run metadata; rng names the generator the command drew from, None
    when it drew nothing."""
    meta = {
        "tool": "spinlab",
        "version": __version__,
        "subcommand": subcommand,
        "rng": rng,
        "seed": seed,
        "wall_time_s": round(time.time() - t0, 3) if t0 else None,
    }
    if system_path:
        with open(system_path, "rb") as fh:
            meta["system_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return meta


def _write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj, depth=0):
    """json.dumps(obj, indent=2, sort_keys=True, default=str) through the
    C encoder (json.dumps itself falls back to Python with an indent): in
    one call for a container of scalars, else item by item, with a dict's
    keys encoded once beside nulls.  No encoded scalar holds a raw newline,
    so the items split at their separator."""
    nest, sep = (dict, list, tuple), ",\n" + "  " * (depth + 1)
    enc = json.encoder.c_make_encoder(
        None, str, json.encoder.encode_basestring_ascii, None, ": ", sep,
        True, False, True)
    if not isinstance(obj, nest) or not obj:
        return "".join(enc(obj, 0))
    values = obj.values() if isinstance(obj, dict) else obj
    if not any(issubclass(t, nest) for t in set(map(type, values))):
        body = "".join(enc(obj, 0))[1:-1]
    elif isinstance(obj, dict):
        keys = "".join(enc(dict.fromkeys(obj), 0))[1:-1].split(sep)
        body = sep.join(k[:-4] + _dumps(v, depth + 1)
                        for k, (_, v) in zip(keys, sorted(obj.items())))
    else:
        body = sep.join(_dumps(v, depth + 1) for v in obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + sep[1:] + body + sep[1:-2] + brackets[1]


def _emit(payload, out):
    _write(_dumps(payload) + "\n", out)


def _parse_states(system, text):
    if text == "all":
        return system.full_mask()
    mask = 0
    for label in text.split(","):
        label = label.strip()
        if label == "":
            continue
        try:
            mask |= 1 << system.states.index(label)
        except ValueError:
            raise errors.SchemaError(f"unknown state {label!r}")
    return mask


def _parse_pattern(system, text) -> Pattern:
    """"A=1;B=2,3" with state labels."""
    parts = dict(p.partition("=")[::2] for p in text.split(";") if p)
    if set(parts) != {"A", "B"}:
        raise errors.SchemaError("pattern must be given as A=...;B=...")
    return Pattern(_parse_states(system, parts["A"]),
                   _parse_states(system, parts["B"]))


def _parse_psi(system, d, text) -> kbipartite.PsiSpec:
    """complete | class:J=<labels>:<cls>[:eps=x][:epsbar=y] |
    product:<labels>|<labels>|... (short products padded with S)."""
    if text == "complete":
        return kbipartite.PsiSpec(coords=[system.full_mask()] * (2 * d))
    kind, _, rest = text.partition(":")
    if kind == "class":
        fields = rest.split(":")
        if not fields or not fields[0].startswith("J="):
            raise errors.SchemaError("class spec needs J=<labels>")
        J = _parse_states(system, fields[0][2:])
        cls = fields[1] if len(fields) > 1 else "full"
        opts = {"eps": None, "epsbar": None}
        for extra in fields[2:]:
            k, _, v = extra.partition("=")
            if k not in opts:
                raise errors.SchemaError(f"unknown class option {k!r}")
            try:
                opts[k] = float(v)
            except ValueError:
                raise errors.SchemaError(f"malformed {k} {v!r}") from None
        return kbipartite.PsiSpec(J=J, cls=cls, eps=opts["eps"],
                                  eps_bar=opts["epsbar"])
    if kind == "product":
        coords = [_parse_states(system, grp) for grp in rest.split("|")]
        if len(coords) > 2 * d:
            raise errors.SchemaError("more coordinates than 2d")
        coords += [system.full_mask()] * (2 * d - len(coords))
        return kbipartite.PsiSpec(coords=coords)
    raise errors.SchemaError(f"unknown psi spec kind {kind!r}")


def _parse_sweep(text):
    """d=LO:HI[:geometric[:NPOINTS]] -> sorted distinct integer d values,
    geometrically spaced from LO to HI; a single point is LO."""
    parts = text.split("=", 1)[-1].split(":")
    if not 2 <= len(parts) <= 4:
        raise errors.SchemaError(f"malformed sweep {text!r}")
    if len(parts) > 2 and parts[2] != "geometric":
        raise errors.SchemaError("only geometric sweeps supported")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        npts = int(parts[3]) if len(parts) > 3 else 25
    except ValueError:
        raise errors.SchemaError(f"malformed sweep {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise errors.SchemaError("sweep bounds must be finite")
    if lo <= 0:
        raise errors.SchemaError("sweep needs LO > 0")
    if hi < lo:
        raise errors.SchemaError("sweep needs HI >= LO")
    if not 1 <= npts < 2 ** 63:
        raise errors.SchemaError("sweep needs 1 <= NPOINTS < 2^63")
    if npts == 1:
        return [int(round(lo))]

    def point(i):
        return int(round(lo * (hi / lo) ** (i / (npts - 1))))

    # the points never decrease with i: a run of equal points ends within
    # a step doubled until it leaves the run, found there by bisection, so
    # the work grows with the number of distinct d, not with NPOINTS
    out, i = [], 0
    while i < npts:
        out.append(point(i))
        step = 1
        while i + step < npts and point(i + step) == out[-1]:
            step *= 2
        i = bisect.bisect_right(range(npts), out[-1], i + step // 2 + 1,
                                min(i + step, npts), key=point)
    return out


def _parse_count(text, name):
    """A non-negative whole number, also written as a float such as 1e5."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x >= 0 and x == int(x)):
        raise errors.SchemaError(
            f"{name} must be a non-negative whole number, got {text!r}")
    return int(x)


def _parse_coord(text):
    """"x,y" -> coordinate tuple."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise errors.SchemaError(f"malformed site {text!r}") from None


def _parse_site(lat, text):
    """"r,c" -> index of an interior site of the lattice."""
    return gibbs.interior_site(lat, _parse_coord(text))


def _lattice_site(lat, text):
    """"x,y" -> index of a lattice site, halo included."""
    v = lat.site(_parse_coord(text))
    if v is None:
        raise errors.SchemaError(f"site {text} not on the lattice")
    return v


def _site_names(lat):
    """The "x,y" name of every site, in site order."""
    name = ",".join(["%d"] * lat.d)
    return [name % tuple(c) for c in lat.coords.tolist()]


def _load_config(lat, system, path, names):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise errors.SchemaError(f"cannot read {path}: {e.strerror}") from None
    except ValueError as e:
        raise errors.SchemaError(f"config file is not JSON: {e}") from None
    values = raw.get("values") if isinstance(raw, dict) else None
    if not isinstance(values, dict):
        raise errors.SchemaError('config file needs {"values": {...}}')
    f = [None] * lat.n
    where = dict(zip(names, range(lat.n)))
    for key, label in values.items():
        v = where.get(key)
        if v is None:
            v = _lattice_site(lat, key)
        try:
            f[v] = system.states.index(label)
        except ValueError:
            raise errors.SchemaError(f"unknown state {label!r}")
    missing = [i for i, v in enumerate(f) if v is None]
    if missing:
        raise errors.SchemaError(
            f"{len(missing)} sites missing from config (incl. halo)")
    return f


def _coords_of(names, m):
    """The sorted names of the sites of a site mask."""
    return sorted(names[v] for v in np.flatnonzero(m).tolist())


@click.group()
def cli():
    """Spin-system analysis toolbox."""


@cli.command("catalog")
@click.argument("name")
@click.option("--q", type=int, default=None)
@click.option("--lam", "--lambda", "lam", default=None)
@click.option("--lam-e", "lam_e", default=None)
@click.option("--lam-o", "lam_o", default=None)
@click.option("--beta", default=None)
@click.option("--m", type=int, default=None)
@click.option("--out", default=None)
def cmd_catalog(name, q, lam, lam_e, lam_o, beta, m, out):
    """Emit a built-in model as a system JSON file."""
    t0 = time.time()
    given = {"q": q, "lam": lam, "lam_e": lam_e, "lam_o": lam_o,
             "beta": beta, "m": m}
    params = {k: v for k, v in given.items() if v is not None}
    system = catalog_mod.build(name, **params)
    payload = system.to_dict()
    payload["meta"] = _meta("catalog", seed=None, t0=t0)
    _emit(payload, out)


_SYSTEM = click.option("--system", "system_path", required=True)
_OUT = click.option("--out", default=None)
_LATTICE = click.option("--lattice", "lattice_spec", required=True)
_PATTERN = click.option("--pattern", "pattern_text", required=True)
_SITE = click.option("--site", required=True)
_SEED = click.option("--seed", type=int, default=0)
_FORCE = click.option("--force", is_flag=True, default=False)


def _command(name, *options):
    """Declare the subcommand `name` that reads a system: --system, then
    its own options, then --out.  Its body takes the loaded system and its
    own options and returns CSV text, written as it is, or a JSON payload,
    written with the run's `meta`; the payload's own "meta", if any, gives
    only the seed and rng."""
    def declare(body):
        def run(system_path, out, **kwargs):
            t0 = time.time()
            result = body(load_system(system_path), **kwargs)
            if isinstance(result, str):
                return _write(result, out)
            result["meta"] = _meta(name, system_path, t0=t0,
                                   **result.get("meta", {}))
            _emit(result, out)
        run.__doc__ = body.__doc__
        for option in reversed((_SYSTEM, *options, _OUT)):
            run = option(run)
        return cli.command(name)(run)
    return declare


@_command("analyze")
def cmd_analyze(system):
    """Pattern catalog: maximal/dominant patterns, equivalences, exponents."""
    if system.mode == "float":
        vals = sorted({x for row in system.interactions for x in row},
                      reverse=True)
        if len(vals) > 1 and vals[0] - vals[1] <= 1e-9 * vals[0]:
            click.echo("warning: top two interaction values nearly tied; "
                       "pattern structure may be unstable", err=True)
    return patterns.analyze(system).to_dict(system)


@_command("check", click.option("--d", type=int, default=None),
          click.option("--condition", default="simple"),
          click.option("--C", "c_big", type=float, default=1.0),
          click.option("--s", type=int, default=None),
          click.option("--sweep", default=None,
                       help="d=LO:HI:geometric[:NPOINTS]"))
def cmd_check(system, d, condition, c_big, s, sweep):
    """Evaluate a long-range-order condition at dimension d, or sweep d."""
    if sweep:
        lines = ["d,pass,min_margin"]
        for dv in _parse_sweep(sweep):
            rep = parameters.check_condition(system, dv, condition,
                                             C=c_big, s=s)
            margin = min((iq.margin for iq in rep.inequalities
                          if not iq.vacuous), default=math.inf)
            lines.append(f"{dv},{int(rep.passes)},{margin}")
        return "\n".join(lines) + "\n"
    if d is None:
        raise errors.SchemaError("--d required without --sweep")
    return parameters.check_condition(system, d, condition, C=c_big,
                                      s=s).to_dict()


@_command("zfun", click.option("--d", type=int, required=True),
          click.option("--psi", required=True),
          click.option("--i", "--I", "i_spec", default="all"))
def cmd_zfun(system, d, psi, i_spec):
    """Restricted partition function on the complete bipartite graph."""
    spec = _parse_psi(system, d, psi)
    i_mask = _parse_states(system, i_spec)
    z = kbipartite.z_compositions(system, d, spec, i_mask)
    return {"d": d, "psi": psi, "I": i_spec, "Z": emit_number(z),
            "Z_float": to_float(z)}


@_command("verify-cond", click.option("--d", type=int, required=True),
          click.option("--alpha", type=float, required=True),
          click.option("--gamma", type=float, default=0.0),
          click.option("--eps", type=float, required=True),
          click.option("--epsbar", type=float, required=True), _SEED)
def cmd_verify_cond(system, d, alpha, gamma, eps, epsbar, seed):
    """Numerically test the abstract condition inequalities."""
    system = kbipartite.normalize_interactions(system)
    rep = kbipartite.verify_main_condition(system, d, alpha, gamma, eps,
                                           epsbar, seed=seed)
    return {**rep, "meta": {"seed": seed, "rng": kbipartite.RNG_ID}}


@_command("exact", _LATTICE, _PATTERN, _SITE)
def cmd_exact(system, lattice_spec, pattern_text, site):
    """Exact single-site marginal under a pattern boundary condition."""
    shape = lat_mod.parse_shape(lattice_spec)
    pat = _parse_pattern(system, pattern_text)
    gibbs.check_box(system, *shape)  # before the lattice is built
    lat = lat_mod.make_lattice(*shape)
    law = gibbs.site_law(system, lat, pat, _parse_site(lat, site))
    return {
        "site": site,
        "marginal": {k: emit_number(v) for k, v in law.marginal.items()},
        "prob_not_in_pattern": emit_number(law.prob_not_in_pattern),
        "Z": emit_number(law.z),
    }


@_command("mcmc", _LATTICE, _PATTERN, _SITE,
          click.option("--sweeps", default="1e5"), _SEED, _FORCE)
def cmd_mcmc(system, lattice_spec, pattern_text, site, sweeps, seed, force):
    """Heat-bath sampling; reports the recorded site's marginal with
    batch-means standard errors."""
    shape = lat_mod.parse_shape(lattice_spec)
    pat = _parse_pattern(system, pattern_text)
    n_sweeps = _parse_count(sweeps, "--sweeps")
    # before the lattice is built
    gibbs.check_trace(lat_mod.stored_sites(*shape), n_sweeps)
    lat = lat_mod.make_lattice(*shape)
    res = gibbs.run_mcmc(system, lat, pat, _parse_site(lat, site),
                         n_sweeps=n_sweeps, seed=seed, force=force)
    return {
        "site": site, "n_sweeps": res.n_sweeps, "burn_in": res.burn_in,
        "marginal": res.marginal, "se": res.se, "n_batches": res.n_batches,
        "final_config": {name: system.states[s] for name, s in zip(
            _site_names(lat), res.config[:len(lat.interior)].tolist())},
        "meta": {"seed": seed, "rng": res.rng_id},
    }


@_command("breakup", _LATTICE,
          click.option("--config", "config_path", required=True), _PATTERN,
          click.option("--seen-from", "seen_from", required=True))
def cmd_breakup(system, lattice_spec, config_path, pattern_text, seen_from):
    """Construct and verify a breakup of a stored configuration."""
    lat = lat_mod.parse_lattice(lattice_spec)
    pat = _parse_pattern(system, pattern_text)
    names = _site_names(lat)
    f = _load_config(lat, system, config_path, names)
    V = frozenset(_lattice_site(lat, part) for part in seen_from.split(";"))
    atlas = breakup_mod.construct_breakup(system, lat, f, pat, V)
    report = breakup_mod.verify_breakup(system, lat, f, pat, atlas, V)
    return {
        "charts": {
            f"A={system.labels(p.a)};B={system.labels(p.b)}": {
                "X": _coords_of(names, x), "X_defect": _coords_of(names, xp),
            } for p, x, xp in zip(atlas.ctx.pats, atlas.ctx.unpack(atlas.x),
                                  atlas.ctx.unpack(atlas.xp))},
        "X_star": _coords_of(names, atlas.x_star()),
        "stats": atlas.stats(),
        "verify": {k: (v if not isinstance(v, dict)
                       else {"holds": v["holds"]})
                   for k, v in report.items()},
    }


@_command("breakup-scan", _LATTICE, _PATTERN,
          click.option("--sweeps", default="1e4"),
          click.option("--samples", default="10"), _SEED, _FORCE)
def cmd_breakup_scan(system, lattice_spec, pattern_text, sweeps, samples,
                     seed, force):
    """Sample configurations by MCMC and stream breakup size statistics."""
    shape = lat_mod.parse_shape(lattice_spec)
    pat = _parse_pattern(system, pattern_text)
    n_sweeps = _parse_count(sweeps, "--sweeps")
    samples = _parse_count(samples, "--samples")
    # before the lattice is built
    gibbs.check_trace(lat_mod.stored_sites(*shape), n_sweeps, samples)
    lat = lat_mod.make_lattice(*shape)
    m = len(lat.interior)
    center = lat.site(tuple(x // 2 for x in lat.dims))
    lines = ["sample,seed,L,M,N"]
    if samples > 0:
        configs = gibbs.run_mcmc(system, lat, pat, min(lat.interior),
                                 n_sweeps=n_sweeps, seed=seed, force=force,
                                 chains=samples).configs
        # one draw of every halo, row k from sample k's own generator
        u = [np.random.Generator(np.random.PCG64(10 ** 6 + seed + k))
             .random(lat.n - m) for k in range(samples)]
        configs[:, m:] = gibbs.sample_halo_extension(system, lat, pat,
                                                     np.array(u))
    # a block of samples is one breakup on the disjoint union of its copies
    # of the lattice, each viewed from its centre
    per = max(1, SCAN_BLOCK_SITES // lat.n)
    for lo in range(0, samples, per):
        block = configs[lo:lo + per]
        union, copy, orig = lat_mod.disjoint_union(lat, len(block))
        atlas = breakup_mod.construct_breakup(
            system, union, block[copy, orig], pat,
            np.flatnonzero(orig == center))
        st = atlas.site_stats()
        by_copy = [np.bincount(copy, st[key][:-1], len(block)).astype(int)
                   for key in "LMN"]
        lines += [f"{k},{seed + k},{L},{M},{N}"
                  for k, L, M, N in zip(range(lo, lo + per), *by_copy)]
    return "\n".join(lines) + "\n"


@_command("transform",
          click.option("--op", required=True,
                       type=click.Choice(["reweight", "product", "project",
                                          "bipartite-cover"])),
          click.option("--multipliers", default=None,
                       help="comma list for reweight"),
          click.option("--d", type=int, default=None,
                       help="dimension for reweight"),
          click.option("--system2", default=None,
                       help="second factor for product"))
def cmd_transform(system, op, multipliers, d, system2):
    """Weight-preserving and structural transformations."""
    if op == "reweight":
        if multipliers is None or d is None:
            raise errors.SchemaError("reweight needs --multipliers and --d")
        try:
            ms = [float(x) for x in multipliers.split(",")]
        except ValueError:
            raise errors.SchemaError(
                f"malformed --multipliers {multipliers!r}") from None
        return reweight(system, ms, d).to_dict()
    if op == "product":
        if system2 is None:
            raise errors.SchemaError("product needs --system2")
        return product(system, load_system(system2)).to_dict()
    if op == "project":
        return project_from_doubled(system).to_dict()
    result, phi = bipartite_cover(system)
    return {**result.to_dict(),
            "phi": {result.states[i]: system.states[phi[i]]
                    for i in range(result.n)}}


def _refuse(name, detail):
    click.echo(json.dumps({"error": name, "detail": detail}), err=True)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as e:
        # usage errors caught by click itself: no or an unknown subcommand,
        # an unknown option, a missing required option, a mistyped value
        _refuse("SchemaError", e.format_message())
        return 2
    except click.exceptions.Abort:
        return 2
    except errors.ResourceGuard as e:
        _refuse(type(e).__name__, str(e))
        return 3
    except errors.SpinLabError as e:
        _refuse(type(e).__name__, str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
