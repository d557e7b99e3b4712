"""Finite-volume Gibbs measures on boxes and tori.

Boundary conditions are pattern constraints: configurations live on the
interior of a box, and each internal-boundary vertex is restricted to the
even or odd side of a dominant pattern according to its parity.

Three evaluators:
  * site_law / exact_measure / prob_not_in_pattern / z_pattern_box - exact
    marginals and partition functions via a row-raster frontier DP; the
    per-value partition functions of one site come from one sweep that
    shares the rows before the site and runs one suffix per value;
  * z_torus / log_z_per_site_torus - exact free-boundary partition function
    of a torus via a sparse column transfer matrix, columns along the
    shorter side;
  * run_mcmc - heat-bath Glauber dynamics, deterministic raster scan,
    seeded PCG64 randomness, batch-means error bars.

The exact evaluators run on SpinSystem.scaled() weights: Python ints in
rational mode, divided once at the end by la^|V| li^|E|, and the system's
floats in float mode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import errors, lattice as lat_mod, patterns
from .patterns import Pattern
from .system import SpinSystem

MAX_FRONTIER = 2 * 10 ** 6
MAX_COLUMNS = 5000

RNG_ID = "numpy-pcg64"


# ---------------------------------------------------------------------------
# pattern boundary conditions

@dataclass
class PatternBoundary:
    pattern: Pattern

    def on_boundary(self, lat, v) -> bool:
        """Whether v is on the internal boundary of the box interior."""
        return v in lat.interior and (
            len(lat.neighbors[v]) < lat.degree
            or any(u in lat.halo for u in lat.neighbors[v]))

    def region(self, lat) -> frozenset:
        """Internal boundary of the box interior."""
        return frozenset(v for v in lat.interior if self.on_boundary(lat, v))

    def allowed_mask(self, lat, system, v) -> int:
        if self.on_boundary(lat, v):
            return self.side_mask(lat, v)
        return system.full_mask()

    def side_mask(self, lat, v) -> int:
        """The pattern side a vertex of this parity belongs to."""
        return self.pattern.a if lat.parity(v) == 0 else self.pattern.b


def interior_site(lat, site) -> int:
    """Index of an interior site given by its index or its coordinates."""
    v = lat.index.get(site) if isinstance(site, tuple) else site
    if v not in lat.interior:
        raise errors.SchemaError(f"site {site} is not an interior site")
    return v


def sample_halo_extension(system: SpinSystem, lat, pattern: Pattern,
                          rng) -> dict:
    """Random halo assignment: each halo site independently takes a value in
    its parity's pattern side, with probability proportional to activity."""
    a_states = system.mask_states(pattern.a)
    b_states = system.mask_states(pattern.b)
    if not a_states or not b_states:
        raise errors.EmptySupport("pattern side has no states")
    out = {}
    for v in sorted(lat.halo):
        pool = a_states if lat.parity(v) == 0 else b_states
        weights = [float(system.activities[s]) for s in pool]
        tot = sum(weights)
        u = float(rng.random()) * tot
        acc = 0.0
        pick = pool[-1]
        for s, w in zip(pool, weights):
            acc += w
            if u <= acc:
                pick = s
                break
        out[v] = pick
    return out


# ---------------------------------------------------------------------------
# exact evaluation on a box (2D raster DP)

def _check_box_2d(lat):
    if lat.kind != "box" or lat.d != 2:
        raise errors.TooLarge("exact evaluation implemented for 2D boxes")


def _allowed_masks(system, lat, boundary: PatternBoundary):
    return {v: boundary.allowed_mask(lat, system, v) for v in lat.interior}


def _box_sweep(system, lat, boundary: PatternBoundary, site=None) -> list:
    """Raster DP over the interior rows of a 2D box.  The frontier holds the
    last w values packed in base |S|, the oldest (the site above the next
    one) most significant.

    Without a site, returns [Z].  With a site (an interior site's index),
    returns Z_s, the partition function with the site's value fixed to s,
    for every state s: the sites before it are summed once and one suffix
    runs per value."""
    _check_box_2d(lat)
    h, w = lat.dims
    n = system.n
    if n ** w > MAX_FRONTIER:
        raise errors.StateSpaceTooLarge(f"{n}^{w} frontier states")
    sc = system.scaled()
    acts, inter = sc.acts, sc.inter
    # the allowed mask of each raster position
    masks = [boundary.allowed_mask(lat, system, lat.index[(r, c)])
             for r in range(h) for c in range(w)]
    top = n ** (w - 1)
    tables = {}

    def table(mask):
        """[left][up] -> the (value, weight) pairs with nonzero weight; a
        neighbour value n stands for a missing neighbour."""
        if mask not in tables:
            states = system.mask_states(mask)
            tables[mask] = [[_choices(acts, inter, states, left, up, n)
                             for up in range(n + 1)]
                            for left in range(n + 1)]
        return tables[mask]

    def step(frontier, p, mask):
        r, c = divmod(p, w)
        tbl = table(mask)
        new = {}
        get = new.get
        for key, wgt in frontier.items():
            if r:
                up, rest = divmod(key, top)
            else:
                up, rest = n, key
            base = rest * n
            for s, x in tbl[key % n if c else n][up]:
                k = base + s
                new[k] = get(k, 0) + wgt * x
        return new

    def run(frontier, lo, hi):
        for p in range(lo, hi):
            frontier = step(frontier, p, masks[p])
        return frontier

    end = h * w
    if site is None:
        zs = [sum(run({0: 1}, 0, end).values())]
    else:
        r, c = lat.coords[site]
        p = r * w + c
        prefix = run({0: 1}, 0, p)
        zs = []
        for s in range(n):
            fixed = step(prefix, p, masks[p] & 1 << s)
            zs.append(sum(run(fixed, p + 1, end).values()))
    n_edges = h * (w - 1) + (h - 1) * w
    return [sc.unscale(z, end, n_edges) for z in zs]


def _choices(acts, inter, states, left, up, n):
    out = []
    for s in states:
        x = acts[s]
        if left != n:
            x = x * inter[s][left]
        if up != n:
            x = x * inter[s][up]
        if x:
            out.append((s, x))
    return out


def z_pattern_box(system: SpinSystem, lat, boundary: PatternBoundary):
    """Partition function over interior configurations obeying the pattern
    boundary constraint."""
    return _box_sweep(system, lat, boundary)[0]


@dataclass
class SiteLaw:
    """Exact law of one interior site's value under a pattern boundary."""
    marginal: dict               # state label -> probability
    prob_not_in_pattern: object  # mass outside the site's pattern side
    z: object                    # partition function, the sum of the Z_s


def site_law(system: SpinSystem, lat, boundary: PatternBoundary,
             site) -> SiteLaw:
    """Marginal, off-pattern probability and partition function of one site,
    all from one shared-prefix sweep."""
    site = interior_site(lat, site)
    zs = _box_sweep(system, lat, boundary, site)
    total = sum(zs)
    if total == 0:
        raise errors.EmptySupport("boundary admits no configuration")
    if system.mode == "rational":
        marg = [z / total for z in zs]
    else:
        marg = [float(z) / float(total) for z in zs]
    side = boundary.side_mask(lat, site)
    inside = sum(marg[s] for s in system.mask_states(side))
    return SiteLaw({system.states[s]: marg[s] for s in range(system.n)},
                   1 - inside, total)


def exact_measure(system: SpinSystem, lat, boundary: PatternBoundary,
                  site) -> dict:
    """Exact single-site marginal.  Returns {state label: probability}."""
    return site_law(system, lat, boundary, site).marginal


def prob_not_in_pattern(system: SpinSystem, lat, boundary: PatternBoundary,
                        site):
    """Probability that a site's value falls outside its parity's side."""
    return site_law(system, lat, boundary, site).prob_not_in_pattern


# ---------------------------------------------------------------------------
# torus partition function

def z_torus(system: SpinSystem, dims):
    """Exact free-boundary partition function on a discrete torus.  2D tori
    go through a sparse column transfer matrix whose columns run along the
    shorter side (Z is the same with the axes swapped); small tori of any
    dimension fall back to direct enumeration."""
    dims = tuple(dims)
    n_sites = 1
    for x in dims:
        n_sites *= x
    if len(dims) == 2 and all(x >= 3 for x in dims):
        # with a side of length < 3 the wrap edge coincides with a nearest-
        # neighbor edge, so the transfer decomposition would double-count it
        return _z_torus_transfer(system, min(dims), max(dims))
    if system.n ** n_sites > 10 ** 7:
        raise errors.StateSpaceTooLarge(f"{system.n}^{n_sites}")
    return _z_enumerate_torus(system, dims)


def _z_enumerate_torus(system, dims):
    lat = lat_mod.make_torus(dims)
    zero = system.zero()
    total = zero
    edges = set()
    for v in range(lat.n):
        for u in lat.neighbors[v]:
            edges.add((min(u, v), max(u, v)))
    for f in itertools.product(range(system.n), repeat=lat.n):
        wgt = system.one()
        for v in range(lat.n):
            wgt *= system.activities[f[v]]
        for (u, v) in edges:
            wgt *= system.interactions[f[u]][f[v]]
            if wgt == zero:
                break
        total += wgt
    return total


def _torus_columns(acts, inter, n1):
    """(column, weight) for the columns of height n1 with nonzero weight
    (activities times the n1 vertical interactions, wrap included), in
    lexicographic order; a zero prefix is not extended."""
    n = len(acts)
    col = [0] * n1

    def extend(i, wgt):
        last = i == n1 - 1
        for s in range(n):
            x = wgt * inter[col[i - 1]][s] * acts[s] if i else acts[s]
            if last:
                x = x * inter[s][col[0]]
            if not x:
                continue
            col[i] = s
            if last:
                yield tuple(col), x
            else:
                yield from extend(i + 1, x)

    return extend(0, 1)


def _z_torus_transfer(system, n1, n2):
    """Columns of height n1 (vertical wrap); n2 columns with horizontal wrap.
    Z = trace(M^{n2}) with M[i][j] = w(col_i) * t(col_i, col_j), on the
    integer scale in rational mode."""
    sc = system.scaled()
    inter = sc.inter
    cols = list(itertools.islice(_torus_columns(sc.acts, inter, n1),
                                 MAX_COLUMNS + 1))
    if len(cols) > MAX_COLUMNS:
        raise errors.StateSpaceTooLarge(
            f"more than {MAX_COLUMNS} transfer states")
    index = {col: j for j, (col, _) in enumerate(cols)}
    positive = [[t for t in range(system.n) if inter[s][t]]
                for s in range(system.n)]
    rows = []
    for ci, wgt in cols:
        row = {}
        # only columns that are positive against ci in every row can follow
        for cj in itertools.product(*(positive[s] for s in ci)):
            j = index.get(cj)
            if j is None:
                continue
            t = wgt
            for k in range(n1):
                t = t * inter[ci[k]][cj[k]]
            if t:
                row[j] = t
        rows.append(row)
    return sc.unscale(_trace_power(rows, n2), n1 * n2, 2 * n1 * n2)


def _matmul(a, b):
    out = []
    for row in a:
        acc = {}
        get = acc.get
        for k, av in row.items():
            for j, bv in b[k].items():
                acc[j] = get(j, 0) + av * bv
        out.append(acc)
    return out


def _trace_power(rows, e):
    """trace(M^e), e >= 2, for M stored as one {column: entry} dict per row:
    P = M^(e//2) by repeated squaring, then trace(P Q) with Q = P or P M,
    summed without forming the last product."""
    p, base, k = None, rows, e // 2
    while k:
        if k & 1:
            p = base if p is None else _matmul(p, base)
        k >>= 1
        if k:
            base = _matmul(base, base)
    q = p if e % 2 == 0 else _matmul(p, rows)
    total = 0
    for i, row in enumerate(p):
        for j, pv in row.items():
            total += pv * q[j].get(i, 0)
    return total


def log_z_per_site_torus(system: SpinSystem, dims) -> float:
    z = z_torus(system, dims)
    n_sites = 1
    for x in dims:
        n_sites *= x
    return _log_big(z) / n_sites


def _log_big(x) -> float:
    from fractions import Fraction
    if isinstance(x, Fraction):
        return _log_int(x.numerator) - _log_int(x.denominator)
    return math.log(x)


def _log_int(n: int) -> float:
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 900
    return math.log(n >> shift) + shift * math.log(2)


# ---------------------------------------------------------------------------
# heat-bath MCMC

@dataclass
class MCMCResult:
    site: int
    n_sweeps: int
    burn_in: int
    seed: int
    rng_id: str
    marginal: dict          # state label -> estimate
    se: dict                # state label -> batch-means standard error
    n_batches: int
    trace_counts: dict      # state label -> total count after burn-in
    config: list = field(default_factory=list)  # final interior values


def conditional_weights(system: SpinSystem, allowed_mask: int,
                        neighbor_values) -> list:
    """Unnormalized heat-bath law at a site: activity times the product of
    interactions with the given neighbor values, zeroed outside the mask."""
    out = []
    for s in range(system.n):
        if not allowed_mask >> s & 1:
            out.append(0.0)
            continue
        w = float(system.activities[s])
        for t in neighbor_values:
            w *= float(system.interactions[s][t])
        out.append(w)
    return out


def _safe_state_exists(system) -> bool:
    for s in range(system.n):
        if all(system.interactions[s][t] > 0 for t in range(system.n)) \
                and system.activities[s] > 0:
            return True
    return False


def initial_pattern_config(system: SpinSystem, lat,
                           boundary: PatternBoundary) -> list:
    """Deterministic pattern tiling of the interior: each site takes the
    lowest-index state of its parity's side."""
    a_states = system.mask_states(boundary.pattern.a)
    b_states = system.mask_states(boundary.pattern.b)
    if not a_states or not b_states:
        raise errors.NoAdmissibleStart("pattern side empty")
    out = [0] * lat.n
    for v in range(lat.n):
        out[v] = a_states[0] if lat.parity(v) == 0 else b_states[0]
    return out


def _build_tables(system, d, class_masks):
    """Cumulative conditional laws per site class, indexed by the packed
    values of the 2d neighbor slots in base |S|+1; the extra value is a
    free slot (missing neighbor)."""
    n = system.n
    base = n + 1
    n_keys = base ** (2 * d)
    if n_keys * n * len(class_masks) > 2 * 10 ** 7:
        raise errors.StateSpaceTooLarge(f"{n_keys} neighbor keys")
    acts = np.array([float(a) for a in system.activities])
    inter = np.ones((n, base))
    for s in range(n):
        for t in range(n):
            inter[s, t] = float(system.interactions[s][t])
    tables = np.zeros((len(class_masks), n_keys, n))
    for ci, mask in enumerate(class_masks):
        sel = np.array([1.0 if mask >> s & 1 else 0.0 for s in range(n)])
        for key in range(n_keys):
            k = key
            wgt = acts * sel
            for _ in range(2 * d):
                wgt = wgt * inter[:, k % base]
                k //= base
            tables[ci, key] = np.cumsum(wgt)
    return tables


_NUMBA_KERNEL = None


def _get_kernel():
    global _NUMBA_KERNEL
    if _NUMBA_KERNEL is not None:
        return _NUMBA_KERNEL
    try:
        import numba
    except ImportError:  # pragma: no cover
        _NUMBA_KERNEL = False
        return False

    @numba.njit(cache=True)
    def kernel(config, order, nbrs, cls, tables, n, base, uniforms, trace,
               site):
        n_sweeps = trace.shape[0]
        m = order.shape[0]
        deg = nbrs.shape[1]
        idx = 0
        for sweep in range(n_sweeps):
            for t in range(m):
                v = order[t]
                key = 0
                for j in range(deg):
                    key = key * base + config[nbrs[v, j]]
                row = tables[cls[v], key]
                u01 = uniforms[idx] * row[n - 1]
                idx += 1
                s = 0
                while row[s] < u01:
                    s += 1
                config[v] = s
            trace[sweep] = config[site]
        return idx

    _NUMBA_KERNEL = kernel
    return kernel


def _sweep_python(config, order, nbrs, cls, tables, n, base, uniforms):
    idx = 0
    for v in order:
        key = 0
        for u in nbrs[v]:
            key = key * base + config[u]
        row = tables[cls[v]][key]
        u01 = uniforms[idx] * row[n - 1]
        idx += 1
        s = 0
        while row[s] < u01:
            s += 1
        config[v] = s


def run_mcmc(system: SpinSystem, lat, boundary: PatternBoundary, site,
             n_sweeps: int = 10 ** 6, seed: int = 0,
             burn_in: int = None, n_batches: int = 40,
             force: bool = False) -> MCMCResult:
    """Heat-bath dynamics on the interior of a box under a pattern boundary
    constraint, recording the value at one site after every sweep."""
    if lat.kind != "box":
        raise errors.TooLarge("sampler runs on boxes")
    if not _safe_state_exists(system) and not force:
        raise errors.IrreducibilityUnknown(
            "hard constraints present and no universally compatible state; "
            "pass force=True to sample anyway")
    site = interior_site(lat, site)
    if burn_in is None:
        burn_in = max(1, n_sweeps // 10) if n_sweeps else 0
    n = system.n
    base = n + 1
    order = np.array(sorted(lat.interior), dtype=np.int64)
    m = len(order)
    deg = lat.degree
    dummy = lat.n  # virtual free neighbor slot
    allowed = _allowed_masks(system, lat, boundary)
    class_masks = sorted({allowed[v] for v in lat.interior})
    cls = np.zeros(lat.n, dtype=np.int64)
    nbrs = np.full((lat.n, deg), dummy, dtype=np.int64)
    interior = set(lat.interior)
    for v in lat.interior:
        cls[v] = class_masks.index(allowed[v])
        j = 0
        for u in lat.neighbors[v]:
            if u in interior:
                nbrs[v, j] = u
                j += 1
    tables = _build_tables(system, lat.d, class_masks)
    rng = np.random.Generator(np.random.PCG64(seed))
    config = np.full(lat.n + 1, n, dtype=np.int64)
    init = initial_pattern_config(system, lat, boundary)
    for v in lat.interior:
        config[v] = init[v]
    trace = np.zeros(n_sweeps, dtype=np.int64)

    kernel = _get_kernel()
    if n_sweeps and kernel:
        chunk = 50000
        done = 0
        while done < n_sweeps:
            cur = min(chunk, n_sweeps - done)
            uniforms = rng.random(cur * m)
            kernel(config, order, nbrs, cls, tables, n, base, uniforms,
                   trace[done:done + cur], site)
            done += cur
    elif n_sweeps:  # pragma: no cover - exercised only without numba
        tbl = [t.tolist() for t in tables]
        nbrs_l = nbrs.tolist()
        cfg = config.tolist()
        order_l = order.tolist()
        cls_l = cls.tolist()
        for sweep in range(n_sweeps):
            uniforms = rng.random(m).tolist()
            _sweep_python(cfg, order_l, nbrs_l, cls_l, tbl, n, base, uniforms)
            trace[sweep] = cfg[site]
        config = np.array(cfg)

    marginal, se, counts = {}, {}, {}
    n_kept = n_sweeps - burn_in
    if n_kept > 0:
        kept = trace[burn_in:]
        batch = max(1, n_kept // n_batches)
        nb = n_kept // batch
        for s in range(n):
            label = system.states[s]
            ind = (kept == s).astype(np.float64)
            counts[label] = int(ind.sum())
            marginal[label] = float(ind.mean())
            means = ind[:batch * nb].reshape(nb, batch).mean(axis=1)
            se[label] = float(means.std(ddof=1) / math.sqrt(nb)) \
                if nb > 1 else float("nan")
    else:
        nb = 0
    return MCMCResult(site=int(site), n_sweeps=n_sweeps, burn_in=burn_in,
                      seed=seed, rng_id=RNG_ID, marginal=marginal, se=se,
                      n_batches=nb, trace_counts=counts,
                      config=[int(config[v]) for v in range(lat.n)])
