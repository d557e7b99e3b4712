"""Finite-volume Gibbs measures on boxes, slabs and tori.

A boundary condition is a dominant Pattern, taken as it is: configurations
live on the interior of a lattice, and each vertex of its internal
boundary (the interior sites next to the halo, which lies across the open
axes) is restricted to the even or odd side of the pattern according to
its parity.  pattern_masks gives every stored site's allowed states.

Three evaluators:
  * site_law / exact_measure / prob_not_in_pattern / z_pattern_box - exact
    marginals and partition functions via a row-raster frontier DP: a
    sparse dict frontier in rational mode, a dense float64 array stepped by
    one matrix product per site in float mode; the per-value partition
    functions of one site come from one sweep that shares the rows before
    the site and runs one suffix per value;
  * z_torus - exact free-boundary partition function of a torus of any
    dimension as the trace of a power of a dense transfer matrix over its
    layers across the longest axis: in float64 (a column weight that
    underflows is refused), or modulo primes below 2^20 and rebuilt by the
    Chinese remainder theorem;
  * run_mcmc - heat-bath Glauber dynamics on K chains from one seeded
    PCG64 stream, with two kernels that read one (|S|, keys) array of
    cumulative rows: a raster scan of one site at a time, and a numpy
    checkerboard kernel that updates the even and then the odd sublattice
    of all chains at once (given one sublattice, the sites of the other are
    conditionally independent).  chains x |interior| picks the kernel;
    error bars are batch means, or the spread of the chain means for K > 1.

The exact evaluators run on SpinSystem.scaled() weights: Python ints in
rational mode, divided once at the end by la^|V| li^|E|, and the system's
floats in float mode.  The box DP and the sampler's rows read one
local-weight function, _local_weights.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import errors, lattice as lat_mod
from .patterns import Pattern
from .system import SpinSystem, check_float_z, to_float

MAX_FRONTIER = 2 * 10 ** 6
MAX_COLUMNS = 5000
# chains x sweeps recorded by run_mcmc, and chains x (stored sites + 1)
# held by its kernels' configurations: 8 bytes a value in an array, and as
# much again while the raster kernel holds them as lists.  MAX_ROWS bounds
# the sampler's one array of cumulative weights, |S| per neighbor key
MAX_TRACE = 10 ** 7
MAX_ROWS = 2 * 10 ** 7
# the batches of one chain's kept sweeps behind its standard errors
N_BATCHES = 40

RNG_ID = "numpy-pcg64"
CHECKERBOARD_RNG_ID = "numpy-pcg64-checkerboard"
# chains x |interior| from which the checkerboard kernel runs.  Which kernel
# runs is part of the stream contract, so this stays at the crossover first
# measured; it is not retuned as the crossover moves with the kernels.
# Checkerboard over raster speed (af_potts q=3 beta=1, 2 vCPUs, numpy 2.4):
# 0.2 at 36 updates per sweep (one 6x6 chain), 0.5 at 100-108, 0.7 at 144,
# 0.8-0.9 at 180, 0.95-1.07 at 196-216, 1.2-1.3 at 256-288: break-even is
# near 200.  The raster kernel does 10-13 M updates/s up to 288 sites, the
# checkerboard kernel 46-53 M/s on 40 6x6 chains, 59-73 M/s on one 64x64.
CHECKERBOARD_MIN_UPDATES = 200


# ---------------------------------------------------------------------------
# pattern boundary conditions

def pattern_masks(system: SpinSystem, lat, pattern: Pattern) -> np.ndarray:
    """The allowed states of every stored site as a bitmask: its parity's
    pattern side on the internal boundary of the interior, every state
    elsewhere (Python ints, which hold up to 64 states)."""
    region = lat_mod.inner_m(lat, lat_mod.not_m(lat_mod.halo_m(lat)))
    choice = np.array([pattern.a, pattern.b, system.full_mask()], dtype=object)
    return choice[np.where(region[:-1], lat.par, 2)]


def interior_site(lat, site) -> int:
    """Index of an interior site given by its index or its coordinates."""
    v = lat.site(site) if isinstance(site, tuple) else site
    if v not in lat.interior:
        raise errors.SchemaError(f"site {site} is not an interior site")
    return v


def sample_halo_extension(system: SpinSystem, lat, pattern: Pattern,
                          u) -> np.ndarray:
    """Random halo values, of the shape of the uniforms u (..., |halo|, in
    lat.halo order; breakup-scan's row k comes from sample k's generator):
    each halo site independently takes a value in its parity's side, with
    probability proportional to activity, the first state whose cumulative
    activity reaches u times the side's total."""
    pools = [system.mask_states(pattern.a), system.mask_states(pattern.b)]
    if not all(pools):
        raise errors.EmptySupport("pattern side has no states")
    par, out = lat.par[len(lat.interior):], np.empty(u.shape, dtype=np.intp)
    for q, pool in enumerate(pools):
        cum = np.cumsum([to_float(system.activities[s]) for s in pool])
        pick = np.searchsorted(cum, u[..., par == q] * cum[-1])
        out[..., par == q] = np.array(pool)[pick.clip(max=len(pool) - 1)]
    return out


# ---------------------------------------------------------------------------
# exact evaluation on a box (2D raster DP)

def _box_sweep(system, lat, pattern: Pattern, site=None) -> list:
    """Raster DP over the interior rows of a 2D box.  The frontier holds the
    weights of the last w values, the oldest (the site above the next one)
    first.  Rational mode keeps the nonzero weights in a dict keyed by the
    values packed in base |S|, the oldest most significant; float mode keeps
    a dense float64 array of shape (|S|,)*w, the oldest on axis 0, and makes
    one array step per site.

    Without a site, returns [Z].  With a site (an interior site's index),
    returns Z_s, the partition function with the site's value fixed to s,
    for every state s: the sites before it are summed once and one suffix
    runs per value."""
    check_box(system, lat.dims, lat.periodic)
    h, w = lat.dims
    n = system.n
    sc = system.scaled()
    end = h * w
    # the allowed mask of each raster position (the interior's site order)
    masks = pattern_masks(system, lat, pattern)[:end].tolist()
    # one suffix from position p per mask: the site's mask restricted to
    # each value, or the first position's own mask without a site
    if site is None:
        p, fixed = 0, [masks[0]]
    else:
        p, fixed = site, [masks[site] & 1 << s for s in range(n)]
    distinct = sorted(set(masks).union(fixed))
    rows = _box_rows(system, distinct)
    if sc.exact:
        top = n ** (w - 1)

        def step(frontier, p, mask):
            r, c = divmod(p, w)
            tbl = rows[mask]
            new = {}
            get = new.get
            for key, wgt in frontier.items():
                if r:
                    up, rest = divmod(key, top)
                else:
                    up, rest = n, key
                base = rest * n
                for s, x in tbl[up][key % n if c else n]:
                    k = base + s
                    new[k] = get(k, 0) + wgt * x
            return new

        start, total = {0: 1}, lambda frontier: sum(frontier.values())
    else:
        inter = np.array(sc.inter, dtype=float)

        def step(frontier, p, mask, ups=rows, inter=inter):
            r, c = divmod(p, w)
            up = ups[mask]
            # sum out the up value (axis 0); row 0 grows the frontier
            new = frontier.reshape(n, -1).T @ up[:n] if r else \
                frontier.reshape(-1, 1) * up[n]
            if c:  # the left value is the last axis
                new = new.reshape(-1, n, n)
                new *= inter
            return new.reshape(frontier.shape[1 if r else 0:] + (n,))

        start, total = np.ones(()), np.sum

    def sweep(step, start):
        def run(frontier, lo, hi):
            for p in range(lo, hi):
                frontier = step(frontier, p, masks[p])
            return frontier

        prefix = run(start, 0, p)
        return [total(run(step(prefix, p, mask), p + 1, end))
                for mask in fixed]

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        zs = sweep(step, start)
    if not sc.exact:
        check_float_z(sum(zs), lambda: sum(sweep(functools.partial(
            step, ups={m: u > 0 for m, u in rows.items()}, inter=inter > 0),
            np.ones((), bool))))
    n_edges = h * (w - 1) + (h - 1) * w
    return [sc.unscale(z, end, n_edges) for z in zs]


def check_box(system, dims, periodic) -> None:
    """Refuse a lattice the box DP cannot evaluate, from its sides alone, so
    that a caller can check before it builds the lattice: one that is not a
    2D box (UnsupportedLattice), or one whose frontier of |S|^w states, w
    its second side, exceeds MAX_FRONTIER (StateSpaceTooLarge)."""
    if len(dims) != 2 or any(periodic):
        raise errors.UnsupportedLattice(
            "exact evaluation implemented for 2D boxes")
    n, w = system.n, dims[1]
    # any n >= 2 exceeds the bound by this power, so a wide box builds no
    # huge integer
    if n ** min(w, MAX_FRONTIER.bit_length()) > MAX_FRONTIER:
        raise errors.StateSpaceTooLarge(f"{n}^{w} frontier states")


def _box_rows(system, masks) -> dict:
    """The box DP's local-weight row of each allowed mask, on scaled()
    weights.  The system's memo keeps them in one dict by mask, which each
    call fills with the masks it lacks.  Rational mode: [up][left] -> the
    (value, weight) pairs with nonzero weight (left is the first slot; a
    neighbour value n is a missing neighbour).  Float mode: [up][s], the
    weight of s given its up neighbour (row n: a missing one), which the
    left neighbour's interaction multiplies."""
    memo = system.derived(_box_rows, lambda _: {})
    new = [m for m in masks if m not in memo]
    if new:
        sc = system.scaled()
        n = system.n
        if sc.exact:
            tables = _local_weights(
                np.array(sc.acts, object), np.array(sc.inter, object),
                [range(n + 1)] * 2, new).reshape(len(new), n + 1, n + 1,
                                                 n).tolist()
            memo.update((mask, [[[(s, x) for s, x in enumerate(cell) if x]
                                 for cell in row] for row in table])
                        for mask, table in zip(new, tables))
        else:
            memo.update(zip(new, _local_weights(
                np.array(sc.acts, dtype=float),
                np.array(sc.inter, dtype=float), [range(n + 1)], new)))
    return {m: memo[m] for m in masks}


def z_pattern_box(system: SpinSystem, lat, pattern: Pattern):
    """Partition function over interior configurations obeying the pattern
    boundary constraint."""
    return _box_sweep(system, lat, pattern)[0]


@dataclass
class SiteLaw:
    """Exact law of one interior site's value under a pattern boundary."""
    marginal: dict               # state label -> probability
    prob_not_in_pattern: object  # mass outside the site's pattern side
    z: object                    # partition function, the sum of the Z_s


def site_law(system: SpinSystem, lat, pattern: Pattern, site) -> SiteLaw:
    """Marginal, off-pattern probability and partition function of one site,
    all from one shared-prefix sweep."""
    site = interior_site(lat, site)
    zs = _box_sweep(system, lat, pattern, site)
    total = sum(zs)
    if total == 0:
        raise errors.EmptySupport("boundary admits no configuration")
    marg = [z / total for z in zs]  # Fractions, or floats in float mode
    side = pattern.a if lat.parity(site) == 0 else pattern.b
    outside = sum((marg[s] for s in system.mask_states(~side)),
                  system.zero())
    return SiteLaw({system.states[s]: marg[s] for s in range(system.n)},
                   outside, total)


def exact_measure(system: SpinSystem, lat, pattern: Pattern, site) -> dict:
    """Exact single-site marginal.  Returns {state label: probability}."""
    return site_law(system, lat, pattern, site).marginal


def prob_not_in_pattern(system: SpinSystem, lat, pattern: Pattern, site):
    """Probability that a site's value falls outside its parity's side."""
    return site_law(system, lat, pattern, site).prob_not_in_pattern


# ---------------------------------------------------------------------------
# torus partition function

def z_torus(system: SpinSystem, dims):
    """Exact free-boundary partition function of a discrete torus of any
    dimension as a simple graph, by a layer transfer along its longest axis
    (Z is the same along any): sides must be at least 2, odd sides are
    allowed, and along a side of 2 both steps reach one neighbour by one
    edge (lattices count it twice; see spinlab.lattice)."""
    dims = tuple(sorted(dims))
    if not dims or dims[0] < 2:
        raise errors.ParamOutOfRange("torus sides must be at least 2")
    return _z_torus_transfer(system, dims)


def _torus_columns(acts, inter, dims):
    """(column, weight) for the nonzero configurations of a column, a layer
    torus of sides dims (no sides: one site), in lexicographic order, no
    zero prefix extended.  Each site multiplies in its interactions one step
    back, its activity, then those across each wrap to 0 of a side >= 3.
    A float product of positive factors that underflows to 0 is refused
    (TooLarge), not pruned: later factors could bring it back into range."""
    strides = [math.prod(dims[a + 1:]) for a in range(len(dims))]
    plan = [([i - st for x, st in zip(c, strides) if x],
             [i - x * st for x, st, side in zip(c, strides, dims)
              if side >= 3 and x == side - 1])
            for i, c in enumerate(itertools.product(*map(range, dims)))]
    n, last, col = len(acts), len(plan) - 1, [0] * len(plan)

    def extend(i, wgt):
        steps, wraps = plan[i]
        for s in range(n):
            x = wgt
            for j in steps:
                x = x * inter[col[j]][s]
            x = x * acts[s]
            for j in wraps:
                x = x * inter[s][col[j]]
            if x:
                col[i] = s
                if i == last:
                    yield tuple(col), x
                else:
                    yield from extend(i + 1, x)
            elif isinstance(x, float) and acts[s] > 0 \
                    and all(inter[col[j]][s] > 0 for j in steps) \
                    and all(inter[s][col[j]] > 0 for j in wraps):
                raise errors.TooLarge(
                    "a column weight underflows the float64 range")

    return extend(0, 1)


def _z_torus_transfer(system, dims):
    """Transfer along the last axis, of length n2, over the N nonzero
    columns of sides dims[:-1] (L sites): Z = trace(M^{n2}) for the dense
    M[a][b] = w(a) prod_i t(a_i, b_i), or sum_{a,b} M[a][b] w(b) if n2 = 2
    (each edge once).  Float mode takes it in float64 (see check_float_z),
    rational mode on the integer scale modulo primes below 2^20 whose
    product exceeds N (N max w max t^L)^{n2}, rebuilt by the CRT."""
    sc, n2, n_sites = system.scaled(), dims[-1], math.prod(dims)
    n_edges = sum(n_sites if x >= 3 else n_sites // 2 for x in dims)

    def columns(acts, inter):  # values [site][column], weights
        cols = list(itertools.islice(_torus_columns(acts, inter, dims[:-1]),
                                     MAX_COLUMNS + 1))
        if len(cols) > MAX_COLUMNS:
            raise errors.StateSpaceTooLarge(
                f"more than {MAX_COLUMNS} transfer states")
        return (np.array([c for c, _ in cols], np.intp)
                .reshape(-1, n_sites // n2).T, [x for _, x in cols])

    def trace(values, wgts, inter, red=lambda a: a):
        """trace(M^{n2}): P = M^(n2//2) by repeated squaring, then the row
        sums of P * Q^T, Q = P or P M, each product reduced by red (mod p,
        every float64 intermediate, at most MAX_COLUMNS terms, is < 2^53)."""
        wgts = np.array(wgts, dtype=inter.dtype)
        m = wgts[:, None]
        for row in values:  # t(a_i, b_i) by two takes, faster than one gather
            m = red(m * inter.take(row, 0).take(row, 1))
        if n2 == 2:
            return red(m @ wgts).sum()
        pw, base, k = None, m, n2 // 2
        while k:
            if k & 1:
                pw = base if pw is None else red(pw @ base)
            k >>= 1
            if k:
                base = red(base @ base)
        q = pw if n2 % 2 == 0 else red(pw @ m)
        return red(np.einsum("ij,ji->i", pw, q)).sum()

    values, wgts = columns(sc.acts, sc.inter)
    if not sc.exact:
        inter = np.array(sc.inter, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            z = trace(values, wgts, inter)
        check_float_z(z, lambda: trace(*columns(
            np.array(sc.acts) > 0, inter > 0), inter > 0))
        return sc.unscale(z, n_sites, n_edges)
    top = max(wgts, default=0) * max(map(max, sc.inter)) ** len(values)
    bound = len(wgts) * (len(wgts) * top) ** n2
    z, modulus = 0, 1
    for p in _crt_primes(bound):
        r = trace(values, [x % p for x in wgts],
                  np.array([[x % p for x in row] for row in sc.inter],
                           dtype=float), lambda a: np.fmod(a, p, out=a))
        z += modulus * ((int(r) - z) * pow(modulus, -1, p) % p)
        modulus *= p
    return sc.unscale(z, n_sites, n_edges)


@functools.cache
def _primes() -> np.ndarray:
    """The primes below 2^20, largest first; sieved on first use."""
    sieve = np.ones(1 << 20, dtype=bool)
    sieve[:2] = False
    for i in range(2, 1 << 10):
        if sieve[i]:
            sieve[i * i::i] = False
    return np.flatnonzero(sieve)[::-1].astype(np.int32)


def _crt_primes(bound) -> list:
    """The fewest of the largest primes below 2^20 whose product exceeds
    bound."""
    for k, product in enumerate(itertools.accumulate(
            map(int, _primes()), operator.mul, initial=1)):
        if product > bound:
            return _primes()[:k].tolist()
    raise errors.StateSpaceTooLarge(
        "Z exceeds the product of the primes below 2^20")


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
    chains: int = 1
    configs: np.ndarray = None  # final values, (chains, stored sites) int64

    @property
    def config(self) -> np.ndarray:
        """The first chain's final values (halo sites hold |S|)."""
        return self.configs[0]


def _safe_state_exists(system) -> bool:
    return any(system.activities[s] > 0 and min(system.interactions[s]) > 0
               for s in range(system.n))


def initial_pattern_config(system: SpinSystem, lat,
                           pattern: Pattern) -> np.ndarray:
    """Deterministic pattern tiling, an int array over the stored sites:
    each site takes the lowest-index state of its parity's side."""
    a_states = system.mask_states(pattern.a)
    b_states = system.mask_states(pattern.b)
    if not a_states or not b_states:
        raise errors.NoAdmissibleStart("pattern side empty")
    return np.where(lat.par == 0, a_states[0], b_states[0])


def _local_weights(acts, inter, slots, masks):
    """Local Boltzmann weights given neighbor slots, per allowed mask:
    [mask][key][s] is the activity of s times its interactions with the
    slots, multiplied from the last slot up, and 0 outside the mask.  slots
    lists the values each slot can hold; a key enumerates their
    combinations, the first slot most significant.  A slot value |S| is a
    free slot (missing neighbor), with factor 1.  Computes in the
    arithmetic of the arrays acts and inter: Python ints in object arrays,
    or floats."""
    n = len(acts)
    inter_t = np.ones((n + 1, n), dtype=inter.dtype)  # [slot value, s]
    inter_t[:n] = inter
    sel = np.array([[mask >> s & 1 for s in range(n)] for mask in masks],
                   dtype=bool)
    wgt = np.where(sel, acts, 0)  # [mask, s]
    for values in reversed(slots):  # each slot a new axis after the mask's
        wgt = wgt[:, None] * inter_t[list(values)].reshape(
            (-1,) + (1,) * (wgt.ndim - 2) + (n,))
    return wgt.reshape(len(masks), -1, n)


def _build_rows(system, deg, kinds):
    """The float local weights of every site kind's keys, cumulated over the
    states, as one C-ordered (|S|, keys) array, and each kind's first key
    (the total last).  A kind is an allowed mask and a number f of free
    slots, first among the deg slots; its keys are the values 0 .. |S|-1 of
    its other slots.  Refuses more than MAX_ROWS weights before any."""
    n = system.n
    offsets = list(itertools.accumulate(
        (n ** (deg - f) for _, f in kinds), initial=0))
    if offsets[-1] * n > MAX_ROWS:
        raise errors.StateSpaceTooLarge(f"{offsets[-1]} neighbor keys")
    acts = np.array([to_float(a) for a in system.activities])
    inter = np.array([[to_float(x) for x in row]
                      for row in system.interactions])
    cum = np.empty((n, offsets[-1]))
    for (mask, f), lo, hi in zip(kinds, offsets, offsets[1:]):
        np.cumsum(_local_weights(acts, inter, [range(n)] * (deg - f),
                                 [mask])[0], -1, out=cum[:, lo:hi].T)
    return cum, np.array(offsets)


class _Chains:
    """The fixed inputs of heat-bath chains on a lattice interior (sites 0
    to m - 1): each interior site's neighbor slots and kind, the rows cum
    and kind offsets of _build_rows, and the pattern tiling every chain
    starts from.  The slots are the rows of `lat.nbr`, a neighbor outside
    the interior replaced by the sentinel `lat.n` (a free slot), free slots
    first.  A kind is an allowed mask and a number of free slots: a free
    slot's factor is 1 and the stored slots keep their order, so that is
    all a site's rows depend on.  Halo sites hold |S|, the sentinel 0."""

    def __init__(self, system, lat, pattern):
        n, m, deg = system.n, len(lat.interior), lat.nbr.shape[1]
        slots = np.where(lat.nbr[:m] < m, lat.nbr[:m], lat.n)
        free = slots == lat.n
        self.slots = np.take_along_axis(
            slots, np.argsort(~free, 1, kind="stable"), 1)
        self.parity = lat.par[:m]
        masks, cls = np.unique(pattern_masks(system, lat, pattern)[:m],
                               return_inverse=True)
        kinds, self.kind = np.unique(cls * (deg + 1) + free.sum(1),
                                     return_inverse=True)
        self.free = (kinds % (deg + 1)).tolist()  # per kind
        self.cum, self.offsets = _build_rows(
            system, deg, list(zip(masks[kinds // (deg + 1)], self.free)))
        self.init = np.append(initial_pattern_config(system, lat, pattern), 0)
        self.init[m:-1] = n

    def raster(self, rng, site, n_sweeps, chains):
        """Heat-bath updates in raster order, one chain after the other,
        each drawing one uniform per update from rng.  The state is the
        first s with cum[s] >= u * cum[-1].  Returns the recorded site's
        values [chain][sweep] and the final configurations."""
        (m, deg), n = self.slots.shape, len(self.cum)
        rows = [self.cum[:, lo:hi].T.reshape((n,) * (deg - f + 1)).tolist()
                for f, lo, hi in zip(self.free, self.offsets, self.offsets[1:])]
        sweeps = _raster_sweeps(tuple(
            (k, tuple(x for x in nb if x < m)) for k, nb in
            zip(self.kind.tolist(), self.slots.tolist())), site, n)
        chunk = max(1, 4096 // m)  # sweeps per block of uniforms
        trace, configs = [], []  # the chains' traces, one after the other
        for _ in range(chains):
            cfg = self.init.tolist()
            for lo in range(0, n_sweeps, chunk):
                sweeps(cfg, rng.random((min(chunk, n_sweeps - lo), m))
                       .tolist(), trace, *rows)
            configs.append(cfg[:-1])
        return np.array(trace, dtype=np.int64).reshape(chains, n_sweeps), \
            np.array(configs, dtype=np.int64)

    def checkerboard(self, rng, site, n_sweeps, chains):
        """Heat-bath half-sweeps: all even interior sites of every chain at
        once, then all odd ones.  Given the other sublattice, the sites of
        one sublattice are conditionally independent, so this is a valid
        heat-bath sweep.  Each half-sweep draws rng.random((sites, chains))
        and picks the state as the raster kernel does: the number of states
        s < |S| - 1 with cum[s] < u * cum[-1] (the last state never counts,
        since u < 1), read from each state's row of cum as it is.  Values
        are float64 rows, even sites first, odd next, the sentinel last: a
        half's keys are one BLAS product, exact as they stay below MAX_ROWS
        < 2^53, and its new values one slice."""
        (m, deg), n = self.slots.shape, len(self.cum)
        lower, last = self.cum[:-1], self.cum[-1]
        order = np.argsort(self.parity, kind="stable")  # even sites first
        pos = np.full(len(self.init), m)  # each site's row, the sentinel's m
        pos[order] = np.arange(m)
        cfg = np.append(self.init[order], 0.0)[:, None].repeat(chains, 1)
        # per half: its rows, their slots' rows (slot-major), kind offsets
        # and a buffer for its uniforms
        halves = [(slice(pos[sites[0]], pos[sites[-1]] + 1),
                   pos[self.slots[sites]].T.ravel(),
                   self.offsets[self.kind[sites], None],
                   np.empty((len(sites), chains)))
                  for sites in (np.flatnonzero(self.parity == p)
                                for p in (0, 1)) if len(sites)]
        # the slots are the digits of a key in its kind's block, the first
        # most significant; free slots come first and read the sentinel's 0
        powers = float(n) ** np.arange(deg - 1, -1, -1)
        trace = np.zeros((chains, n_sweeps), dtype=np.int64)
        for sweep in range(n_sweeps):
            for rows, slots, offset, u in halves:
                key = ((powers @ cfg.take(slots, 0).reshape(deg, -1))
                       .reshape(u.shape) + offset).astype(np.intp)
                rng.random(out=u)
                u *= last.take(key)
                # at most MAX_STATES - 1 = 63 states count: the sum fits a byte
                cfg[rows] = (lower.take(key, 1) < u).view(np.uint8).sum(
                    0, dtype=np.uint8)
            trace[:, sweep] = cfg[pos[site]]
        configs = np.repeat(self.init[None, :-1], chains, axis=0)
        configs[:, order] = cfg[:m].T
        return trace, configs


_RASTER_SWEEPS = """
def sweeps(cfg, blocks, trace, {rows}):
    {values}= cfg[:{m}]
    for {uniforms}in blocks:
{updates}
        trace.append(c{site})
    cfg[:{m}] = {values}
"""


def _lower_bound(lo, hi):
    """bisect_left(r, x) for a non-decreasing r with r[hi] >= x, over lo ..
    hi, as a balanced tree of conditional expressions."""
    mid = (lo + hi) // 2
    return str(lo) if lo == hi else f"({_lower_bound(mid + 1, hi)} if " \
        f"r[{mid}] < x else {_lower_bound(lo, mid)})"


@functools.lru_cache(maxsize=32)
def _raster_sweeps(plan, site, n):
    """The raster kernel's block of sweeps for one plan (each interior
    site's kind and stored slots, in site order), recorded site and number
    n of states: values and uniforms are locals c0 .. and u0 .., kind k's
    rows r{k}, and a site v of kind k and stored slots y, z updates by x =
    u{v} * (r := r{k}[c{y}][c{z}])[n - 1]; c{v} = _lower_bound(0, n - 1)."""
    m, names = len(plan), lambda x, k: "".join(f"{x}{j}, " for j in range(k))
    exec(_RASTER_SWEEPS.format(
        rows=names("r", len({k for k, _ in plan})), values=names("c", m),
        uniforms=names("u", m), m=m, site=site, updates="\n".join(
            f"        x = u{v} * (r := r{k}{''.join(f'[c{x}]' for x in nb)})"
            f"[{n - 1}]\n        c{v} = {_lower_bound(0, n - 1)}"
            for v, (k, nb) in enumerate(plan))), namespace := {})
    return namespace["sweeps"]


def check_trace(n_stored, n_sweeps, chains=1) -> None:
    """Refuse (TooLarge) more than MAX_TRACE chains x sweeps, or chains x
    (stored sites + 1), from the counts alone, so that a caller can check
    before it builds the lattice."""
    if chains * n_sweeps > MAX_TRACE:
        raise errors.TooLarge(f"chains x sweeps above {MAX_TRACE}")
    if chains * (n_stored + 1) > MAX_TRACE:
        raise errors.TooLarge(f"chains x (stored sites + 1) above {MAX_TRACE}")


def run_mcmc(system: SpinSystem, lat, pattern: Pattern, site,
             n_sweeps: int = 10 ** 6, seed: int = 0,
             force: bool = False, chains: int = 1) -> MCMCResult:
    """Heat-bath dynamics on the interior of a lattice with an open axis (a
    box or a slab) under a pattern boundary constraint, from the pattern
    tiling, recording the value at one site after every sweep of every
    chain.  The chains' final values are one (chains, stored sites) int64
    array, MCMCResult.configs.  Periodic axes wrap; a lattice with no open
    axis has no boundary to constrain and is refused.

    Stream contract.  The kernel is chosen by chains x |interior|.  Below
    CHECKERBOARD_MIN_UPDATES (200, fixed by this contract, not by the
    kernels' speed, though they break even near it: one 6x6 chain stays on
    the raster kernel, 40 6x6 chains or one 16x16 chain take the
    checkerboard kernel) the raster kernel runs, with rng_id RNG_ID; at or
    above it the checkerboard kernel, with rng_id CHECKERBOARD_RNG_ID.
    Every chain draws from one PCG64(seed): the raster kernel runs the
    chains one after the other, the checkerboard kernel interleaves them.
    A single raster chain consumes the stream exactly as it always has.
    breakup-scan runs all its samples as the chains of one call; its CSV
    `seed` column still seeds each sample's halo.

    The first max(1, n_sweeps // 10) sweeps are burn-in (none without
    sweeps).
    With one chain the standard errors are batch means over N_BATCHES
    batches of the kept sweeps; with several, the batches are the chains'
    own means.  check_trace refuses a long trace before any row is built."""
    if not lat.has_exterior:
        raise errors.UnsupportedLattice(
            "sampler runs on lattices with an open axis")
    for name, x, lo in (("chains", chains, 1), ("n_sweeps", n_sweeps, 0),
                        ("seed", seed, 0)):
        if x < lo:
            raise errors.SchemaError(f"{name} must be at least {lo}")
    if not _safe_state_exists(system) and not force:
        raise errors.IrreducibilityUnknown(
            "hard constraints present and no universally compatible state; "
            "pass force=True to sample anyway")
    site = interior_site(lat, site)
    check_trace(lat.n, n_sweeps, chains)
    burn_in = max(1, n_sweeps // 10) if n_sweeps else 0
    sampler = _Chains(system, lat, pattern)
    rng = np.random.Generator(np.random.PCG64(seed))
    checker = chains * len(lat.interior) >= CHECKERBOARD_MIN_UPDATES
    rng_id = CHECKERBOARD_RNG_ID if checker else RNG_ID
    kernel = sampler.checkerboard if checker else sampler.raster
    trace, configs = kernel(rng, site, n_sweeps, chains)

    marginal, se, counts = {}, {}, {}
    n_kept = n_sweeps - burn_in
    nb = 0
    if n_kept > 0:
        kept = trace[:, burn_in:]
        batch = max(1, n_kept // N_BATCHES) if chains == 1 else n_kept
        nb = chains * (n_kept // batch)
        for s in range(system.n):
            label = system.states[s]
            ind = (kept == s).astype(np.float64)
            counts[label] = int(ind.sum())
            marginal[label] = float(ind.ravel().mean())
            means = ind[:, :n_kept // batch * batch].reshape(nb, batch) \
                .mean(axis=1)
            se[label] = float(means.std(ddof=1) / math.sqrt(nb)) \
                if nb > 1 else float("nan")
    return MCMCResult(site=int(site), n_sweeps=n_sweeps, burn_in=burn_in,
                      seed=seed, rng_id=rng_id, marginal=marginal, se=se,
                      n_batches=nb, trace_counts=counts, chains=chains,
                      configs=configs)
