"""Span recording around spinlab's public functions, from outside the
package, and the per-layer metrics computed from the spans.

``traced(program, recorder)`` replaces every binding of each function in
``TRACED`` -- the module attribute and every name another spinlab module
took with ``from ... import`` -- by a wrapper that records a span, and puts
the original bindings back on exit.  Per-element helpers
(``patterns.r_closure``, ``SpinSystem.mask_states``) stay unwrapped to keep
the overhead low.

The recorder runs in one thread with a call stack, so spans nest and the
children of one span never overlap: a span's self time is its duration
minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

TRACED = {
    "cli": ["main"],
    "system": ["load_system"],
    "parameters": ["check_condition", "compute_parameters",
                   "rho_bulk_star_of"],
    "patterns": ["dominant_patterns", "maximal_patterns", "frak_q"],
    "kbipartite": ["verify_main_condition", "k_of_product", "z_compositions"],
    "gibbs": ["exact_measure", "prob_not_in_pattern", "z_pattern_box",
              "z_torus", "run_mcmc", "sample_halo_extension"],
    "breakup": ["construct_breakup", "verify_breakup", "compute_regions"],
    "lattice": ["plus_r", "components", "separating_components",
                "connected_to_infinity"],
}

# name -> unit, in the order they are reported
LAYER_METRICS = {}
for _n in ("parameters.check_condition", "kbipartite.verify_main_condition",
           "gibbs.z_pattern_box", "gibbs.z_torus", "gibbs.run_mcmc",
           "breakup.construct_breakup", "breakup.verify_breakup"):
    LAYER_METRICS.update({f"{_n}.calls": "count", f"{_n}.self_s": "s",
                          f"{_n}.total_s": "s"})
for _n in ("kbipartite.z_compositions", "lattice.plus_r",
           "lattice.components", "lattice.separating_components",
           "lattice.connected_to_infinity"):
    LAYER_METRICS.update({f"{_n}.calls": "count", f"{_n}.self_s": "s"})
for _n in ("parameters.compute_parameters", "patterns.dominant_patterns",
           "patterns.maximal_patterns", "gibbs.exact_measure"):
    LAYER_METRICS[f"{_n}.calls"] = "count"
for _n in ("parameters.rho_bulk_star_of", "patterns.frak_q",
           "kbipartite.k_of_product", "gibbs.prob_not_in_pattern",
           "gibbs.sample_halo_extension", "breakup.compute_regions",
           "system.load_system"):
    LAYER_METRICS[f"{_n}.self_s"] = "s"
LAYER_METRICS.update({
    "cli.self_s": "s",
    "patterns.dominant_calls_per_check": "ratio",
    "kbipartite.compositions_per_s": "1/s",
    "gibbs.exact_measure_calls_per_job": "ratio",
    "gibbs.run_mcmc.updates_per_s": "1/s",
    "breakup.sites_per_s": "1/s",
    "trace.overhead_frac": "ratio",
})


class Recorder:
    """Spans kept in memory as flat arrays: name id, start, end, parent
    span (-1 for none), job id, and the work the call did (0 if not
    counted)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.work = array("d")
        self.job_id = -1
        self._stack = [-1]

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(math.nan)
        self.work.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def current(self):
        """The innermost open span (-1 for none)."""
        return self._stack[-1]

    def add(self, nid, parent, start, end):
        """Record a span that has already ended."""
        self.name.append(nid)
        self.parent.append(parent)
        self.job.append(self.job_id)
        self.start.append(start)
        self.end.append(end)
        self.work.append(0.0)

    def arrays(self):
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start),
                "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int32),
                "job": np.array(self.job, dtype=np.int32),
                "work": np.array(self.work)}

    def save(self, path, jobs):
        """Write the spans and the job table (id -> key, kind, pass)."""
        np.savez_compressed(path, names=np.array(self.names),
                            job_key=np.array([j[0] for j in jobs]),
                            job_kind=np.array([j[1] for j in jobs]),
                            job_pass=np.array([j[2] for j in jobs]),
                            **self.arrays())


def self_times(start, end, parent):
    """Duration minus the time the child spans cover, clipped to the
    parent's interval (children of one span are disjoint)."""
    dur = end - start
    kids = parent >= 0
    p = parent[kids]
    lo = np.maximum(start[kids], start[p])
    hi = np.minimum(end[kids], end[p])
    covered = np.bincount(p, weights=np.clip(hi - lo, 0.0, None),
                          minlength=len(start))
    return dur - covered


# ---------------------------------------------------------------------------
# work counted at a call, from its arguments

def _compositions(spinlab, args):
    """Multiplicity vectors the composition sum visits: C(2d+g-1, g-1) for a
    ground set of g states."""
    system, d, spec = args["system"], args["d"], args["spec"]
    if spec.kind == "explicit":
        return 0
    if spec.kind in ("product", "class_intersect_product"):
        ground = 0
        for m in spec.coords:
            ground |= m
    else:
        r_closure = spinlab.patterns.r_closure
        ground = r_closure(system, r_closure(system, spec.J))
    g = bin(ground).count("1")
    return math.comb(2 * d + g - 1, g - 1) if g else 0


def _updates(spinlab, args):
    return args["n_sweeps"] * len(args["lat"].interior)


def _sites(spinlab, args):
    return args["lat"].n


WORK = {"kbipartite.z_compositions": _compositions,
        "gibbs.run_mcmc": _updates,
        "breakup.construct_breakup": _sites,
        "breakup.verify_breakup": _sites}


def _wrap(rec, name, fn, spinlab):
    nid = rec.name_id(name)
    work = WORK.get(name)
    if work is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(i)
        return wrapper

    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def counting(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        rec.work[i] = work(spinlab, bound.arguments)
        return result
    return counting


@contextmanager
def traced(spinlab, rec):
    """Wrap every binding of the TRACED functions in the loaded spinlab
    modules (``spinlab.modules``: short name -> module); restore them on
    exit."""
    modules = [spinlab.modules[k] for k in sorted(spinlab.modules)]
    patched = []
    try:
        for mod_name, funcs in TRACED.items():
            mod = spinlab.modules[mod_name]
            for func in funcs:
                fn = getattr(mod, func)
                wrapper = _wrap(rec, f"{mod_name}.{func}", fn, spinlab)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, fn))
        yield rec
    finally:
        for m, attr, fn in reversed(patched):
            setattr(m, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(rec, job_kind, job_pass, job_slowdown, untraced_wall,
                  traced_wall):
    """Every LAYER_METRICS entry as a list of per-pass values, one per
    traced pass; the overhead is the ratio of the two pass times.
    ``job_kind``, ``job_pass`` and ``job_slowdown`` map job ids to the
    job's kind, pass index and machine slowdown."""
    a = rec.arrays()
    # times at the nominal machine speed (see run.calibrate)
    slow = np.array(job_slowdown)[a["job"]]
    selfs = self_times(a["start"], a["end"], a["parent"]) / slow
    dur = (a["end"] - a["start"]) / slow
    ids = {n: i for i, n in enumerate(rec.names)}
    kinds = np.array(job_kind)
    span_pass = np.array(job_pass)[a["job"]]
    span_kind = kinds[a["job"]]

    # dominant_patterns calls made inside a check_condition call
    check_id = ids.get("parameters.check_condition", -1)
    under = np.zeros(len(dur), dtype=bool)
    names = a["name"]
    name_l, parent_l = names.tolist(), a["parent"].tolist()
    for i, p in enumerate(parent_l):
        under[i] = p >= 0 and (name_l[p] == check_id or under[p])

    per_pass = []
    for k in sorted(set(job_pass)):
        in_pass = span_pass == k

        def sel(name):
            return in_pass & (names == ids.get(name, -1))

        def calls(name):
            return int(sel(name).sum())

        def tot(name, what):
            return float(what[sel(name)].sum())

        def rate(span_names, what):
            w = sum(tot(n, a["work"]) for n in span_names)
            t = sum(tot(n, what) for n in span_names)
            return w / t if t > 0 else 0.0

        n_checks = calls("parameters.check_condition")
        n_exact_jobs = sum(1 for kd, ps in zip(job_kind, job_pass)
                           if ps == k and kd == "exact")
        exact_calls = int((sel("gibbs.exact_measure")
                           & (span_kind == "exact")).sum())
        m = {}
        for metric in LAYER_METRICS:
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                m[metric] = calls(base)
            elif stat == "self_s":
                m[metric] = tot("cli.main" if base == "cli" else base, selfs)
            elif stat == "total_s":
                m[metric] = tot(base, dur)
        m["patterns.dominant_calls_per_check"] = (
            int((sel("patterns.dominant_patterns") & under).sum()) / n_checks
            if n_checks else 0.0)
        m["kbipartite.compositions_per_s"] = rate(
            ["kbipartite.z_compositions"], selfs)
        m["gibbs.exact_measure_calls_per_job"] = (
            exact_calls / n_exact_jobs if n_exact_jobs else 0.0)
        m["gibbs.run_mcmc.updates_per_s"] = rate(["gibbs.run_mcmc"], dur)
        m["breakup.sites_per_s"] = rate(
            ["breakup.construct_breakup", "breakup.verify_breakup"], dur)
        per_pass.append(m)

    out = {name: [p[name] for p in per_pass]
           for name in LAYER_METRICS if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = [traced_wall / untraced_wall - 1.0]
    return out
