"""spinlab benchmark: runs one workload for a fixed time and prints every
metric by name, unit and sample count.  The last line of standard output is
the result, one JSON object with the keys correct, attempted, failed and
metrics.

    python3 perfbench/run.py --workload conditions --seed 1 --seconds 30 --trace 0

Load is a closed loop with one client: one process, no threads; the jobs of
the workload run back to back, pass after pass, until the time is up.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` half of
the time runs untraced and half traced, and the per-layer metrics are
reported (see spans.py).  Details, the run environment and the trace go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"
SETUPS = 5

# end-to-end metric -> unit
E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
    "check_points_per_s": "1/s",
    "verify_cond_s": "s",
    "exact_s": "s",
    "z_torus_s": "s",
    "zfun_s": "s",
    "breakup_s": "s",
    "mcmc_updates_per_s": "1/s",
    "scan_samples_per_s": "1/s",
}
# job kind -> metric: time per pass, or successful work per second of time
TIMED = {"verify_cond": "verify_cond_s", "exact": "exact_s",
         "z_torus": "z_torus_s", "zfun": "zfun_s", "breakup": "breakup_s"}
RATES = {"check": "check_points_per_s", "mcmc": "mcmc_updates_per_s",
         "scan": "scan_samples_per_s"}


# ---------------------------------------------------------------------------
# program and set-up

def load_program():
    """Import spinlab from the checkout's src/, dropping any earlier import
    so that every set-up pays for the import."""
    for name in [n for n in sys.modules
                 if n == "spinlab" or n.startswith("spinlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("spinlab.cli")  # imports every module
    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("spinlab.")}
    return SimpleNamespace(modules=modules, **modules)


def setup(workload, seed, root):
    program = load_program()
    inp = workloads.make_inputs(program, seed, root)
    return program, workloads.jobs_for(workload, program, inp)


# ---------------------------------------------------------------------------
# running jobs

@dataclass
class Result:
    job: workloads.Job
    status: str            # ok | wrong | refused | raised
    seconds: float         # wall-clock time of the call, ticks taken out
    detail: str = ""
    text: str = None       # output, dropped once checked
    ticks: list = field(default_factory=list)  # slowdowns during the call
    slowdown: float = 1.0  # machine speed factor over the call

    @property
    def ref_seconds(self):
        """The call's time at the calibration's nominal machine speed."""
        return self.seconds / self.slowdown

    @property
    def failed(self):
        """Did not end in a correct answer (known defects included)."""
        return self.status != "ok"

    @property
    def unexpected(self):
        """Worse than the outcome the parent commit gives."""
        defect = self.job.known_defect
        if self.status == "ok" or defect is None:
            return self.status != "ok"
        if self.status == "refused":
            return False
        return not (self.status == "raised"
                    and self.detail.startswith(defect + ":"))


def execute(program, job, rec=None):
    """Run one job in process; its output is checked later by ``check``."""
    out, err = io.StringIO(), io.StringIO()
    with Ticker(rec) as ticker:
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if job.call is not None:
                    text, code = job.call(), 0
                else:
                    code = program.cli.main(job.argv)
                    text = out.getvalue()
        except Exception as e:  # a traceback is the job's outcome
            return Result(job, "raised", ticker.job_time(t0),
                          f"{type(e).__name__}: {e}", ticks=ticker.ticks)
        seconds = ticker.job_time(t0)
    if code != 0:
        return Result(job, "refused", seconds,
                      f"exit {code}: {err.getvalue().strip()}",
                      ticks=ticker.ticks)
    return Result(job, "ok", seconds, text=text, ticks=ticker.ticks)


def check(result):
    if result.status == "ok":
        try:
            mismatch = result.job.check(result.text)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            mismatch = f"unreadable output: {e!r}"
        if mismatch:
            result.status, result.detail = "wrong", mismatch
    result.text = None
    return result


# ---------------------------------------------------------------------------
# machine-speed calibration
#
# On a shared host the CPU share drifts by tens of percent within seconds, for
# reasons outside the program.  A fixed pure-Python kernel is timed between
# every two jobs and, through SIGALRM, every TICK_S during a job; the time the
# ticks take is not counted as the job's.  A job's slowdown is the mean of the
# kernel's slowdowns against its nominal time, over the runs just before and
# after the job and the ticks during it; its time is divided by that slowdown.
# The kernel allocates and does rational arithmetic like the program's inner
# loops; of the kernels tried it tracked the jobs' times best.  It does not
# use spinlab, so a change to spinlab moves the calibrated times as it moves
# the raw ones.

CAL_ROUNDS = 4
CAL_NOMINAL_S = 0.011  # CAL_ROUNDS kernel runs, quiet 2-vCPU baseline host
TICK_S = 0.1


def _cal_kernel():
    t = Fraction(0)
    for i in range(1, 400):
        t = (t + Fraction(i, 3 * i + 1)) * Fraction(2 * i + 1, 2 * i + 3)
        t = Fraction(t.numerator % 10 ** 30, t.denominator % 10 ** 30 + 1)
    return t


def calibrate():
    """Slowdown of CAL_ROUNDS kernel runs against their nominal time."""
    t0 = perf_counter()
    for _ in range(CAL_ROUNDS):
        _cal_kernel()
    return (perf_counter() - t0) / CAL_NOMINAL_S


class Ticker:
    """While active, runs the kernel once every TICK_S (SIGALRM) and keeps
    its slowdowns and the time it took.  With a span recorder, each tick
    becomes a span under the span it interrupted (added when the ticker
    stops, so the handler never writes into the recorder), and so it is not
    counted in that span's self time."""

    def __init__(self, rec=None):
        self.ticks = []
        self.taken = 0.0
        self.rec = rec
        self.spans = []  # (parent span, start, end)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _cal_kernel()
        t1 = perf_counter()
        self.taken += t1 - t0
        self.ticks.append((t1 - t0) * CAL_ROUNDS / CAL_NOMINAL_S)
        if self.rec is not None:
            self.spans.append((self.rec.current(), t0, t1))

    def job_time(self, t0):
        return perf_counter() - t0 - self.taken

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if self.rec is not None:
            nid = self.rec.name_id("bench.tick")
            for parent, t0, t1 in self.spans:
                self.rec.add(nid, parent, t0, t1)


@dataclass
class Pass:
    results: list
    wall: float            # raw wall-clock time of the pass, calibration out

    @property
    def ref_wall(self):
        return sum(r.ref_seconds for r in self.results)


def measure(program, jobs, seconds, rec=None, table=None):
    """Passes over the job list until ``seconds`` have gone by (at least
    one).  With a recorder, each job gets an id in ``table``: (key, kind,
    pass)."""
    passes = []
    cals = [calibrate()]
    t_start = perf_counter()
    while not passes or perf_counter() - t_start < seconds:
        results = []
        for job in jobs:
            if rec is not None:
                rec.job_id = len(table)
                table.append((job.key, job.kind, len(passes)))
            results.append(execute(program, job, rec))
            cals.append(calibrate())
        passes.append(Pass([check(r) for r in results],
                           sum(r.seconds for r in results)))
    # job i ran between calibrations i and i + 1
    for i, r in enumerate(r for p in passes for r in p.results):
        r.slowdown = statistics.fmean([cals[i], cals[i + 1]] + r.ticks)
    return passes


def pass_metrics(p):
    """Per-pass values (reported as samples)."""
    m = {"wall_s": p.ref_wall,
         "fail_frac": sum(r.failed for r in p.results) / len(p.results)}
    for kind, name in TIMED.items():
        m[name] = sum(r.ref_seconds for r in p.results if r.job.kind == kind)
    for kind, name in RATES.items():
        rs = [r for r in p.results if r.job.kind == kind]
        work = sum(r.job.work for r in rs if r.status == "ok")
        busy = sum(r.ref_seconds for r in rs)
        m[name] = work / busy if busy > 0 else 0.0
    return m


def job_medians(passes):
    """Per position in the job list: (job, median calibrated seconds,
    share of its runs that ended ok)."""
    out = []
    for i, first in enumerate(passes[0].results):
        runs = [p.results[i] for p in passes]
        out.append((first.job,
                    statistics.median(r.ref_seconds for r in runs),
                    sum(r.status == "ok" for r in runs) / len(runs)))
    return out


def wall_of(passes):
    """Time of one pass: the sum of the jobs' median times."""
    return sum(t for _, t, _ in job_medians(passes))


def e2e_metrics(passes, setups, peak_rss_mb):
    """name -> (value, per-pass samples).  Times are sums of per-job
    medians over the passes; rates divide the work of the jobs that ended
    ok by the same median times."""
    per_job = job_medians(passes)
    per_pass = [pass_metrics(p) for p in passes]
    results = [r for p in passes for r in p.results]
    out = {
        "setup_s": (statistics.median(setups), setups),
        "wall_s": (sum(t for _, t, _ in per_job), None),
        "fail_frac": (sum(r.failed for r in results) / len(results), None),
        "peak_rss_mb": (peak_rss_mb, [peak_rss_mb]),
    }
    for kind, name in TIMED.items():
        out[name] = (sum(t for j, t, _ in per_job if j.kind == kind), None)
    for kind, name in RATES.items():
        work = sum(j.work * ok for j, _, ok in per_job if j.kind == kind)
        busy = sum(t for j, t, _ in per_job if j.kind == kind)
        out[name] = (work / busy if busy > 0 else 0.0, None)
    return {name: (out[name][0], out[name][1]
                   or [m[name] for m in per_pass]) for name in E2E}


# ---------------------------------------------------------------------------
# environment and reporting

def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "spinlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def job_summary(passes):
    """"<position> <key>" -> {status: count} plus the first non-ok detail."""
    out = {}
    for p in passes:
        for i, r in enumerate(p.results):
            entry = out.setdefault(f"{i} {r.job.key}", {"kind": r.job.kind})
            entry[r.status] = entry.get(r.status, 0) + 1
            if r.status != "ok" and "detail" not in entry:
                entry["detail"] = r.detail[:300]
    return out


def report(env, metrics, units, jobs):
    print("environment: " + json.dumps(env, sort_keys=True))
    for key, entry in jobs.items():
        counts = " ".join(f"{s}={entry[s]}" for s in
                          ("ok", "wrong", "refused", "raised") if s in entry)
        line = f"job {key}: {counts}"
        if "detail" in entry:
            line += f" [{entry['detail'][:120]}]"
        print(line)
    for name, (value, samples) in metrics.items():
        spread = ""
        if len(samples) > 1:
            spread = f" min={min(samples):.6g} max={max(samples):.6g}"
        print(f"{name:44s} {value:14.6g} {units[name]:6s} "
              f"n={len(samples)}{spread}")


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spinlab" / "__init__.py").is_file():
        print(f"error: no spinlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / str(os.getpid())
    try:
        raw, cals = [], [calibrate()]
        for k in range(SETUPS):
            t0 = perf_counter()
            program, jobs = setup(args.workload, args.seed, work / str(k))
            raw.append(perf_counter() - t0)
            cals.append(calibrate())
        setups = [t / statistics.median(cals) for t in raw]
        if not Path(program.cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: spinlab imported from {program.cli.__file__}",
                  file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            untraced = measure(program, jobs, args.seconds / 2)
            rec, table = spans.Recorder(), []
            with spans.traced(program, rec):
                traced = measure(program, jobs, args.seconds / 2, rec, table)
            passes = untraced + traced
            layer = spans.layer_metrics(
                rec, [t[1] for t in table], [t[2] for t in table],
                [r.slowdown for p in traced for r in p.results],
                wall_of(untraced), wall_of(traced))
            rec.save(OUT / f"trace-{stem}.npz", table)
            metrics = {k: (statistics.median(v), v)
                       for k, v in layer.items()}
            units = spans.LAYER_METRICS
        else:
            passes = measure(program, jobs, args.seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = e2e_metrics(passes, setups, rss)
            units = E2E
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args)
    jobs_seen = job_summary(passes)
    report(env, metrics, units, jobs_seen)
    results = [r for p in passes for r in p.results]
    unexpected = sum(r.unexpected for r in results)
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"environment": env, "passes": len(passes),
                   "raw_pass_s": [p.wall for p in passes],
                   "jobs": jobs_seen,
                   "metrics": {k: {"value": v, "unit": units[k],
                                   "samples": s}
                               for k, (v, s) in metrics.items()}},
                  fh, indent=1)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(results),
        "failed": unexpected,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
