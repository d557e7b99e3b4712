"""Tests of the benchmark harness itself (not of spinlab):

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.fixture(scope="module")
def inputs(program, tmp_path_factory):
    return workloads.make_inputs(program, 7, tmp_path_factory.mktemp("in"))


def test_self_time_of_nested_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; [6, 7] inside the second;
    # a child running past its parent's end is clipped to the parent
    start = np.array([0.0, 1.0, 5.0, 6.0, 20.0, 29.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 30.0, 31.0])
    parent = np.array([-1, 0, 0, 2, -1, 4])
    got = spans.self_times(start, end, parent)
    assert got.tolist() == [3.0, 3.0, 3.0, 1.0, 9.0, 2.0]


def test_recorder_links_parents_and_jobs():
    rec = spans.Recorder()
    a, b = rec.name_id("a"), rec.name_id("b")
    rec.job_id = 4
    outer = rec.open(a)
    inner = rec.open(b)
    rec.close(inner)
    rec.close(outer)
    rec.job_id = 5
    rec.close(rec.open(b))
    arr = rec.arrays()
    assert arr["parent"].tolist() == [-1, outer, -1]
    assert arr["job"].tolist() == [4, 4, 5]
    assert arr["name"].tolist() == [a, b, b]
    assert (arr["end"] >= arr["start"]).all()


def _bindings(program):
    return {(name, attr): val for name, mod in program.modules.items()
            for attr, val in vars(mod).items()}


def _outputs(passes):
    """Job outputs with the wall-clock field of ``meta`` removed."""
    out = []
    for p in passes:
        for r in p.results:
            text = r.text
            if text.startswith("{"):
                data = json.loads(text)
                data.get("meta", {}).pop("wall_time_s", None)
                text = json.dumps(data, sort_keys=True)
            out.append((r.job.key, r.status, text))
    return out


def _unchecked(program, jobs, rec=None, table=None):
    results = []
    for job in jobs:
        if rec is not None:
            rec.job_id = len(table)
            table.append((job.key, job.kind, 0))
        results.append(run.execute(program, job))
    return [run.Pass(results, 0.0)]


def _zfun_hc2_16(inp):
    return workloads._zfun(inp, "hc2", 16, "complete",
                           workloads._check_value(2 * 3 ** 32 - 1))


def _small_jobs(program, inp):
    return [workloads._analyze(inp, "af3inf"),
            workloads._check_sweep(inp, "hc2", "alt3", workloads.SWEEP),
            _zfun_hc2_16(inp),
            workloads._exact(inp, "af3b1", "box:6x6+halo", "3,3"),
            workloads._z_torus(program, inp, "af3inf", (4, 4)),
            workloads._breakup(inp, 16, 0)]


def test_traced_run_restores_bindings_and_keeps_outputs(program, inputs):
    jobs = _small_jobs(program, inputs)
    before = _bindings(program)
    plain = _unchecked(program, jobs)
    rec, table = spans.Recorder(), []
    with spans.traced(program, rec):
        # names taken with ``from ... import`` are wrapped too
        assert program.cli.load_system is not before[("system",
                                                      "load_system")]
        assert program.cli.load_system is program.system.load_system
        traced = _unchecked(program, jobs, rec, table)
    after = _bindings(program)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert _outputs(traced) == _outputs(plain)
    assert all(r.status == "ok" for r in plain[0].results)
    names = {rec.names[i] for i in rec.arrays()["name"].tolist()}
    assert {"cli.main", "system.load_system", "gibbs.exact_measure",
            "gibbs.z_torus", "breakup.verify_breakup"} <= names
    metrics = spans.layer_metrics(rec, [t[1] for t in table],
                                  [t[2] for t in table], [1.0] * len(table),
                                  1.0, 1.0)
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["gibbs.exact_measure_calls_per_job"] == [2.0]
    assert metrics["kbipartite.z_compositions.calls"] == [1]
    # hard_core on K_{32,32}: C(2d + g - 1, g - 1) with g = 2 states
    assert metrics["kbipartite.compositions_per_s"][0] > 0


def test_checks_accept_outputs_of_another_seed(program, inputs):
    for result in _unchecked(program, _small_jobs(program, inputs))[0].results:
        assert run.check(result).status == "ok", (result.job.key,
                                                  result.detail)


def test_fail_frac_counts_raises_and_refusals(program, inputs):
    def boom():
        raise RuntimeError("job failed")

    refused_argv = ["check", "--system", inputs.path("af3b1"), "--d", "10",
                    "--condition", "alt3"]  # typed refusal, exit 2
    jobs = [
        _zfun_hc2_16(inputs),
        workloads._check_sweep(inputs, "wr2", "simple", workloads.SWEEP),
        workloads.Job("zfun", "raises", call=boom),
        workloads.Job("check", "refused", argv=refused_argv),
        workloads.Job("check", "refused-known", argv=refused_argv,
                      known_defect="OverflowError"),
    ]
    p = run.Pass([run.check(run.execute(program, j)) for j in jobs], 1.0)
    status = {r.job.key: r.status for r in p.results}
    assert status == {"zfun:hc2:16:complete": "ok",
                      f"check:wr2:simple:{workloads.SWEEP}": "raised",
                      "raises": "raised", "refused": "refused",
                      "refused-known": "refused"}
    # every job without a correct answer counts toward fail_frac ...
    assert run.pass_metrics(p)["fail_frac"] == 4 / 5
    # ... but only the ones worse than the pinned outcome are unexpected:
    # the reproduced overflow and a refusal where the parent crashes are not
    assert [r.unexpected for r in p.results] == [False, False, True, True,
                                                 False]
    # the failed sweep's points do not count; its time does
    assert run.pass_metrics(p)["check_points_per_s"] == 0.0


def test_calibration_ticks_are_child_spans_outside_self_time():
    rec = spans.Recorder()
    outer = rec.open(rec.name_id("outer"))
    with run.Ticker(rec) as ticker:
        ticker._tick(None, None)  # as if SIGALRM arrived inside ``outer``
    rec.close(outer)
    a = rec.arrays()
    assert [rec.names[i] for i in a["name"].tolist()] == ["outer",
                                                          "bench.tick"]
    assert a["parent"].tolist() == [-1, outer]
    dur = a["end"] - a["start"]
    assert spans.self_times(a["start"], a["end"], a["parent"])[0] \
        == pytest.approx(dur[0] - dur[1])
    assert len(ticker.ticks) == 1 and ticker.taken == pytest.approx(dur[1])
