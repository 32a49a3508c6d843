"""Tests of the benchmark itself: inputs, tracer arithmetic, tracer cleanup.

    python3 -m pytest bench/tests -q
"""

import importlib
import json
import os
import signal
import sys
import time
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ridgeopt import problems  # noqa: E402

RANGES = {pid: problems.load_problem(pid, validate=False).validation_range
          for pid in workloads.RIDGE_PROBLEMS}


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    a = workloads.inputs(name, 7, RANGES, out_dir="o")
    b = workloads.inputs(name, 7, RANGES, out_dir="o")
    assert json.dumps(a) == json.dumps(b)
    other = workloads.inputs(name, 8, RANGES, out_dir="o")
    if name == "fractal-depth":
        assert other == a  # the CLI call takes no seeded input
    else:
        assert json.dumps(other) != json.dumps(a)


def test_ridge_workloads_share_starts():
    reg = workloads.inputs("ridge-registry", 3, RANGES)
    grid = workloads.inputs("ridge-grid", 3, RANGES)
    assert [(o["problem"], o["x0"]) for o in reg] == [(o["problem"], o["x0"]) for o in grid]
    assert {o["mode"] for o in reg} == {"registry"}
    assert {o["mode"] for o in grid} == {"grid"}


def test_ridge_starts_stay_in_their_strata():
    ops = workloads.inputs("ridge-registry", 11, RANGES)
    assert len(ops) == sum(workloads.STARTS.values())
    for pid, n in workloads.STARTS.items():
        lo, hi = RANGES[pid]
        starts = [op["x0"] for op in ops if op["problem"] == pid]
        width = (hi - lo) / n
        for i, x0 in enumerate(starts):
            assert lo + i * width < x0 < lo + (i + 1) * width


def test_certify_inputs_have_the_promised_shape():
    ops = workloads.certify_inputs(5)
    assert {op["p"] for op in ops} == set(range(2, 9))
    assert max(op["k"] for op in ops) > 6  # past log2(max_branches = 64)
    assert sum(op["critical"] for op in ops) == len(ops) // 2
    assert all(op["margin"] > 0 for op in ops if not op["critical"])


def test_certify_construction_matches_verdicts():
    wl = workloads.Workload("certify-wide", 2, work_dir="unused")
    for op in wl.ops:
        assert wl.check(op, wl.execute(op)) == [], op["id"]


# ---------------------------------------------------------------------------
# Tracer arithmetic
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_clips_and_merges():
    cov = tracer_mod.covered
    assert cov([], 0.0, 5.0) == 0.0
    assert cov([(1.0, 2.0), (1.5, 3.0)], 0.0, 5.0) == 2.0
    assert cov([(-1.0, 1.0), (4.0, 9.0)], 0.0, 5.0) == 2.0
    assert cov([(1.0, 4.0), (2.0, 3.0)], 0.0, 5.0) == 3.0


def _fake_layer(clock):
    mod = types.ModuleType("fake")

    def leaf(dt):
        clock.now += dt

    def scalar(dt):
        clock.now += dt

    def outer():
        clock.now += 1.0           # self
        mod.leaf(2.0)              # child span
        mod.scalar(0.5)            # aggregated call
        mod.scalar(0.25)
        clock.now += 0.5           # self
        mod.leaf(3.0)

    for fn in (leaf, scalar, outer):
        fn.__module__ = "fake"
        setattr(mod, fn.__name__, fn)
    return mod


def test_self_time_subtracts_children_and_aggregates(monkeypatch):
    monkeypatch.setattr(tracer_mod, "AGGREGATED", frozenset({"fake.scalar"}))
    clock = FakeClock()
    mod = _fake_layer(clock)
    t = tracer_mod.Tracer(clock=clock)
    t.install({"fake": mod})
    try:
        mod.outer()
    finally:
        t.restore()
    s = t.summary()
    assert s["fake.outer"] == {"calls": 1, "incl_s": 7.25, "self_s": 1.5}
    assert s["fake.leaf"] == {"calls": 2, "incl_s": 5.0, "self_s": 5.0}
    assert s["fake.scalar"] == {"calls": 2, "incl_s": 0.75, "self_s": 0.75}
    assert len(t.spans) == 3  # aggregated calls record no span
    assert sum(r["self_s"] for r in s.values()) == 7.25


def test_exceptions_close_spans_and_are_counted():
    clock = FakeClock()
    mod = types.ModuleType("fake")

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    boom.__module__ = "fake"
    mod.boom = boom
    t = tracer_mod.Tracer(clock=clock)
    t.install({"fake": mod})
    with pytest.raises(KeyError):
        mod.boom()
    t.restore()
    assert t.raised[("fake.boom", "KeyError")] == 1
    assert t.summary()["fake.boom"]["incl_s"] == 1.0
    assert t.stack == []


def test_pass_count_does_not_depend_on_speed():
    assert workloads.passes("ridge-grid", 20) == 6
    assert workloads.passes("certify-wide", 20) == 25
    assert workloads.passes("fractal-depth", 20) == 1
    assert workloads.passes("fractal-depth", 1) == 1


class _FakeWorkload:
    name = "fake"
    ops = [{}, {}]

    def __init__(self, log):
        self.log = log

    def execute(self, op):
        self.log.append("op")

    def check(self, op, result):
        return []

    def iterations(self, result):
        return 0


@pytest.mark.parametrize("n_passes,n_probes", [(1, 14), (8, 4), (33, 14)])
def test_setup_probes_span_the_run(n_passes, n_probes):
    log = []

    def probe():
        log.append("probe")
        return 1.0

    out = worker.measure(_FakeWorkload(log), n_passes, probe, n_probes,
                         worker.SpeedProbe(lambda: None))
    assert out["setups"] == [1.0] * n_probes
    assert len(out["pass_walls"]) == len(out["pass_refs"]) == n_passes
    assert out["attempted"] == 2 * n_passes
    assert log.count("op") == 2 * n_passes
    assert log[0] == "probe" and log[-1] == "probe"  # before and after
    if n_probes > 2:  # ... and between passes
        assert "probe" in log[2:-2]


class _SpinWorkload(_FakeWorkload):
    ops = [{}]

    def execute(self, op):
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.3:  # the sleeping handler adds no CPU
            pass


def test_speed_probe_samples_during_ops_and_is_left_out_of_their_time():
    probe = worker.SpeedProbe(lambda: time.sleep(0.03))
    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    times, *_ = worker.run_pass(_SpinWorkload([]), speed=probe)
    elapsed = time.perf_counter() - t0
    assert len(probe.samples) >= 2
    assert probe.spent >= sum(probe.samples) >= 0.06
    assert times[0] >= 0.3
    assert abs(elapsed - probe.spent - times[0]) < 0.02  # samples left out
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_speed_normalized_divides_by_the_pass_mean():
    norm = run.speed_normalized([[1.0, 3.0], [2.0]], [[0.5, 1.5], []])
    assert norm == [[1.0, 3.0], [2.0]]  # the empty pass takes the run's mean
    with pytest.raises(run.WorkerError):
        run.speed_normalized([[1.0]], [[]])


def test_speed_reference_is_fixed():
    for name in workloads.WORKLOADS:
        ref = workloads.speed_reference(name)
        assert ref() == workloads.speed_reference(name)()


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(20))) == (9, 50.0)
    assert run.tail(list(range(100))) == (89, 90.0)


# ---------------------------------------------------------------------------
# Tracer cleanup
# ---------------------------------------------------------------------------

def _snapshot(modules, extra):
    snap = {(layer, name): getattr(mod, name) for layer, mod in modules.items()
            for name in tracer_mod.public_functions(mod)}
    snap.update({(id(owner), attr): getattr(owner, attr) for owner, attr, _ in extra})
    return snap


def test_restore_puts_back_every_wrapped_function():
    pkg = importlib.import_module("ridgeopt")
    t, modules, extra = worker.make_tracer(pkg)
    assert set(modules) == set(tracer_mod.LAYERS)
    before = _snapshot(modules, extra)
    t.install(modules, extra)
    wrapped = {key: obj for key, obj in _snapshot(modules, extra).items()
               if obj is not before[key]}
    assert set(wrapped) == set(before)  # every target was wrapped ...
    t.restore()
    after = _snapshot(modules, extra)
    assert all(after[key] is before[key] for key in before)  # ... and restored
    assert not any(hasattr(obj, "__wrapped__") for obj in after.values())


def test_no_spans_after_restore():
    pkg = importlib.import_module("ridgeopt")
    t, modules, extra = worker.make_tracer(pkg)
    t.install(modules, extra)
    t.restore()
    from ridgeopt import ridge

    ridge.certify_po_critical("envelope_gap", [0.5])
    assert t.spans == [] and not t.agg_calls


# ---------------------------------------------------------------------------
# Contract with BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in workloads.WORKLOADS if w != "ridge-registry"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
