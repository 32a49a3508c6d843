"""What the benchmark under bench/ reads from the package still works.

For three gated workloads at seed 0, the first two operations run through
``worker.run_pass`` twice: plain, and with the benchmark's tracer installed
and then restored.  A change to a name or field the benchmark reads (for
example ``ridge.OracleSettings``, ``POSample.atoms.n`` or
``Trajectory.xs``/``fs``) fails here.  Nothing under bench/ is edited.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import worker  # noqa: E402
import workloads  # noqa: E402

import ridgeopt  # noqa: E402


@pytest.mark.parametrize("name", ["ridge-grid", "certify-wide", "fractal-depth"])
def test_bench_workload_runs_plain_and_traced(name, tmp_path):
    wl = workloads.Workload(name, 0, str(tmp_path))
    wl.ops = wl.ops[:2]

    _, checks, failed, _, _ = worker.run_pass(wl)
    assert (checks, failed) == ([], 0)

    tracer, modules, extra = worker.make_tracer(ridgeopt)
    tracer.install(modules, extra)
    try:
        _, checks, failed, _, _ = worker.run_pass(wl)
    finally:
        tracer.restore()
    assert (checks, failed) == ([], 0)
    assert not hasattr(ridgeopt.ridge.certify_po_critical, "__wrapped__")

    counts = worker.layer_counts(tracer.summary(), tracer.counters, tracer.raised)
    if name != "fractal-depth":
        assert counts["oracles.po_calls"] > 0
        assert counts["oracles.po_atoms"] > 0
