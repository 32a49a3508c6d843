"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py, never by hand.  Protocol on stdout: ``@@ready`` once the
workload is set up (whoever spawned the process times spawn-to-ready as a
setup_s sample), then one ``@@result <json>`` line.  Anything the library prints goes to stderr.

Roles:
  setup    set up and exit (extra setup_s samples, started by measure)
  measure  set up, then run a fixed number of passes over the workload's
           operations (workloads.passes), with setup workers timed between
           them; --trace 1 alternates untraced and traced passes and reports
           per-layer numbers instead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()  # before numpy and ridgeopt are imported
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (standard library only at import time)


def _import_package():
    """Import ridgeopt from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import ridgeopt

    if not os.path.abspath(ridgeopt.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ridgeopt imported from {ridgeopt.__file__}, not {SRC}")
    return ridgeopt


def emit(tag: str, payload=None) -> None:
    line = f"@@{tag}" if payload is None else f"@@{tag} {json.dumps(payload)}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Samples the machine's speed while operations run.

    The host changes speed by up to ~1.6x in phases of seconds to minutes
    (NOTES.md), so a run's raw wall time says as much about the machine as
    about the program.  While ``active``, a timer fires every INTERVAL_S of
    wall time and the handler times ``reference`` once: a fixed computation
    that does not touch ridgeopt (workloads.speed_reference).  Python runs
    the handler between bytecodes, so the samples spread over the whole
    measured phase, and ``spent`` lets the caller take the handler's time
    out of the operation it interrupted.
    """

    INTERVAL_S = 0.1

    def __init__(self, reference):
        self.reference = reference
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_pass(wl, keep_first=False, speed=None):
    """Run every operation once, sampling the speed when ``speed`` is given.

    Returns (op seconds, names of failed checks, failed ops, iterations,
    result of the first operation when ``keep_first``).  Op seconds leave
    out the time the speed probe's handler took.
    """
    times, checks, failed, iters = [], [], 0, 0
    first = None
    spent = (lambda: speed.spent) if speed else (lambda: 0.0)
    with speed.active() if speed else contextlib.nullcontext():
        for i, op in enumerate(wl.ops):
            t0, s0 = time.perf_counter(), spent()
            try:
                result = wl.execute(op)
            except Exception as exc:  # an operation that raises is a failure
                times.append(time.perf_counter() - t0 - (spent() - s0))
                checks.append(f"{wl.name}.raised.{type(exc).__name__}")
                failed += 1
                continue
            times.append(time.perf_counter() - t0 - (spent() - s0))
            fails = wl.check(op, result)
            checks.extend(fails)
            failed += bool(fails)
            iters += wl.iterations(result)
            if keep_first and i == 0:
                first = result
    return times, checks, failed, iters, first


def setup_probe(args) -> float:
    """Spawn-to-ready seconds of one fresh setup-only interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", "setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0",
           "--work-dir", args.work_dir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = None
    try:
        for line in proc.stdout:
            if line.startswith("@@ready"):
                ready = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"setup worker exited with code {proc.returncode}")
    return ready


def measure(wl, n_passes: int, probe, n_probes: int, speed: SpeedProbe) -> dict:
    """``n_passes`` passes, then a determinism rerun.

    ``probe()`` times one fresh set-up; the ``n_probes`` calls are spread
    over the gaps before, between and after the passes, so setup_s samples
    the whole run.  Their time is not part of any pass.  ``speed`` (a
    SpeedProbe) samples the reference during the passes only.
    """
    op_times, pass_walls, pass_refs, checks, failed, iters = [], [], [], [], 0, 0
    setups = []
    first = None
    # probe j goes before pass slots[j]; slot n_passes is after the last one
    slots = [(2 * j * n_passes + n_probes - 1) // (2 * n_probes - 2)
             if n_probes > 1 else 0 for j in range(n_probes)]
    for i in range(n_passes + 1):
        setups += [probe() for slot in slots if slot == i]
        if i == n_passes:
            break
        n_ref = len(speed.samples)
        times, fails, n_failed, n_it, res = run_pass(wl, keep_first=i == 0,
                                                     speed=speed)
        first = res if i == 0 else first
        op_times.append(times)
        pass_walls.append(sum(times))
        pass_refs.append(speed.samples[n_ref:])
        checks.extend(fails)
        failed += n_failed
        iters += n_it
    attempted = sum(len(t) for t in op_times)
    if wl.name.startswith("ridge-"):
        # a seeded rerun must give a byte-identical trajectory file
        attempted += 1
        again = None
        with contextlib.suppress(Exception):
            again = wl.execute(wl.ops[0])
        if (first is None or again is None
                or wl.trajectory_bytes(first) != wl.trajectory_bytes(again)):
            checks.append("ridge.determinism")
            failed += 1
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "op_times": op_times, "pass_walls": pass_walls,
            "pass_refs": pass_refs, "iters": iters, "setups": setups}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _observers(tracer) -> None:
    lookup = {}

    def arg(fn, args, kwargs, name):
        """Argument ``name`` of a call to ``fn``, passed or defaulted."""
        if (fn, name) not in lookup:
            params = list(inspect.signature(fn).parameters.values())
            idx = [p.name for p in params].index(name)
            lookup[(fn, name)] = (idx, params[idx].default)
        idx, default = lookup[(fn, name)]
        return args[idx] if len(args) > idx else kwargs.get(name, default)

    def subdiff(c, fn, args, kwargs, ss):
        cap = arg(fn, args, kwargs, "max_branches")
        k = len(ss.elements[0].branch_id) if ss.elements else 0
        c["branches_tried"] += min(2 ** k, cap) + (2 ** k > cap)
        c["branches_kept"] += len(ss.elements)
        c["subdiff_truncated"] += ss.incomplete

    def maximizers(c, fn, args, kwargs, am):
        c["maximizers"] += len(am.maximizers)

    def po(c, fn, args, kwargs, sample):
        c["po_atoms"] += sample.atoms.n

    def minnorm(c, fn, args, kwargs, cert):
        c["minnorm_atoms"] += cert.atoms.shape[0]
        c["minnorm_unconverged"] += not cert.converged

    def carath(c, fn, args, kwargs, cert):
        before = arg(fn, args, kwargs, "cert").weights
        c["carath_eliminated"] += int((before > 0).sum() - (cert.weights > 0).sum())

    def ridge_run(c, fn, args, kwargs, result):
        c["iters"] += result[1].iterations
        c["stalls"] += result[1].stalled

    def certify(c, fn, args, kwargs, cc):
        c["certify_hits"] += bool(cc.verdict)

    def squares(c, fn, args, kwargs, sq):
        c["sweep_bytes"] += 16 * sq.shape[0]  # two int64 columns per square

    tracer.observe("expr.subdiff_sample", subdiff)
    tracer.observe("oracles.argmax_grid_refine", maximizers)
    tracer.observe("oracles.closed_form", maximizers)
    tracer.observe("oracles.po_sample", po)
    tracer.observe("hull.min_norm_point", minnorm)
    tracer.observe("hull.caratheodory_reduce", carath)
    tracer.observe("ridge.run", ridge_run)
    tracer.observe("ridge.certify_po_critical", certify)
    tracer.observe("fractal.FractalSet.squares", squares)


def make_tracer(pkg):
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    _observers(tracer)
    modules = {layer: importlib.import_module(f"ridgeopt.{layer}")
               for layer in LAYERS}
    extra = [(pkg.fractal.FractalSet, "squares", "fractal.FractalSet.squares")]
    # closed forms live on the problem specs, not in a module namespace
    specs = [pkg.problems.load_problem(pid, validate=False)
             for pid, _ in pkg.problems.list_problems()]
    extra += [(spec, "closed_form_argmax", "oracles.closed_form")
              for spec in specs if spec.closed_form_argmax is not None]
    return tracer, modules, extra


def layer_seconds(summary: dict) -> dict[str, float]:
    """Per-layer seconds of the traced passes (definitions in NOTES.md)."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    return {
        "expr.eval_s": get("expr.eval", "incl_s"),
        "expr.eval_many_s": get("expr.eval_many", "incl_s"),
        "expr.subdiff_s": get("expr.subdiff_sample", "incl_s"),
        "oracles.argmax_s": get("oracles.argmax_grid_refine", "self_s")
                            + get("oracles.closed_form", "self_s"),
        "oracles.po_s": get("oracles.po_sample", "self_s"),
        "hull.minnorm_s": get("hull.min_norm_point", "self_s"),
        "hull.carath_s": get("hull.caratheodory_reduce", "self_s"),
        "ridge.run_self_s": get("ridge.run", "self_s"),
        "ridge.certify_s": get("ridge.certify_po_critical", "incl_s"),
        "fractal.sweep_s": get("fractal.axis_projection_length", "incl_s")
                           + get("fractal.rotated_projection_length", "incl_s"),
        "fractal.tv_s": get("fractal.min_total_variation", "incl_s"),
        "fractal.probe_s": get("fractal.subdiff_probe", "incl_s"),
        "fractal.po_s": get("fractal.g_po_sample", "incl_s"),
        "cli.self_s": sum(row["self_s"] for name, row in summary.items()
                          if name.startswith("cli.")),
    }


def layer_counts(summary: dict, counters: dict, raised: dict) -> dict[str, float]:
    """Per-layer counts of the traced passes (definitions in NOTES.md)."""
    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    return {
        "expr.eval_calls": calls("expr.eval"),
        "expr.eval_many_calls": calls("expr.eval_many"),
        "expr.subdiff_calls": calls("expr.subdiff_sample"),
        "expr.branches_tried": counters.get("branches_tried", 0),
        "expr.branches_kept": counters.get("branches_kept", 0),
        "expr.subdiff_truncated": counters.get("subdiff_truncated", 0),
        "oracles.argmax_calls": calls("oracles.argmax_grid_refine",
                                      "oracles.closed_form"),
        "oracles.maximizers": counters.get("maximizers", 0),
        "oracles.po_calls": calls("oracles.po_sample"),
        "oracles.po_atoms": counters.get("po_atoms", 0),
        "oracles.po_empty": raised.get(("oracles.po_sample", "EmptyPOSample"), 0),
        "hull.minnorm_calls": calls("hull.min_norm_point"),
        "hull.minnorm_atoms": counters.get("minnorm_atoms", 0),
        "hull.minnorm_unconverged": counters.get("minnorm_unconverged", 0),
        "hull.carath_calls": calls("hull.caratheodory_reduce"),
        "hull.carath_eliminated": counters.get("carath_eliminated", 0),
        "ridge.iters": counters.get("iters", 0),
        "ridge.stalls": counters.get("stalls", 0),
        "ridge.certify_calls": calls("ridge.certify_po_critical"),
        "ridge.certify_hits": counters.get("certify_hits", 0),
        "fractal.sweep_bytes": counters.get("sweep_bytes", 0),
        "fractal.offsets_calls": calls("fractal.column_offsets"),
        "fractal.nearest_calls": calls("fractal.nearest_square"),
    }


def trace(pkg, factory, n_passes: int) -> dict:
    """Traced set-up, then n_passes alternating untraced and traced passes.

    problems.* metrics cover the one set-up; the others are per traced pass.
    """
    tracer, modules, extra = make_tracer(pkg)
    tracer.install(modules, extra)
    try:
        wl = factory()
    finally:
        tracer.restore()
    setup_wall = time.perf_counter() - T_START
    setup = tracer.summary()
    tracer.reset()
    emit("ready")

    plain, traced, checks, failed = [], [], [], 0
    for _ in range(max(1, n_passes // 2)):
        for walls, traced_pass in ((plain, False), (traced, True)):
            if traced_pass:
                tracer.install(modules, extra)
            try:
                times, fails, n_failed, _, _ = run_pass(wl)
            finally:
                tracer.restore()
            walls.append(sum(times))
            checks.extend(fails)
            failed += n_failed
    n = len(traced)
    summary = tracer.summary()
    seconds = {k: v / n for k, v in layer_seconds(summary).items()}
    counts = {k: v / n for k, v in
              layer_counts(summary, tracer.counters, tracer.raised).items()}
    counts["trace.spans"] = len(tracer.spans) / n
    load = setup.get("problems.load_problem", {})
    seconds["problems.load_s"] = load.get("incl_s", 0.0)
    counts["problems.load_calls"] = load.get("calls", 0)
    counts["problems.validate_argmax_calls"] = (
        setup.get("oracles.argmax_grid_refine", {}).get("calls", 0))
    return {
        "attempted": 2 * n * len(wl.ops),
        "failed": failed,
        "checks": checks,
        "passes": n,
        "plain_wall_s": statistics.median(plain),
        "traced_wall_s": statistics.median(traced),
        "setup_wall_s": setup_wall,
        "layer_seconds": seconds,
        "layer_counts": counts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    pkg = _import_package()

    def factory():
        return workloads.Workload(args.workload, args.seed, args.work_dir)

    # library output (the fractal CLI's summary line) must not mix with the
    # protocol lines on stdout
    with contextlib.redirect_stdout(sys.stderr):
        n_passes = workloads.passes(args.workload, args.seconds)
        if args.role == "measure" and args.trace:
            out = trace(pkg, factory, n_passes)
        else:
            wl = factory()
            emit("ready")
            if args.role == "setup":
                return 0
            out = measure(wl, n_passes, lambda: setup_probe(args),
                          workloads.SETUP_SAMPLES[args.workload] - 1,
                          SpeedProbe(workloads.speed_reference(args.workload)))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit("result", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
