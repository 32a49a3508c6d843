"""ridgeopt benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload ridge-registry --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0

Each workload runs in fresh worker processes (bench/worker.py) that import
ridgeopt from this checkout's src/.  --trace 0 measures end-to-end metrics
with nothing wrapped; --trace 1 is a separate run that wraps the library's
public functions and reports per-layer numbers.  The report goes to stdout;
its last line is one JSON object with "correct", "attempted", "failed" and
"metrics".  Exit code 0 when a result was produced, 2 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
RUN_LIMIT_S = 170.0  # hard stop for all workers of one workload run
TAIL_MIN_BEYOND = 10

# name -> unit; these are exactly the metrics BENCHMARK.json lists.  The
# *_ref times are in units of the workload's speed reference (see
# end_to_end); the raw times are printed next to them
END_TO_END = {
    "setup_s": "s", "wall_ref": "ref", "op_ref_p50": "ref", "peak_rss_mb": "MB",
}
PER_LAYER_COUNTS = (
    "expr.eval_calls", "expr.eval_many_calls", "expr.subdiff_calls",
    "expr.branches_tried", "expr.branches_kept", "expr.subdiff_truncated",
    "oracles.argmax_calls", "oracles.maximizers", "oracles.po_calls",
    "oracles.po_atoms", "oracles.po_empty",
    "hull.minnorm_calls", "hull.minnorm_atoms", "hull.minnorm_unconverged",
    "hull.carath_calls", "hull.carath_eliminated",
    "ridge.iters", "ridge.stalls", "ridge.certify_calls", "ridge.certify_hits",
    "problems.load_calls", "problems.validate_argmax_calls",
    "fractal.offsets_calls", "fractal.nearest_calls", "trace.spans",
)
# per-layer seconds go out as a share of the traced pass (of the traced
# set-up for problems.load_s), so a layer that does not run reads 0 %
PER_LAYER_SHARES = (
    "expr.eval_s", "expr.eval_many_s", "expr.subdiff_s", "oracles.argmax_s",
    "oracles.po_s", "hull.minnorm_s", "hull.carath_s", "ridge.run_self_s",
    "ridge.certify_s", "problems.load_s", "fractal.sweep_s", "fractal.tv_s",
    "fractal.probe_s", "fractal.po_s", "cli.self_s",
)


def per_layer_units() -> dict[str, str]:
    units = {name: "count" for name in PER_LAYER_COUNTS}
    units["fractal.sweep_bytes"] = "B"
    units.update({share_name(name): "%" for name in PER_LAYER_SHARES})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.overhead_pct": "%"})
    return units


def share_name(seconds_name: str) -> str:
    return seconds_name[:-len("_s")] + "_pct"


class WorkerError(RuntimeError):
    pass


def spawn(role: str, args, work_dir: str, deadline: float):
    """Run one worker; returns (spawn-to-ready seconds, result or None)."""
    cmd = [sys.executable, WORKER, "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    t0 = time.perf_counter()
    # own process group, so a kill at the deadline also ends its setup workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("@@ready"):
                ready = time.perf_counter() - t0
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
            else:
                sys.stderr.write(line)
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0 or ready is None or (role == "measure" and result is None):
        raise WorkerError(f"{role} worker for {args.workload} exited with "
                          f"code {proc.returncode}")
    return ready, result


def tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    return sorted(values)[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n


def metadata(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += data.count(b"\n")
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "seed": seed}


def speed_normalized(op_times: list[list[float]],
                     pass_refs: list[list[float]]) -> list[list[float]]:
    """Each operation's seconds over the mean reference sample of its pass.

    A pass too short to catch a sample uses the mean over the whole run.
    """
    pooled = [r for refs in pass_refs for r in refs]
    if not pooled:
        raise WorkerError("the speed reference was never sampled")
    run_mean = statistics.fmean(pooled)
    return [[t / (statistics.fmean(refs) if refs else run_mean) for t in times]
            for times, refs in zip(op_times, pass_refs)]


def end_to_end(setups: list[float], res: dict) -> tuple[dict, list[str]]:
    """Final metrics plus report lines for the untraced run.

    The run makes a fixed number of passes (workloads.passes).  wall_s is
    their summed wall time, ops_per_s the operations over it, and op_s_p50
    the median of every operation run; setup_s is the median of the fresh
    interpreters timed before, between and after the passes.  wall_ref and
    op_ref_p50 are wall_s and op_s_p50 with each operation's time divided by
    the mean time of the speed reference sampled during its pass.
    """
    walls = res["pass_walls"]
    runs = [t for p in res["op_times"] for t in p]
    norm = speed_normalized(res["op_times"], res["pass_refs"])
    refs = [r for p in res["pass_refs"] for r in p]
    wall = sum(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref": sum(map(sum, norm)),
        "op_ref_p50": statistics.median(t for p in norm for t in p),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lines = [
        f"  setup_s      {metrics['setup_s']:.4f} s    median of {len(setups)} "
        "fresh interpreters: " + ", ".join(f"{s:.3f}" for s in setups),
        f"  wall_ref     {metrics['wall_ref']:.1f} ref",
        f"  op_ref_p50   {metrics['op_ref_p50']:.2f} ref",
        f"  (1 ref = the speed reference's mean, {1e3 * statistics.fmean(refs):.3f} ms "
        f"over {len(refs)} samples; min {1e3 * min(refs):.3f}, median "
        f"{1e3 * statistics.median(refs):.3f}, max {1e3 * max(refs):.3f} ms)",
        f"  wall_s       {wall:.4f} s    {len(walls)} passes of "
        f"{len(res['op_times'][0])} operations (pass walls min {min(walls):.3f}, "
        f"median {statistics.median(walls):.3f}, max {max(walls):.3f})",
        f"  ops_per_s    {len(runs) / wall:.4f} 1/s",
    ]
    if res["iters"]:
        lines.append(f"  iters_per_s  {res['iters'] / wall:.1f} 1/s  "
                     f"{res['iters'] / len(walls):.0f} ridge iterations per pass")
    lines.append(f"  op_s_p50     {statistics.median(runs):.5f} s    of {len(runs)} runs")
    t = tail(runs)
    lines.append(f"  op_s_tail    {t[0]:.5f} s    p{t[1]:.2f} of {len(runs)} runs"
                 if t else f"  op_s_tail    omitted: {len(runs)} runs, "
                 f"needs {2 * TAIL_MIN_BEYOND}")
    lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    return metrics, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    """Final metrics plus report lines for the traced run."""
    secs, counts = res["layer_seconds"], res["layer_counts"]
    wall, plain = res["traced_wall_s"], res["plain_wall_s"]
    metrics = {name: counts[name] for name in PER_LAYER_COUNTS}
    metrics["fractal.sweep_bytes"] = counts["fractal.sweep_bytes"]
    for name in PER_LAYER_SHARES:
        base = res["setup_wall_s"] if name == "problems.load_s" else wall
        metrics[share_name(name)] = 100.0 * secs[name] / base
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - plain
    metrics["trace.overhead_pct"] = 100.0 * (wall - plain) / plain
    lines = [f"  traced pass {wall:.4f} s, untraced pass {plain:.4f} s "
             f"(medians of {res['passes']}); overhead {wall - plain:+.4f} s "
             f"({metrics['trace.overhead_pct']:+.1f} %)",
             f"  traced set-up {res['setup_wall_s']:.4f} s"]
    for layer in ("expr", "oracles", "hull", "ridge", "problems", "fractal", "cli"):
        rows = [(n, v, "s") for n, v in secs.items() if n.startswith(layer + ".")]
        rows += [(n, v, "B" if n.endswith("_bytes") else "count")
                 for n, v in counts.items() if n.startswith(layer + ".")]
        if not any(v for _, v, _ in rows):
            continue  # the layer does not run on this workload
        if layer == "expr" and counts["expr.branches_tried"]:
            rows.append(("expr.branch_yield", counts["expr.branches_kept"]
                         / counts["expr.branches_tried"], "kept/tried"))
        lines.append(f"  [{layer}]")
        lines += [f"    {n:32s} {v:.6g} {u}" for n, v, u in rows]
    return metrics, lines


def run_workload(args) -> dict:
    work_dir = os.path.join(BENCH, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        ready, res = spawn("measure", args, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while in use
            os.rmdir(os.path.dirname(work_dir))

    if args.trace:
        metrics, lines = per_layer(res)
        units = per_layer_units()
    else:
        metrics, lines = end_to_end([ready] + res["setups"], res)
        units = END_TO_END
    failures = Counter(res["checks"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(line)
    print(f"  fail_frac    {res['failed'] / res['attempted']:.4f}    "
          f"{res['failed']} of {res['attempted']} operations failed"
          + "".join(f"; {name} x{n}" for name, n in sorted(failures.items())))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="sets the fixed number of passes per run: this over "
                         "the workload's nominal pass time, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ridgeopt", "__init__.py")):
        print(f"error: no ridgeopt sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata(args.seed)))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
