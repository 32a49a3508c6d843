"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/stability.py --seeds 10 --out bench/_stability.json
    python3 bench/stability.py --workloads ridge-registry --seeds 5

Runs bench/run.py once per (workload, seed), sequentially, and reports for
each metric the median of the runs and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median.  A metric is steady when its spread stays under a third of the bound
BENCHMARK.json gives it; setup_s is reported but has no spread limit.  The
raw wall_s, printed but not gated, is reported alongside for comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median) of the values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", help="write the per-run values and summary as JSON")
    args = ap.parse_args(argv)

    report = {}
    steady = True
    for wl in args.workloads:
        runs = []
        for seed in range(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=200)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                print(f"{wl} seed {seed}: exit code {out.returncode}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} failed operations")
                steady = False
            runs.append({m: v["value"] for m, v in result["metrics"].items()})
            runs[-1]["wall_s"] = next(float(line.split()[1])
                                      for line in out.stdout.splitlines()
                                      if line.startswith("  wall_s "))
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{m}={v:.4g}" for m, v in runs[-1].items()), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            med, sp = spread([r[metric] for r in runs])
            ok = metric == "setup_s" or sp < bound / 3
            steady = steady and ok
            summary[metric] = {"median": med, "spread": sp, "bound": bound}
            print(f"  {wl:15s} {metric:12s} median {med:10.4g}  spread "
                  f"{100 * sp:5.1f} %  (bound {100 * bound:.0f} %)"
                  + ("" if ok else "  UNSTEADY"))
        med, sp = spread([r["wall_s"] for r in runs])
        summary["wall_s"] = {"median": med, "spread": sp, "bound": None}
        print(f"  {wl:15s} {'wall_s':12s} median {med:10.4g}  spread "
              f"{100 * sp:5.1f} %  (raw, not gated)")
        report[wl] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
