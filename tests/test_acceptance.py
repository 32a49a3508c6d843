"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_force_min_norm
from ridgeopt import cli, expr, fractal, hull, oracles, problems, ridge


@pytest.fixture(scope="module", autouse=True)
def _warm_registry():
    # registration-time validation (grid oracle vs closed forms) happens at
    # startup; the per-criterion budgets time the operations themselves
    for pid, _ in problems.list_problems():
        problems.load_problem(pid)


class _Gate:
    def __init__(self, label: str, budget_s: float):
        self.label = label
        self.budget_s = budget_s
        self.failures: list[str] = []

    def __enter__(self):
        self.t0 = time.time()
        return self

    def check(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        if exc is not None:
            print(f"ACCEPTANCE {self.label}: FAIL ({exc}) [{elapsed:.1f}s]")
            return False
        if elapsed > self.budget_s:
            self.failures.append(
                f"runtime {elapsed:.1f}s exceeds {self.budget_s:.0f}s")
        status = "PASS" if not self.failures else "FAIL"
        detail = "" if not self.failures else " — " + "; ".join(self.failures)
        print(f"ACCEPTANCE {self.label}: {status}{detail} [{elapsed:.1f}s]")
        assert not self.failures, detail
        return False


def test_criterion_1_convex_hull_necessity(tmp_path):
    with _Gate("1 convex-hull necessity", 5.0) as g:
        out = str(tmp_path / "run")
        code = cli.main(["run", "--problem", "convex_hull_necessary",
                         "--x0", "0.7", "--alpha0", "0.5", "--gamma", "1.0",
                         "--iters", "500", "--out", out])
        g.check(code == 0, "cmd_run failed")
        min_abs = min(abs(json.loads(line)["x"][0])
                      for line in open(f"{out}/trajectory.jsonl"))
        g.check(min_abs <= 0.05, f"min |x_k| = {min_abs} > 0.05")
        report = json.load(open(f"{out}/report.json"))
        g.check(abs(report["x_final"][0]) <= 0.05, "terminal |x| > 0.05")
        g.check(report["certificate"]["verdict"] is True,
                "report's nearest certified point is not critical")

        cout = str(tmp_path / "cert")
        code = cli.main(["certify", "--problem", "convex_hull_necessary",
                         "--x0", "0", "--tol", "1e-9", "--out", cout])
        g.check(code == 0, "cmd_certify at 0 did not report critical")
        cert = json.load(open(f"{cout}/certificate.json"))
        g.check(cert["min_norm"] <= 1e-9, f"min-norm {cert['min_norm']}")
        atoms = sorted(u["u"][0] for u in cert["witness"])
        lams = sorted(u["lambda"] for u in cert["witness"])
        g.check(np.allclose(atoms, [-1.0, 1.0], atol=1e-9),
                f"witness atoms {atoms} != {{-1, 1}}")
        g.check(np.allclose(lams, [0.5, 0.5], atol=1e-9),
                f"weights {lams} != (1/2, 1/2)")
        # without hulling, the best single atom has norm 1
        g.check(abs(cert["vertex_min_norm"] - 1.0) <= 1e-9,
                f"vertex min-norm {cert['vertex_min_norm']} != 1")


def test_criterion_2_envelope_gap():
    with _Gate("2 envelope gap", 2.0) as g:
        spec = problems.load_problem("envelope_gap")
        rng = np.random.Generator(np.random.Philox(2024))
        for xv in rng.uniform(-3.0, 3.0, 50):
            am = spec.closed_form_argmax(np.atleast_1d(xv), spec.box, 1e-9)
            po = oracles.po_sample(spec.prog, [xv], am)
            g.check(po.atoms.n == 1 and abs(po.atoms.atoms[0, 0]) <= 1e-7,
                    f"atoms at x={xv} not exactly {{0}}")
        cfg = ridge.RunConfig(problem="envelope_gap", x0=[3.0], budget=300)
        traj, rep = ridge.run(cfg)
        g.check(all(x[0] == 3.0 for x in traj.xs), "ridge run moved")
        g.check(rep.stalled, "stationary run did not stall out")


def test_criterion_3_po_failure():
    with _Gate("3 PO-formula failure", 2.0) as g:
        spec = problems.load_problem("po_failure")
        g.check(float(spec.box.lower[0]) == 0.0
                and float(spec.box.upper[0]) == 3.0, "box is not [0, 3]")
        am = spec.closed_form_argmax(np.atleast_1d(0.0), spec.box, 1e-9)
        po = oracles.po_sample(spec.prog, [0.0], am)
        cert = hull.min_norm_point(po.atoms.atoms, 1e-7)
        g.check(cert.norm <= 1e-7, f"PO hull min-norm {cert.norm}")
        mags = np.abs(po.atoms.atoms).max()
        g.check(mags >= 2.9, f"largest atom magnitude {mags} < 2.9")
        g.check(am.boundary_flag, "boundary warning did not fire")
        # f == 0 near 0 by grid values, so the true derivative set is {0}
        for xv in (-0.05, -0.01, 0.0, 0.01, 0.05):
            gm = oracles.argmax_grid_refine(spec.prog, [xv], spec.box)
            g.check(abs(gm.value) <= 1e-9, f"grid f({xv}) = {gm.value} != 0")


def test_criterion_4_convergence_desk_scale():
    for pid, x0, alpha0, gamma in (("smooth_saddle", 4.0, 0.8, 0.6),
                                   ("convex_hull_necessary", 0.7, 0.5, 1.0)):
        with _Gate(f"4 convergence {pid}", 10.0) as g:
            cfg = ridge.RunConfig(problem=pid, x0=[x0], alpha0=alpha0,
                                  gamma=gamma, budget=2000, tol=1e-6)
            traj, rep = ridge.run(cfg)
            # the budget is 2000; the stall floor may legitimately end the
            # run sooner once the iterates are stationary to fp resolution
            g.check(rep.iterations == 2000 or rep.stalled, "run aborted")
            osc = rep.last_window_oscillation
            g.check(osc <= 10.0 * rep.alpha_final,
                    f"oscillation {osc} > 10*alpha_final {10 * rep.alpha_final}")
            g.check(rep.certificate is not None
                    and rep.certificate["verdict"] is True,
                    "terminal point did not certify PO-critical at 1e-6")


def test_criterion_5_min_norm_oracle_equivalence():
    with _Gate("5 min-norm oracle equivalence", 30.0) as g:
        rng = np.random.Generator(np.random.Philox(101))
        worst = 0.0
        for trial in range(500):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, 4))
            P = rng.normal(size=(n, p)) + rng.normal(size=(1, p))
            cert = hull.min_norm_point(P)
            oracle = brute_force_min_norm(P, seed=trial)
            worst = max(worst, abs(cert.norm - oracle))
            red = hull.caratheodory_reduce(cert)
            g.check(np.count_nonzero(red.weights) <= p + 1,
                    f"trial {trial}: support exceeds p+1")
            drift = float(np.linalg.norm(red.point - cert.point))
            g.check(drift <= 1e-10, f"trial {trial}: point drift {drift}")
        g.check(worst <= 1e-4, f"worst |wolfe - oracle| = {worst}")


def test_criterion_6_gradient_correctness():
    with _Gate("6 gradient correctness", 5.0) as g:
        for pid, _ in problems.list_problems():
            spec = problems.load_problem(pid)
            rng = np.random.Generator(np.random.Philox(601))
            checked, worst = 0, 0.0
            while checked < 100:
                x = rng.uniform(-2.0, 2.0, 1)
                y = rng.uniform(spec.box.lower, spec.box.upper)
                gaps = expr.kink_args(spec.prog, x, y)
                if gaps and min(abs(a) for a in gaps) < 1e-3:
                    continue
                worst = max(worst, expr.fd_check(spec.prog, x, y, 1e-6))
                checked += 1
            g.check(worst <= 1e-5, f"{pid}: fd_check worst {worst}")


def test_criterion_7_fractal_suite():
    with _Gate("7 fractal structure suite", 60.0) as g:
        sets = {d: fractal.build_fractal(d) for d in range(9)}
        for d, F in sets.items():
            g.check(fractal.axis_projection_length(F, "x") == Fraction(1),
                    f"depth {d}: x-projection != 1")
            g.check(fractal.axis_projection_length(F, "y") == Fraction(1),
                    f"depth {d}: y-projection != 1")
        for direction in ((1, 2), (2, 1)):
            vals = [fractal.rotated_projection_length(sets[d], direction)
                    for d in range(9)]
            g.check(all(b < a for a, b in zip(vals, vals[1:])),
                    f"rotated projection not strictly decreasing {direction}")
        v = [fractal.rotated_projection_length(sets[d], (1, 2)) for d in (0, 8)]
        g.check(v[1] <= 0.2 * v[0], f"depth-8 rotated {v[1]} > 0.2 * depth-0")
        for d in range(1, 7):
            tv = fractal.min_total_variation(sets[d])
            g.check(tv >= d, f"TV bound {tv} < depth {d}")
        # pair/singleton dichotomy
        F4 = sets[4]
        n = 4 ** 4
        for k in range(1, n):
            cc = fractal.column_chains(F4, Fraction(k, n))
            g.check(len(cc.chains) == 2, f"boundary {k}/{n}: {len(cc.chains)} chains")
        rng = np.random.Generator(np.random.Philox(701))
        for xv in rng.uniform(0.0, 1.0, 100):
            if (Fraction(float(xv)) * n).denominator == 1:
                continue
            cc = fractal.column_chains(F4, float(xv))
            g.check(len(cc.chains) == 1, f"random x={xv}: {len(cc.chains)} chains")


def test_criterion_8a_value_bracketing():
    with _Gate("8a counterexample value bracket", 120.0) as g:
        for d in range(2, 9):
            F = fractal.build_fractal(d)
            z = fractal.chain_point(F, 0.5)
            lo, hi = fractal.g_eval_bounds(F, z[0], z[1])
            width = 2.0 * math.sqrt(2.0) * 4.0 ** -d
            g.check(lo <= 0.5 <= hi + 1e-15, f"depth {d}: [{lo}, {hi}] misses 0.5")
            g.check(hi - lo <= width + 1e-15, f"depth {d}: bracket too wide")


def test_criterion_8b_po_min_norm_strictly_decreasing():
    # Known-unattainable target, asserted faithfully: the chain point lies
    # on its own square's boundary, so the probe fan contains both
    # horizontal face normals from depth 2 on and the sampled atom hull
    # already covers 0 at every depth and radius scaling.  The sequence is
    # identically ~0 -- consistent with the limit claim "0 in the PO set"
    # (the iteration stalls immediately), but never strictly decreasing.
    with _Gate("8b PO hull min-norm strictly decreasing", 120.0) as g:
        mns = []
        for d in (2, 4, 6, 8):
            F = fractal.build_fractal(d)
            mns.append(fractal.g_po_min_norm(F, 0.5, n_dirs=64))
        g.check(all(b < a for a, b in zip(mns, mns[1:])),
                f"min-norms {mns} not strictly decreasing")


def test_criterion_8c_probe_gaps_shrink():
    with _Gate("8c probe angular gaps shrink", 120.0) as g:
        gaps = {}
        for d in (2, 6):
            F = fractal.build_fractal(d)
            z = fractal.chain_point(F, 0.5)
            pr = fractal.subdiff_probe(F, z, fractal.probe_radius(d), 64)
            gaps[d] = pr.max_angular_gap
        g.check(gaps[6] < gaps[2],
                f"gap at depth 6 ({gaps[6]}) not below depth 2 ({gaps[2]})")


def test_criterion_9_determinism(tmp_path):
    with _Gate("9 determinism", 30.0) as g:
        blobs = []
        for i in range(3):
            out = str(tmp_path / f"run{i}")
            code = cli.main(["run", "--problem", "convex_hull_necessary",
                             "--x0", "0.7", "--iters", "200",
                             "--atom-rule", "random", "--seed", "7",
                             "--out", out])
            g.check(code == 0, f"run {i} failed")
            blobs.append(open(f"{out}/trajectory.jsonl", "rb").read())
        g.check(blobs[0] == blobs[1] == blobs[2],
                "trajectories differ across reruns")
