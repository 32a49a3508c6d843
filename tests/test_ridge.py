import numpy as np
import pytest

from ridgeopt import oracles
from ridgeopt.ridge import (StepSchedule, OracleSettings, RunConfig,
                            ridge_step, run, certify_po_critical)


class TestSchedule:
    def test_values(self):
        s = StepSchedule(1.0, 1.0)
        assert s.alpha(0) == 1.0
        assert s.alpha(9) == pytest.approx(0.1)

    def test_nonsummable_probe(self):
        s = StepSchedule(1.0, 0.7)
        total = sum(s.alpha(k) for k in range(10_000))
        assert total > 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(0.0, 1.0)
        with pytest.raises(ValueError):
            StepSchedule(1.0, 1.5)
        with pytest.raises(ValueError):
            StepSchedule(1.0, 1.0).alpha(-1)


class TestRidgeStep:
    def test_smooth_saddle(self):
        x1, rec = ridge_step([1.0], "smooth_saddle", OracleSettings(),
                             StepSchedule(0.5, 1.0), 0)
        assert x1[0] == pytest.approx(0.5)
        assert rec["y"][0] == 1.0 and rec["f"] == pytest.approx(0.5)

    def test_envelope_stationary(self):
        for xv in (3.0, -1.2, 0.0):
            x1, _ = ridge_step([xv], "envelope_gap", OracleSettings(),
                               StepSchedule(0.9, 1.0), 4)
            assert x1[0] == pytest.approx(xv, abs=1e-12)

    def test_convex_hull(self):
        x1, rec = ridge_step([0.8], "convex_hull_necessary", OracleSettings(),
                             StepSchedule(0.1, 1.0), 0)
        assert x1[0] == pytest.approx(0.7, abs=1e-12)
        assert rec["y"][0] == 1.0


class TestRun:
    def test_convex_hull_descends(self):
        cfg = RunConfig(problem="convex_hull_necessary", x0=[0.7],
                        alpha0=0.5, gamma=1.0, budget=500)
        traj, rep = run(cfg)
        assert min(abs(x[0]) for x in traj.xs) <= 0.05
        assert rep.last_window_oscillation <= 0.05
        assert rep.certificate["verdict"] is True

    def test_smooth_saddle_contracts(self):
        cfg = RunConfig(problem="smooth_saddle", x0=[4.0], alpha0=0.5,
                        gamma=0.7, budget=200)
        _, rep = run(cfg)
        assert abs(rep.x_final[0]) <= 1e-2

    def test_smooth_saddle_monotone_decrease(self):
        cfg = RunConfig(problem="smooth_saddle", x0=[4.0], alpha0=0.8,
                        gamma=0.6, budget=300)
        traj, _ = run(cfg)
        fs = traj.fs
        assert all(b < a for a, b in zip(fs, fs[1:]) if a > 1e-300)

    def test_envelope_constant_and_stalls(self):
        cfg = RunConfig(problem="envelope_gap", x0=[3.0], budget=400)
        traj, rep = run(cfg)
        assert rep.stalled and rep.iterations < 400
        assert all(x[0] == 3.0 for x in traj.xs)
        assert rep.certificate["verdict"] is True

    def test_trajectory_determinism(self):
        lines = []
        for _ in range(3):
            cfg = RunConfig(problem="convex_hull_necessary", x0=[0.7],
                            budget=60, atom_rule="random", seed=42)
            traj, _ = run(cfg)
            lines.append("\n".join(traj.jsonl_lines()))
        assert lines[0] == lines[1] == lines[2]

    def test_seed_changes_random_rule(self):
        outs = []
        for seed in (1, 2):
            cfg = RunConfig(problem="po_failure", x0=[0.0], budget=5,
                            atom_rule="random", seed=seed)
            traj, _ = run(cfg)
            outs.append("\n".join(traj.jsonl_lines()))
        assert outs[0] != outs[1]

    def test_abort_on_oracle_failure(self):
        # grid-oracle maximizer snaps near but not onto the moving kink at
        # x = 1/3, so no branch can zero its y-block
        cfg = RunConfig(problem="envelope_gap", x0=[1.0 / 3.0], budget=10,
                        oracle=OracleSettings(mode="grid"))
        traj, rep = run(cfg)
        assert rep.aborted and rep.error
        assert rep.iterations == 0

    def test_boundary_warning_surfaces(self):
        cfg = RunConfig(problem="po_failure", x0=[0.0], budget=3)
        _, rep = run(cfg)
        assert rep.boundary_warning

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(problem="envelope_gap", x0=[0.0], budget=0)
        with pytest.raises(ValueError):
            RunConfig(problem="envelope_gap", x0=[0.0], atom_rule="best")
        with pytest.raises(ValueError):
            RunConfig(problem="envelope_gap", x0=[0.0], tol=-1.0)


class TestCertify:
    def test_convex_hull_origin(self):
        cert = certify_po_critical("convex_hull_necessary", [0.0], tol=1e-9)
        assert cert.verdict
        assert cert.min_norm <= 1e-9
        ws = sorted(lam for _, _, lam in cert.witness)
        assert np.allclose(ws, [0.5, 0.5], atol=1e-9)
        ys = sorted(y[0] for y, _, _ in cert.witness)
        assert ys == [-1.0, 1.0]
        assert cert.vertex_min_norm == pytest.approx(1.0, abs=1e-9)

    def test_convex_hull_off_origin(self):
        cert = certify_po_critical("convex_hull_necessary", [0.3], tol=1e-9)
        assert not cert.verdict
        assert cert.min_norm == pytest.approx(1.0, abs=1e-9)

    def test_smooth_saddle_origin(self):
        cert = certify_po_critical("smooth_saddle", [0.0], tol=1e-9)
        assert cert.verdict
        assert np.allclose(cert.cert.atoms, [[0.0]])

    def test_witness_size_bounded(self):
        cert = certify_po_critical("po_failure", [0.0], tol=1e-6)
        assert cert.verdict
        assert len(cert.witness) <= 2  # p + 1 with p = 1

    def test_tightening_preserves_verdicts(self):
        cases = [("convex_hull_necessary", 0.0), ("smooth_saddle", 0.0),
                 ("envelope_gap", 1.234)]
        for pid, xv in cases:
            for factor in (1.0, 0.1):
                settings = OracleSettings(tau_y=1e-7 * factor)
                cert = certify_po_critical(pid, [xv], settings,
                                           tol=1e-6 * factor)
                assert cert.verdict, (pid, factor)

    def test_empty_po_sample_propagates(self):
        settings = OracleSettings(mode="grid")
        with pytest.raises(oracles.EmptyPOSample):
            certify_po_critical("envelope_gap", [1.0 / 3.0], settings)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            certify_po_critical("envelope_gap", [0.0], tol=0.0)

    def test_certificate_json_shape(self):
        cert = certify_po_critical("convex_hull_necessary", [0.0], tol=1e-9)
        d = cert.to_dict()
        for key in ("x", "verdict", "min_norm", "vertex_min_norm", "tol",
                    "atoms", "weights", "point", "witness", "gap"):
            assert key in d
