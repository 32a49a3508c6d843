import json

import numpy as np
import pytest

from ridgeopt import cli, expr, oracles, problems


class TestRegistry:
    def test_list_contains_benchmarks(self):
        ids = {pid for pid, _ in problems.list_problems()}
        assert {"convex_hull_necessary", "po_failure", "envelope_gap",
                "smooth_saddle"} <= ids

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            problems.load_problem("does_not_exist")

    def test_smooth_saddle_fields(self):
        spec = problems.load_problem("smooth_saddle")
        assert spec.box.lower[0] == -10.0 and spec.box.upper[0] == 10.0
        assert spec.known_value(3.0) == 4.5

    def test_known_values_match_grid(self):
        # registry validation at load time plus an explicit spot check
        rng = np.random.Generator(np.random.Philox(31))
        for pid in ("convex_hull_necessary", "envelope_gap", "po_failure",
                    "smooth_saddle"):
            spec = problems.load_problem(pid)
            lo, hi = spec.validation_range
            for xv in rng.uniform(lo, hi, 50):
                am = oracles.argmax_grid_refine(spec.prog, [xv], spec.box)
                assert abs(am.value - spec.known_value(xv)) <= 1e-6

    def test_smooth_points_have_unique_selection(self):
        rng = np.random.Generator(np.random.Philox(47))
        for pid, _ in problems.list_problems():
            spec = problems.load_problem(pid)
            checked = 0
            while checked < 25:
                x = rng.uniform(-2, 2, 1)
                y = rng.uniform(spec.box.lower, spec.box.upper)
                gaps = expr.kink_args(spec.prog, x, y)
                if gaps and min(abs(a) for a in gaps) < 1e-3:
                    continue
                ss = expr.subdiff_sample(spec.prog, x, y, 8)
                g = expr.grad_select(spec.prog, x, y)
                assert len(ss) == 1
                assert np.array_equal(ss.elements[0].u, g.u)
                assert np.array_equal(ss.elements[0].v, g.v)
                checked += 1

    def test_convex_hull_piecewise_extension(self):
        # value is |x| on [-1, 1] and exactly 1 outside
        spec = problems.load_problem("convex_hull_necessary")
        for xv, want in ((0.25, 0.25), (-0.75, 0.75), (1.5, 1.0), (-3.0, 1.0)):
            cf = spec.closed_form_argmax(np.array([xv]), spec.box, 1e-9)
            assert cf.value == pytest.approx(want, abs=1e-12)
            am = oracles.argmax_grid_refine(spec.prog, [xv], spec.box)
            assert am.value == pytest.approx(want, abs=1e-8)


class TestProblemFiles:
    def test_load_custom_envelope(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "id": "custom_envelope",
            "dim_x": 1, "dim_y": 1,
            "expr": "-abs(x0 - y0)",
            "box_lower": [-5.0], "box_upper": [5.0],
            "known_value_expr": "0",
            "validation_range": [-3.0, 3.0],
        }))
        spec = problems.load_problem(str(path))
        assert spec.id == "custom_envelope"
        assert spec.known_value(1.7) == 0.0
        am = oracles.argmax_grid_refine(spec.prog, [0.4], spec.box)
        assert am.value == pytest.approx(0.0, abs=1e-9)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"id": "x", "dim_x": 1, "dim_y": 1}))
        with pytest.raises(ValueError):
            problems.load_problem(str(path))

    def test_bad_expr_reported(self, tmp_path):
        path = tmp_path / "parse.json"
        path.write_text(json.dumps({
            "id": "p", "dim_x": 1, "dim_y": 1, "expr": "x0 + * y0",
            "box_lower": [-1.0], "box_upper": [1.0]}))
        with pytest.raises(expr.ExprSyntaxError):
            problems.load_problem(str(path))

    def test_validation_failure_detected(self, tmp_path):
        # known value that disagrees with the true maximum
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({
            "id": "wrong", "dim_x": 1, "dim_y": 1,
            "expr": "-abs(x0 - y0)",
            "box_lower": [-5.0], "box_upper": [5.0],
            "known_value_expr": "1",
            "validation_range": [-3.0, 3.0]}))
        with pytest.raises(ValueError):
            problems.load_problem(str(path))

    @pytest.mark.parametrize("fields,message", [
        ({"expr": "1e999*y0 - x0"}, "nonfinite value on the grid"),
        ({"dim_y": 4, "expr": "x0*y3", "box_lower": [-1.0] * 4,
          "box_upper": [1.0] * 4}, "grid oracle supports r <= 3"),
    ])
    def test_file_without_known_value_still_scans_the_grid(
            self, tmp_path, capsys, fields, message):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps({
            "id": "scan", "dim_x": 1, "dim_y": 1, "box_lower": [-1.0],
            "box_upper": [1.0], **fields}))
        with pytest.raises(ValueError, match=message):
            problems.load_problem(str(path))
        assert cli.main(["certify", "--problem", str(path), "--x0", "0",
                         "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_file_without_known_value_runs_no_ascent(self, tmp_path, monkeypatch):
        def no_ascent(*args):
            raise AssertionError("golden-section ascent ran")

        monkeypatch.setattr(oracles, "_golden_max", no_ascent)
        fields = {"id": "plain", "dim_x": 2, "dim_y": 1, "expr": "-abs(x0 + x1 - y0)",
                  "box_lower": [-5.0], "box_upper": [5.0]}
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(fields))
        assert problems.load_problem(str(path)).id == "plain"
        # with a value to compare, validation does ascend
        path.write_text(json.dumps({**fields, "known_value_expr": "0"}))
        with pytest.raises(AssertionError, match="ascent ran"):
            problems.load_problem(str(path))
