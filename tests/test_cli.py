import csv
import json
import os

import pytest

from ridgeopt import cli

ORACLE_KEYS = ["oracle_mode", "tau_y", "delta_f", "delta_y", "grid_n",
               "n_starts", "max_branches", "eps_kink"]
CERTIFY_KEYS = ["problem", "x0", "tol", *ORACLE_KEYS]
RUN_KEYS = [*CERTIFY_KEYS, "alpha0", "gamma", "iters", "atom_rule", "seed"]


def _run(argv):
    return cli.main(argv)


class TestRun:
    def test_writes_artifacts(self, tmp_path):
        out = str(tmp_path)
        code = _run(["run", "--problem", "convex_hull_necessary",
                     "--x0", "0.7", "--iters", "50", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "trajectory.jsonl"))
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["problem"] == "convex_hull_necessary"
        assert report["iterations"] == 50
        rec = json.loads(open(os.path.join(out, "trajectory.jsonl")).readline())
        assert set(rec) == {"k", "x", "y", "u", "alpha", "f"}

    def test_oracle_failure_exit_2_with_partial_trajectory(self, tmp_path):
        out = str(tmp_path)
        code = _run(["run", "--problem", "envelope_gap",
                     "--x0", str(1.0 / 3.0), "--iters", "5",
                     "--oracle-mode", "grid", "--out", out])
        assert code == 2
        assert os.path.exists(os.path.join(out, "trajectory.jsonl"))
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["aborted"] is True

    def test_unknown_problem_exit_2(self, tmp_path):
        assert _run(["run", "--problem", "nope", "--x0", "0",
                     "--out", str(tmp_path)]) == 2

    def test_envelope_run_constant_and_critical(self, tmp_path):
        out = str(tmp_path)
        assert _run(["run", "--problem", "envelope_gap", "--x0", "3.0",
                     "--iters", "200", "--out", out]) == 0
        xs = {json.loads(line)["x"][0]
              for line in open(os.path.join(out, "trajectory.jsonl"))}
        assert xs == {3.0}
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["certificate"]["verdict"] is True

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "smooth_saddle", "x0": [4.0],
                                   "iters": 30, "alpha0": 0.8, "gamma": 0.6}))
        out = str(tmp_path / "o1")
        assert _run(["run", "--config", str(cfg), "--out", out]) == 0
        rep1 = json.load(open(os.path.join(out, "report.json")))
        assert rep1["iterations"] == 30
        out2 = str(tmp_path / "o2")
        assert _run(["run", "--config", str(cfg), "--iters", "10",
                     "--out", out2]) == 0
        rep2 = json.load(open(os.path.join(out2, "report.json")))
        assert rep2["iterations"] == 10

    def test_problem_file_path(self, tmp_path):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({
            "id": "custom", "dim_x": 1, "dim_y": 1,
            "expr": "x0*y0 - 0.5*pow(y0, 2)",
            "box_lower": [-10.0], "box_upper": [10.0],
            "validation_range": [-3.0, 3.0]}))
        out = str(tmp_path / "out")
        code = _run(["run", "--problem", str(prob), "--x0", "2.0",
                     "--iters", "20", "--oracle-mode", "grid", "--out", out])
        assert code == 0


class TestCertify:
    def test_critical_exit_0(self, tmp_path):
        out = str(tmp_path)
        code = _run(["certify", "--problem", "convex_hull_necessary",
                     "--x0", "0", "--tol", "1e-9", "--out", out])
        assert code == 0
        cert = json.load(open(os.path.join(out, "certificate.json")))
        assert cert["verdict"] is True
        assert cert["min_norm"] <= 1e-9
        lams = sorted(w["lambda"] for w in cert["witness"])
        assert lams == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_not_critical_exit_1(self, tmp_path):
        code = _run(["certify", "--problem", "convex_hull_necessary",
                     "--x0", "0.3", "--out", str(tmp_path)])
        assert code == 1
        cert = json.load(open(os.path.join(str(tmp_path), "certificate.json")))
        assert cert["min_norm"] == pytest.approx(1.0, abs=1e-9)

    def test_smooth_saddle_origin_exit_0(self, tmp_path):
        assert _run(["certify", "--problem", "smooth_saddle", "--x0", "0",
                     "--out", str(tmp_path)]) == 0

    def test_error_exit_2(self, tmp_path):
        assert _run(["certify", "--problem", "nope", "--x0", "0",
                     "--out", str(tmp_path)]) == 2

    def test_nonfinite_point_exit_2_without_certificate(self, tmp_path, capsys):
        assert _run(["certify", "--problem", "envelope_gap", "--x0", "nan",
                     "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(str(tmp_path), "certificate.json"))

    def _problem(self, tmp_path, **fields):
        data = {"id": "custom", "dim_x": 1, "dim_y": 2, "expr": "-abs(x0 - y0)",
                "box_lower": [-5.0, -5.0], "box_upper": [5.0, 5.0], **fields}
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_box_length_mismatch_exit_2(self, tmp_path, capsys):
        prob = self._problem(tmp_path, box_lower=[-5.0], box_upper=[5.0])
        assert _run(["certify", "--problem", prob, "--x0", "0",
                     "--out", str(tmp_path)]) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, None, ["x0"]])
    def test_non_string_expr_exit_2(self, tmp_path, capsys, value):
        prob = self._problem(tmp_path, expr=value)
        assert _run(["certify", "--problem", prob, "--x0", "0",
                     "--out", str(tmp_path)]) == 2
        assert "'expr' must be a string" in capsys.readouterr().err

    def test_deep_nesting_exit_2(self, tmp_path, capsys):
        prob = self._problem(tmp_path, expr="(" * 500 + "x0" + ")" * 500)
        assert _run(["certify", "--problem", prob, "--x0", "0",
                     "--out", str(tmp_path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_two_dimensional_x(self, tmp_path):
        prob = self._problem(tmp_path, id="two", dim_x=2, dim_y=1,
                             expr="-abs(x0 + x1 - y0)", box_lower=[-5.0],
                             box_upper=[5.0])
        assert _run(["certify", "--problem", prob, "--x0", "0", "0",
                     "--out", str(tmp_path)]) in (0, 1)
        cert = json.load(open(os.path.join(str(tmp_path), "certificate.json")))
        assert cert["problem"] == "two" and len(cert["x"]) == 2


class TestFractal:
    def test_all_diagnostics(self, tmp_path):
        out = str(tmp_path)
        code = _run(["fractal", "--depth-min", "0", "--depth-max", "4",
                     "--out", out])
        assert code == 0
        for name in ("projections", "tv", "probes", "po"):
            path = os.path.join(out, f"{name}.csv")
            assert os.path.exists(path)
            rows = list(csv.DictReader(open(path)))
            assert rows and "depth" in rows[0]

    def test_projection_columns(self, tmp_path):
        out = str(tmp_path)
        assert _run(["fractal", "--depth-min", "0", "--depth-max", "6",
                     "--diag", "projections", "--out", out]) == 0
        rows = list(csv.DictReader(open(os.path.join(out, "projections.csv"))))
        assert all(float(r["axis_x"]) == 1.0 and float(r["axis_y"]) == 1.0
                   for r in rows)
        rot = [float(r["rot_1_2"]) for r in rows]
        assert all(b < a for a, b in zip(rot, rot[1:]))

    def test_tv_at_least_depth(self, tmp_path):
        out = str(tmp_path)
        assert _run(["fractal", "--depth-min", "1", "--depth-max", "6",
                     "--diag", "tv", "--out", out]) == 0
        rows = list(csv.DictReader(open(os.path.join(out, "tv.csv"))))
        assert all(float(r["tv_lower_bound"]) >= int(r["depth"]) for r in rows)

    def test_bad_depths(self, tmp_path):
        assert _run(["fractal", "--depth-min", "3", "--depth-max", "2",
                     "--out", str(tmp_path)]) == 2
        assert _run(["fractal", "--depth-max", "13",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_diag(self, tmp_path):
        assert _run(["fractal", "--diag", "spectra",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("depth_min", None), ("depth_max", None), ("depth_max", [2]),
        ("depth_min", "1"), ("diag", 5), ("diag", None), ("diag", ["tv", 5]),
        ("out", None), ("out", 5)])
    def test_wrong_typed_config_value_exit_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth_max": 1, "out": str(tmp_path), key: value}))
        assert _run(["fractal", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err


class TestConfig:
    @pytest.mark.parametrize("argv", [
        ["run", "--iters", "5"],
        ["certify", "--x0", "0"],
        ["fractal", "--depth-max", "1"],
    ])
    def test_config_file_read_once(self, tmp_path, monkeypatch, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "smooth_saddle", "x0": [4.0],
                                   "out": str(tmp_path / "out")}))
        calls = []
        load = cli._load_config
        monkeypatch.setattr(cli, "_load_config",
                            lambda path: calls.append(path) or load(path))
        assert _run(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 0
        assert calls == [str(cfg)]
        assert os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("key, field, value, expected", [
        ("oracle_mode", "mode", "grid", "grid"),
        ("tau_y", "tau_y", 1, 1.0),
        ("delta_f", "delta_f", 2, 2.0),
        ("delta_y", "delta_y", 3, 3.0),
        ("grid_n", "grid_n", 32.0, 32),
        ("n_starts", "n_starts", 4.0, 4),
        ("max_branches", "max_branches", 16.0, 16),
        ("eps_kink", "eps_kink", 1, 1.0),
    ])
    def test_oracle_key_reaches_settings(self, tmp_path, monkeypatch, key,
                                         field, value, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "smooth_saddle", "x0": [4.0],
                                   key: value, "ascent_tol": 0.5}))
        seen = []

        def fake_run(config):
            seen.append(config.oracle)
            raise ValueError("stop")

        monkeypatch.setattr(cli._ridge, "run", fake_run)
        assert _run(["run", "--config", str(cfg)]) == 2
        got = getattr(seen[0], field)
        assert got == expected and type(got) is type(expected)
        # only the eight documented keys are read from a config
        assert seen[0].ascent_tol == cli._ridge.OracleSettings().ascent_tol


class TestConfigValues:
    """Every config key of run and certify is cast by its field's type."""

    def _cfg(self, tmp_path, **values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "smooth_saddle", "x0": [0.5],
                                   "out": str(tmp_path / "out"), **values}))
        return str(cfg)

    @pytest.mark.parametrize("command, key", [
        *[("run", k) for k in RUN_KEYS], *[("certify", k) for k in CERTIFY_KEYS]])
    @pytest.mark.parametrize("value", [None, [[1.0]]])
    def test_null_or_list_value_exit_2(self, tmp_path, capsys, command, key, value):
        cfg = self._cfg(tmp_path, **{key: value})
        assert _run([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("key, value", [
        ("x0", "0.5"), ("x0", []), ("x0", [0.5, "a"]), ("x0", True),
        ("problem", 5), ("atom_rule", 1), ("iters", "5"), ("seed", False),
        ("grid_n", float("inf")), ("alpha0", {"v": 1})])
    def test_wrong_typed_value_exit_2(self, tmp_path, capsys, key, value):
        assert _run(["run", "--config", self._cfg(tmp_path, **{key: value})]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_scalar_x0_and_flag_override(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, x0=0, tol=None)
        assert _run(["certify", "--config", cfg, "--tol", "1e-9"]) == 0
        assert "at x=[0.0]: critical" in capsys.readouterr().out

    def test_keys_not_read_by_a_command_are_ignored(self, tmp_path):
        cfg = self._cfg(tmp_path, x0=0, iters=None, ascent_tol=None,
                        delta_box=None, depth_min=None)
        assert _run(["certify", "--config", cfg]) == 0

    def test_run_and_certify_share_the_settings(self, tmp_path, monkeypatch):
        seen = []

        def fake_certify(spec, x, settings, tol):
            seen.append((x, settings, tol))
            raise ValueError("stop")

        monkeypatch.setattr(cli._ridge, "certify_po_critical", fake_certify)
        values = {"x0": 1, "tol": 1, "oracle_mode": "grid", "grid_n": 16.0,
                  "tau_y": 1}
        assert _run(["certify", "--config", self._cfg(tmp_path, **values)]) == 2
        x, settings, tol = seen[0]
        assert (x, tol) == ([1.0], 1.0)
        assert settings == cli._oracles.OracleSettings(mode="grid", grid_n=16,
                                                       tau_y=1.0)

    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_help_quotes_the_field_defaults(self, capsys, command):
        with pytest.raises(SystemExit):
            _run([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "(default 1e-06)" in out and "{auto,registry,grid}" in out
        if command == "run":
            assert "(default 500)" in out and "(default min_norm_atom)" in out


class TestListProblems:
    def test_lists_ids(self, capsys):
        assert _run(["list-problems"]) == 0
        out = capsys.readouterr().out
        for pid in ("convex_hull_necessary", "po_failure", "envelope_gap",
                    "smooth_saddle"):
            assert pid in out
