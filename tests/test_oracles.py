import ast
import inspect

import numpy as np
import pytest

from ridgeopt import expr, hull, oracles, problems
from ridgeopt.oracles import (YBox, ArgmaxResult, EmptyPOSample,
                              OracleSettings, POSample, argmax_grid_refine,
                              po_sample)


def _box(lo, hi):
    return YBox(np.array([lo]), np.array([hi]))


def _closed_form(pid, x, box=None):
    spec = problems.load_problem(pid)
    return spec.closed_form_argmax(np.atleast_1d(x), box or spec.box, 1e-9)


class TestYBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            YBox(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            YBox(np.array([0.0]), np.array([np.inf]))
        assert _box(-1.0, 1.0).r == 1


class TestOracleSettings:
    @pytest.mark.parametrize("field, value", [
        ("mode", "closed"), ("tau_y", 0.0), ("tau_y", float("nan")),
        ("delta_f", -1e-8)])
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError):
            OracleSettings(**{field: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            OracleSettings().tau_y = 1.0


class TestGridRefine:
    def test_convex_hull_positive_x(self):
        spec = problems.load_problem("convex_hull_necessary")
        am = argmax_grid_refine(spec.prog, [0.5], _box(-2.0, 2.0))
        assert len(am.maximizers) == 1
        assert am.maximizers[0][0] == pytest.approx(1.0, abs=1e-9)
        assert am.value == pytest.approx(0.5, abs=1e-9)

    def test_convex_hull_tie_at_zero(self):
        spec = problems.load_problem("convex_hull_necessary")
        am = argmax_grid_refine(spec.prog, [0.0], _box(-2.0, 2.0))
        ys = sorted(y[0] for y in am.maximizers)
        assert ys == pytest.approx([-1.0, 1.0], abs=1e-9)
        assert am.value == pytest.approx(0.0, abs=1e-12)

    def test_envelope_self_match(self):
        prog = expr.parse("-abs(x0 - y0)", 1, 1)
        am = argmax_grid_refine(prog, [2.0], _box(-5.0, 5.0))
        assert am.maximizers[0][0] == pytest.approx(2.0, abs=1e-9)
        assert am.value == pytest.approx(0.0, abs=1e-12)

    def test_r_above_three_rejected(self):
        prog = expr.parse("y0 + y1 + y2 + y3 - x0", 1, 4)
        box = YBox(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError):
            argmax_grid_refine(prog, [0.0], box)

    def test_bad_grid_params(self):
        with pytest.raises(ValueError, match="grid_n"):
            OracleSettings(grid_n=1)
        with pytest.raises(ValueError, match="n_starts"):
            OracleSettings(n_starts=0)

    def test_smooth_interior_max(self):
        prog = expr.parse("x0*y0 - 0.5*pow(y0, 2)", 1, 1)
        am = argmax_grid_refine(prog, [3.0], _box(-10.0, 10.0))
        assert am.maximizers[0][0] == pytest.approx(3.0, abs=1e-6)
        assert am.value == pytest.approx(4.5, abs=1e-10)
        assert not am.boundary_flag

    def test_two_dimensional_box(self):
        prog = expr.parse("-pow(y0 - x0, 2) - pow(y1 + 1, 2)", 1, 2)
        box = YBox(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
        am = argmax_grid_refine(prog, [0.5], box,
                                OracleSettings(grid_n=32, n_starts=4))
        assert am.maximizers[0] == pytest.approx([0.5, -1.0], abs=1e-6)
        assert am.value == pytest.approx(0.0, abs=1e-10)


class TestRegistry:
    def test_smooth_saddle(self):
        am = _closed_form("smooth_saddle", [3.0])
        assert [y[0] for y in am.maximizers] == [3.0]
        assert am.value == 4.5

    def test_po_failure_segment_with_box_override(self):
        am = _closed_form("po_failure", [0.0], box=_box(-3.0, 3.0))
        assert [y[0] for y in am.maximizers] == [0.0, 3.0]
        assert am.segment and am.boundary_flag
        assert am.value == 0.0

    def test_envelope(self):
        am = _closed_form("envelope_gap", [-1.0])
        assert [y[0] for y in am.maximizers] == [-1.0]
        assert am.value == 0.0

    def test_unknown_problem(self):
        with pytest.raises(KeyError):
            problems.load_problem("nope")

    @pytest.mark.parametrize("pid", [pid for pid, _ in problems.list_problems()])
    def test_po_atoms_are_the_value_derivative(self, pid):
        # definable objectives: the PO formula is conservative, so at almost
        # every x each atom is f'(x)
        spec = problems.load_problem(pid)
        rng = np.random.Generator(np.random.Philox(91))
        h = 1e-6
        for xv in rng.uniform(*spec.validation_range, 30):
            slope = (spec.known_value(xv + h) - spec.known_value(xv - h)) / (2 * h)
            po = po_sample(spec.prog, [xv], _closed_form(pid, [xv]))
            assert np.all(np.abs(po.atoms.atoms[:, 0] - slope) <= 1e-6), (xv, slope)


class TestPoSample:
    def test_convex_hull_pair(self):
        spec = problems.load_problem("convex_hull_necessary")
        am = _closed_form("convex_hull_necessary", [0.0])
        po = po_sample(spec.prog, [0.0], am)
        atoms = po.atoms.atoms.ravel()
        assert np.allclose(np.sort(atoms), [-1.0, 1.0], atol=1e-12)
        provs = {(round(p.y[0], 6), round(a, 6))
                 for p, a in zip(po.provenance, atoms)}
        assert provs == {(-1.0, -1.0), (1.0, 1.0)}

    def test_envelope_combination_atom(self):
        spec = problems.load_problem("envelope_gap")
        for xv in (0.0, 1.25, -2.5):
            am = _closed_form("envelope_gap", [xv])
            po = po_sample(spec.prog, [xv], am)
            assert po.atoms.n == 1
            assert abs(po.atoms.atoms[0, 0]) <= 1e-7

    def test_smooth_saddle_gradient(self):
        spec = problems.load_problem("smooth_saddle")
        am = _closed_form("smooth_saddle", [3.0])
        po = po_sample(spec.prog, [3.0], am)
        assert np.allclose(po.atoms.atoms, [[3.0]])

    def test_residuals_within_tau(self):
        spec = problems.load_problem("po_failure")
        am = _closed_form("po_failure", [0.0])
        po = po_sample(spec.prog, [0.0], am, OracleSettings(tau_y=1e-7))
        assert all(p.residual <= 1e-7 for p in po.provenance)

    def test_invariant_under_maximizer_order(self):
        spec = problems.load_problem("convex_hull_necessary")
        am = _closed_form("convex_hull_necessary", [0.0])
        rev = ArgmaxResult(maximizers=list(reversed(am.maximizers)),
                           value=am.value, boundary_flag=am.boundary_flag,
                           segment=am.segment)
        a = po_sample(spec.prog, [0.0], am).atoms.atoms
        b = po_sample(spec.prog, [0.0], rev).atoms.atoms
        assert np.array_equal(a, b)

    def test_empty_po_sample(self):
        # a non-maximizer y leaves every branch with a nonzero y-block
        spec = problems.load_problem("envelope_gap")
        fake = ArgmaxResult(maximizers=[np.array([0.5])], value=-0.5,
                            boundary_flag=False)
        with pytest.raises(EmptyPOSample):
            po_sample(spec.prog, [1.0], fake)

    def test_po_failure_hull_inflates_with_box(self):
        # PO hull at x=0 covers [-Y+d, Y-d] though f' == 0, via the grid oracle
        spec = problems.load_problem("po_failure")
        Y = float(spec.box.upper[0])
        am = argmax_grid_refine(spec.prog, [0.0], spec.box)
        po = po_sample(spec.prog, [0.0], am)
        atoms = po.atoms.atoms.ravel()
        delta = 2.0 * Y / 64
        assert atoms.min() <= -Y + delta and atoms.max() >= Y - delta
        assert hull.min_norm_point(po.atoms.atoms, 1e-9).norm <= 1e-9

    def test_smooth_saddle_po_matches_derivative(self):
        # f(x) = x^2/2 so the PO atom set is exactly {x}
        spec = problems.load_problem("smooth_saddle")
        rng = np.random.Generator(np.random.Philox(29))
        for xv in rng.uniform(-5, 5, 50):
            am = _closed_form("smooth_saddle", [xv])
            po = po_sample(spec.prog, [xv], am)
            assert po.atoms.n == 1
            assert po.atoms.atoms[0, 0] == pytest.approx(xv, abs=1e-9)


class TestPOSampleBuild:
    def test_ties_merge_and_keep_lowest_residual(self):
        ya, yb, yc = np.array([-1.0]), np.array([0.5]), np.array([2.0])
        found = [(np.array([1.0]), ya, 3e-8),
                 (np.array([-0.0]), ya, 2e-8),
                 (np.array([1.0]), yb, 1e-9),
                 (np.array([0.0]), yc, 5e-9),
                 (np.array([1.0]), yc, 4e-8)]
        for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [3, 0, 4, 2, 1]):
            po = POSample.build([found[i] for i in order], incomplete=True)
            assert np.array_equal(po.atoms.atoms, [[0.0], [1.0]])
            assert [(p.y[0], p.residual) for p in po.provenance] == [
                (2.0, 5e-9), (0.5, 1e-9)]
            assert po.incomplete


def test_oracles_import_neither_problems_nor_ridge():
    # function-local imports included: problems and ridge build on oracles
    tree = ast.parse(inspect.getsource(oracles))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(a.name for a in node.names)
    parts = {p for name in names for p in name.split(".")}
    assert not parts & {"problems", "ridge"}
