import math
from fractions import Fraction

import numpy as np
import pytest

from ridgeopt import cli, fractal
from ridgeopt.fractal import (_projection_units, build_fractal, column_offset,
                              column_offsets, dist_bounds,
                              g_eval_bounds, column_chains, chain_point,
                              contains_point, axis_projection_length,
                              rotated_projection_length, min_total_variation,
                              subdiff_probe, g_po_sample, g_po_min_norm,
                              probe_radius, nearest_square, ProbeError)

SQRT2 = math.sqrt(2.0)


class TestBuild:
    def test_depth_guard(self):
        with pytest.raises(ValueError):
            build_fractal(-1)
        with pytest.raises(ValueError):
            build_fractal(13)

    def test_depth0_unit_square(self):
        F = build_fractal(0)
        assert F.squares().tolist() == [[0, 0]]

    def test_depth1_tiles_both_axes(self):
        F = build_fractal(1)
        sq = F.squares()
        assert sorted(sq[:, 0].tolist()) == [0, 1, 2, 3]
        assert sorted(sq[:, 1].tolist()) == [0, 1, 2, 3]

    def test_depth2_all_invariants(self):
        F = build_fractal(2)
        sq = F.squares()
        assert sq.shape == (16, 2)
        assert sorted(sq[:, 0].tolist()) == list(range(16))
        assert sorted(sq[:, 1].tolist()) == list(range(16))

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_offsets_are_permutations(self, depth):
        b = column_offsets(depth)
        assert np.array_equal(np.sort(b), np.arange(4 ** depth))

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_nesting_in_parents(self, depth):
        # each depth square sits inside its parent square (exact integers)
        b = column_offsets(depth)
        bp = column_offsets(depth - 1)
        for a in range(4 ** depth):
            pa = a >> 2
            assert pa * 4 <= a < (pa + 1) * 4
            assert bp[pa] * 4 <= b[a] < (bp[pa] + 1) * 4

    @pytest.mark.parametrize("depth", range(7))
    def test_offsets_match_scalar_column_offset(self, depth):
        expected = [column_offset(depth, a) for a in range(4 ** depth)]
        assert column_offsets(depth).tolist() == expected


class TestSelfSimilarRecursions:
    """The level recursions against brute force over the depth-i squares."""

    @pytest.mark.parametrize("c1, c2, length", [(0, 1, 1), (1, 2, 3), (2, 1, 3)])
    @pytest.mark.parametrize("depth", range(8))
    def test_projection_units_count_covered_cells(self, depth, c1, c2, length):
        sq = build_fractal(depth).squares()
        starts = c1 * sq[:, 0] + c2 * sq[:, 1]
        cells = np.unique(starts[:, None] + np.arange(length))
        assert _projection_units(depth, c1, c2, length) == cells.size

    @pytest.mark.parametrize("depth", range(8))
    def test_total_variation_sums_clipped_gaps(self, depth):
        gaps = np.clip(np.abs(np.diff(column_offsets(depth))) - 1, 0, None)
        assert min_total_variation(build_fractal(depth)) == \
            Fraction(int(gaps.sum()), 4 ** depth)

    def test_cli_builds_no_offsets_array(self, tmp_path, monkeypatch):
        def refuse(depth):
            raise AssertionError("column_offsets called")

        monkeypatch.setattr(fractal, "column_offsets", refuse)
        assert cli.main(["fractal", "--depth-min", "0", "--depth-max", "12",
                         "--diag", "projections", "--diag", "tv",
                         "--out", str(tmp_path)]) == 0


class TestDistance:
    def test_outside_unit_square(self):
        F = build_fractal(0)
        lo, hi = dist_bounds(F, (2.0, 0.5))
        assert lo == 1.0 and hi == pytest.approx(1.0 + SQRT2)

    def test_inside_square_lo_zero(self):
        F = build_fractal(3)
        z = chain_point(F, 0.3)
        lo, hi = dist_bounds(F, z)
        assert lo == 0.0 and hi == pytest.approx(SQRT2 * 4.0 ** -3)

    def test_below_bounding_box(self):
        for depth in (0, 4, 8):
            lo, _ = dist_bounds(build_fractal(depth), (0.5, -1.0))
            assert lo >= 1.0

    def test_distance_sandwich_random(self):
        rng = np.random.Generator(np.random.Philox(37))
        Fs = [build_fractal(d) for d in range(7)]
        for _ in range(200):
            z = rng.uniform(-1.0, 2.0, size=2)
            prev = -1.0
            for d, F in enumerate(Fs):
                lo, hi = dist_bounds(F, z)
                assert lo >= prev - 1e-12  # nested sets: distance grows
                assert hi - lo == pytest.approx(SQRT2 * 4.0 ** -d)
                prev = lo

    def test_nearest_square_deterministic(self):
        F = build_fractal(5)
        a = nearest_square(F, (0.4, 0.6))
        b = nearest_square(F, (0.4, 0.6))
        assert a[0] == b[0] and a[1] == b[1]


class TestGBounds:
    def test_inside_square_upper_is_x(self):
        F = build_fractal(4)
        z = chain_point(F, 0.3)
        lo, hi = g_eval_bounds(F, z[0], z[1])
        assert hi == pytest.approx(z[0])
        assert lo >= z[0] - 2 * SQRT2 * 4.0 ** -4 - 1e-15

    def test_far_point(self):
        F = build_fractal(2)
        lo, hi = g_eval_bounds(F, 0.5, -1.0)
        assert hi <= 0.5 - 2.0

    def test_value_identity_bracketing(self):
        # max_y g(x, y) = x: the chain point's bounds bracket x
        rng = np.random.Generator(np.random.Philox(41))
        for depth in (2, 5):
            F = build_fractal(depth)
            width = 2 * SQRT2 * 4.0 ** -depth
            for xv in rng.uniform(0.0, 1.0, 100):
                z = chain_point(F, xv)
                lo, hi = g_eval_bounds(F, z[0], z[1])
                assert lo <= xv <= hi + 1e-15
                assert hi - lo <= width + 1e-15


class TestColumnChains:
    def test_generic_point_single_chain(self):
        cc = column_chains(build_fractal(3), 0.1)
        assert len(cc.chains) == 1

    def test_boundary_two_chains_disjoint(self):
        for depth in (1, 2, 4):
            cc = column_chains(build_fractal(depth), 0.25)
            assert len(cc.chains) == 2
            a, b = cc.chains
            assert a.y_hi <= b.y_lo or b.y_hi <= a.y_lo

    def test_edges_single_chain(self):
        for x in (0.0, 1.0):
            cc = column_chains(build_fractal(4), x)
            assert len(cc.chains) == 1

    def test_chain_nesting(self):
        cc = column_chains(build_fractal(6), 0.7)
        cols = cc.chains[0].columns
        for (a0, b0), (a1, b1) in zip(cols, cols[1:]):
            assert a0 * 4 <= a1 < (a0 + 1) * 4
            assert b0 * 4 <= b1 < (b0 + 1) * 4

    def test_dichotomy_at_boundaries_and_random(self):
        depth = 4
        F = build_fractal(depth)
        n = 4 ** depth
        for k in range(1, n):
            cc = column_chains(F, Fraction(k, n))
            assert len(cc.chains) == 2
        rng = np.random.Generator(np.random.Philox(43))
        for xv in rng.uniform(0.0, 1.0, 100):
            if (Fraction(float(xv)) * n).denominator == 1:
                continue
            assert len(column_chains(F, float(xv)).chains) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            column_chains(build_fractal(2), 1.5)


class TestProjections:
    @pytest.mark.parametrize("depth", range(9))
    def test_axis_projections_exactly_one(self, depth):
        F = build_fractal(depth)
        assert axis_projection_length(F, "x") == Fraction(1)
        assert axis_projection_length(F, "y") == Fraction(1)

    def test_depth0_rotated(self):
        F = build_fractal(0)
        assert rotated_projection_length(F, (1, 2)) == pytest.approx(3 / math.sqrt(5))

    def test_rotated_strictly_decreasing(self):
        for direction in ((1, 2), (2, 1)):
            vals = [rotated_projection_length(build_fractal(d), direction)
                    for d in range(9)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_depth8_small_fraction_of_depth0(self):
        v0 = rotated_projection_length(build_fractal(0), (1, 2))
        v8 = rotated_projection_length(build_fractal(8), (1, 2))
        assert v8 <= 0.2 * v0

    def test_normalized_direction_accepted(self):
        F = build_fractal(1)
        unit = np.array([1.0, 2.0]) / math.sqrt(5.0)
        assert rotated_projection_length(F, unit) == pytest.approx(
            rotated_projection_length(F, (1, 2)))

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            rotated_projection_length(build_fractal(1), (1, 1))


class TestTotalVariation:
    def test_depth0(self):
        assert min_total_variation(build_fractal(0)) == 0

    def test_depth1_exact(self):
        assert min_total_variation(build_fractal(1)) == Fraction(1)

    def test_grows_at_least_linearly(self):
        prev = Fraction(-1)
        for depth in range(7):
            tv = min_total_variation(build_fractal(depth))
            assert tv >= depth
            assert tv >= prev
            prev = tv


class TestProbes:
    def test_interior_small_radius_errors(self):
        F = build_fractal(0)
        with pytest.raises(ProbeError):
            subdiff_probe(F, (0.5, 0.5), 0.1, 16)

    def test_corner_quarter_arc(self):
        F = build_fractal(0)
        pr = subdiff_probe(F, (0.0, 0.0), 0.1, 64)
        # exterior directions live in the third-quadrant arc (plus edges)
        assert np.all(pr.directions[:, 0] <= 1e-12)
        assert np.all(pr.directions[:, 1] <= 1e-12)
        assert pr.max_angular_gap == pytest.approx(1.5 * math.pi, abs=0.2)

    def test_gap_shrinks_depth2_to_depth6(self):
        gaps = {}
        for depth in (2, 6):
            F = build_fractal(depth)
            z = chain_point(F, 0.5)
            pr = subdiff_probe(F, z, probe_radius(depth), 64)
            gaps[depth] = pr.max_angular_gap
        assert gaps[6] < gaps[2]

    def test_n_dirs_guard(self):
        with pytest.raises(ValueError):
            subdiff_probe(build_fractal(1), (0.5, 0.5), 0.5, 4)

    def test_contains_point_boundary(self):
        F = build_fractal(1)
        # column 0 has y-quarter 1: square [0, 1/4] x [1/4, 1/2]
        assert contains_point(F, (0.0, 0.25))
        assert contains_point(F, (0.125, 0.5))
        assert not contains_point(F, (0.125, 0.6))
        assert not contains_point(F, (-0.1, 0.3))


class TestGPoSample:
    def test_depth0_interior_atom(self):
        po = g_po_sample(build_fractal(0), 0.5)
        assert po.atoms.atoms.tolist() == [[1.0]]

    def test_depth8_hull_in_limit_interval(self):
        tau = 1e-9
        po = g_po_sample(build_fractal(8), 0.5, tau=tau)
        atoms = po.atoms.atoms.ravel()
        assert atoms.min() >= -1.0 - tau
        assert atoms.max() <= 3.0 + tau

    def test_contains_interior_atom(self):
        po = g_po_sample(build_fractal(4), 0.5)
        assert np.any(np.isclose(po.atoms.atoms.ravel(), 1.0))

    def test_min_norm_vanishes_from_depth_two(self):
        # the probe fan saturates the sampled hull: 0 is inside at depth >= 2
        for depth in (2, 4):
            assert g_po_min_norm(build_fractal(depth), 0.5) <= 1e-9
