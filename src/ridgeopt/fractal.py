"""Finite-depth approximations of a pathological fractal square set.

The set is built recursively from the unit square: each square splits into
four children of one-fourth size, one per x-column (left to right), with
y-quarters given by the fixed permutation SIGMA = (1, 3, 0, 2).  At depth
i the set C_i is a union of 4^i squares of side 4^-i, exactly one per
x-column, so C_i is the thickened graph of a bijection on the column grid.
This placement tiles both axis projections, strictly shrinks the rotated
projections onto (1,2)/sqrt(5) and (2,1)/sqrt(5), and forces any function
whose graph lies in C_i to have total variation that grows with depth.

The value function of g(x, y) = -2*dist((x,y), C) + x is the identity on
[0, 1] while the sampled subgradient structure at maximizers inflates as
depth grows: all limit-set claims are exposed here as computable
finite-depth quantities (certified distance bounds, interval sweeps, a DP
variation bound, and circle probes of the distance function's gradients).

Square corners are exact dyadic rationals: all set operations run on
integers scaled by 4^depth, floats appear only in distances and probes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hull as _hull
from . import oracles as _oracles

SIGMA = (1, 3, 0, 2)
MAX_DEPTH = 12
SQRT2 = math.sqrt(2.0)


class ProbeError(RuntimeError):
    """All probe points fell inside the set (radius too small)."""


@dataclass(frozen=True)
class FractalSet:
    """Depth-i quadtree approximation; immutable, queries are read-only."""

    depth: int

    @property
    def side(self) -> float:
        return 4.0 ** (-self.depth)

    def squares(self, level: int | None = None) -> np.ndarray:
        """(4^m, 2) integer corners (a, b): square [a, a+1]x[b, b+1] / 4^m."""
        m = self.depth if level is None else level
        if not 0 <= m <= self.depth:
            raise ValueError("level out of range")
        a = np.arange(4 ** m, dtype=np.int64)
        return np.stack([a, column_offsets(m)], axis=1)


def build_fractal(depth: int) -> FractalSet:
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in [0, {MAX_DEPTH}]")
    return FractalSet(depth)


def column_offset(depth: int, a: int) -> int:
    """y-corner (in units of 4^-depth) of the square in column a."""
    b = 0
    for lev in range(depth):
        digit = (a >> (2 * (depth - 1 - lev))) & 3
        b = (b << 2) | SIGMA[digit]
    return b


def column_offsets(depth: int) -> np.ndarray:
    """Vectorized column_offset for all 4^depth columns.

    Built level by level: column 4a+j one level down lies in y-quarter
    SIGMA[j] of column a, so each level is one broadcast over 4x the
    columns of the last, O(4^depth) work in all.
    """
    sig = np.array(SIGMA, dtype=np.int64)
    b = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        b = ((b << 2)[:, None] | sig).ravel()
    return b


# ---------------------------------------------------------------------------
# Column chains
# ---------------------------------------------------------------------------

@dataclass
class Chain:
    """Nested square sequence over one column containing a vertical line."""

    columns: list[tuple[int, int]]  # (a, b) per level 0..depth
    y_lo: Fraction
    y_hi: Fraction


@dataclass
class ColumnChain:
    x: Fraction
    depth: int
    chains: list[Chain]


def _columns_at(depth: int, x: Fraction) -> list[int]:
    """Columns whose closed x-interval contains x; one, or two at a boundary."""
    n = 4 ** depth
    t = x * n
    if t.denominator == 1:
        k = int(t)
        cols = [c for c in (k - 1, k) if 0 <= c < n]
        return cols
    return [int(t)]  # floor; t has nonzero fractional part


def column_chains(F: FractalSet, x) -> ColumnChain:
    """Chains of nested squares meeting the vertical line at x.

    Returns one chain, or two when x is a column boundary at some level
    (shared edges make both adjacent columns' squares contain x).  Chains
    are sorted by their y-interval, which localizes arg max_y g(x, .) to
    width 4^-depth.
    """
    xf = Fraction(x)
    if not 0 <= xf <= 1:
        raise ValueError("x must lie in [0, 1]")
    n = 4 ** F.depth
    chains = []
    for a in _columns_at(F.depth, xf):
        cols = []
        for m in range(F.depth + 1):
            am = a >> (2 * (F.depth - m))
            cols.append((am, column_offset(m, am)))
        b = cols[-1][1]
        chains.append(Chain(columns=cols, y_lo=Fraction(b, n),
                            y_hi=Fraction(b + 1, n)))
    chains.sort(key=lambda c: c.y_lo)
    return ColumnChain(x=xf, depth=F.depth, chains=chains)


def chain_point(F: FractalSet, x) -> np.ndarray:
    """Midpoint of the lowest chain's leaf square on the line at x."""
    cc = column_chains(F, x)
    ch = cc.chains[0]
    return np.array([float(Fraction(x)), float((ch.y_lo + ch.y_hi) / 2)])


def contains_point(F: FractalSet, z) -> bool:
    """Exact closed-set membership of a point in C_depth."""
    zx, zy = Fraction(z[0]), Fraction(z[1])
    if not (0 <= zx <= 1 and 0 <= zy <= 1):
        return False
    n = 4 ** F.depth
    for a in _columns_at(F.depth, zx):
        b = column_offset(F.depth, a)
        if Fraction(b, n) <= zy <= Fraction(b + 1, n):
            return True
    return False


# ---------------------------------------------------------------------------
# Distance queries
# ---------------------------------------------------------------------------

def _sqdist_to_square(zx: float, zy: float, a: int, b: int, side: float) -> float:
    dx = max(a * side - zx, 0.0, zx - (a + 1) * side)
    dy = max(b * side - zy, 0.0, zy - (b + 1) * side)
    return dx * dx + dy * dy


def nearest_square(F: FractalSet, z) -> tuple[float, tuple[int, int], np.ndarray]:
    """Best-first branch-and-bound nearest-square query.

    Returns (distance, (a, b) of the nearest depth-i square, nearest point).
    Internal nodes contain their children, so the node's box distance lower
    bounds every descendant; the first leaf popped from the heap is optimal.
    Ties break by (level, a, b), keeping results deterministic.
    """
    zx, zy = float(z[0]), float(z[1])
    heap = [(_sqdist_to_square(zx, zy, 0, 0, 1.0), 0, 0, 0)]
    while heap:
        d2, lev, a, b = heapq.heappop(heap)
        if lev == F.depth:
            side = 4.0 ** (-lev)
            px = min(max(zx, a * side), (a + 1) * side)
            py = min(max(zy, b * side), (b + 1) * side)
            return math.sqrt(d2), (a, b), np.array([px, py])
        side = 4.0 ** (-(lev + 1))
        for j in range(4):
            ca, cb = 4 * a + j, 4 * b + SIGMA[j]
            heapq.heappush(heap, (_sqdist_to_square(zx, zy, ca, cb, side),
                                  lev + 1, ca, cb))
    raise RuntimeError("unreachable: quadtree search exhausted")


def dist_bounds(F: FractalSet, z) -> tuple[float, float]:
    """Certified bounds lo <= dist(z, C) <= hi with hi - lo <= sqrt(2)*4^-i.

    lo is the exact distance to C_i (a superset of C); every depth-i square
    meets C, so the nearest square's diameter bounds the overshoot.
    """
    lo, _, _ = nearest_square(F, z)
    return lo, lo + SQRT2 * F.side


def g_eval_bounds(F: FractalSet, x, y) -> tuple[float, float]:
    """Bounds on g(x, y) = 2*f(x, y) + x where f = -dist(., C)."""
    lo_d, hi_d = dist_bounds(F, (x, y))
    return float(x) - 2.0 * hi_d, float(x) - 2.0 * lo_d


# ---------------------------------------------------------------------------
# Projection sweeps and the variation bound
# ---------------------------------------------------------------------------

def _projection_units(depth: int, c1: int, c2: int, length: int) -> int:
    """Unit cells covered by the projections of C_depth's squares onto (c1, c2).

    Square [a, a+1]x[b, b+1] (units of 4^-depth) covers the unit cells
    c1*a + c2*b + k, k < length.  C_{m+1} is four copies of C_m, the copy
    in column quarter j shifted by 4^m*(c1*j + c2*SIGMA[j]) cells of
    4^-(m+1), so the covered-cell bitmap of level m+1 is the OR of four
    shifted copies of that of level m, starting from the `length` cells of
    the unit square.
    """
    covered = np.ones(length, dtype=bool)
    for m in range(depth):
        shifts = [4 ** m * (c1 * j + c2 * s) for j, s in enumerate(SIGMA)]
        lo = min(shifts)
        grown = np.zeros(max(shifts) - lo + covered.size, dtype=bool)
        for shift in shifts:
            grown[shift - lo:shift - lo + covered.size] |= covered
        covered = grown
    return int(np.count_nonzero(covered))


def axis_projection_length(F: FractalSet, axis: str) -> Fraction:
    """Exact length of the union of axis projections of the depth-i squares."""
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if axis == "x":
        return Fraction(1)  # one square per column: the x-projections tile [0, 1]
    return Fraction(_projection_units(F.depth, 0, 1, 1), 4 ** F.depth)


_DIRECTIONS = ((1, 2), (2, 1))


def _direction_key(direction) -> tuple[int, int]:
    d = np.asarray(direction, dtype=float).ravel()
    if d.shape != (2,):
        raise ValueError("direction must be a 2-vector")
    scale = math.sqrt(5.0)
    for key in _DIRECTIONS:
        unit = np.array(key) / scale
        if np.allclose(d, unit) or (d[0] == key[0] and d[1] == key[1]):
            return key
    raise ValueError("direction must be (1,2)/sqrt(5) or (2,1)/sqrt(5)")


def rotated_projection_units(F: FractalSet, direction) -> int:
    """Union length of projections in integer units of 4^-i / sqrt(5)."""
    c1, c2 = _direction_key(direction)
    return _projection_units(F.depth, c1, c2, 3)


def rotated_projection_length(F: FractalSet, direction) -> float:
    """Length of the projection union onto a rotated axis (arctan 2).

    A square [a, a+1]x[b, b+1] (units of 4^-i) projects onto direction
    (c1, c2)/sqrt(5) as the interval [c1*a + c2*b, c1*a + c2*b + 3] in units
    of 4^-i/sqrt(5); the covered cells are counted exactly in integers.
    """
    units = rotated_projection_units(F, direction)
    return units * 4.0 ** (-F.depth) / math.sqrt(5.0)


def min_total_variation(F: FractalSet) -> Fraction:
    """Lower bound on the variation of any function with graph in C_i.

    The x-projections tile [0, 1], so the column order is forced; crossing
    from column a to a+1 costs at least the gap between their y-intervals.
    The sum of gaps is exact in units of 4^-i.  The column offsets of
    C_{m+1} are those of C_m repeated in four quarters, quarter j raised
    by 4^m*SIGMA[j]: each level keeps four copies of the last level's gaps
    and adds the three between the last offset of one quarter and the first
    of the next, so only the first and last offsets are carried.
    """
    tv = first = last = 0
    for m in range(F.depth):
        step = 4 ** m
        tv = 4 * tv + sum(max(abs(step * (s1 - s0) + first - last) - 1, 0)
                          for s0, s1 in zip(SIGMA, SIGMA[1:]))
        first += step * SIGMA[0]
        last += step * SIGMA[-1]
    return Fraction(tv, 4 ** F.depth)


# ---------------------------------------------------------------------------
# Subdifferential probes and the sampled PO hull
# ---------------------------------------------------------------------------

@dataclass
class ProbeResult:
    """Nearest-point directions from exterior probe points on a circle."""

    directions: np.ndarray  # (m, 2) unit vectors
    angles: np.ndarray      # sorted, radians in (-pi, pi]
    max_angular_gap: float
    n_interior: int


def subdiff_probe(F: FractalSet, z, rho: float, n_dirs: int,
                  phase: float = 0.5) -> ProbeResult:
    """Sample gradient directions of dist(., C_i) on the rho-circle at z.

    Probe points z' = z + rho*(cos t, sin t) that fall outside C_i yield
    unit directions (z' - proj(z'))/dist; these are (negated) gradients of
    f = -dist at the probes and approximate the limiting-gradient set at z.
    Probe angles are offset by ``phase`` half-steps to avoid degenerate
    axis-aligned stencils.  The radius should exceed the finest square side
    4^-depth so probes clear the local square (see ``probe_radius``); when
    it does not, every probe can land inside C_i, which raises ProbeError.
    """
    if n_dirs < 8:
        raise ValueError("n_dirs must be >= 8")
    if not rho > 0:
        raise ValueError("rho must be > 0")
    z = np.asarray(z, dtype=float)
    dirs = []
    n_interior = 0
    for k in range(n_dirs):
        t = 2.0 * math.pi * (k + phase) / n_dirs
        zp = z + rho * np.array([math.cos(t), math.sin(t)])
        if contains_point(F, zp):
            n_interior += 1
            continue
        dist, _, proj = nearest_square(F, zp)
        if dist == 0.0:
            n_interior += 1
            continue
        dirs.append((zp - proj) / dist)
    if not dirs:
        raise ProbeError("all probe points lie inside the set; increase rho")
    directions = np.stack(dirs)
    angles = np.sort(np.arctan2(directions[:, 1], directions[:, 0]))
    if len(angles) == 1:
        gap = 2.0 * math.pi
    else:
        diffs = np.diff(angles)
        wrap = angles[0] + 2.0 * math.pi - angles[-1]
        gap = float(max(np.max(diffs), wrap))
    return ProbeResult(directions=directions, angles=angles,
                       max_angular_gap=gap, n_interior=n_interior)


def probe_radius(depth: int) -> float:
    """Default probe radius 2^-depth: shrinks toward the probe point while
    growing relative to the square side 4^-depth, so deeper probes resolve
    the limit set at finer scales with relatively wider coverage."""
    return 2.0 ** (-depth)


def g_po_sample(F: FractalSet, x, tau: float = 1e-9, n_dirs: int = 64,
                rho: float | None = None) -> _oracles.POSample:
    """Sampled PO atoms of g(x, y) = 2*f(x, y) + x at the maximizer chain.

    The maximizer of g(x, .) is localized by the column chain; inside the
    chain square the local model of f is flat, contributing the atom 1
    (the gradient of g there is (1, 0)).  At depth >= 1 circle probes
    around the chain point sample f-subgradient directions d and each
    contributes the atom 2*d_x + 1.  The atom hull sits inside [-1, 3]
    (up to tau) and contains 0 once the probes see both faces of the chain
    column, which happens at every depth >= 2: the ridge method stalls on
    this objective exactly as the limit analysis predicts.
    """
    cc = column_chains(F, x)
    ch = cc.chains[0]
    zy = float((ch.y_lo + ch.y_hi) / 2)
    z = np.array([float(Fraction(x)), zy])

    y = np.array([zy])
    found = [(np.array([1.0]), y, 0.0)]
    if F.depth >= 1:
        pr = subdiff_probe(F, z, probe_radius(F.depth) if rho is None else rho,
                           n_dirs)
        found += [(np.array([2.0 * float(d[0]) + 1.0]), y, 0.0)
                  for d in pr.directions]
    return _oracles.POSample.build(found)


def g_po_min_norm(F: FractalSet, x, tau: float = 1e-9, n_dirs: int = 64,
                  rho: float | None = None) -> float:
    """Min-norm of the sampled PO hull at the chain point of x."""
    po = g_po_sample(F, x, tau=tau, n_dirs=n_dirs, rho=rho)
    cert = _hull.min_norm_point(po.atoms.atoms, tol=max(tau, 1e-12))
    return cert.norm
