"""Partial-maximization oracles and the parametric-optimality atom extractor.

``argmax_grid_refine`` is the generic oracle: a lattice scan of F(x, .)
over a box followed by coordinate-wise golden-section ascent (derivative
free, so kinks do not break it) and candidate snapping onto round numbers,
which lets maximizers land exactly on representable kink locations.
Closed-form maximizers live on each problem's ``ProblemSpec``; ``ridge``
picks one or the other.  ``po_sample`` turns maximizers into descent-atom
candidates u with (u, 0) in the subdifferential of F: pure branches whose
y-block already vanishes are admitted directly, and a min-norm combination
over branch y-blocks recovers atoms that only a convex combination of
branches achieves (the envelope objective is the canonical case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from . import hull as _hull

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# decimals for _snap (ascending) and ridge._certify_candidates (descending)
_ROUND_DIGITS = (0, 1, 2, 3, 4, 6, 8, 10, 12)


class EmptyPOSample(RuntimeError):
    """No atom passed the y-block residual tolerance for any maximizer.

    An exact atom always exists, so this signals numerical settings (grid
    resolution, tau_y, kink tolerance), not a missing one.
    """


@dataclass(frozen=True)
class YBox:
    """Per-coordinate bounds for the inner maximization variable."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box must have finite volume")
        if not np.all(lo < hi):
            raise ValueError("box requires lower < upper componentwise")

    @property
    def r(self) -> int:
        return self.lower.shape[0]

    def touches(self, y: np.ndarray, delta: float) -> bool:
        """Whether y lies within delta of a face of the box."""
        return bool(np.any(y - self.lower <= delta)
                    or np.any(self.upper - y <= delta))


@dataclass
class ArgmaxResult:
    """Candidate maximizer set of F(x, .) with the attained value.

    ``boundary_flag`` warns that a maximizer touches the box boundary
    (within delta_box), where the local-boundedness assumption on the
    argmax may fail.  ``segment`` marks a continuum of maximizers reported
    by its endpoints (closed-form oracles only).
    """

    maximizers: list[np.ndarray]
    value: float
    boundary_flag: bool
    multiplicity_tol: float
    segment: bool = False


@dataclass
class POAtomProvenance:
    y: np.ndarray
    residual: float


@dataclass
class POSample:
    """Descent-atom candidates with per-atom provenance.

    Atoms are deduplicated and sorted lexicographically, so the sample is
    invariant under reordering of the maximizers.  ``incomplete`` inherits
    branch-enumeration overflow from subdiff_sample.
    """

    atoms: _hull.AtomSet
    provenance: list[POAtomProvenance]
    incomplete: bool = False

    @classmethod
    def build(cls, found, incomplete: bool = False) -> "POSample":
        """Sample from (u, y, residual) triples: atoms sorted, exact
        duplicates merged, each keeping its lowest-residual provenance."""
        atoms: list[np.ndarray] = []
        prov: list[POAtomProvenance] = []
        for u, y, res in sorted(found, key=lambda t: tuple(t[0])):
            if atoms and np.array_equal(atoms[-1], u):
                if res < prov[-1].residual:
                    prov[-1] = POAtomProvenance(y=y, residual=res)
                continue
            atoms.append(u)
            prov.append(POAtomProvenance(y=y, residual=res))
        return cls(atoms=_hull.AtomSet(np.stack(atoms)), provenance=prov,
                   incomplete=incomplete)


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi]; returns (arg, value)."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    m = 0.5 * (a + b)
    return m, f(m)


def _snap(prog: _expr.ExprProgram, x: np.ndarray, y: np.ndarray, fy: float,
          box: YBox) -> tuple[np.ndarray, float]:
    """Round y to the coarsest nearby point that does not lose value.

    Benchmark kinks sit at exactly representable coordinates; ascent alone
    stops within tol of them, which is enough for values but not for kink
    activation.  Rounding toward a kink or plateau never loses value (the
    local growth is linear), so a candidate is accepted only when its value
    is no worse than fp noise; smooth interior maxima reject all roundings
    beyond the ascent resolution (quadratic loss) and keep the exact ascent
    point, whose gradient residual is already tiny.
    """
    slack = 8.0 * np.finfo(float).eps * max(1.0, abs(fy))
    for digits in _ROUND_DIGITS:
        cand = np.round(y, digits)
        if np.any(cand < box.lower) or np.any(cand > box.upper):
            continue
        fc = _expr.eval(prog, x, cand)
        if fc >= fy - slack:
            return cand, fc
    return y, fy


def argmax_grid_refine(prog: _expr.ExprProgram, x, box: YBox,
                       grid_n: int = 64, n_starts: int = 8,
                       tol_y: float = 1e-10, delta_f: float = 1e-8,
                       delta_y: float = 1e-6,
                       delta_box: float = 1e-9) -> ArgmaxResult:
    """Grid scan plus local ascent approximation of the argmax set.

    Evaluates F(x, .) on a grid_n^r lattice, launches coordinate-wise
    golden-section ascent from the n_starts best cells (spread evenly over
    ties, so flat objectives report well-separated maximizers), and keeps
    every distinct local optimum within delta_f of the best.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    r = box.r
    if r > 3:
        raise ValueError("grid oracle supports r <= 3")
    x = np.asarray(x, dtype=float)

    axes = [np.linspace(box.lower[j], box.upper[j], grid_n) for j in range(r)]
    mesh = np.meshgrid(*axes, indexing="ij")
    ys = np.stack([m.ravel() for m in mesh], axis=1)
    vals = _expr.eval_many(prog, x, ys)
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective evaluated to a nonfinite value on the grid")

    best = float(np.max(vals))
    tied = np.flatnonzero(vals >= best - delta_f)
    if tied.size > n_starts:
        pick = tied[np.round(np.linspace(0, tied.size - 1, n_starts)).astype(int)]
    else:
        order = np.argsort(-vals, kind="stable")
        pick = order[:n_starts]

    # the ascent calls the generated scalar function on Python floats;
    # eval_many has checked the dimensions
    f = prog.scalar
    xl = x.tolist()
    lower, upper = box.lower.tolist(), box.upper.tolist()
    cell = [(upper[j] - lower[j]) / (grid_n - 1) for j in range(r)]
    candidates: list[tuple[np.ndarray, float]] = []
    for idx in pick:
        y = ys[idx].tolist()
        fy = float(vals[idx])
        for _ in range(3 * r):
            improved = False
            for j in range(r):
                lo = max(lower[j], y[j] - cell[j])
                hi = min(upper[j], y[j] + cell[j])
                yt = y.copy()

                def f1(t, j=j, yt=yt):
                    yt[j] = t
                    return f(xl, yt)

                t, ft = _golden_max(f1, lo, hi, tol_y)
                if ft > fy + 1e-15:
                    y[j] = t
                    fy = ft
                    improved = True
            if not improved:
                break
        candidates.append(_snap(prog, x, np.array(y), fy, box))

    best_val = max(fv for _, fv in candidates)
    kept: list[np.ndarray] = []
    for y, fy in candidates:
        if fy < best_val - delta_f:
            continue
        if any(np.linalg.norm(y - z) <= delta_y for z in kept):
            continue
        kept.append(y)
    kept.sort(key=lambda z: tuple(z))

    boundary = any(box.touches(z, delta_box) for z in kept)
    return ArgmaxResult(maximizers=kept, value=best_val, boundary_flag=boundary,
                        multiplicity_tol=delta_f)


def _segment_interior(ys: list[np.ndarray]) -> list[np.ndarray]:
    lo = min(float(y[0]) for y in ys)
    hi = max(float(y[0]) for y in ys)
    return [np.array([lo + t * (hi - lo)]) for t in (0.25, 0.5, 0.75)]


def po_sample(prog: _expr.ExprProgram, x, am: ArgmaxResult,
              tau_y: float = 1e-7, max_branches: int = 64,
              eps_kink: float = 0.0) -> POSample:
    """Extract PO atoms u with (u, 0) in the subdifferential at maximizers.

    For each maximizer y the branch gradients {(u_j, v_j)} are collected;
    every pure branch with ||v_j|| <= tau_y is an atom, and the min-norm
    point of conv{v_j} recovers combination atoms u = sum mu_j u_j whenever
    the branches can cancel their y-blocks only jointly.  Flagged maximizer
    segments are additionally sampled at three interior points.

    Raises EmptyPOSample when nothing passes tau_y for any maximizer.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in am.maximizers]
    if am.segment and prog.dim_y == 1 and len(ys) >= 2:
        ys = ys + _segment_interior(ys)

    found: list[tuple[np.ndarray, np.ndarray, float]] = []  # (u, y, residual)
    incomplete = False
    for y in ys:
        ss = _expr.subdiff_sample(prog, x, y, max_branches, eps_kink)
        incomplete = incomplete or ss.incomplete
        els = ss.elements
        for el in els:
            res = float(np.linalg.norm(el.v))
            if res <= tau_y:
                found.append((el.u.copy(), y, res))
        if len(els) > 1:
            V = np.stack([el.v for el in els])
            cert = _hull.min_norm_point(V, tol=1e-12)
            if cert.norm <= tau_y:
                # cert weights live on deduplicated V rows; credit each to
                # the first branch with that exact v-block
                U = np.stack([el.u for el in els])
                w_full = np.zeros(len(els))
                for k in range(cert.atoms.shape[0]):
                    i = next(i for i, v in enumerate(V)
                             if np.array_equal(v, cert.atoms[k]))
                    w_full[i] = cert.weights[k]
                u = w_full @ U
                found.append((u, y, cert.norm))

    if not found:
        raise EmptyPOSample(
            f"no PO atom within tau_y={tau_y} at x={x.tolist()}; "
            "an exact atom exists, so check oracle resolution and tolerances")

    return POSample.build(found, incomplete)
