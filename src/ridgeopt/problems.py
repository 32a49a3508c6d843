"""Registry of benchmark min-max problems.

Each problem bundles an expression program, a y-box for the generic grid
oracle, and, where available, a closed-form argmax and a known value
function used for registration validation.  The nonsmooth entries each
isolate one failure or necessity phenomenon of the parametric-optimality
construction:

* ``smooth_saddle``      - F = x*y - y^2/2, a smooth strongly concave inner
  problem; f(x) = x^2/2, the sanity baseline.
* ``convex_hull_necessary`` - F = clamp(x)*y - 2*||y|-1| with
  clamp(x) = max(-1, min(1, x)); f(x) = min(|x|, 1).  At x = 0 the two
  maximizers contribute atoms +1 and -1: only their convex hull contains 0,
  so hulling is required to certify the minimizer.
* ``envelope_gap``       - F = -|x - y|; f is identically 0.  No single
  branch at the maximizer y = x has a vanishing y-block, so atom extraction
  must combine branches; the resulting atom set {0} is strictly finer than
  the naive x-partial interval [-1, 1].
* ``po_failure``         - F = min(0, y) - y*min(|x|, 1) on box [0, 3];
  f is identically 0, but at x = 0 the whole box maximizes and the PO hull
  inflates to [-3, 3] while the true derivative is 0.  The box is chosen so
  the maximizer set touches the boundary and trips the boundary warning.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from . import oracles as _oracles


@dataclass
class ProblemSpec:
    id: str
    prog: _expr.ExprProgram
    box: _oracles.YBox
    closed_form_argmax: Optional[Callable] = None
    known_value: Optional[Callable[[float], float]] = None
    known_critical_points: Optional[list[float]] = None
    validation_range: tuple[float, float] = (-2.0, 2.0)
    notes: str = ""


def _am(maximizers, value, box, delta_box, segment=False):
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in maximizers]
    flag = any(box.touches(y, delta_box) for y in ys)
    return _oracles.ArgmaxResult(maximizers=ys, value=float(value),
                                 boundary_flag=flag, multiplicity_tol=1e-8,
                                 segment=segment)


def _smooth_saddle_argmax(x, box, delta_box):
    y = min(max(float(x[0]), float(box.lower[0])), float(box.upper[0]))
    return _am([[y]], float(x[0]) * y - 0.5 * y * y, box, delta_box)


def _convex_hull_argmax(x, box, delta_box):
    # piecewise linear in y: the max sits at a kink (0, +-1) or box endpoint
    c = min(1.0, max(-1.0, float(x[0])))
    lo, hi = float(box.lower[0]), float(box.upper[0])
    cands = sorted({lo, hi} | {v for v in (-1.0, 0.0, 1.0) if lo <= v <= hi})
    vals = [c * y - 2.0 * abs(abs(y) - 1.0) for y in cands]
    best = max(vals)
    ys = [[y] for y, v in zip(cands, vals) if v == best]
    return _am(ys, best, box, delta_box)


def _envelope_argmax(x, box, delta_box):
    y = min(max(float(x[0]), float(box.lower[0])), float(box.upper[0]))
    return _am([[y]], -abs(float(x[0]) - y), box, delta_box)


def _po_failure_argmax(x, box, delta_box):
    # F(x, y) = min(0, y) - y*m with m = min(|x|, 1):
    #   y <= 0: F = y*(1 - m)  (flat when m = 1, increasing when m < 1)
    #   y >= 0: F = -y*m       (flat when m = 0, decreasing when m > 0)
    m = min(abs(float(x[0])), 1.0)
    lo, hi = float(box.lower[0]), float(box.upper[0])
    if m == 0.0:
        if hi <= 0.0:
            return _am([[hi]], hi, box, delta_box)
        lo_seg = max(lo, 0.0)
        if lo_seg == hi:
            return _am([[hi]], 0.0, box, delta_box)
        return _am([[lo_seg], [hi]], 0.0, box, delta_box, segment=True)
    if m == 1.0 and lo < 0.0:
        hi_seg = min(hi, 0.0)
        if lo == hi_seg:
            return _am([[lo]], 0.0, box, delta_box)
        return _am([[lo], [hi_seg]], 0.0, box, delta_box, segment=True)
    y = min(max(0.0, lo), hi)
    return _am([[y]], -y * m + min(0.0, y), box, delta_box)


_REGISTRY: dict[str, ProblemSpec] = {}
_VALIDATED: set[str] = set()


def _register(spec: ProblemSpec):
    _REGISTRY[spec.id] = spec


_register(ProblemSpec(
    id="smooth_saddle",
    prog=_expr.parse("x0*y0 - 0.5*pow(y0, 2)", 1, 1),
    box=_oracles.YBox(np.array([-10.0]), np.array([10.0])),
    closed_form_argmax=_smooth_saddle_argmax,
    known_value=lambda x: 0.5 * x * x,
    known_critical_points=[0.0],
    validation_range=(-5.0, 5.0),
    notes="smooth strongly concave baseline; unique maximizer y = x",
))

_register(ProblemSpec(
    id="convex_hull_necessary",
    prog=_expr.parse("max(-1, min(1, x0))*y0 - 2*abs(abs(y0) - 1)", 1, 1),
    box=_oracles.YBox(np.array([-2.0]), np.array([2.0])),
    closed_form_argmax=_convex_hull_argmax,
    known_value=lambda x: min(abs(x), 1.0),
    known_critical_points=[0.0],
    validation_range=(-2.0, 2.0),
    notes="two maximizers at x=0 give atoms {+1,-1}; certifying 0 needs the hull",
))

_register(ProblemSpec(
    id="envelope_gap",
    prog=_expr.parse("-abs(x0 - y0)", 1, 1),
    box=_oracles.YBox(np.array([-5.0]), np.array([5.0])),
    closed_form_argmax=_envelope_argmax,
    known_value=lambda x: 0.0,
    known_critical_points=None,  # every point is PO-critical
    validation_range=(-3.0, 3.0),
    notes="f == 0; PO atom {0} is strictly finer than the x-partial interval [-1,1]",
))

_register(ProblemSpec(
    id="po_failure",
    prog=_expr.parse("min(0, y0) - y0*min(abs(x0), 1)", 1, 1),
    box=_oracles.YBox(np.array([0.0]), np.array([3.0])),
    closed_form_argmax=_po_failure_argmax,
    known_value=lambda x: 0.0,
    known_critical_points=None,
    validation_range=(-2.0, 2.0),
    notes="at x=0 the PO hull inflates to [-3,3] though f' = 0; maximizer set "
          "touches the box boundary and fires the warning",
))


def list_problems() -> list[tuple[str, str]]:
    """Registered problem ids with their one-line notes."""
    return [(spec.id, spec.notes) for spec in _REGISTRY.values()]


def _validate(spec: ProblemSpec, n_points: int = 100, seed: int = 20240109):
    """Check closed form and known value against the grid oracle."""
    rng = np.random.Generator(np.random.Philox(seed))
    lo, hi = spec.validation_range
    xs = rng.uniform(lo, hi, size=(n_points, spec.prog.dim_x))
    for x in xs:
        xv = x[0] if x.shape[0] == 1 else x  # known values of p = 1 take a float
        am = _oracles.argmax_grid_refine(spec.prog, x, spec.box)
        if spec.known_value is not None:
            if abs(am.value - spec.known_value(xv)) > 1e-6:
                raise ValueError(
                    f"problem {spec.id!r}: grid value {am.value!r} disagrees "
                    f"with known value {spec.known_value(xv)!r} at x={xv!r}")
        if spec.closed_form_argmax is not None:
            cf = spec.closed_form_argmax(x, spec.box, 1e-9)
            if abs(am.value - cf.value) > 1e-8:
                raise ValueError(
                    f"problem {spec.id!r}: grid value {am.value!r} disagrees "
                    f"with closed form {cf.value!r} at x={xv!r}")


def load_problem(id_or_path: str, validate: bool = True,
                 n_validation_points: int = 100) -> ProblemSpec:
    """Load a registered problem by id, or a problem file by path.

    Registration checks (grid oracle vs closed form / known value) run once
    per process for each registered id; file-based problems are validated
    on every load.
    """
    if id_or_path in _REGISTRY:
        spec = _REGISTRY[id_or_path]
        if validate and spec.id not in _VALIDATED:
            _validate(spec, n_points=n_validation_points)
            _VALIDATED.add(spec.id)
        return spec
    if os.path.exists(id_or_path):
        spec = _load_file(id_or_path)
        if validate:
            _validate(spec, n_points=n_validation_points)
        return spec
    raise KeyError(f"unknown problem id or file: {id_or_path!r}")


def _load_file(path: str) -> ProblemSpec:
    with open(path) as fh:
        data = json.load(fh)
    for key in ("id", "dim_x", "dim_y", "expr", "box_lower", "box_upper"):
        if key not in data:
            raise ValueError(f"problem file {path!r} missing field {key!r}")
    prog = _expr.parse(data["expr"], int(data["dim_x"]), int(data["dim_y"]))
    box = _oracles.YBox(np.atleast_1d(np.asarray(data["box_lower"], dtype=float)),
                        np.atleast_1d(np.asarray(data["box_upper"], dtype=float)))
    if box.r != prog.dim_y:
        raise ValueError(f"problem file {path!r}: box has {box.r} bounds, "
                         f"dim_y is {prog.dim_y}")
    known = None
    known_text = data.get("known_value_expr")
    if known_text:
        kprog = _expr.parse(known_text, int(data["dim_x"]), 1)
        known = lambda xv, _k=kprog: _expr.eval(_k, np.atleast_1d(xv), np.zeros(1))
    rng = data.get("validation_range")
    return ProblemSpec(
        id=str(data["id"]), prog=prog, box=box, known_value=known,
        validation_range=tuple(rng) if rng else (-2.0, 2.0),
        notes=str(data.get("notes", f"loaded from {os.path.basename(path)}")),
    )
