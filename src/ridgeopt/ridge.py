"""The ridge iteration: maximize in y, step x against a PO atom.

Each step asks the problem's oracle for the maximizer set, extracts PO
atoms (u with (u, 0) in the subdifferential at a maximizer), picks one by
``atom_rule`` and applies x <- x - alpha_k * u with a diminishing,
nonsummable power schedule.  Terminal points are certified PO-critical by
solving the min-norm problem over the atom hull and reducing the witness
to at most p+1 weighted (maximizer, atom) pairs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import hull as _hull
from . import oracles as _oracles
from . import problems as _problems
from .oracles import OracleSettings

STALL_WINDOW = 50
STALL_FLOOR = 1e-12
ESCAPE_NORM = 1e6

ATOM_RULES = ("first", "min_norm_atom", "random")


@dataclass(frozen=True)
class StepSchedule:
    """alpha_k = alpha0 * (k+1)^(-gamma): positive, vanishing, nonsummable."""

    alpha0: float
    gamma: float

    def __post_init__(self):
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be > 0")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")

    def alpha(self, k: int) -> float:
        if k < 0:
            raise ValueError("k must be >= 0")
        return self.alpha0 * (k + 1) ** (-self.gamma)


@dataclass
class RunConfig:
    problem: str
    x0: list[float]
    alpha0: float = 0.5
    gamma: float = 1.0
    budget: int = 500
    atom_rule: str = "min_norm_atom"
    seed: int = 0
    tol: float = 1e-6
    oracle: OracleSettings = field(default_factory=OracleSettings)

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.atom_rule not in ATOM_RULES:
            raise ValueError(f"atom_rule must be one of {ATOM_RULES}")
        StepSchedule(self.alpha0, self.gamma)  # validates the schedule

    def schedule(self) -> StepSchedule:
        return StepSchedule(self.alpha0, self.gamma)

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Trajectory:
    """Per-iterate record of a ridge run: x_k, y_k, u_k, alpha_k, f(x_k)."""

    def __init__(self, seed: int, config_hash: str):
        self.seed = seed
        self.config_hash = config_hash
        self.ks: list[int] = []
        self.xs: list[np.ndarray] = []
        self.ys: list[np.ndarray] = []
        self.us: list[np.ndarray] = []
        self.alphas: list[float] = []
        self.fs: list[float] = []

    def append(self, k, x, y, u, alpha, f):
        self.ks.append(int(k))
        self.xs.append(np.asarray(x, dtype=float).copy())
        self.ys.append(np.asarray(y, dtype=float).copy())
        self.us.append(np.asarray(u, dtype=float).copy())
        self.alphas.append(float(alpha))
        self.fs.append(float(f))

    def __len__(self):
        return len(self.ks)

    def jsonl_lines(self):
        for k, x, y, u, a, f in zip(self.ks, self.xs, self.ys, self.us,
                                    self.alphas, self.fs):
            yield json.dumps({"k": k, "x": x.tolist(), "y": y.tolist(),
                              "u": u.tolist(), "alpha": a, "f": f})


@dataclass
class CriticalityCertificate:
    """PO-criticality verdict at x with a reduced Caratheodory witness.

    ``witness`` lists at most p+1 triples (y_i, u_i, lambda_i) with simplex
    weights whose atom combination is the min-norm hull point.
    ``vertex_min_norm`` is the smallest single-atom norm: comparing it with
    ``min_norm`` shows when certification genuinely needs the hull.
    """

    x: np.ndarray
    sample: _oracles.POSample
    cert: _hull.MinNormCertificate
    verdict: bool
    witness: list[tuple[np.ndarray, np.ndarray, float]]
    vertex_min_norm: float
    tol: float
    boundary_flag: bool = False

    @property
    def min_norm(self) -> float:
        return self.cert.norm

    def to_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "verdict": bool(self.verdict),
            "min_norm": self.cert.norm,
            "vertex_min_norm": self.vertex_min_norm,
            "tol": self.tol,
            "gap": self.cert.gap,
            "boundary_warning": bool(self.boundary_flag),
            "atoms": self.cert.atoms.tolist(),
            "weights": self.cert.weights.tolist(),
            "point": self.cert.point.tolist(),
            "witness": [{"y": y.tolist(), "u": u.tolist(), "lambda": lam}
                        for y, u, lam in self.witness],
        }


@dataclass
class RunReport:
    problem: str
    config_hash: str
    seed: int
    iterations: int
    stalled: bool
    aborted: bool
    error: str | None
    boundary_warning: bool
    escaped: bool
    x_final: list[float]
    f_final: float | None
    alpha_final: float | None
    last_window_oscillation: float | None
    certificate: dict | None
    certified_point: list[float] | None
    certified_distance: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _resolve_problem(problem) -> _problems.ProblemSpec:
    if isinstance(problem, _problems.ProblemSpec):
        return problem
    return _problems.load_problem(problem)


def _maximize_and_sample(spec: _problems.ProblemSpec, x, settings: OracleSettings
                         ) -> tuple[_oracles.ArgmaxResult, _oracles.POSample]:
    """The maximizer set at x from the configured oracle, and its PO atoms."""
    if settings.mode == "registry" and spec.closed_form_argmax is None:
        raise KeyError(f"problem {spec.id!r} has no closed-form argmax")
    if settings.mode != "grid" and spec.closed_form_argmax is not None:
        am = spec.closed_form_argmax(x, spec.box, settings.delta_box)
    else:
        am = _oracles.argmax_grid_refine(spec.prog, x, spec.box, settings)
    return am, _oracles.po_sample(spec.prog, x, am, settings)


def _pick_atom(po: _oracles.POSample, atom_rule: str, rng) -> int:
    n = po.atoms.n
    if atom_rule == "first":
        return 0
    if atom_rule == "min_norm_atom":
        norms = np.linalg.norm(po.atoms.atoms, axis=1)
        return int(np.argmin(norms))
    if atom_rule == "random":
        if rng is None:
            raise ValueError("atom_rule 'random' needs an rng")
        return int(rng.integers(n))
    raise ValueError(f"atom_rule must be one of {ATOM_RULES}")


def ridge_step(x_k, problem, settings: OracleSettings, schedule: StepSchedule,
               k: int, atom_rule: str = RunConfig.atom_rule, rng=None):
    """One ridge update; returns (x_next, record dict)."""
    spec = _resolve_problem(problem)
    x_k = np.atleast_1d(np.asarray(x_k, dtype=float))
    am, po = _maximize_and_sample(spec, x_k, settings)
    idx = _pick_atom(po, atom_rule, rng)
    u = po.atoms.atoms[idx]
    y = po.provenance[idx].y
    alpha = schedule.alpha(k)
    x_next = x_k - alpha * u
    record = {"k": k, "x": x_k, "y": y, "u": u, "alpha": alpha,
              "f": am.value, "boundary": am.boundary_flag}
    return x_next, record


def _certify_candidates(x_final: np.ndarray) -> list[np.ndarray]:
    """x_final plus progressively rounded copies, nearest first."""
    cands = [x_final.copy()]
    for digits in reversed(_oracles._ROUND_DIGITS):
        c = np.round(x_final, digits)
        if not any(np.array_equal(c, z) for z in cands):
            cands.append(c)
    cands.sort(key=lambda z: float(np.linalg.norm(z - x_final)))
    return cands


def run(config: RunConfig) -> tuple[Trajectory, RunReport]:
    """Execute the ridge iteration for the configured budget.

    Stops early when the step displacement stalls below STALL_FLOOR over a
    STALL_WINDOW of iterates (exactly stationary problems) and on oracle
    failure (partial trajectory returned, report flagged).  The final
    certification is attempted at the terminal point and at progressively
    rounded copies of it, reporting the nearest candidate that certifies.
    """
    spec = _resolve_problem(config.problem)
    schedule = config.schedule()
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    traj = Trajectory(seed=config.seed, config_hash=config.config_hash())

    x = np.asarray(config.x0, dtype=float).copy()
    boundary = False
    stalled = False
    aborted = False
    error = None
    window: list[float] = []

    for k in range(config.budget):
        try:
            x_next, rec = ridge_step(x, spec, config.oracle, schedule, k,
                                     config.atom_rule, rng)
        except _oracles.EmptyPOSample as exc:
            aborted = True
            error = str(exc)
            break
        if not (np.all(np.isfinite(x_next)) and np.isfinite(rec["f"])):
            aborted = True
            error = "nonfinite iterate or value"
            break
        traj.append(rec["k"], rec["x"], rec["y"], rec["u"], rec["alpha"], rec["f"])
        boundary = boundary or rec["boundary"]
        window.append(float(np.linalg.norm(x_next - x)))
        if len(window) > STALL_WINDOW:
            window.pop(0)
        x = x_next
        if len(window) == STALL_WINDOW and max(window) < STALL_FLOOR:
            stalled = True
            break

    oscillation = None
    if traj.fs:
        tail = traj.fs[-max(1, len(traj.fs) // 10):]
        oscillation = float(max(tail) - min(tail))

    certificate = None
    certified_point = None
    certified_distance = None
    if not aborted:
        fallback = None
        for cand in _certify_candidates(x):
            try:
                cc = certify_po_critical(spec, cand, config.oracle, config.tol)
            except _oracles.EmptyPOSample:
                continue
            if fallback is None:
                fallback = cc
            if cc.verdict:
                fallback = cc
                break
        if fallback is not None:
            certificate = fallback.to_dict()
            certified_point = fallback.x.tolist()
            certified_distance = float(np.linalg.norm(fallback.x - x))

    report = RunReport(
        problem=spec.id,
        config_hash=traj.config_hash,
        seed=config.seed,
        iterations=len(traj),
        stalled=stalled,
        aborted=aborted,
        error=error,
        boundary_warning=boundary,
        escaped=bool(np.linalg.norm(x) > ESCAPE_NORM),
        x_final=x.tolist(),
        f_final=traj.fs[-1] if traj.fs else None,
        alpha_final=traj.alphas[-1] if traj.alphas else None,
        last_window_oscillation=oscillation,
        certificate=certificate,
        certified_point=certified_point,
        certified_distance=certified_distance,
    )
    return traj, report


def certify_po_critical(problem, x_bar, settings: OracleSettings = OracleSettings(),
                        tol: float = RunConfig.tol) -> CriticalityCertificate:
    """Decide whether 0 lies in the PO hull at x_bar, with a witness.

    Builds the PO sample at x_bar, runs the min-norm solve over the atom
    hull and reduces the weights by Caratheodory; verdict is true iff the
    min-norm is <= tol.  Raises ValueError for tol <= 0 or a nonfinite
    x_bar; EmptyPOSample propagates.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    if not np.all(np.isfinite(x_bar)):
        raise ValueError(f"x must be finite, got {x_bar.tolist()}")
    spec = _resolve_problem(problem)
    am, po = _maximize_and_sample(spec, x_bar, settings)
    cert = _hull.min_norm_point(po.atoms.atoms, tol)
    contains = cert.norm <= tol
    reduced = _hull.caratheodory_reduce(cert)
    witness = []
    for i, w in enumerate(reduced.weights):
        if w <= 0:
            continue
        atom = reduced.atoms[i]
        j = next(k for k in range(po.atoms.n)
                 if np.array_equal(po.atoms.atoms[k], atom))
        witness.append((po.provenance[j].y, atom, float(w)))
    vertex_min_norm = float(np.min(np.linalg.norm(po.atoms.atoms, axis=1)))
    return CriticalityCertificate(
        x=x_bar, sample=po, cert=reduced, verdict=contains, witness=witness,
        vertex_min_norm=vertex_min_norm, tol=tol, boundary_flag=am.boundary_flag)
