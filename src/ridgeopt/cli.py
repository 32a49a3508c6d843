"""Command-line front end: run experiments, certify points, fractal diagnostics.

Subcommands:
  run            execute a ridge run; writes trajectory.jsonl + report.json
  certify        certify PO-criticality of a point; writes certificate.json
  fractal        emit per-depth diagnostic CSVs for the counterexample set
  list-problems  print the registered benchmark ids

Configuration comes from an optional JSON file (--config) overridden by
flags; all randomness flows from the single --seed through a counter-based
generator, so reruns with identical config produce byte-identical
trajectory files.

Exit codes: run 0 ok / 2 oracle failure; certify 0 critical / 1 not
critical / 2 error; fractal and list-problems 0 ok / 2 error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import MISSING, fields

from . import fractal as _fractal
from . import hull as _hull
from . import oracles as _oracles
from . import problems as _problems
from . import ridge as _ridge

_DIAGNOSTICS = ("projections", "tv", "probes", "po")
_CSV_HEADERS = {
    "projections": ["depth", "axis_x", "axis_y", "rot_1_2", "rot_2_1"],
    "tv": ["depth", "tv_lower_bound"],
    "probes": ["depth", "max_angular_gap", "n_directions"],
    "po": ["depth", "po_min_norm", "atom_min", "atom_max"],
}
_STALL_X = 0.5  # abscissa of the fractal stall demo
_PROBE_DIRS = 64


# config key: (dataclass, field, flag help); keys without help have no flag.
# run reads every key, certify the problem, x0, tol and OracleSettings keys.
_KEYS = {
    "problem": (_ridge.RunConfig, "problem", "problem id or problem file path"),
    "x0": (_ridge.RunConfig, "x0", "initial point of a run, or the point to certify"),
    "alpha0": (_ridge.RunConfig, "alpha0", "step scale"),
    "gamma": (_ridge.RunConfig, "gamma", "step decay in (0,1]"),
    "iters": (_ridge.RunConfig, "budget", "iteration budget"),
    "atom_rule": (_ridge.RunConfig, "atom_rule", "atom taken at each step"),
    "seed": (_ridge.RunConfig, "seed", "seed for the run"),
    "tol": (_ridge.RunConfig, "tol", "criticality tolerance"),
    "tau_y": (_oracles.OracleSettings, "tau_y", "y-block tolerance for PO atoms"),
    "oracle_mode": (_oracles.OracleSettings, "mode", "maximizer oracle"),
    **{key: (_oracles.OracleSettings, key, None) for key in
       ("delta_f", "delta_y", "grid_n", "n_starts", "max_branches", "eps_kink")},
}
_CERTIFY_KEYS = [k for k, (cls, _, _) in _KEYS.items()
                 if cls is _oracles.OracleSettings or k in ("problem", "x0", "tol")]
_CHOICES = {"atom_rule": _ridge.ATOM_RULES, "oracle_mode": _oracles.MODES}
_FIELDS = {key: next(f for f in fields(cls) if f.name == name)
           for key, (cls, name, _) in _KEYS.items()}
# field type: (cast of one value, what a config value must be)
_TYPES = {"str": (str, "a string"), "int": (int, "a number"),
          "float": (float, "a number"),
          "list[float]": (float, "a number or a list of numbers")}


def _cast(key: str, value, kind: str):
    """``value`` cast to the field type ``kind``; a ValueError naming ``key``
    for null, another JSON type than the field's or a number the cast
    rejects (NaN or infinity for an int)."""
    cast, what = _TYPES[kind]
    items = value if kind == "list[float]" and isinstance(value, list) else [value]
    try:
        if not items or any(isinstance(v, bool) or isinstance(v, str) != (cast is str)
                            for v in items):
            raise TypeError
        out = [cast(v) for v in items]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be {what}, got {json.dumps(value)}") from None
    return out if kind == "list[float]" else out[0]


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, cfg: dict, keys) -> dict:
    """Config-file values overridden by explicitly passed flags."""
    out = {k: cfg[k] for k in keys if k in cfg}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    return out


def _config(args: argparse.Namespace, cfg: dict, keys) -> _ridge.RunConfig:
    """The RunConfig and OracleSettings that ``keys`` set, each value cast
    by its field's type; unset fields keep their defaults."""
    merged = _merged(args, cfg, keys)
    for key in keys:
        if key not in merged and _FIELDS[key].default is MISSING:
            raise ValueError(f"--{key} is required")
    run, oracle = _ridge.RunConfig, _oracles.OracleSettings
    values = {run: {}, oracle: {}}
    for key, value in merged.items():
        cls, name, _ = _KEYS[key]
        values[cls][name] = _cast(key, value, _FIELDS[key].type)
    return run(**values[run], oracle=oracle(**values[oracle]))


def _out_dir(args: argparse.Namespace, cfg: dict) -> str:
    if args.out:
        return args.out
    return _cast("out", cfg["out"], "str") if "out" in cfg else "."


def cmd_run(args: argparse.Namespace, cfg: dict) -> int:
    config = _config(args, cfg, _KEYS)
    out_dir = _out_dir(args, cfg)
    os.makedirs(out_dir, exist_ok=True)
    traj, report = _ridge.run(config)
    with open(os.path.join(out_dir, "trajectory.jsonl"), "w") as fh:
        for line in traj.jsonl_lines():
            fh.write(line + "\n")
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    if report.aborted:
        print(f"run aborted: {report.error}", file=sys.stderr)
        return 2
    print(f"run complete: {report.iterations} iterations, "
          f"f_final={report.f_final}, report in {out_dir}/report.json")
    return 0


def cmd_certify(args: argparse.Namespace, cfg: dict) -> int:
    config = _config(args, cfg, _CERTIFY_KEYS)
    spec = _problems.load_problem(config.problem)
    cert = _ridge.certify_po_critical(spec, config.x0, config.oracle, config.tol)
    out_dir = _out_dir(args, cfg)
    os.makedirs(out_dir, exist_ok=True)
    payload = {"problem": spec.id, **cert.to_dict()}
    with open(os.path.join(out_dir, "certificate.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    verdict = "critical" if cert.verdict else "not critical"
    print(f"{spec.id} at x={config.x0}: {verdict} "
          f"(min-norm {cert.min_norm:.3e}, vertex min-norm "
          f"{cert.vertex_min_norm:.3e})")
    return 0 if cert.verdict else 1


def cmd_fractal(args: argparse.Namespace, cfg: dict) -> int:
    merged = _merged(args, cfg, ["depth_min", "depth_max", "diag"])
    depth_min = _cast("depth_min", merged.get("depth_min", 0), "int")
    depth_max = _cast("depth_max", merged.get("depth_max", 8), "int")
    if not 0 <= depth_min <= depth_max <= _fractal.MAX_DEPTH:
        raise ValueError(f"depths must satisfy 0 <= min <= max <= {_fractal.MAX_DEPTH}")
    diags = merged.get("diag", [])
    if isinstance(diags, str):
        diags = [d.strip() for d in diags.split(",") if d.strip()]
    if not (isinstance(diags, list) and all(isinstance(d, str) for d in diags)):
        raise ValueError("diag must be a string or a list of strings, "
                         f"got {json.dumps(diags)}")
    diags = diags or list(_DIAGNOSTICS)
    unknown = set(diags) - set(_DIAGNOSTICS)
    if unknown:
        raise ValueError(f"unknown diagnostics {sorted(unknown)}; "
                         f"choose from {_DIAGNOSTICS}")
    out_dir = _out_dir(args, cfg)
    os.makedirs(out_dir, exist_ok=True)

    # one set per depth serves every diagnostic; all rows are computed
    # before any CSV is written
    rows: dict[str, list] = {name: [_CSV_HEADERS[name]] for name in _DIAGNOSTICS}
    for d in range(depth_min, depth_max + 1):
        F = _fractal.build_fractal(d)
        if "projections" in diags:
            rows["projections"].append([
                d,
                float(_fractal.axis_projection_length(F, "x")),
                float(_fractal.axis_projection_length(F, "y")),
                _fractal.rotated_projection_length(F, (1, 2)),
                _fractal.rotated_projection_length(F, (2, 1))])
        if "tv" in diags:
            rows["tv"].append([d, float(_fractal.min_total_variation(F))])
        if "probes" in diags and d >= 1:  # probe radius must exceed the square side
            z = _fractal.chain_point(F, _STALL_X)
            pr = _fractal.subdiff_probe(F, z, _fractal.probe_radius(d), _PROBE_DIRS)
            rows["probes"].append([d, pr.max_angular_gap, len(pr.directions)])
        if "po" in diags:
            po = _fractal.g_po_sample(F, _STALL_X, n_dirs=_PROBE_DIRS)
            cert = _hull.min_norm_point(po.atoms.atoms, tol=1e-12)
            atoms = po.atoms.atoms.ravel()
            rows["po"].append([d, cert.norm, float(atoms.min()), float(atoms.max())])

    for name in _DIAGNOSTICS:
        if name in diags:
            with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
                csv.writer(fh).writerows(rows[name])

    print(f"fractal diagnostics {sorted(set(diags))} for depths "
          f"{depth_min}..{depth_max} written to {out_dir}")
    return 0


def cmd_list_problems(_args: argparse.Namespace, _cfg: dict) -> int:
    for pid, notes in _problems.list_problems():
        print(f"{pid}: {notes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgeopt",
        description="ridge method for nonsmooth min-max problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default: cwd)")

    def add_keys(p, keys):
        for key in [k for k in keys if _KEYS[k][2]]:
            f, help_text = _FIELDS[key], _KEYS[key][2]
            if f.default is not MISSING:
                help_text += f" (default {f.default})"
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=_TYPES[f.type][0], choices=_CHOICES.get(key),
                           nargs="+" if key == "x0" else None, help=help_text)

    p_run = sub.add_parser("run", help="execute a ridge run")
    add_common(p_run)
    add_keys(p_run, _KEYS)
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify", help="certify PO-criticality of a point")
    add_common(p_cert)
    add_keys(p_cert, _CERTIFY_KEYS)
    p_cert.set_defaults(func=cmd_certify)

    p_fr = sub.add_parser("fractal", help="counterexample diagnostics as CSVs")
    add_common(p_fr)
    p_fr.add_argument("--depth-min", dest="depth_min", type=int)
    p_fr.add_argument("--depth-max", dest="depth_max", type=int)
    p_fr.add_argument("--diag", action="append",
                      help=f"diagnostic to emit ({', '.join(_DIAGNOSTICS)}); "
                           "repeatable, default all")
    p_fr.set_defaults(func=cmd_fractal)

    p_ls = sub.add_parser("list-problems", help="list registered problems")
    p_ls.set_defaults(func=cmd_list_problems, config=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except (_oracles.EmptyPOSample, _fractal.ProbeError, ValueError, KeyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
