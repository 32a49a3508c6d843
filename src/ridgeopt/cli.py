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


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, cfg: dict, keys: list[str]) -> dict:
    """Config-file values overridden by explicitly passed flags."""
    out = {k: cfg[k] for k in keys if k in cfg}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    return out


def _out_dir(args: argparse.Namespace, cfg: dict) -> str:
    return args.out or cfg.get("out") or "."


_ORACLE_KEYS = {"oracle_mode": "mode", "tau_y": "tau_y", "delta_f": "delta_f",
                "delta_y": "delta_y", "grid_n": "grid_n", "n_starts": "n_starts",
                "max_branches": "max_branches", "eps_kink": "eps_kink"}


def _oracle_settings(merged: dict) -> _ridge.OracleSettings:
    """Settings from the merged keys, each cast to its field default's type."""
    return _ridge.OracleSettings(**{
        name: type(getattr(_ridge.OracleSettings, name))(merged[key])
        for key, name in _ORACLE_KEYS.items() if key in merged})


def _run_config(args: argparse.Namespace, cfg: dict) -> _ridge.RunConfig:
    merged = _merged(args, cfg, ["problem", "x0", "alpha0", "gamma", "iters",
                            "atom_rule", "seed", "tol", *_ORACLE_KEYS])
    if "problem" not in merged:
        raise ValueError("a problem id or file is required (--problem)")
    if "x0" not in merged:
        raise ValueError("an initial point is required (--x0)")
    x0 = merged["x0"]
    if isinstance(x0, (int, float)):
        x0 = [float(x0)]
    settings = _oracle_settings(merged)
    return _ridge.RunConfig(
        problem=str(merged["problem"]),
        x0=[float(v) for v in x0],
        alpha0=float(merged.get("alpha0", 0.5)),
        gamma=float(merged.get("gamma", 1.0)),
        budget=int(merged.get("iters", 500)),
        atom_rule=str(merged.get("atom_rule", "min_norm_atom")),
        seed=int(merged.get("seed", 0)),
        tol=float(merged.get("tol", 1e-6)),
        oracle=settings,
    )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args.config)
        config = _run_config(args, cfg)
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
    except (_oracles.EmptyPOSample, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args.config)
        merged = _merged(args, cfg, ["problem", "x0", "tol", *_ORACLE_KEYS])
        if "problem" not in merged or "x0" not in merged:
            raise ValueError("certify needs --problem and --x0")
        x0 = merged["x0"]
        if isinstance(x0, (int, float)):
            x0 = [float(x0)]
        settings = _oracle_settings(merged)
        tol = float(merged.get("tol", 1e-6))
        spec = _problems.load_problem(str(merged["problem"]))
        cert = _ridge.certify_po_critical(spec, x0, settings, tol)
        out_dir = _out_dir(args, cfg)
        os.makedirs(out_dir, exist_ok=True)
        payload = {"problem": spec.id, **cert.to_dict()}
        with open(os.path.join(out_dir, "certificate.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        verdict = "critical" if cert.verdict else "not critical"
        print(f"{spec.id} at x={x0}: {verdict} "
              f"(min-norm {cert.min_norm:.3e}, vertex min-norm "
              f"{cert.vertex_min_norm:.3e})")
        return 0 if cert.verdict else 1
    except (_oracles.EmptyPOSample, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_fractal(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args.config)
        merged = _merged(args, cfg, ["depth_min", "depth_max", "diag"])
        depth_min = int(merged.get("depth_min", 0))
        depth_max = int(merged.get("depth_max", 8))
        if not 0 <= depth_min <= depth_max <= _fractal.MAX_DEPTH:
            raise ValueError(f"depths must satisfy 0 <= min <= max <= {_fractal.MAX_DEPTH}")
        diags = merged.get("diag") or list(_DIAGNOSTICS)
        if isinstance(diags, str):
            diags = [d.strip() for d in diags.split(",") if d.strip()]
        unknown = set(diags) - set(_DIAGNOSTICS)
        if unknown:
            raise ValueError(f"unknown diagnostics {sorted(unknown)}; "
                             f"choose from {_DIAGNOSTICS}")
        out_dir = _out_dir(args, cfg)
        os.makedirs(out_dir, exist_ok=True)

        # one set per depth serves every diagnostic; all rows are computed
        # before any CSV is written
        rows: dict[str, list] = {name: [] for name in _DIAGNOSTICS}
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
                pr = _fractal.subdiff_probe(F, z, _fractal.probe_radius(d),
                                            _PROBE_DIRS)
                rows["probes"].append([d, pr.max_angular_gap, len(pr.directions)])
            if "po" in diags:
                po = _fractal.g_po_sample(F, _STALL_X, n_dirs=_PROBE_DIRS)
                cert = _hull.min_norm_point(po.atoms.atoms, tol=1e-12)
                atoms = po.atoms.atoms.ravel()
                rows["po"].append([d, cert.norm, float(atoms.min()),
                                   float(atoms.max())])

        for name in _DIAGNOSTICS:
            if name in diags:
                _write_csv(os.path.join(out_dir, f"{name}.csv"), _CSV_HEADERS[name],
                           rows[name])

        print(f"fractal diagnostics {sorted(set(diags))} for depths "
              f"{depth_min}..{depth_max} written to {out_dir}")
        return 0
    except (ValueError, OSError, _fractal.ProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_list_problems(_args: argparse.Namespace) -> int:
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

    p_run = sub.add_parser("run", help="execute a ridge run")
    add_common(p_run)
    p_run.add_argument("--problem", help="problem id or problem file path")
    p_run.add_argument("--x0", type=float, nargs="+", help="initial point")
    p_run.add_argument("--alpha0", type=float, help="step scale (default 0.5)")
    p_run.add_argument("--gamma", type=float, help="step decay in (0,1] (default 1)")
    p_run.add_argument("--iters", type=int, help="iteration budget (default 500)")
    p_run.add_argument("--atom-rule", dest="atom_rule",
                       choices=["first", "min_norm_atom", "random"])
    p_run.add_argument("--seed", type=int, help="seed for the run (default 0)")
    p_run.add_argument("--tol", type=float, help="criticality tolerance")
    p_run.add_argument("--tau-y", dest="tau_y", type=float,
                       help="y-block residual tolerance for PO atoms")
    p_run.add_argument("--oracle-mode", dest="oracle_mode",
                       choices=["auto", "registry", "grid"])
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify", help="certify PO-criticality of a point")
    add_common(p_cert)
    p_cert.add_argument("--problem", help="problem id or problem file path")
    p_cert.add_argument("--x0", type=float, nargs="+", help="point to certify")
    p_cert.add_argument("--tol", type=float, help="criticality tolerance")
    p_cert.add_argument("--tau-y", dest="tau_y", type=float)
    p_cert.add_argument("--oracle-mode", dest="oracle_mode",
                        choices=["auto", "registry", "grid"])
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
    p_ls.set_defaults(func=cmd_list_problems)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
