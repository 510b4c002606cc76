"""Command-line interface.

Subcommands: deploy, cluster, accuracy, and experiment. Any long flag may
also come from a plain-text config file of `key = value` lines (# starts a
comment); explicit flags win over file values. Exit code is 0 on success
and 2 with a one-line diagnostic on any simulation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from ._version import __version__
from .accuracy import (accuracy_for_assignment, beta_factors, reports_to_csv,
                       reports_to_json)
from .clustering import assign_clusters, assignment_to_csv
from .deployment import (FieldSpec, build_grid_deployment, deployment_from_text,
                         deployment_to_text)
from .errors import SimulationError
from .experiments import (ExperimentConfig, default_config, resolve_noise_profile,
                          run_experiment_csv, run_experiment_json)
from .spatial_stats import CorrelationParams

_EXPERIMENTS = ("setup1", "setup2", "fig5", "fig6", "fig8", "fig9", "optimal")

_COERCE = {
    "seed": int, "runs": int, "grid_rows": int, "grid_cols": int,
    "normals": int, "samples": int,
    "theta1": float, "theta2": float, "tau": float,
    "width": float, "height": float, "epsilon": float,
    "noise_profile": str, "format": str, "out": str, "deployment": str,
    "method": str,
}

_DEFAULTS = {
    "seed": 7, "theta1": 100.0, "theta2": 1.0, "tau": 0.6,
    "noise_profile": "default", "format": "csv",
    "width": 120.0, "height": 120.0, "grid_rows": 5, "grid_cols": 5,
    "normals": 100, "method": "closed_form", "samples": 100_000,
    "epsilon": 0.01,
}


def _read_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key = value: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args: argparse.Namespace) -> Dict[str, object]:
    """Merge precedence: explicit flag > config file > built-in default."""
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_COERCE))
    if unknown:
        raise ValueError(f"unknown config key(s) in {args.config}: "
                         f"{', '.join(unknown)}; known keys: "
                         f"{', '.join(sorted(_COERCE))}")
    resolved: Dict[str, object] = {}
    for key, coerce in _COERCE.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            resolved[key] = coerce(file_values[key])
        elif key in _DEFAULTS:
            resolved[key] = _DEFAULTS[key]
    if "runs" not in resolved:  # experiment-specific default applied later
        resolved["runs"] = None
    return resolved


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file supplying any flag")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--theta1", type=float)
    parser.add_argument("--theta2", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--noise-profile", dest="noise_profile",
                        choices=("default", "noiseless"))
    parser.add_argument("--runs", type=int)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("csv", "json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrsense",
        description="Sensor-field simulator: clustering and data accuracy "
                    "under spatial correlation.")
    parser.add_argument("--version", action="version",
                        version=f"corrsense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deploy", help="build a seeded field deployment")
    p.add_argument("--width", type=float)
    p.add_argument("--height", type=float)
    p.add_argument("--grid-rows", dest="grid_rows", type=int)
    p.add_argument("--grid-cols", dest="grid_cols", type=int)
    p.add_argument("--normals", type=int)
    _add_common(p)

    p = sub.add_parser("cluster", help="assign normal nodes to nearest heads")
    p.add_argument("--deployment", help="deployment file from `deploy`")
    _add_common(p)

    p = sub.add_parser("accuracy", help="per-cluster accuracy reports")
    p.add_argument("--deployment", help="deployment file from `deploy`")
    p.add_argument("--method", choices=("closed_form", "monte_carlo"))
    p.add_argument("--samples", type=int)
    _add_common(p)

    p = sub.add_parser("experiment", help="run a canonical experiment")
    p.add_argument("name", choices=_EXPERIMENTS)
    _add_common(p)
    return parser


def _load_deployment(opts: Dict[str, object]):
    path = opts.get("deployment")
    if path:
        return deployment_from_text(Path(str(path)).read_text())
    return build_grid_deployment(
        FieldSpec(float(opts["width"]), float(opts["height"])),
        int(opts["grid_rows"]), int(opts["grid_cols"]),
        int(opts["normals"]), seed=int(opts["seed"]))


def _cmd_deploy(opts: Dict[str, object]) -> str:
    dep = build_grid_deployment(
        FieldSpec(float(opts["width"]), float(opts["height"])),
        int(opts["grid_rows"]), int(opts["grid_cols"]),
        int(opts["normals"]), seed=int(opts["seed"]))
    return deployment_to_text(dep)


def _cmd_cluster(opts: Dict[str, object]) -> str:
    assignment = assign_clusters(_load_deployment(opts))
    if opts["format"] == "json":
        import json
        rows = [{"head_id": c.head_id, "members": list(c.members)}
                for c in assignment.clusters]
        return json.dumps(rows, indent=2) + "\n"
    return assignment_to_csv(assignment)


def _cmd_accuracy(opts: Dict[str, object]) -> str:
    dep = _load_deployment(opts)
    params = CorrelationParams(float(opts["theta1"]), float(opts["theta2"]),
                               float(opts["tau"]))
    noise = resolve_noise_profile(str(opts["noise_profile"]))
    reports = accuracy_for_assignment(
        assign_clusters(dep), dep, dep.tracing_points, beta_factors(noise),
        params, method=str(opts["method"]), noise=noise,
        samples=int(opts["samples"]), seed=int(opts["seed"]))
    if opts["format"] == "json":
        return reports_to_json(reports, params, noise, seed=int(opts["seed"]))
    return reports_to_csv(reports)


def _cmd_experiment(name: str, opts: Dict[str, object]) -> str:
    config = default_config(name)
    overrides = dict(
        params=CorrelationParams(float(opts["theta1"]), float(opts["theta2"]),
                                 float(opts["tau"])),
        noise_profile=str(opts["noise_profile"]),
        seed=int(opts["seed"]),
        field_width=float(opts["width"]),
        field_height=float(opts["height"]),
        grid_rows=int(opts["grid_rows"]),
        grid_cols=int(opts["grid_cols"]),
        n_normals=int(opts["normals"]),
        epsilon=float(opts["epsilon"]),
    )
    if opts.get("runs") is not None:
        overrides["runs"] = int(opts["runs"])  # else keep experiment default
    config = ExperimentConfig(
        experiment=name,
        theta1_values=config.theta1_values,
        radius_values=config.radius_values,
        m_values=config.m_values,
        runs=overrides.pop("runs", config.runs),
        **overrides)
    if opts["format"] == "json":
        return run_experiment_json(config)
    return run_experiment_csv(config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _resolve(args)
        if args.command == "deploy":
            text = _cmd_deploy(opts)
        elif args.command == "cluster":
            text = _cmd_cluster(opts)
        elif args.command == "accuracy":
            text = _cmd_accuracy(opts)
        elif args.command == "experiment":
            text = _cmd_experiment(args.name, opts)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
        _emit(text, opts.get("out"))
    except (SimulationError, ValueError, OSError) as exc:
        print(f"corrsense: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
