"""Command-line interface.

Subcommands: deploy, cluster, accuracy, and experiment. Each takes the
options _COMMANDS lists for it, as long flags or from a plain-text config
file of `key = value` lines (# starts a comment); explicit flags win over
file values. A key the subcommand does not take, or one its other options
leave unused, is an error. Exit code is 0 on success and 2 with a one-line
diagnostic on any simulation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Dict, Optional, Sequence

from ._version import __version__
from .accuracy import accuracy_for_assignment, reports_to_csv, reports_to_json
from .clustering import assign_clusters, assignment_to_csv
from .deployment import (FieldSpec, build_grid_deployment, deployment_from_text,
                         deployment_to_text)
from .errors import SimulationError
from .experiments import (EXPERIMENTS, NOISE_PROFILES, ExperimentConfig,
                          default_config, run_experiment_csv,
                          run_experiment_json)

# key -> type; a tuple lists the allowed values. No default is kept here:
# see ExperimentConfig, the registry and accuracy_for_assignment.
_OPTIONS = {
    "seed": int, "width": float, "height": float, "grid_rows": int,
    "grid_cols": int, "normals": int, "deployment": str,
    "theta1": float, "theta2": float, "noise_profile": tuple(NOISE_PROFILES),
    "method": ("closed_form", "monte_carlo"), "samples": int,
    "runs": int, "epsilon": float, "format": ("csv", "json"), "out": str,
}

_FIELD = ("seed", "width", "height", "grid_rows", "grid_cols", "normals")
_MODEL = ("theta1", "theta2", "noise_profile")
_OUTPUT = ("format", "out")

# subcommand -> (help, the option keys it takes)
_COMMANDS = {
    "deploy": ("build a seeded field deployment", _FIELD + ("out",)),
    "cluster": ("assign normal nodes to nearest heads",
                _FIELD + ("deployment",) + _OUTPUT),
    "accuracy": ("per-cluster accuracy reports",
                 _FIELD + ("deployment",) + _MODEL + ("method", "samples")
                 + _OUTPUT),
    "experiment": ("run a canonical experiment",
                   _FIELD + _MODEL + ("runs", "epsilon") + _OUTPUT),
}

# option keys whose ExperimentConfig setting has another name
_SETTINGS = {"width": "field_width", "height": "field_height",
             "normals": "n_normals"}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


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


def _coerce(key: str, text: str) -> object:
    kind = _OPTIONS[key]
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"{key} must be one of {', '.join(kind)}, "
                             f"got {text!r}")
        return text
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"config key {key}: {exc}") from None


def _given(args: argparse.Namespace) -> Dict[str, object]:
    """The options set by flag or config file; an explicit flag wins."""
    keys = _COMMANDS[args.command][1]
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key(s) for {args.command} in "
                         f"{args.config}: {', '.join(unknown)}; known keys: "
                         f"{', '.join(sorted(keys))}")
    given = {key: _coerce(key, val) for key, val in file_values.items()}
    given.update((key, getattr(args, key)) for key in keys
                 if getattr(args, key) is not None)
    return given


def _reject_unused(given: Dict[str, object], unused: Sequence[str],
                   why: str) -> None:
    flags = [f"--{key.replace('_', '-')}" for key in given if key in unused]
    if flags:
        raise ValueError(f"{', '.join(flags)} not used {why}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrsense",
        description="Sensor-field simulator: clustering and data accuracy "
                    "under spatial correlation.")
    parser.add_argument("--version", action="version",
                        version=f"corrsense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "experiment":
            p.add_argument("name", choices=tuple(EXPERIMENTS))
        p.add_argument("--config",
                       help="key = value file supplying any of these flags")
        for key in keys:
            kind = _OPTIONS[key]
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=None if choices else kind, choices=choices)
    return parser


def _config(base: ExperimentConfig,
            given: Dict[str, object]) -> ExperimentConfig:
    """base with every given option that names one of its settings."""
    settings = {_SETTINGS.get(key, key): value for key, value in given.items()}
    return replace(base, **{key: value for key, value in settings.items()
                            if key in _CONFIG_FIELDS})


def _run(command: str, given: Dict[str, object]) -> str:
    """deploy, cluster or accuracy, with ExperimentConfig's defaults."""
    monte_carlo = given.get("method") == "monte_carlo"
    unused = [] if monte_carlo else ["samples"]
    if given.get("deployment"):  # the file gives the field; MC still takes a seed
        unused += _FIELD[1:] if monte_carlo else _FIELD
    _reject_unused(given, unused, f"by {command} with the other options given")
    config = _config(ExperimentConfig(command), given)
    if given.get("deployment"):
        dep = deployment_from_text(Path(given["deployment"]).read_text())
    else:
        dep = build_grid_deployment(
            FieldSpec(config.field_width, config.field_height),
            config.grid_rows, config.grid_cols, config.n_normals,
            seed=config.seed)
    if command == "deploy":
        return deployment_to_text(dep)
    if command == "cluster":
        assignment = assign_clusters(dep)
        if given.get("format") == "json":
            return json.dumps([asdict(c) for c in assignment.clusters],
                              indent=2) + "\n"
        return assignment_to_csv(assignment)
    estimator = {k: given[k] for k in ("method", "samples") if k in given}
    reports = accuracy_for_assignment(
        assign_clusters(dep), dep, dep.tracing_points, config.betas(),
        config.params, noise=config.noise(), seed=config.seed, **estimator)
    if given.get("format") == "json":
        return reports_to_json(reports, config.params, config.noise(),
                               seed=config.seed)
    return reports_to_csv(reports)


def _run_experiment(name: str, given: Dict[str, object]) -> str:
    """The named experiment's default config, with the given settings."""
    reads = EXPERIMENTS[name].reads + _OUTPUT
    _reject_unused(given, [key for key in given
                           if _SETTINGS.get(key, key) not in reads],
                   f"by experiment {name}")
    config = _config(default_config(name), given)
    if given.get("format") == "json":
        return run_experiment_json(config)
    return run_experiment_csv(config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        given = _given(args)
        if args.command == "experiment":
            text = _run_experiment(args.name, given)
        else:
            text = _run(args.command, given)
        if given.get("out") is None:
            sys.stdout.write(text)
        else:
            Path(given["out"]).write_text(text)
    except (SimulationError, ValueError, OSError) as exc:
        print(f"corrsense: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
