"""Command-line front-end.

Exit codes: 0 success, 2 configuration error (also argparse usage
errors) or an output file that cannot be written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .config import (
    PRESET_NAMES,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    preset_config,
)
from .experiments import cmd_capacity, cmd_dist, cmd_outage, cmd_sweep_m
from .montecarlo import _RANK_TAIL, CoherentMode, _one_blas_thread, plan_runs

_COMMANDS = {
    "dist": cmd_dist,
    "outage": cmd_outage,
    "capacity": cmd_capacity,
    "sweep-m": cmd_sweep_m,
}

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", metavar="PATH", help="JSON configuration file")
    source.add_argument(
        "--preset", choices=PRESET_NAMES, help="named built-in configuration"
    )
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--trials", type=int, help="override the config trial count")
    parser.add_argument("--out", metavar="PATH", help="override the output path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frislink",
        description="Reflecting-surface link experiments: analytical curves and "
        "reproducible Monte Carlo.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "dist": "equivalent-gain distribution curves for a static mode",
        "outage": "outage probability versus SNR for each mode",
        "capacity": "ergodic capacity versus SNR for each mode",
        "sweep-m": "capacity versus grid density at fixed aperture",
        "validate": "check a configuration and print its summary",
    }
    for name, text in helps.items():
        _add_common_flags(sub.add_parser(name, help=text))
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.preset is not None:
        doc = preset_config(args.preset)
    elif args.config is not None:
        doc = dict(load_config(args.config).canonical)
    else:
        raise ConfigError("either --config or --preset is required")
    for key, value in (("seed", args.seed), ("trials", args.trials), ("output_path", args.out)):
        if value is not None:
            doc[key] = value
    return parse_config(json.dumps(doc))


def _summary_lines(config: ExperimentConfig) -> list:
    g = config.geometry
    return [
        f"config_hash: {config.config_hash}",
        f"geometry: {g.m_x}x{g.m_z} elements over {g.w_x}x{g.w_z} wavelengths",
        f"wavelength_m: {g.wavelength:.6g}",
        f"kernel: {config.kernel}",
        f"modes: {', '.join(spec.label for spec in config.modes)}",
        f"snr_grid_db: {list(config.snr_grid_db)}",
        f"trials: {config.trials}",
        f"seed: {config.seed}",
    ]


def _cost_lines(config: ExperimentConfig) -> list:
    """The tail fraction of the trace a coherent run may drop, then one
    line per plan the engine runs, for each mode and sweep-m grid (as a
    coherent run on it): rank r and clamped count (a coherent run's
    sampled prefix of its grid's factor and the grid's clamped count, a
    static run's those of its selection's block), draws per trial (4r
    normals, or K + 1 exponentials for K static weights); then the shared
    4 r_max normals a trial and whether BLAS could be pinned."""
    names = [f"mode {spec.label}" for spec in config.modes]
    runs = [(spec.grid, spec.mode) for spec in config.modes]
    for m_x, m_z in config.m_grid or ():
        names.append(f"sweep {m_x}x{m_z}")
        runs.append((config.geometry.regrid(m_x, m_z), CoherentMode(m_x * m_z)))
    with _one_blas_thread() as pinned:
        plans = plan_runs(config.kernel, runs, {})
    lines = [f"rank_tail: {_RANK_TAIL}"]
    for name, plan in zip(names, plans):
        cost = f"normals_per_trial {plan.draws_per_trial}"
        if plan.kind == "static":
            cost = f"weights {plan.weights.size}, draws_per_trial {plan.draws_per_trial}"
        lines.append(f"{name}: rank {plan.rank}, clamped {plan.clamped}, {cost}")
    shared = max((p.draws_per_trial for p in plans if p.kind != "static"), default=0)
    if shared:
        lines.append(f"shared normals_per_trial {shared}")
    blas = (
        "blas: pinned to 1 thread"
        if pinned
        else "blas: unpinned (no scipy-openblas symbol); bytes may depend on BLAS threads"
    )
    return lines + [blas]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        if args.command == "validate":
            output = "\n".join(_summary_lines(config) + _cost_lines(config))
        else:
            out_path = config.output_path or f"{args.command}.csv"
            output = _COMMANDS[args.command](config, out_path)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as e:  # the commands touch no file but their output
        print(f"output error: {e}", file=sys.stderr)
        return _EXIT_CONFIG
    except (np.linalg.LinAlgError, ArithmeticError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return _EXIT_NUMERICAL
    print(output)
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
