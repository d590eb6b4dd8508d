"""Batch experiment commands: run pipelines and emit CSV curve artifacts.

Each command holds BLAS at one thread while it runs (the analytic
curves as well as the Monte Carlo), and `workers` (None: one per core)
spreads its trial chunks over threads; the bytes depend on neither. A
command builds each mode's analytic block alone, not its grid's matrix,
then plans all its runs at once and samples them in one `run_many` pass,
whose runs share their coherent normals; each mode's rows are those it
gives when run alone. The output is written to `<path>.part`, opened
before the trials, then moved onto it.

Every artifact starts with #-prefixed provenance lines (config hash,
seed, tool version, the coherent rank tail and, for the commands that
run coherent modes, each run's sampled rank; never timestamps), then a
column-header row, then data rows with floats printed at 17 significant
digits, so re-running the same config byte-reproduces the file.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os

import numpy as np

from . import __version__
from .analysis import (
    ergodic_capacity_asymptotic,
    ergodic_capacity_bound,
    gamma_cdf,
    gamma_fit,
    gamma_pdf,
    gamma_quantile,
    outage_asymptotic,
    outage_probability,
)
from .config import ConfigError, ExperimentConfig, ModeSpec
from .correlation import _one_blas_thread, build_correlation_matrix, uniform_grid_selection
from .montecarlo import (
    CoherentMode,
    StaticMode,
    _RANK_TAIL,
    empirical_cdf,
    estimate_ergodic_capacity,
    estimate_outage,
    ks_statistic,
    plan_runs,
    run_many,
    run_trials,  # no command calls it: perfbench/tracing.py wraps it here
)

__all__ = ["cmd_dist", "cmd_outage", "cmd_capacity", "cmd_sweep_m"]

_DIST_GRID_POINTS = 200
_DIST_QUANTILE = 0.999


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            raise ArithmeticError("non-finite value in output row")
        return format(v, ".17g")
    return str(v)


@contextlib.contextmanager
def _output(path):
    """`<path>.part`, open; it replaces `path` after the body, or is removed if that raises.
    A directory at `path`, which it could not replace, fails before the body."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    part = f"{path}.part"
    with open(part, "w", encoding="utf-8", newline="") as f:
        try:
            yield f
            f.close()
            os.replace(part, path)
        except BaseException:
            os.remove(part)
            raise


def _write_csv(f, meta: dict, columns: list, rows) -> None:
    """The header lines, then the rows, fields joined by commas: no field
    needs quoting, as the values print as numbers or booleans and the mode
    labels hold no comma, quote or line break."""
    f.writelines(f"# {key}={value}\n" for key, value in meta.items())
    f.write(",".join(columns) + "\n")
    f.writelines(",".join(_format_value(v) for v in row) + "\n" for row in rows)


def _base_meta(config: ExperimentConfig, command: str) -> dict:
    return {
        "artifact_version": 13,
        "tool_version": __version__,
        "command": command,
        "config_hash": config.config_hash,
        "seed": config.seed,
        "trials": config.trials,
        "kernel": config.kernel,
        "rank_tail": _RANK_TAIL,
    }


def _ranks(names, plans) -> str:
    """Each run's sampled rank r, as `name:r` pairs."""
    return ",".join(f"{name}:{plan.rank}" for name, plan in zip(names, plans))


def _analytic_block(spec: ModeSpec, kernel: str) -> np.ndarray:
    """Correlation block behind a mode's analytical curves: that of a
    static mode's selection, or, for a coherent mode, whose selection
    changes per realization, that of a stand-in: the first m_o elements,
    in index order, of the uniform k_x x k_z subgrid of its grid
    (k_z = ceil(m_o / k_x)) with the fewest elements, then the smallest
    |k_x - k_z|, then the smallest k_x. Where m_o = k_x k_z fits, that is
    the most square such subgrid; for a RIS, m_o = M' gives its whole
    grid in index order."""
    mode, grid = spec.mode, spec.grid
    if isinstance(mode, StaticMode):
        selection = mode.selection
    else:
        shapes = [(k_x, -(-mode.m_o // k_x)) for k_x in range(1, grid.m_x + 1)]
        k_x, k_z = min(
            ((k_x, k_z) for k_x, k_z in shapes if k_z <= grid.m_z),
            key=lambda shape: (shape[0] * shape[1], abs(shape[0] - shape[1]), shape[0]),
        )
        selection = uniform_grid_selection(grid, k_x, k_z)[: mode.m_o]
    return build_correlation_matrix(grid, kernel, selection)


@_one_blas_thread()
def cmd_dist(config: ExperimentConfig, out_path, workers: int | None = None) -> str:
    """Gain-distribution curves for a single static mode.

    Columns: g, analytical_pdf, analytical_cdf, empirical_cdf over 200
    gain points spanning [0, fit quantile 0.999]; the fit parameters and
    the KS distance land in the header.
    """
    statics = [s for s in config.modes if isinstance(s.mode, StaticMode)]
    if len(config.modes) != 1 or len(statics) != 1:
        raise ConfigError("dist: config must specify exactly one static mode")
    spec = statics[0]
    fit = gamma_fit(_analytic_block(spec, config.kernel))
    plans = plan_runs(config.kernel, [(spec.grid, spec.mode)])
    with _output(out_path) as f:
        (samples,) = run_many(plans, config.trials, config.seed, workers=workers)
        ks = ks_statistic(samples, fit)
        grid = np.linspace(0.0, gamma_quantile(fit, _DIST_QUANTILE), _DIST_GRID_POINTS)
        meta = _base_meta(config, "dist")
        meta.update(
            {
                "mode": spec.label,
                "k": format(fit.shape_k, ".17g"),
                "theta": format(fit.scale_theta, ".17g"),
                "ks": format(ks, ".17g"),
            }
        )
        columns = (grid, gamma_pdf(fit, grid), gamma_cdf(fit, grid), empirical_cdf(samples, grid))
        rows = zip(*(column.tolist() for column in columns))
        _write_csv(f, meta, ["g", "analytical_pdf", "analytical_cdf", "empirical_cdf"], rows)
    return str(out_path)


def _write_curves(
    config: ExperimentConfig, out_path, workers: int | None, command: str, columns: list,
    analytic, row, threshold=None,
) -> str:
    """One row per mode and SNR point: snr_db, the mode label, then
    row(model, samples, budget), where model = analytic(correlation block)
    is formed once per mode. The modes' gains are sampled in one joint
    run and reused across the SNR grid (only the threshold moves); a
    `threshold` passed on to `run_many` lets it screen trials whose gains
    exceed it, for rows that only count gains at or below it."""
    models = [analytic(_analytic_block(spec, config.kernel)) for spec in config.modes]
    runs = [(spec.grid, spec.mode) for spec in config.modes]
    plans = plan_runs(config.kernel, runs)
    with _output(out_path) as f:
        gains = run_many(plans, config.trials, config.seed, workers, threshold)
        rows = []
        for spec, model, samples in zip(config.modes, models, gains):
            for snr_db in config.snr_grid_db:
                budget = config.budget(snr_db)
                rows.append((snr_db, spec.label, *row(model, samples, budget)))
        meta = _base_meta(config, command)
        meta["ranks"] = _ranks([spec.label for spec in config.modes], plans)
        _write_csv(f, meta, ["snr_db", "mode", *columns], rows)
    return str(out_path)


def _outage_row(fit, samples, budget) -> tuple:
    est = estimate_outage(samples, budget)
    return (
        outage_probability(fit, budget),
        outage_asymptotic(fit, budget),
        est.probability,
        est.stderr,
        est.hits,
        est.reliable,
    )


def _capacity_row(block, samples, budget) -> tuple:
    est = estimate_ergodic_capacity(samples, budget)
    return (
        ergodic_capacity_bound(block, budget),
        ergodic_capacity_asymptotic(block, budget),
        est.capacity,
        est.stderr,
    )


@_one_blas_thread()
def cmd_outage(config: ExperimentConfig, out_path, workers: int | None = None) -> str:
    """Outage-vs-SNR curves for every configured mode.

    Columns: snr_db, mode, analytical_po, asymptotic_po, mc_outage,
    mc_stderr, hits, reliable.
    """
    columns = ["analytical_po", "asymptotic_po", "mc_outage", "mc_stderr", "hits", "reliable"]
    threshold = max(config.budget(snr_db).gain_threshold for snr_db in config.snr_grid_db)
    return _write_curves(
        config, out_path, workers, "outage", columns, gamma_fit, _outage_row, threshold
    )


@_one_blas_thread()
def cmd_capacity(config: ExperimentConfig, out_path, workers: int | None = None) -> str:
    """Ergodic-capacity-vs-SNR curves for every configured mode.

    Columns: snr_db, mode, jensen_bound, asymptotic_bound, mc_capacity,
    mc_stderr.
    """
    columns = ["jensen_bound", "asymptotic_bound", "mc_capacity", "mc_stderr"]
    return _write_curves(
        config, out_path, workers, "capacity", columns, lambda block: block, _capacity_row
    )


@_one_blas_thread()
def cmd_sweep_m(config: ExperimentConfig, out_path, workers: int | None = None) -> str:
    """Capacity versus grid density at fixed aperture and fixed m_o.

    Requires m_grid, exactly one adaptive mode (supplying m_o), at most
    one baseline mode (the flat reference), no static mode, and a
    single-point SNR grid.
    Columns: m_x, m_z, m, fris_capacity, fris_stderr, ris_capacity,
    ris_stderr; the baseline is run once and repeated (it does not
    depend on the sweep density).
    """
    if config.m_grid is None:
        raise ConfigError("sweep-m: config requires m_grid")
    # the document's types tell the adaptive mode from the baseline, which
    # may sample the same grid with the same m_o
    types = [raw["type"] for raw in config.canonical["modes"]]
    adaptives = [s for s, t in zip(config.modes, types) if t == "adaptive_fris"]
    baselines = [s for s, t in zip(config.modes, types) if t == "ris_baseline"]
    if len(adaptives) != 1 or len(baselines) > 1 or "static" in types:
        raise ConfigError(
            "sweep-m: config must specify exactly one adaptive_fris mode, "
            "at most one ris_baseline mode and no static mode"
        )
    if len(config.snr_grid_db) != 1:
        raise ConfigError("sweep-m: snr_grid_db must contain exactly one point")
    m_o = adaptives[0].mode.m_o
    budget = config.budget(config.snr_grid_db[0])
    if baselines:
        ris_grid, ris_mode = baselines[0].grid, baselines[0].mode
    else:
        side = math.isqrt(m_o)
        if side * side != m_o:
            raise ConfigError(
                "sweep-m: ris_baseline mode required when m_o is not square"
            )
        ris_grid, ris_mode = config.geometry.regrid(side, side), CoherentMode(m_o)
    for grid in config.m_grid:
        if grid.m < m_o:
            raise ConfigError(
                f"sweep-m: grid {grid.m_x}x{grid.m_z} has fewer than m_o={m_o} elements"
            )
    runs = [(ris_grid, ris_mode)] + [(grid, adaptives[0].mode) for grid in config.m_grid]
    plans = plan_runs(config.kernel, runs)
    with _output(out_path) as f:
        ris_samples, *sweep = run_many(plans, config.trials, config.seed, workers=workers)
        ris_est = estimate_ergodic_capacity(ris_samples, budget)
        rows = []
        for grid, samples in zip(config.m_grid, sweep):
            est = estimate_ergodic_capacity(samples, budget)
            rows.append(
                (
                    grid.m_x,
                    grid.m_z,
                    grid.m,
                    est.capacity,
                    est.stderr,
                    ris_est.capacity,
                    ris_est.stderr,
                )
            )
        meta = _base_meta(config, "sweep-m")
        meta.update({"m_o": m_o, "snr_db": format(config.snr_grid_db[0], ".17g")})
        names = [f"ris({ris_grid.m_x}x{ris_grid.m_z})"]
        names += [f"{adaptives[0].label}@{g.m_x}x{g.m_z}" for g in config.m_grid]
        meta["ranks"] = _ranks(names, plans)
        _write_csv(
            f,
            meta,
            ["m_x", "m_z", "m", "fris_capacity", "fris_stderr", "ris_capacity", "ris_stderr"],
            rows,
        )
    return str(out_path)
