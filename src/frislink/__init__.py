"""Fluid reflecting-surface link simulator and closed-form analysis."""

__version__ = "0.1.0"

from .special import (  # noqa: E402
    bessel_j0_cylindrical,
    bessel_j0_spherical,
    ln_gamma,
    reg_lower_inc_gamma,
)
from .correlation import (  # noqa: E402
    SurfaceGeometry,
    build_correlation_matrix,
    jakes_coefficient,
    principal_submatrix,
    psd_sqrt,
    uniform_grid_selection,
)
from .channel import (  # noqa: E402
    LinkBudget,
    PathLoss,
    path_loss_factor,
)
from .analysis import (  # noqa: E402
    GammaFit,
    ergodic_capacity_asymptotic,
    ergodic_capacity_bound,
    gamma_cdf,
    gamma_fit,
    gamma_pdf,
    gamma_quantile,
    gain_cdf,
    gain_outage_probability,
    outage_asymptotic,
    outage_probability,
    trace_power,
)
from .montecarlo import (  # noqa: E402
    AdaptiveFrisMode,
    RisBaselineMode,
    StaticMode,
    chunk_rng,
    empirical_cdf,
    estimate_ergodic_capacity,
    estimate_outage,
    ks_statistic,
    run_trials,
)
from .config import (  # noqa: E402
    ConfigError,
    ExperimentConfig,
    db_to_linear,
    load_config,
    parse_config,
    preset_config,
)
from .experiments import cmd_capacity, cmd_dist, cmd_outage, cmd_sweep_m  # noqa: E402

__all__ = [
    "bessel_j0_cylindrical",
    "bessel_j0_spherical",
    "ln_gamma",
    "reg_lower_inc_gamma",
    "SurfaceGeometry",
    "build_correlation_matrix",
    "jakes_coefficient",
    "principal_submatrix",
    "psd_sqrt",
    "uniform_grid_selection",
    "LinkBudget",
    "PathLoss",
    "path_loss_factor",
    "GammaFit",
    "ergodic_capacity_asymptotic",
    "ergodic_capacity_bound",
    "gamma_cdf",
    "gamma_fit",
    "gamma_pdf",
    "gamma_quantile",
    "gain_cdf",
    "gain_outage_probability",
    "outage_asymptotic",
    "outage_probability",
    "trace_power",
    "AdaptiveFrisMode",
    "RisBaselineMode",
    "StaticMode",
    "chunk_rng",
    "empirical_cdf",
    "estimate_ergodic_capacity",
    "estimate_outage",
    "ks_statistic",
    "run_trials",
    "ConfigError",
    "ExperimentConfig",
    "db_to_linear",
    "load_config",
    "parse_config",
    "preset_config",
    "cmd_capacity",
    "cmd_dist",
    "cmd_outage",
    "cmd_sweep_m",
]
