"""Experiment configuration: JSON schema, validation, presets, hashing.

Schema (all keys optional except geometry; unknown keys are rejected):

    {
      "geometry": {"m_x": 20, "m_z": 20, "w_x": 3.0, "w_z": 3.0,
                   "carrier_frequency_hz": 2.4e9},
      "kernel": "spherical" | "cylindrical",
      "pathloss": {"rho": 10.0, "alpha": 2.1, "d_f": 20.0, "d_u": 40.0},
      "rate_target": 0.1,
      "snr_grid_db": [0, 5, 10, ...],            # strictly increasing
      "modes": [
        {"type": "static", "select_x": 12, "select_z": 12,
         "phases": "zero" | [radians in [0, 2pi)]},
        {"type": "adaptive_fris", "m_o": 36},
        {"type": "ris_baseline", "m_rx": 6, "m_rz": 6}
      ],
      "trials": 100000,
      "seed": 42,
      "output_path": "curve.csv" | null,
      "m_grid": [[6, 6], [10, 10], ...]          # sweep-m only
    }

The carrier wavelength is always derived as c / carrier_frequency_hz
with c = 2.99792458e8 m/s.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget, PathLoss
from .correlation import KERNELS, SurfaceGeometry, uniform_grid_selection
from .montecarlo import CoherentMode, StaticMode

__all__ = [
    "SPEED_OF_LIGHT",
    "ConfigError",
    "ModeSpec",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "preset_config",
    "PRESET_NAMES",
    "db_to_linear",
]

SPEED_OF_LIGHT = 2.99792458e8  # m/s

_TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Configuration document rejected: message names the violated field."""


def db_to_linear(db: float) -> float:
    """Power ratio from decibels."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True, eq=False)
class ModeSpec:
    """One simulation mode, the grid it samples and its stable CSV label."""

    label: str
    mode: object  # StaticMode | CoherentMode
    grid: SurfaceGeometry  # a RIS baseline's own grid, else the full one


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated, fully-defaulted experiment description."""

    geometry: SurfaceGeometry
    kernel: str
    pathloss: PathLoss
    rate_target: float
    snr_grid_db: tuple
    modes: tuple  # of ModeSpec
    trials: int
    seed: int
    output_path: str | None
    m_grid: tuple | None  # sweep-m's grids (SurfaceGeometry), each over the full aperture
    canonical: dict  # resolved pure-JSON document, input to the hash

    @property
    def config_hash(self) -> str:
        """Stable digest of the resolved document.

        The output location is excluded: it routes the artifact without
        affecting any computed value, and identical experiments should
        hash identically wherever they are written.
        """
        doc = {k: v for k, v in self.canonical.items() if k != "output_path"}
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def budget(self, snr_db: float) -> LinkBudget:
        """The link budget at one transmit SNR, in dB."""
        return LinkBudget(
            gamma_bar=db_to_linear(snr_db), pathloss=self.pathloss, rate_target=self.rate_target
        )


_TOP_KEYS = {
    "geometry",
    "kernel",
    "pathloss",
    "rate_target",
    "snr_grid_db",
    "modes",
    "trials",
    "seed",
    "output_path",
    "m_grid",
}

_GEOMETRY_KEYS = {"m_x", "m_z", "w_x", "w_z", "carrier_frequency_hz"}

_DEFAULT_PATHLOSS = {"rho": 10.0, "alpha": 2.1, "d_f": 20.0, "d_u": 40.0}
_DEFAULT_SNR_GRID = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]

# Philox keys are 128 bits
_MAX_SEED = 2**128


def _finite_number(value, field: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{field}: must be a finite number, got {value!r}")


def _require_number(doc: dict, section: str, key: str, default=None) -> float:
    if key not in doc:
        if default is None:
            raise ConfigError(f"{section}.{key}: required")
        return default
    return _finite_number(doc[key], f"{section}.{key}")


def _require_int(value, field: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field}: must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{field}: must be at least {minimum}, got {value}")
    return value


def _reject_unknown(doc: dict, allowed: set, section: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown key(s): {', '.join(unknown)}")


def _parse_geometry(doc: dict) -> tuple[SurfaceGeometry, float]:
    if "geometry" not in doc:
        raise ConfigError("geometry: required")
    g = doc["geometry"]
    if not isinstance(g, dict):
        raise ConfigError("geometry: must be an object")
    _reject_unknown(g, _GEOMETRY_KEYS, "geometry")
    m_x = _require_int(g.get("m_x"), "geometry.m_x")
    m_z = _require_int(g.get("m_z"), "geometry.m_z")
    w_x = _require_number(g, "geometry", "w_x")
    w_z = _require_number(g, "geometry", "w_z")
    f_c = _require_number(g, "geometry", "carrier_frequency_hz", default=2.4e9)
    if f_c <= 0:
        raise ConfigError(f"geometry.carrier_frequency_hz: must be positive, got {f_c!r}")
    try:
        geom = SurfaceGeometry(
            m_x=m_x, m_z=m_z, w_x=w_x, w_z=w_z, wavelength=SPEED_OF_LIGHT / f_c
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    # the correlation kernel's widest argument, 2 pi d / lambda corner to corner
    corner = math.hypot((m_x - 1) * geom.d_x, (m_z - 1) * geom.d_z)
    if not math.isfinite(_TWO_PI * corner / geom.wavelength):
        raise ConfigError(
            f"geometry: 2 pi times the {w_x!r} x {w_z!r} wavelength aperture's diagonal overflows"
        )
    return geom, f_c


def _parse_pathloss(doc: dict) -> PathLoss:
    raw = doc.get("pathloss", _DEFAULT_PATHLOSS)
    if not isinstance(raw, dict):
        raise ConfigError("pathloss: must be an object")
    _reject_unknown(raw, set(_DEFAULT_PATHLOSS), "pathloss")
    merged = {**_DEFAULT_PATHLOSS, **raw}
    try:
        return PathLoss(**{k: _require_number(merged, "pathloss", k) for k in _DEFAULT_PATHLOSS})
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _parse_snr_grid(doc: dict) -> tuple:
    grid = doc.get("snr_grid_db", _DEFAULT_SNR_GRID)
    if not isinstance(grid, list) or len(grid) == 0:
        raise ConfigError("snr_grid_db: must be a nonempty list")
    vals = [_finite_number(v, f"snr_grid_db[{i}]") for i, v in enumerate(grid)]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("snr_grid_db: must be strictly increasing")
    return tuple(vals)


def _parse_phases(raw, section: str, count: int) -> np.ndarray:
    if raw == "zero":
        return np.zeros(count)
    if not isinstance(raw, list):
        raise ConfigError(f"{section}.phases: must be 'zero' or a list of radians")
    if len(raw) != count:
        raise ConfigError(f"{section}.phases: expected {count} values, got {len(raw)}")
    phases = [_finite_number(v, f"{section}.phases[{i}]") for i, v in enumerate(raw)]
    for i, v in enumerate(phases):
        if not 0.0 <= v < _TWO_PI:
            raise ConfigError(f"{section}.phases[{i}]: must lie in [0, 2pi), got {v!r}")
    return np.array(phases)


def _regrid(geom: SurfaceGeometry, m_x: int, m_z: int, section: str) -> SurfaceGeometry:
    try:
        return geom.regrid(m_x, m_z)
    except ValueError as e:
        raise ConfigError(f"{section}: {e}") from e


def _parse_mode(raw: dict, index: int, geom: SurfaceGeometry) -> ModeSpec:
    section = f"modes[{index}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{section}: must be an object")
    kind = raw.get("type")
    if kind == "static":
        _reject_unknown(raw, {"type", "select_x", "select_z", "phases"}, section)
        k_x = _require_int(raw.get("select_x"), f"{section}.select_x")
        k_z = _require_int(raw.get("select_z"), f"{section}.select_z")
        try:
            sel = uniform_grid_selection(geom, k_x, k_z)
        except ValueError as e:
            raise ConfigError(f"{section}: {e}") from e
        phases = _parse_phases(raw.get("phases", "zero"), section, len(sel))
        label = f"static({k_x}x{k_z})"
        return ModeSpec(label, StaticMode(selection=sel, phases=phases), geom)
    if kind == "adaptive_fris":
        _reject_unknown(raw, {"type", "m_o"}, section)
        m_o = _require_int(raw.get("m_o"), f"{section}.m_o")
        if m_o > geom.m:
            raise ConfigError(f"{section}.m_o: exceeds element count {geom.m}")
        return ModeSpec(f"fris(Mo={m_o})", CoherentMode(m_o), geom)
    if kind == "ris_baseline":
        _reject_unknown(raw, {"type", "m_rx", "m_rz"}, section)
        m_rx = _require_int(raw.get("m_rx"), f"{section}.m_rx")
        m_rz = _require_int(raw.get("m_rz"), f"{section}.m_rz")
        # every element of its own grid over the same aperture
        grid = _regrid(geom, m_rx, m_rz, section)
        return ModeSpec(f"ris({m_rx}x{m_rz})", CoherentMode(m_rx * m_rz), grid)
    raise ConfigError(
        f"{section}.type: expected static | adaptive_fris | ris_baseline, got {kind!r}"
    )


def _parse_m_grid(doc: dict, geom: SurfaceGeometry) -> tuple | None:
    raw = doc.get("m_grid")
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) == 0:
        raise ConfigError("m_grid: must be a nonempty list of [m_x, m_z] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"m_grid[{i}]: must be a [m_x, m_z] pair")
        m_x = _require_int(pair[0], f"m_grid[{i}][0]")
        m_z = _require_int(pair[1], f"m_grid[{i}][1]")
        out.append(_regrid(geom, m_x, m_z, f"m_grid[{i}]"))
    return tuple(out)


def _check_budgets(config: ExperimentConfig) -> None:
    """Each SNR point's link budget must give a positive, finite received
    SNR per unit gain and a finite outage threshold, so that no command
    runs its trials for curves it cannot compute."""
    for i, snr_db in enumerate(config.snr_grid_db):
        try:
            budget = config.budget(snr_db)
            ok = 0.0 < budget.snr_scale < math.inf and math.isfinite(budget.gain_threshold)
        except (ValueError, ArithmeticError):  # 0 or beyond the float range
            ok = False
        if not ok:
            raise ConfigError(
                f"snr_grid_db[{i}]: at {snr_db!r} dB, pathloss and rate_target give no "
                "positive, finite received SNR per unit gain with a finite outage threshold"
            )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer literal beyond Python's digit limit
        raise ConfigError(f"parse error: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("top level: must be an object")
    _reject_unknown(doc, _TOP_KEYS, "top level")
    geom, f_c = _parse_geometry(doc)
    kernel = doc.get("kernel", "spherical")
    if kernel not in KERNELS:
        raise ConfigError(f"kernel: expected one of {KERNELS}, got {kernel!r}")
    pathloss = _parse_pathloss(doc)
    rate = _require_number(doc, "top level", "rate_target", default=0.1)
    if rate <= 0:
        raise ConfigError(f"rate_target: must be positive, got {rate!r}")
    snr = _parse_snr_grid(doc)
    raw_modes = doc.get("modes")
    if raw_modes is None:
        # minimal configs default to the full grid, zero phases
        raw_modes = [{"type": "static", "select_x": geom.m_x, "select_z": geom.m_z}]
    if not isinstance(raw_modes, list) or len(raw_modes) == 0:
        raise ConfigError("modes: must be a nonempty list")
    modes = tuple(_parse_mode(m, i, geom) for i, m in enumerate(raw_modes))
    trials = _require_int(doc.get("trials", 100_000), "trials")
    seed = doc.get("seed", 42)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise ConfigError(f"seed: must be an integer in [0, 2**128), got {seed!r}")
    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"output_path: must be a string or null, got {output_path!r}")
    m_grid = _parse_m_grid(doc, geom)
    canonical = {
        "geometry": {
            "m_x": geom.m_x,
            "m_z": geom.m_z,
            "w_x": geom.w_x,
            "w_z": geom.w_z,
            "carrier_frequency_hz": f_c,
        },
        "kernel": kernel,
        "pathloss": {"rho": pathloss.rho, "alpha": pathloss.alpha,
                     "d_f": pathloss.d_f, "d_u": pathloss.d_u},
        "rate_target": rate,
        "snr_grid_db": list(snr),
        "modes": [
            {**m, "phases": m.get("phases", "zero")} if m["type"] == "static" else dict(m)
            for m in raw_modes
        ],
        "trials": trials,
        "seed": seed,
        "output_path": output_path,
        "m_grid": [[g.m_x, g.m_z] for g in m_grid] if m_grid else None,
    }
    config = ExperimentConfig(
        geometry=geom,
        kernel=kernel,
        pathloss=pathloss,
        rate_target=rate,
        snr_grid_db=snr,
        modes=modes,
        trials=trials,
        seed=seed,
        output_path=output_path,
        m_grid=m_grid,
        canonical=canonical,
    )
    _check_budgets(config)
    return config


def load_config(path) -> ExperimentConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return parse_config(text)


# Desk-scale reproductions of the published experiment setups: the 20x20
# reference surface over 3x3 wavelengths, each preset's modes, and only
# what differs from the parser's defaults.
_REFERENCE_GEOMETRY = {"m_x": 20, "m_z": 20, "w_x": 3.0, "w_z": 3.0}
_FRIS_36_VS_RIS_6X6 = [
    {"type": "adaptive_fris", "m_o": 36},
    {"type": "ris_baseline", "m_rx": 6, "m_rz": 6},
]
_PRESETS = {
    "fig2": {"modes": [{"type": "static", "select_x": 12, "select_z": 12}]},
    "fig3a": {"modes": _FRIS_36_VS_RIS_6X6, "trials": 1_000_000},
    "fig3b": {
        "modes": [
            {"type": "adaptive_fris", "m_o": 16},
            {"type": "ris_baseline", "m_rx": 4, "m_rz": 4},
        ],
    },
    "fig3c": {
        "modes": _FRIS_36_VS_RIS_6X6,
        "snr_grid_db": [40.0],
        "m_grid": [[6, 6], [10, 10], [14, 14], [20, 20]],
    },
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_config(name: str) -> dict:
    """A fresh copy of a named preset document (validated like any config)."""
    if name not in _PRESETS:
        raise ConfigError(f"preset: expected one of {PRESET_NAMES}, got {name!r}")
    return json.loads(json.dumps({"geometry": _REFERENCE_GEOMETRY, **_PRESETS[name]}))
