"""Large-scale fading and the link budget of the two-hop link.

Both hops see correlated Rayleigh fading (montecarlo samples it); this
module holds what scales the equivalent gain into a received SNR: the
distance path loss of each hop, the transmit SNR and the target rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PathLoss",
    "LinkBudget",
    "path_loss_factor",
]


@dataclass(frozen=True)
class PathLoss:
    """Distance-power large-scale fading: factor sqrt(rho * d^-alpha) per hop."""

    rho: float
    alpha: float
    d_f: float  # surface-to-user distance, metres
    d_u: float  # base-to-surface distance, metres

    def __post_init__(self):
        for name in ("rho", "d_f", "d_u"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"pathloss.{name}: must be positive and finite, got {v!r}")
        if not (isinstance(self.alpha, (int, float)) and math.isfinite(self.alpha)):
            raise ValueError(f"pathloss.alpha: must be finite, got {self.alpha!r}")


def path_loss_factor(pl: PathLoss, leg: str) -> float:
    """Amplitude factor for one hop: sqrt(rho * d^-alpha)."""
    if leg == "f":
        d = pl.d_f
    elif leg == "u":
        d = pl.d_u
    else:
        raise ValueError(f"leg must be 'f' or 'u', got {leg!r}")
    return math.sqrt(pl.rho * d ** (-pl.alpha))


@dataclass(frozen=True)
class LinkBudget:
    """Transmit SNR, large-scale fading and the target rate of the link."""

    gamma_bar: float  # transmit SNR, linear
    pathloss: PathLoss
    rate_target: float  # bits/s/Hz

    def __post_init__(self):
        if not (math.isfinite(self.gamma_bar) and self.gamma_bar > 0):
            raise ValueError(f"gamma_bar must be positive, got {self.gamma_bar!r}")
        if not (math.isfinite(self.rate_target) and self.rate_target > 0):
            raise ValueError(f"rate_target must be positive, got {self.rate_target!r}")

    @property
    def snr_scale(self) -> float:
        """gamma_bar * L_f * L_u: received SNR per unit equivalent gain."""
        return (
            self.gamma_bar
            * path_loss_factor(self.pathloss, "f")
            * path_loss_factor(self.pathloss, "u")
        )

    @property
    def rate_threshold(self) -> float:
        """SNR below which the target rate is in outage: 2^R - 1."""
        return 2.0 ** self.rate_target - 1.0

    @property
    def gain_threshold(self) -> float:
        """Equivalent gain below which the target rate is in outage."""
        return self.rate_threshold / self.snr_scale
