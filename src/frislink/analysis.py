"""Closed-form statistics of the equivalent link gain.

For a fixed selection with zero phases, conditioning on the user-side
hop makes the equivalent channel circular Gaussian, so the gain is
G = S E: S = a_u^H J~ a_u is the conditional power and E ~ Exp(1) is
independent of it. S has mean tr(J~^2) and variance tr(J~^4).

gamma_fit matches Gamma(k, theta) to those two moments; it is the law
of S (exact when J~ has equal eigenvalues). The Gamma pdf/cdf/quantile
and the Gamma outage and its x^k tail are the paper's surrogate for G.
They are far too narrow for G itself, whose variance is
tr(J~^2)^2 + 2 tr(J~^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget
from .special import _gamma_prefactor, ln_gamma, reg_lower_inc_gamma

__all__ = [
    "GammaFit",
    "trace_power",
    "gamma_fit",
    "gamma_pdf",
    "gamma_cdf",
    "gamma_quantile",
    "outage_probability",
    "outage_asymptotic",
    "ergodic_capacity_bound",
    "ergodic_capacity_asymptotic",
]

# bisection steps of gamma_quantile decided by one vectorised gamma_cdf
# call, on 2^levels - 1 midpoints
_BISECTION_LEVELS = 6


def trace_power(j_sub: np.ndarray, power: int) -> float:
    """tr(J~^p) for p in {2, 4}, via the eigenvalues of the submatrix."""
    if power not in (2, 4):
        raise ValueError(f"power must be 2 or 4, got {power}")
    return float(np.sum(_eigenvalues(j_sub) ** power))


def _eigenvalues(j_sub: np.ndarray) -> np.ndarray:
    """Eigenvalues of the submatrix, none for an empty one."""
    j_sub = np.asarray(j_sub, dtype=float)
    if j_sub.size == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(j_sub)


@dataclass(frozen=True)
class GammaFit:
    """Gamma(shape_k, scale_theta): the law of the conditional power S,
    and the paper's surrogate for the equivalent gain."""

    shape_k: float
    scale_theta: float

    def __post_init__(self):
        if not (math.isfinite(self.shape_k) and self.shape_k > 0):
            raise ValueError(f"shape_k must be positive, got {self.shape_k!r}")
        if not (math.isfinite(self.scale_theta) and self.scale_theta > 0):
            raise ValueError(f"scale_theta must be positive, got {self.scale_theta!r}")


def gamma_fit(j_sub: np.ndarray) -> GammaFit:
    """Moment-matched Gamma parameters from the selected correlation block.

    k = tr(J~^2)^2 / tr(J~^4) and theta = tr(J~^4) / tr(J~^2), so that
    Gamma(k, theta) has the exact mean tr(J~^2) and variance tr(J~^4) of
    the conditional power S, not those of the gain G = S E. For an
    identity block this collapses to k = M_o, theta = 1.
    """
    evals = _eigenvalues(j_sub)
    t2 = float(np.sum(evals**2))
    t4 = float(np.sum(evals**4))
    if t2 <= 0 or t4 <= 0:
        raise ValueError("correlation block is degenerate: nonpositive trace power")
    return GammaFit(shape_k=t2 * t2 / t4, scale_theta=t4 / t2)


def gamma_pdf(fit: GammaFit, g):
    """Gamma density at gain g, vectorised over g: a float for scalar g,
    else an array of g's shape. Inside (0, +inf) it is
    special._gamma_prefactor at g / theta, divided by g, so no element's
    bits depend on the array it comes in; +inf gives 0 and nan stays nan."""
    g = np.asarray(g, dtype=float)
    k, th = fit.shape_k, fit.scale_theta
    x = g / th
    at_zero = 0.0 if k > 1.0 else 1.0 / th if k == 1.0 else math.inf
    out = np.where(x == 0.0, at_zero, 0.0)
    inner = ~((x <= 0.0) | (x == math.inf))  # nan included
    out[inner] = _gamma_prefactor(k, x[inner]) / g[inner]
    return float(out) if out.ndim == 0 else out


def gamma_cdf(fit: GammaFit, g):
    """Gamma distribution function at gain g, vectorised over g: a float
    for scalar g, else an array. Gains at or below 0 give 0."""
    g = np.maximum(np.asarray(g, dtype=float), 0.0)
    return reg_lower_inc_gamma(fit.shape_k, g / fit.scale_theta)


def gamma_quantile(fit: GammaFit, p: float) -> float:
    """Inverse of gamma_cdf by bisection; p in [0, 1).

    Each gamma_cdf call evaluates every midpoint that the next
    _BISECTION_LEVELS steps can visit, each formed from its interval as
    a single step forms it, so the result is that of plain bisection.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1), got {p!r}")
    if p == 0.0:
        return 0.0
    k, th = fit.shape_k, fit.scale_theta
    hi = th * (k + 10.0 * math.sqrt(k) + 10.0)
    while gamma_cdf(fit, hi) < p:
        hi *= 2.0
    lo = 0.0
    steps = 0
    while True:
        # the tree of reachable midpoints, level by level: node i's
        # interval splits into those of nodes 2i + 1 (low) and 2i + 2
        mids = []
        intervals = [(lo, hi)]
        for _ in range(_BISECTION_LEVELS):
            level = []
            for a, b in intervals:
                mid = 0.5 * (a + b)
                mids.append(mid)
                level += [(a, mid), (mid, b)]
            intervals = level
        below = gamma_cdf(fit, np.array(mids)) < p
        node = 0
        for _ in range(_BISECTION_LEVELS):
            if below[node]:
                lo = mids[node]
                node = 2 * node + 2
            else:
                hi = mids[node]
                node = 2 * node + 1
            steps += 1
            if hi - lo <= 1e-14 * hi or steps == 200:
                return 0.5 * (lo + hi)


def outage_probability(fit: GammaFit, budget: LinkBudget) -> float:
    """P(rate target not met) under the Gamma gain surrogate."""
    return gamma_cdf(fit, budget.gain_threshold)


def outage_asymptotic(fit: GammaFit, budget: LinkBudget) -> float:
    """High-SNR outage tail: x^k / Gamma(k+1) at x = threshold / theta.

    Evaluated in the log domain so deep tails underflow gracefully to 0
    instead of overflowing intermediates, and a tail beyond the double
    range (far below the high-SNR regime, where the asymptote exceeds 1
    anyway) is +inf.
    """
    x = budget.gain_threshold / fit.scale_theta
    if x == 0.0:
        return 0.0
    k = fit.shape_k
    try:
        return math.exp(k * math.log(x) - ln_gamma(k + 1.0))
    except OverflowError:
        return math.inf


def ergodic_capacity_bound(j_sub: np.ndarray, budget: LinkBudget) -> float:
    """Mean-gain capacity bound log2(1 + snr_scale * tr(J~^2))."""
    return math.log2(1.0 + budget.snr_scale * trace_power(j_sub, 2))


def ergodic_capacity_asymptotic(j_sub: np.ndarray, budget: LinkBudget) -> float:
    """High-SNR asymptote of the capacity bound: log2(snr_scale * tr(J~^2))."""
    t2 = trace_power(j_sub, 2)
    if t2 <= 0:
        raise ValueError("capacity asymptote undefined for a degenerate block")
    return math.log2(budget.snr_scale * t2)

