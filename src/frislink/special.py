"""Special functions backing the closed-form link statistics.

Double-precision kernels: log-gamma from the standard library's
math.lgamma, the regularized lower incomplete gamma via the classic series /
continued-fraction split, the spherical (sin x / x) and cylindrical
(midpoint rule up to 17, large-argument expansion beyond) Bessel J0
kernels of the spatial correlation model, and the log of the modified
Bessel function K_nu behind the exact gain law. All but log-gamma are
vectorised over x, and an element's bits do not depend on its array.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ln_gamma",
    "reg_lower_inc_gamma",
    "bessel_j0_spherical",
    "bessel_j0_cylindrical",
    "ln_bessel_k",
]

# Iteration caps; both expansions converge long before these are hit.
_MAX_SERIES_ITER = 2000
_MAX_CF_ITER = 2000
_PREFACTOR_BLOCK = 2048


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for real x > 0: the standard
    library's math.lgamma, which also accepts negative non-integers."""
    x = float(x)
    if not x > 0.0:  # also rejects nan
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _gamma_prefactor(k: float, x: np.ndarray) -> np.ndarray:
    """exp(k ln x - x - ln G(k)) per element, evaluated in the log domain
    with the scalar libm functions: numpy's vector exp rounds some values
    differently, and differently again for a lone value, so this keeps an
    element's bits independent of the array it comes in. Blocks of
    _PREFACTOR_BLOCK bound the Python floats alive at once."""
    out = np.empty(x.shape)
    ln_g = ln_gamma(k)
    for i in range(0, x.size, _PREFACTOR_BLOCK):
        xb = x[i : i + _PREFACTOR_BLOCK]
        ln_x = np.array(list(map(math.log, xb.tolist())))
        out[i : i + _PREFACTOR_BLOCK] = list(map(math.exp, (k * ln_x - xb - ln_g).tolist()))
    return out


def _lower_series(k: float, x: np.ndarray) -> np.ndarray:
    """P(k, x) by the ascending power series for a nonempty 1-d x; best
    for x < k + 1. Each element stops on its own rule and leaves the
    active set."""
    out = np.empty(x.shape)
    live = np.arange(x.size)
    xs = x
    term = np.full(x.size, 1.0 / k)
    total = term.copy()
    denom = k
    for _ in range(_MAX_SERIES_ITER):
        denom += 1.0
        term *= xs / denom
        total += term
        done = term < total * 1e-17  # both positive
        if done.any():
            out[live[done]] = total[done]
            keep = ~done
            live, xs, term, total = live[keep], xs[keep], term[keep], total[keep]
            if live.size == 0:
                return _gamma_prefactor(k, x) * out
    raise ArithmeticError(
        f"incomplete gamma series failed to converge for k={k}, x={float(xs[0])}"
    )


def _upper_continued_fraction(k: float, x: np.ndarray) -> np.ndarray:
    """Q(k, x) by the Lentz continued fraction for a nonempty 1-d x; best
    for x >= k + 1. Each element stops on its own rule and leaves the
    active set."""
    tiny = 1e-300
    out = np.empty(x.shape)
    live = np.arange(x.size)
    b = x + 1.0 - k
    c = np.full(x.size, 1.0 / tiny)
    d = 1.0 / np.where(b != 0.0, b, tiny)
    h = d.copy()
    for i in range(1, _MAX_CF_ITER):
        a = -i * (i - k)
        b = b + 2.0
        d = a * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + a / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
            if live.size == 0:
                return _gamma_prefactor(k, x) * out
    raise ArithmeticError(
        "incomplete gamma continued fraction failed to converge for "
        f"k={k}, x={float(x[live[0]])}"
    )


def reg_lower_inc_gamma(k: float, x):
    """Regularized lower incomplete gamma P(k, x) for k > 0 and x >= 0,
    vectorised over x: a float for scalar x, else an array of x's shape.

    Elements below k + 1 take the series and the finite others the
    continued fraction; each iterates until its own stopping rule holds,
    so its value does not depend on the other elements. P(k, +inf) = 1.
    """
    k = float(k)
    if not k > 0.0:
        raise ValueError(f"reg_lower_inc_gamma requires k > 0, got k={k!r}")
    xs = np.asarray(x, dtype=float)
    bad = xs[~(xs >= 0.0)]  # also catches nan
    if bad.size:
        raise ValueError(f"reg_lower_inc_gamma requires x >= 0, got x={float(bad[0])!r}")
    flat = xs.ravel()
    out = np.where(flat == math.inf, 1.0, 0.0)
    series = (flat > 0.0) & (flat < k + 1.0)
    fraction = (flat >= k + 1.0) & (flat < math.inf)
    if series.any():
        out[series] = _lower_series(k, flat[series])
    if fraction.any():
        out[fraction] = 1.0 - _upper_continued_fraction(k, flat[fraction])
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


# Below this the 2-term Taylor series for sin(x)/x is exact in doubles.
_SINC_CUTOFF = 1e-4


def bessel_j0_spherical(x):
    """Spherical Bessel j0(x) = sin(x)/x, with j0(0) = 1, vectorised over
    x: a float for scalar x, else an array of x's shape."""
    ax = np.abs(np.asarray(x, dtype=float))
    small = ax < _SINC_CUTOFF
    near = np.where(small, ax, 0.0)  # no square of a large x overflows
    far = np.where(small, 1.0, ax)  # nor does 0/0 arise
    out = np.where(small, 1.0 - near * near / 6.0, np.sin(far) / far)
    return float(out) if out.ndim == 0 else out


def bessel_j0_cylindrical(x):
    """Cylindrical Bessel J0(x), vectorised over x: a float for scalar x,
    else an array of x's shape; each element is computed on its own.

    |x| <= 17 takes the 48-node midpoint rule on (1/pi) Int_0^pi cos(x sin t) dt,
    whose aliasing error, about 2 J_96(x), is below double precision
    there (and J0(0) = 1 exactly). Beyond, where the rule would need O(x)
    nodes, J0(x) ~ sqrt(2/(pi x)) [P(x) cos(x - pi/4) + Q(x) sin(x - pi/4)]
    with P = 1 - c2/x^2 + c4/x^4 - ..., Q = c1/x - c3/x^3 + ... and
    c_k = prod_{j<=k} (2j-1)^2 / (8^k k!), truncated at its smallest term.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.empty(ax.shape)
    near = ax <= 17.0
    a, b = ax[near], ax[~near]
    nodes = (math.sin((j + 0.5) * (math.pi / 48)) for j in range(48))
    out[near] = sum(np.cos(a * s) for s in nodes) / 48
    pq = [np.ones(b.shape), np.zeros(b.shape)]  # P and Q: c_k joins P for even k
    term, live = np.ones(b.shape), np.ones(b.shape, dtype=bool)
    # 8 k x and pi x overflow only for x beyond 1e305, where the terms
    # and the amplitude go to their limit 0
    with np.errstate(over="ignore"):
        for k in range(1, 60):
            prev, term = term, term * ((2.0 * k - 1.0) ** 2 / (8.0 * k * b))
            live &= term < prev  # past its smallest term the tail diverges
            if not live.any():
                break
            signed = -term if k % 4 in (2, 3) else term  # +c1, -c2, -c3, +c4, ...
            pq[k % 2] = np.where(live, pq[k % 2] + signed, pq[k % 2])
        p, q = pq
        chi = b - 0.25 * math.pi
        out[~near] = np.sqrt(2.0 / (math.pi * b)) * (p * np.cos(chi) + q * np.sin(chi))
    return float(out) if out.ndim == 0 else out


# Taylor coefficients of 1/Gamma(1 + mu) = sum_j _RGAMMA1[j] mu^j (the
# 1/Gamma(z) series of Abramowitz & Stegun 6.1.34, shifted by one);
# converged to double precision for |mu| <= 1/2.
_RGAMMA1 = (
    1.0,
    0.5772156649015329,
    -0.6558780715202539,
    -0.04200263503409524,
    0.16653861138229148,
    -0.04219773455554433,
    -0.009621971527876973,
    0.0072189432466631,
    -0.0011651675918590652,
    -0.00021524167411495098,
    0.0001280502823881162,
    -2.013485478078824e-05,
    -1.2504934821426706e-06,
    1.133027231981696e-06,
    -2.056338416977607e-07,
    6.116095104481416e-09,
    5.002007644469223e-09,
    -1.18127457048702e-09,
    1.0434267116911005e-10,
    7.782263439905071e-12,
    -3.696805618642206e-12,
    5.100370287454476e-13,
    -2.0583260535665066e-14,
    -5.348122539423018e-15,
    1.2267786282382608e-15,
    -1.1812593016974588e-16,
    1.1866922547516004e-18,
)

_K_EPS = 1e-16
# Temme's series below this argument, Steed's continued fraction above.
_K_SPLIT = 2.0


def _temme_gammas(mu: float):
    """gam1 = (1/G(1-mu) - 1/G(1+mu)) / (2 mu), gam2 = (1/G(1-mu) + 1/G(1+mu)) / 2,
    1/G(1+mu) and 1/G(1-mu) for |mu| <= 1/2, free of cancellation at mu -> 0."""
    even = sum(c * mu**j for j, c in enumerate(_RGAMMA1) if j % 2 == 0)
    odd = sum(c * mu ** (j - 1) for j, c in enumerate(_RGAMMA1) if j % 2 == 1)
    return -odd, even, even + mu * odd, even - mu * odd


def _k_series(mu: float, x: np.ndarray):
    """ln K_mu(x) and ln K_{mu+1}(x) / K_mu(x) by Temme's series; 0 < x < 2."""
    half = 0.5 * x
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < _K_EPS else pimu / math.sin(pimu)
    d = -np.log(half)
    e = mu * d
    flat = np.abs(e) < _K_EPS
    fact2 = np.where(flat, 1.0, np.sinh(e) / np.where(flat, 1.0, e))
    gam1, gam2, gampl, gammi = _temme_gammas(mu)
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    p = 0.5 * np.exp(e) / gampl
    q = 0.5 * np.exp(-e) / gammi
    c = np.ones_like(x)
    quarter = half * half
    k0 = ff.copy()
    k1 = p.copy()  # K_{mu+1} * x / 2
    for i in range(1, _MAX_SERIES_ITER):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c = c * quarter / i
        p = p / (i - mu)
        q = q / (i + mu)
        delta = c * ff
        k0 += delta
        k1 += c * (p - i * ff)
        if np.all(np.abs(delta) < _K_EPS * np.abs(k0)):
            return np.log(k0), np.log(k1 / (half * k0))
    raise ArithmeticError(f"K_nu series failed to converge for mu={mu}")


def _k_continued_fraction(mu: float, x: np.ndarray):
    """ln K_mu(x) and ln K_{mu+1}(x) / K_mu(x) by Steed's continued
    fraction in Temme's form (Numerical Recipes, bessik); x >= 2."""
    a1 = 0.25 - mu * mu
    a = -a1
    c = a1
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d.copy()
    delh = d.copy()
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    q = np.full_like(x, a1)
    s = 1.0 + q * delh
    for i in range(2, _MAX_CF_ITER):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q = q + c * q2
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        if np.all(np.abs(dels) < _K_EPS * np.abs(s)):
            ln_k0 = 0.5 * np.log(0.5 * math.pi / x) - x - np.log(s)
            return ln_k0, np.log((mu + x + 0.5 - a1 * h) / x)
    raise ArithmeticError(f"K_nu continued fraction failed to converge for mu={mu}")


def ln_bessel_k(nu: float, x) -> np.ndarray:
    """ln K_nu(x), the modified Bessel function of the second kind, for
    real order nu and x > 0, vectorised over x.

    The order is split as nu = mu + n with |mu| <= 1/2; K_mu and
    K_{mu+1} come from Temme's series (x < 2) or Steed's continued
    fraction (x >= 2), and the upward recurrence
    K_{v+1} = (2v/x) K_v + K_{v-1} runs on the ratio K_{v+1}/K_v, summing
    logs, so neither large orders nor small arguments overflow.
    """
    nu = abs(float(nu))  # K_{-nu} = K_nu
    if not math.isfinite(nu):
        raise ValueError(f"ln_bessel_k requires a finite order, got {nu!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):  # also rejects nan
        raise ValueError("ln_bessel_k requires x > 0")
    n = int(nu + 0.5)
    mu = nu - n
    ln_k = np.empty(x.shape)
    ln_ratio = np.empty(x.shape)
    near = x < _K_SPLIT
    for mask, method in ((near, _k_series), (~near, _k_continued_fraction)):
        if mask.any():
            ln_k[mask], ln_ratio[mask] = method(mu, x[mask])
    ratio = np.exp(ln_ratio)
    for i in range(1, n + 1):
        ln_k += np.log(ratio)
        ratio = 2.0 * (mu + i) / x + 1.0 / ratio
    return ln_k
