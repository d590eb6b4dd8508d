"""Planar surface geometry and spatial correlation of its elements.

Elements sit on a rectangular grid in the x-z plane, indexed row-major
from the origin: index i maps to column i % m_x (x axis) and row
i // m_x (z axis). Correlation between two elements depends only on
their Euclidean separation through an isotropic scattering kernel; any
block of a grid's matrix is read from its table of offset distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .special import bessel_j0_cylindrical, bessel_j0_spherical

__all__ = [
    "SurfaceGeometry",
    "CorrelationSqrt",
    "jakes_coefficient",
    "build_correlation_matrix",
    "psd_sqrt",
    "uniform_grid_selection",
    "KERNELS",
]

KERNELS = ("spherical", "cylindrical")

# Relative eigenvalue floor used when factoring a numerically singular
# correlation matrix; anything below tol * max_eigenvalue is treated as zero.
_EIG_CLAMP_REL = 1e-12

# element indices are int64; larger grids would wrap silently
_MAX_ELEMENTS = 2**63


@dataclass(frozen=True)
class SurfaceGeometry:
    """Rectangular element grid spanning an aperture of w_x x w_z wavelengths.

    m_x, m_z   elements per axis
    w_x, w_z   aperture extent along each axis, in carrier wavelengths
    wavelength carrier wavelength in metres
    """

    m_x: int
    m_z: int
    w_x: float
    w_z: float
    wavelength: float

    def __post_init__(self):
        for name in ("m_x", "m_z"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
                raise ValueError(f"geometry.{name}: must be a positive integer, got {v!r}")
        if int(self.m_x) * int(self.m_z) >= _MAX_ELEMENTS:
            raise ValueError(f"geometry: {self.m_x}x{self.m_z} elements exceed the index range")
        for name in ("w_x", "w_z", "wavelength"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"geometry.{name}: must be a positive finite number, got {v!r}")

    @property
    def m(self) -> int:
        """Total element count."""
        return self.m_x * self.m_z

    @property
    def d_x(self) -> float:
        """Element pitch along x, in metres."""
        return self.w_x * self.wavelength / self.m_x

    @property
    def d_z(self) -> float:
        """Element pitch along z, in metres."""
        return self.w_z * self.wavelength / self.m_z

    def regrid(self, m_x: int, m_z: int) -> "SurfaceGeometry":
        """The same aperture and carrier sampled by an m_x x m_z grid."""
        return replace(self, m_x=m_x, m_z=m_z)


def jakes_coefficient(distance, wavelength: float, kernel: str = "spherical"):
    """Spatial correlation of elements a given distance apart, vectorised
    over the distance: a float for a scalar, else an array of its shape.

    Isotropic scattering in 3-D gives sin(u)/u and in the azimuth plane
    J0(u), with u = 2 pi d / lambda.
    """
    distance = np.asarray(distance, dtype=float)
    if np.any(distance < 0):
        raise ValueError(f"distance must be nonnegative, got {float(distance.min())!r}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength!r}")
    u = 2.0 * math.pi * distance / wavelength
    if kernel == "spherical":
        return bessel_j0_spherical(u)
    if kernel == "cylindrical":
        return bessel_j0_cylindrical(u)
    raise ValueError(f"kernel: expected one of {KERNELS}, got {kernel!r}")


def build_correlation_matrix(
    geom: SurfaceGeometry, kernel: str = "spherical", rows=None, cols=None
) -> np.ndarray:
    """Block J[rows, cols] of the grid's element correlation matrix J, for
    two index vectors: rows None is every element, cols None is rows.

    Entries depend only on the absolute index offsets per axis, so one
    kernel call evaluates the m_x x m_z table of offset distances, and
    each entry is read from it by index. So J is exactly symmetric under
    the mirror of either axis, which `montecarlo._parity_classes` folds
    by the grid's shape alone. The block, then the table, is allocated
    first: one the machine cannot hold raises MemoryError at once.
    """
    shape = [geom.m if ix is None else len(ix) for ix in (rows, rows if cols is None else cols)]
    try:
        j = np.empty(shape)
        dist = np.empty((geom.m_x, geom.m_z))
    except (ValueError, MemoryError) as e:  # past numpy's size limit, or the machine's
        raise MemoryError(f"a {geom.m_x}x{geom.m_z} grid's correlation block is too large") from e
    for dx in range(geom.m_x):
        dist[dx] = [math.hypot(dx * geom.d_x, dz * geom.d_z) for dz in range(geom.m_z)]
    table = jakes_coefficient(dist, geom.wavelength, kernel)
    rows = np.arange(geom.m) if rows is None else np.asarray(rows, dtype=np.intp)
    cols = rows if cols is None else np.asarray(cols, dtype=np.intp)
    if any(ix.size and not 0 <= ix.min() <= ix.max() < geom.m for ix in (rows, cols)):
        raise IndexError(f"element indices must lie in [0, {geom.m})")
    # wide[m_x - 1 + x' - x, m_z - 1 + z' - z] is entry (row z, col x; row z', col x'),
    # at flat index wide.size // 2 + key' - key for key = (2 m_z - 1) x + z
    wide = table[np.ix_(*(np.abs(np.arange(1 - m, m)) for m in (geom.m_x, geom.m_z)))]
    keys = [ix % geom.m_x * (2 * geom.m_z - 1) + ix // geom.m_x for ix in (rows, cols)]
    return np.take(wide, np.add.outer(wide.size // 2 - keys[0], keys[1]), out=j, mode="clip")


@dataclass(frozen=True, eq=False)
class CorrelationSqrt:
    """Rank-r factor of a correlation matrix.

    factor        the M x r factor F = U_r sqrt(Lambda_r) over the r
                  unclamped eigenpairs, so F @ F.T ~= J
    clamped_count eigenvalues treated as zero during factorization (M - r)
    """

    factor: np.ndarray
    clamped_count: int


def psd_sqrt(j: np.ndarray) -> CorrelationSqrt:
    """Rank-r factor of a correlation matrix via eigendecomposition.

    Dense grids make J numerically rank-deficient; eigenvalues below
    1e-12 * max_eigenvalue are clamped to zero rather than propagated
    as tiny negatives. Since eigenvalues come
    in ascending order, the clamped ones are the leading columns, and the
    factor keeps the trailing r = M - clamped_count columns.
    """
    j = np.asarray(j, dtype=float)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise ValueError(f"correlation matrix must be square, got shape {j.shape}")
    evals, evecs, low = _clamped_eigh(j)
    clamped = int(np.count_nonzero(low))
    factor = evecs[:, clamped:] * np.sqrt(evals[clamped:])
    return CorrelationSqrt(factor, clamped)


def _clamped_eigh(j: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of a symmetric matrix, or of
    each of a stack of them, with the mask of the eigenvalues below 1e-12
    times the largest of all, which a factor treats as zero. Raises
    LinAlgError if no eigenvalue is positive or a clamped one is below
    -1e-6 times the largest."""
    evals, evecs = np.linalg.eigh(j)
    peak = float(evals.max())
    if peak <= 0:
        raise np.linalg.LinAlgError("correlation matrix has no positive eigenvalue")
    low = evals < _EIG_CLAMP_REL * peak
    if np.any(evals[low] < -1e-6 * peak):
        raise np.linalg.LinAlgError(
            "correlation matrix is indefinite beyond numerical tolerance"
        )
    return evals, evecs, low


def uniform_grid_selection(geom: SurfaceGeometry, k_x: int, k_z: int) -> np.ndarray:
    """Indices of a k_x x k_z subgrid spread evenly over the full grid.

    Per axis the chosen columns/rows are round(linspace(0, m-1, k)), sorted
    and duplicate-free: for k <= m the points lie (m-1)/(k-1) >= 1 apart,
    exactly 1 only at k = m, where all are integers, so none round alike.
    """
    if not 1 <= k_x <= geom.m_x:
        raise ValueError(f"k_x must be in [1, {geom.m_x}], got {k_x}")
    if not 1 <= k_z <= geom.m_z:
        raise ValueError(f"k_z must be in [1, {geom.m_z}], got {k_z}")
    cols = np.round(np.linspace(0, geom.m_x - 1, k_x)).astype(int)
    rows = np.round(np.linspace(0, geom.m_z - 1, k_z)).astype(int)
    return (rows[:, None] * geom.m_x + cols[None, :]).ravel()

