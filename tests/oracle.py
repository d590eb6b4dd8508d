"""Per-realization reference for the Monte Carlo engine.

`frislink.montecarlo` computes a chunk of trials at once in real
arithmetic through the rank-r hop factor. This module restates one
trial at a time in complex arithmetic, straight from the model: the
hop gains at the selected elements are rows of the correlation factor
times h ~ CN(0, I), the static gain is
|sum_i conj(a_u[i]) e^(j phi_i) a_f[i]|^2, and the coherent gain is
(sum_i |a_u[i]| |a_f[i]|)^2 over the selected elements. The coherent
engine is tested against it trial by trial, the static engine in law,
and the correlation tests use its element positions and its symmetric
root of J (`symmetric_sqrt`).
`column_normals` and `column_channels` restate the coherent stream
layout: draw block j of chunk c (its trials 128j .. 128j + 127) is the
Philox stream with counter (c << 128) | ((j + 1) << 64), read
column-major in columns of 512 normals, and the block's trial t reads
positions 4t..4t+3 of each of its first r columns. `screen_first_factor`
restates the layout a run with a threshold reads the same streams in
(artifact version 11): each parity class block rotated so that the
screen set's rows reach only the first s <= 16 columns, with the other
coordinates after them, as one factor F' whose columns `column_normals`
fills; `class_factor` assembles a plan's classes into such a factor.
`whole_chunk_gains`
restates a whole chunk in the engine's own arithmetic (artifact version
9: one projection per parity class of the grid's mirror symmetries,
their signed sums at each mirror image, and each trial's m_o largest
products summed in ascending order) but without its trial blocks, and
`plain_factor_gains` the same gains through the unfolded factor.
`trial_major_gains` keeps the coherent composition of artifact version
3, which read each trial's 4r normals in a row of the chunk stream;
`projected_static_gains` keeps the static composition the engine used
before it drew its static gains from their spectral law, and
`sample_gain_exponential_mixture` draws one static gain at a time by
conditioning on the user-side hop (`sample_gains_exponential_mixture`
many at once, with the same draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from frislink.correlation import _clamped_eigh
from frislink.montecarlo import _GAIN_SCALE, CHUNK_TRIALS, chunk_rng

_RT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the two hop vectors before spatial correlation."""

    h_f: np.ndarray  # surface-to-user hop, CN(0, I_M)
    h_u: np.ndarray  # base-to-surface hop, CN(0, I_M)


def sample_channels(rng: np.random.Generator, m: int) -> ChannelRealization:
    """Draw both hop vectors from a single stream of 4m standard normals.

    The first 2m normals form h_f (real parts then imaginary parts), the
    next 2m form h_u the same way, the order of a trial's row in
    artifact version 3. Each entry is CN(0, 1).
    """
    z = rng.standard_normal(4 * m)
    h_f = (z[:m] + 1j * z[m : 2 * m]) * _RT_HALF
    h_u = (z[2 * m : 3 * m] + 1j * z[3 * m :]) * _RT_HALF
    return ChannelRealization(h_f=h_f, h_u=h_u)


def symmetric_sqrt(j: np.ndarray) -> np.ndarray:
    """The symmetric PSD square root S of a correlation matrix, S S ~= J:
    U sqrt(Lambda) U^T over all its eigenpairs, with the eigenvalues that
    `psd_sqrt` clamps set to zero, made exactly symmetric."""
    evals, evecs, low = _clamped_eigh(np.asarray(j, dtype=float))
    root = (evecs * np.sqrt(np.where(low, 0.0, evals))) @ evecs.T
    return 0.5 * (root + root.T)


def effective_channel(
    sqrt_j: np.ndarray, h: np.ndarray, selection: np.ndarray
) -> np.ndarray:
    """Correlated hop gains at the selected elements: rows of J^(1/2) times h."""
    sel = np.asarray(selection, dtype=int)
    return sqrt_j[sel, :] @ h


def equivalent_gain_static(
    a_u: np.ndarray, a_f: np.ndarray, phases: np.ndarray
) -> float:
    """|sum_i conj(a_u[i]) e^(j phi_i) a_f[i]|^2 for fixed phase shifts."""
    s = np.sum(np.conj(a_u) * np.exp(1j * np.asarray(phases, dtype=float)) * a_f)
    return float(np.abs(s) ** 2)


def equivalent_gain_coherent(a_u: np.ndarray, a_f: np.ndarray) -> float:
    """(sum_i |a_u[i]| |a_f[i]|)^2: every term phase-aligned, the per-
    realization optimum over phase shifts."""
    return float(np.sum(np.abs(a_u) * np.abs(a_f)) ** 2)


def select_top_products(
    a_u_full: np.ndarray, a_f_full: np.ndarray, m_o: int
) -> np.ndarray:
    """Indices of the m_o largest per-element products |a_u[i]| |a_f[i]|.

    Ties break toward the lower index; the result is sorted ascending.
    """
    prod = np.abs(a_u_full) * np.abs(a_f_full)
    m = prod.shape[0]
    if not 1 <= m_o <= m:
        raise ValueError(f"m_o must be in [1, {m}], got {m_o}")
    if m_o == m:
        return np.arange(m)
    # stable sort on (-product, index) resolves ties toward lower indices
    order = np.argsort(-prod, kind="stable")
    idx = order[:m_o]
    idx.sort()
    return idx


def ris_baseline_gain(sqrt_j_r: np.ndarray, h_u: np.ndarray, h_f: np.ndarray) -> float:
    """Coherent gain of a conventional surface using all of its elements."""
    a_u = sqrt_j_r @ h_u
    a_f = sqrt_j_r @ h_f
    return equivalent_gain_coherent(a_u, a_f)


def element_position(index: int, geom) -> tuple[float, float]:
    """(x, z) position in metres of the element at a row-major index."""
    if not 0 <= index < geom.m:
        raise ValueError(f"element index {index} out of range [0, {geom.m})")
    col = index % geom.m_x
    row = index // geom.m_x
    return col * geom.d_x, row * geom.d_z


def pairwise_distance(i: int, j: int, geom) -> float:
    """Euclidean separation in metres between elements i and j."""
    xi, zi = element_position(i, geom)
    xj, zj = element_position(j, geom)
    return math.hypot(xi - xj, zi - zj)


# trials per coherent draw block, fixed by the stream contract
DRAW_BLOCK = 128


def column_normals(seed: int, chunk: int, n: int, r: int) -> np.ndarray:
    """The coherent normals of n trials of one chunk, shaped (r, 4n): row
    k, position 4t + j is part j (Re h_f, Im h_f, Re h_u, Im h_u, each
    times sqrt(2)) of coordinate k of trial t's white hop vectors, which
    the factor's column k maps to the elements. Each draw block's r
    columns are read from its own stream, one column after the other,
    and the last block is drawn whole however few trials it holds."""
    width = 4 * DRAW_BLOCK
    blocks = []
    for j in range(-(-n // DRAW_BLOCK)):
        bits = np.random.Philox(key=seed, counter=(chunk << 128) | ((j + 1) << 64))
        blocks.append(np.random.Generator(bits).standard_normal(r * width).reshape(r, width))
    return np.concatenate(blocks, axis=1)[:, : 4 * n]


def column_channels(seed: int, chunk: int, n: int, r: int) -> list:
    """Both hop vectors of the first n trials of a chunk, read from the
    coherent draw blocks, one ChannelRealization per trial."""
    z = column_normals(seed, chunk, n, r)
    return [
        ChannelRealization(
            h_f=(z[:, 4 * t] + 1j * z[:, 4 * t + 1]) * _RT_HALF,
            h_u=(z[:, 4 * t + 2] + 1j * z[:, 4 * t + 3]) * _RT_HALF,
        )
        for t in range(n)
    ]


# elements, at most, of a screen set, and so draw columns, at most, at
# the head of a draw block in the screen-first layout
SCREEN_COLUMNS = 16


def class_factor(classes, images: np.ndarray, width: int) -> np.ndarray:
    """The M' x width factor that a plan's classes, (draw columns, Q x r_c
    block) each, make on its grid: s_nc times class c's block at the rows
    images[n] and the class's draw columns, zero in the columns no class
    reads."""
    c = len(images)
    f = np.zeros((images.size, width))
    for k, (cols, block) in enumerate(classes):
        for n, row in enumerate(images):
            f[np.ix_(row, cols)] = _signs(c)[n, k] * block
    return f


def screen_first_factor(plan, images: np.ndarray):
    """The M' x r factor F' that a run with a threshold reads a coherent
    plan's draw blocks through, and its screen set S: the first
    min(m_o, 16) of the mirror images (rows of `images`, from
    `_parity_classes`) of b = ceil(min(m_o, 16) / C) base elements, the
    ((2i + 1) Q) // (2b)-th of the Q for i < b, image by image.

    Each class block B_c is rotated by the orthogonal Q factor of the QR
    of [B_c[base]^T | I], and its base rows are set to 0 past its first
    s_c = min(b, r_c) columns. Draw column o_c + i, o_c the screen
    columns of the classes before c, carries its screen coordinate i; its
    other r_c - s_c go to columns s = sum s_c and up, all classes' in the
    order of the plan's own draw columns they replace. So the parts at S
    read only the first s columns, and the block stream read column-major
    is `column_normals` of r columns: a fill of the first columns and a
    second of the rest give the bits of one fill of both."""
    c, q = images.shape
    width = min(plan.m_o, SCREEN_COLUMNS)
    b = -(-width // c)
    base = (2 * np.arange(b) + 1) * q // (2 * b)
    cuts = [min(b, cols.size) for cols, _ in plan.classes]
    order = sorted(col for (cols, _), s in zip(plan.classes, cuts) for col in cols[s:])
    classes = []
    for k, ((cols, block), s) in enumerate(zip(plan.classes, cuts)):
        basis = np.linalg.qr(np.hstack([block[base].T, np.eye(cols.size)]))[0]
        block = block @ basis
        block[base, s:] = 0.0
        drawn = [sum(cuts[:k]) + i for i in range(s)]
        drawn += [sum(cuts) + order.index(col) for col in cols[s:]]
        classes.append((np.array(drawn, dtype=int), block))
    return class_factor(classes, images, plan.rank), images[:, base].ravel()[:width]


def _products(a: np.ndarray) -> np.ndarray:
    """Per trial and element (2 |a_f|^2) (2 |a_u|^2) from the projected hops
    a, shaped (n, 4, M') or (C, n, 4, Q): Re a_f, Im a_f, Re a_u, Im a_u,
    each times sqrt(2). Squares a in place."""
    np.square(a, out=a)
    return (a[..., 0, :] + a[..., 1, :]) * (a[..., 2, :] + a[..., 3, :])


def _combine_chunk(plan, power: np.ndarray) -> np.ndarray:
    """Coherent gains from the products power, shaped (n, M') in any
    element order: each row sorted whole, its m_o largest summed as square
    roots from the smallest up."""
    kept = np.sort(power, axis=1)[:, power.shape[1] - plan.m_o :]
    amp = np.sqrt(kept).sum(axis=1)
    return _GAIN_SCALE * amp * amp


def _signs(c: int) -> np.ndarray:
    """(-1)^popcount(n & k) for n, k < c: the sign of class k at mirror image n."""
    parity = [[bin(n & k).count("1") % 2 for k in range(c)] for n in range(c)]
    return 1.0 - 2.0 * np.array(parity, dtype=float)


def whole_chunk_gains(plan, seed: int, chunk: int, n: int) -> np.ndarray:
    """The engine's gains for one chunk, drawn at once.

    This is the engine's arithmetic without its trial blocks: for a
    static mode all n x (K+1) exponentials of the chunk in one draw; for
    the coherent modes every draw block's normals drawn whole, one
    projection per parity class, one signed sum of the classes at each
    mirror image, and one combine. With one BLAS thread the blocked
    engine reproduces it bit for bit on the 3x3, 5x4, 6x5, 6x6, 10x10,
    14x14 and 20x20 grids of the 3 x 3 wavelength aperture, at the trial
    counts tested (1, 37, 129 to 191, 517, 3616 and 8192), and for
    static modes but for a last block of one trial, whose one-row product
    numpy computes as a dot product (an ulp or two apart).
    """
    if plan.kind == "static":
        e = chunk_rng(seed, chunk).standard_exponential((n, plan.weights.size + 1))
        return e[:, 0] * (e[:, 1:] @ plan.weights)
    z = column_normals(seed, chunk, n, plan.factor.shape[1])
    y = np.stack([z[cols].T @ block.T for cols, block in plan.classes])
    c, _, q = y.shape
    a = (_signs(c) @ y.reshape(c, -1)).reshape(c, n, 4, q)
    return _combine_chunk(plan, _products(a).transpose(1, 0, 2).reshape(n, c * q))


def plain_factor_gains(plan, seed: int, chunk: int, n: int) -> np.ndarray:
    """Coherent gains of one chunk through the unfolded factor, z.T @ F.T,
    with no parity classes: the reference the folded projection is held to."""
    z = column_normals(seed, chunk, n, plan.factor.shape[1])
    return _combine_chunk(plan, _products((z.T @ plan.factor.T).reshape(n, 4, -1)))


def trial_major_gains(plan, seed: int, n: int) -> np.ndarray:
    """Coherent gains as artifact version 3 drew them: each chunk's trials
    read 4r normals in a row of `chunk_rng`, trial after trial."""
    out = []
    for c, t0 in enumerate(range(0, n, CHUNK_TRIALS)):
        k = min(CHUNK_TRIALS, n - t0)
        z = chunk_rng(seed, c).standard_normal((4 * k, plan.factor.shape[1]))
        out.append(_combine_chunk(plan, _products((z @ plan.factor.T).reshape(k, 4, -1))))
    return np.concatenate(out)


def projected_static_gains(
    factor_sel: np.ndarray, phases: np.ndarray, seed: int, n: int
) -> np.ndarray:
    """Static gains computed from both hops, as artifact version 2 did.

    Each chunk's trials read their 4r normals from the coherent draw
    blocks (`column_normals`), project them through the selected factor
    rows and expand conj(a_u) e^(j phi) a_f into cos and sin terms. A
    trial shares its normals with the coherent modes' trial of the same
    seed and index, so the two can be compared trial by trial.
    """
    cos, sin = np.cos(phases), np.sin(phases)
    out = []
    for c, t0 in enumerate(range(0, n, CHUNK_TRIALS)):
        k = min(CHUNK_TRIALS, n - t0)
        z = column_normals(seed, c, k, factor_sel.shape[1])
        a = (z.T @ factor_sel.T).reshape(k, 4, -1)
        f_re, f_im, u_re, u_im = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
        # conj(a_u) a_f = (p + j q) / 2, rotated by e^(j phi) and summed
        p = u_re * f_re + u_im * f_im
        q = u_re * f_im - u_im * f_re
        s_re = p @ cos - q @ sin
        s_im = p @ sin + q @ cos
        out.append(_GAIN_SCALE * (s_re * s_re + s_im * s_im))
    return np.concatenate(out)


def sample_gain_exponential_mixture(
    rng: np.random.Generator,
    sqrt_j: np.ndarray,
    selection: np.ndarray,
    phases: np.ndarray,
) -> float:
    """One gain draw via the conditional-exponential decomposition.

    Conditioned on the first hop, the equivalent channel is circular
    Gaussian, so the gain is the conditional power times a unit-rate
    exponential. Stream contract: 2M standard normals for the first hop
    (real parts then imaginary parts), then one standard exponential.
    """
    m = sqrt_j.shape[0]
    sel = np.asarray(selection, dtype=int)
    z = rng.standard_normal(2 * m)
    h_u = (z[:m] + 1j * z[m:]) / math.sqrt(2.0)
    a_u = sqrt_j[sel, :] @ h_u
    v = np.conj(a_u) * np.exp(1j * np.asarray(phases, dtype=float))
    w = sqrt_j[sel, :].T @ v
    scale = float(np.real(np.vdot(w, w)))
    return scale * float(rng.standard_exponential())


def sample_gains_exponential_mixture(
    rng: np.random.Generator,
    sqrt_j: np.ndarray,
    selection: np.ndarray,
    phases: np.ndarray,
    n: int,
) -> np.ndarray:
    """n draws of `sample_gain_exponential_mixture`, making its RNG calls in
    the same order, draw after draw, with the algebra of up to 1024 draws
    at a time stacked into matrix products: the same gains to rounding."""
    m = sqrt_j.shape[0]
    rows = sqrt_j[np.asarray(selection, dtype=int), :]
    rot = np.exp(1j * np.asarray(phases, dtype=float))
    width = min(n, 1024)
    z = np.empty((width, 2 * m))
    e = np.empty(width)
    out = np.empty(n)
    for t0 in range(0, n, width):
        k = min(width, n - t0)
        for i in range(k):
            z[i] = rng.standard_normal(2 * m)
            e[i] = rng.standard_exponential()
        h_u = (z[:k, :m] + 1j * z[:k, m:]) / math.sqrt(2.0)
        w = (np.conj(h_u @ rows.T) * rot) @ rows
        out[t0 : t0 + k] = (w.real * w.real + w.imag * w.imag).sum(axis=1) * e[:k]
    return out
