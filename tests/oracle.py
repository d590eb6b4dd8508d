"""Per-realization reference for the Monte Carlo engine.

`frislink.montecarlo` computes a chunk of trials at once in real
arithmetic through the rank-r hop factor. This module restates one
trial at a time in complex arithmetic, straight from the model: the
hop gains at the selected elements are rows of the correlation factor
times h ~ CN(0, I), the static gain is
|sum_i conj(a_u[i]) e^(j phi_i) a_f[i]|^2, and the coherent gain is
(sum_i |a_u[i]| |a_f[i]|)^2 over the selected elements. The coherent
engine is tested against it trial by trial, the static engine in law,
and the correlation tests use its element positions.
`column_normals` and `column_channels` restate the coherent stream
layout: draw block j of chunk c (its trials 128j .. 128j + 127) is the
Philox stream with counter (c << 128) | ((j + 1) << 64), read
column-major in columns of 512 normals, and the block's trial t reads
positions 4t..4t+3 of each of its first r columns. `whole_chunk_gains`
restates a whole chunk in the engine's own arithmetic but without its
trial blocks. `trial_major_gains` keeps the coherent composition of
artifact version 3, which read each trial's 4r normals in a row of the
chunk stream; `projected_static_gains` keeps the static composition
the engine used before it drew its static gains from their spectral
law, and `sample_gain_exponential_mixture` draws one static gain at a
time by conditioning on the user-side hop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _combine_chunk(plan, a: np.ndarray) -> np.ndarray:
    """Coherent gains from the projected hops a, shaped (n, 4, M')."""
    np.square(a, out=a)
    power = (a[:, 0] + a[:, 1]) * (a[:, 2] + a[:, 3])
    if plan.m_o < power.shape[1]:
        cut = power.shape[1] - plan.m_o
        idx = np.argpartition(power, cut, axis=1)[:, cut:]
        idx.sort(axis=1)
        power = np.take_along_axis(power, idx, axis=1)
    amp = np.sqrt(power).sum(axis=1)
    return _GAIN_SCALE * amp * amp


def whole_chunk_gains(plan, seed: int, chunk: int, n: int) -> np.ndarray:
    """The engine's gains for one chunk, drawn at once.

    This is the engine's arithmetic without its trial blocks: for a
    static mode all n x (K+1) exponentials of the chunk in one draw, for
    the coherent modes every draw block's normals drawn whole, one
    projection and one combine. The blocked engine reproduces it bit for
    bit on the 6x6, 10x10 and 20x20 grids, and for static modes but for a
    last block of one trial, whose one-row product numpy computes as a
    dot product (an ulp or two apart); on the 14x14 grid (M' = 196) BLAS
    rounds a few of its blocked projections a few ulp apart, within
    2e-15 relative.
    """
    if plan.kind == "static":
        e = chunk_rng(seed, chunk).standard_exponential((n, plan.weights.size + 1))
        return e[:, 0] * (e[:, 1:] @ plan.weights)
    z = column_normals(seed, chunk, n, plan.factor.shape[1])
    return _combine_chunk(plan, (z.T @ plan.factor.T).reshape(n, 4, -1))


def trial_major_gains(plan, seed: int, n: int) -> np.ndarray:
    """Coherent gains as artifact version 3 drew them: each chunk's trials
    read 4r normals in a row of `chunk_rng`, trial after trial."""
    out = []
    for c, t0 in enumerate(range(0, n, CHUNK_TRIALS)):
        k = min(CHUNK_TRIALS, n - t0)
        z = chunk_rng(seed, c).standard_normal((4 * k, plan.factor.shape[1]))
        out.append(_combine_chunk(plan, (z @ plan.factor.T).reshape(k, 4, -1)))
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
