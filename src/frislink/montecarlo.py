"""Chunked, reproducible Monte Carlo engine for equivalent-gain sampling.

The stream and byte contract (artifact version 12) is stated once, in
README "Determinism": the fixed chunks of CHUNK_TRIALS and draw blocks of
_BLOCK_TRIALS, the Philox counter of each stream, the column-major read
of a draw block in a plan's own layout and, for a run with a threshold,
in the screen-first layout, the BLAS pin, and the sampled laws. This
module implements it:

  `StaticMode`,      the two mode kinds; a run is a (grid, mode) pair,
  `CoherentMode`     and a conventional RIS is the coherent mode with
                     m_o = M' on its own grid;
  `plan_runs`        one RunPlan per run: a static mode's weights
                     (`_static_weights`), or the class stack of a coherent
                     grid's factor, cut to its sampled prefix, through its
                     mirror parity classes (`_parity_classes`,
                     `_grid_factor`);
  `run_many`         the plans in one pass over the chunks, on threads:
                     a chunk's static plans by their exponentials
                     (`_static_gains`), then its coherent plans, in one
                     `_workspace` a thread and the layout it picks each;
  `_compute_chunk`   one chunk of the coherent plans, in whole blocks,
                     each from its `_stream`: each plan's `_products` of
                     the block's normals through its layout's class stack
                     (`_stack`), which `_combine` sums;
  `_screen_layout`,  with a threshold, each coherent plan's rotated
  `_lower_bound`     classes and screen, which clear a block from its
                     screen columns (16 at most) before its other normals
                     are drawn.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget
from .correlation import (
    _EIG_CLAMP_REL,
    SurfaceGeometry,
    _clamped_eigh,
    build_correlation_matrix,
    psd_sqrt,
)
from .analysis import GammaFit, gamma_cdf

__all__ = [
    "CHUNK_TRIALS",
    "StaticMode",
    "CoherentMode",
    "OutageEstimate",
    "CapacityEstimate",
    "RunPlan",
    "plan_runs",
    "run_trials",
    "run_many",
    "estimate_outage",
    "estimate_ergodic_capacity",
    "ks_statistic",
    "empirical_cdf",
]

CHUNK_TRIALS = 8192

# trials per coherent draw block, part of the stream contract; one draw
# block is one projection block, so its (r_max, 512) normals and
# (512, M') projections stay within a few MB at M' = 400, for each of
# several chunk threads
_BLOCK_TRIALS = 128

# a coherent run samples the shortest prefix of its grid's draw-ordered
# factor whose dropped columns carry at most this fraction of the trace
_RANK_TAIL = 1e-8

# estimates with fewer outage events than this are flagged unreliable
_MIN_RELIABLE_HITS = 50

# each hop entry is (x + j y) / sqrt(2), so a product of two entries
# carries a factor 1/2 and the gain, its square, a factor 1/4
_GAIN_SCALE = 0.25

# elements, at most, whose products bound a screened coherent trial's
# gain, and so draw columns, at most, of a block's screen
_SCREEN_ELEMENTS = 16


# process-wide BLAS pin: entries in progress, and the thread count the
# first of them found, which the last one out restores
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


@functools.cache
def _blas_controls():
    """Thread-count getter and setter of numpy's bundled OpenBLAS, or
    None if they cannot be found. Resolved on first use, not at import."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread for the length of the block, if it can. The
    setting is process-wide, so entries are counted: the first sets one
    thread and the last restores the caller's count, and nested or
    concurrent runs proceed without waiting for each other."""
    global _blas_depth, _blas_saved
    controls = _blas_controls()
    if controls is None:
        yield
        return
    get_threads, set_threads = controls
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get_threads()
            set_threads(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_threads(_blas_saved)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _stream(seed: int, chunk: int, word: int) -> np.random.Generator:
    """Stream `word` of a chunk: Philox keyed by the seed, with the chunk in
    counter words 2 and 3 and `word` in word 1, far above the increments of
    word 0, so streams never overlap. A chunk's static fills read word 0,
    and its coherent draw block j reads word j + 1."""
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk << 128 | word << 64))


@dataclass(frozen=True, eq=False)
class StaticMode:
    """Fixed element selection with fixed phase shifts."""

    selection: np.ndarray
    phases: np.ndarray


@dataclass(frozen=True)
class CoherentMode:
    """Per-realization top-m_o element activation with coherent phases. A
    conventional RIS is this mode with every element of its own grid on."""

    m_o: int


@dataclass(frozen=True, eq=False)
class RunPlan:
    """One resolved (grid, mode) run: what `run_many` runs and validate
    prints. A coherent plan samples its factor through the parity classes
    of its grid (`_grid_factor`), and keeps only them: `classes` is their
    padded stack (`_stack`), idx (C x r_pad), the draw columns each class
    reads, and blocks (C x r_pad x Q), each class's Q x r_c block
    transposed, the 1/sqrt(C) of the C classes folded in, r_pad the
    largest class rank; past its own rank r_c, a class reads column 0
    through a zero row. The grid has M' = C Q elements. A grid that does
    not fold has one class, the whole factor."""

    kind: str  # 'static' | 'coherent'
    rank: int  # r: coherent, the factor prefix it samples; static, its block's factor
    clamped: int  # eigenvalues clamped to zero: coherent, the grid's; static, its block's
    draws_per_trial: int  # static: K + 1 exponentials; coherent: 4r normals
    m_o: int | None = None  # coherent: elements kept per trial, M' for a RIS
    weights: np.ndarray | None = None  # static: the K weights of S, descending
    classes: tuple | None = None  # coherent: (idx, blocks), the padded class stack


def _static_weights(factor: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Weights nu of a static trial's conditional power S = sum_k nu_k E_k,
    from the m x r factor F of the selection's block J~ = F F^T.

    Given the user-side hop, the equivalent channel is CN(0, S) with
    S = |B conj(h_u)|^2 for B = F^T D F, D = diag(e^(j phi)),
    so nu are the squared singular values of B (r x r, complex):
    sum nu = tr(A) and sum nu^2 = tr(A^2) for A = D J~ D^H J~, and
    nu = lambda(J~)^2 at zero phases. Weights at or below
    _EIG_CLAMP_REL times the largest are dropped.
    """
    b = (factor.T * np.exp(1j * phases)) @ factor
    nu = np.linalg.svd(b, compute_uv=False) ** 2
    return nu[nu > _EIG_CLAMP_REL * nu[0]]


def _check_mode(geom: SurfaceGeometry, mode) -> None:
    if isinstance(mode, StaticMode):
        sel = np.asarray(mode.selection, dtype=int)
        phases = np.asarray(mode.phases, dtype=float)
        if sel.ndim != 1 or sel.size == 0:
            raise ValueError("static selection must be a nonempty index vector")
        s = np.sort(sel)
        if np.any(s[1:] == s[:-1]) or s[0] < 0 or s[-1] >= geom.m:
            raise ValueError(
                f"static selection must be unique indices in [0, {geom.m})"
            )
        if phases.shape != sel.shape or not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite and match the selection length")
    elif not isinstance(mode, CoherentMode):
        raise TypeError(f"unsupported mode {type(mode).__name__}")
    elif not 1 <= mode.m_o <= geom.m:
        raise ValueError(f"m_o must be in [1, {geom.m}], got {mode.m_o}")


@_one_blas_thread()
def plan_runs(kernel: str, runs) -> list:
    """One RunPlan per checked (grid, mode) run. A static run factors its
    selection's block and keeps only its weights; a grid that coherent
    runs sample is factored once through its parity classes, keeping the
    rank of the prefix of its factor in draw order that they sample, the
    stack of its classes' share of that prefix and its clamped count.
    Neither builds a grid's whole matrix. Coherent runs of one grid and
    one m_o get one plan object, which `run_many` computes once."""
    roots = {}
    coherent = {}
    plans = []
    for grid, mode in runs:
        _check_mode(grid, mode)
        if isinstance(mode, StaticMode):
            root = psd_sqrt(build_correlation_matrix(grid, kernel, mode.selection))
            nu = _static_weights(root.factor, np.asarray(mode.phases, dtype=float))
            r = root.factor.shape[1]
            plans.append(RunPlan("static", r, root.clamped_count, nu.size + 1, weights=nu))
            continue
        if (grid, mode) not in coherent:
            if grid not in roots:
                roots[grid] = _grid_factor(grid, kernel)
            r, clamped, classes = roots[grid]
            coherent[grid, mode] = RunPlan("coherent", r, clamped, 4 * r, mode.m_o, classes=classes)
        plans.append(coherent[grid, mode])
    return plans


@functools.cache
def _signs(c: int) -> np.ndarray:
    """The C x C signs (-1)^popcount(n & c) of mirror image n in parity
    class c, for C = 1, 2 or 4 (the Sylvester Hadamard matrix), built
    once per C and read-only."""
    h = np.ones((1, 1))
    while len(h) < c:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _parity_classes(grid: SurfaceGeometry, kernel: str):
    """The mirror images and parity-class blocks of a grid's matrix J.

    Every axis of even length is folded: a uniform grid's J
    (`build_correlation_matrix`) depends only on the absolute index
    offsets per axis, so either mirror leaves it exactly unchanged. That
    makes C = 1, 2 or 4 classes of Q = M' / C elements (Cantoni &
    Butler, Linear Algebra Appl. 13, 1976). Returns the (C, Q) element
    indices, row n the images under the mirrors of the set bits of n of
    the base elements, those in the first half of each folded axis; and
    the (C, Q, Q) blocks B_c = sum_n s_nc J[base, image n], s = _signs(C),
    from J's Q x M' block (all it builds). J is the sum over c of T_c B_c
    T_c^T, where T_c maps a class vector u to the elements, image n of
    base element q taking s_nc u_q / sqrt(C).
    """
    c = (2 - grid.m_x % 2) * (2 - grid.m_z % 2)  # two classes per even axis
    try:  # J's Q x M' block, allocated and dropped: one past memory fails before its indices
        np.empty((grid.m // c, grid.m))
    except (ValueError, MemoryError) as e:  # past numpy's size limit, or the machine's
        raise MemoryError(f"a {grid.m_x}x{grid.m_z} grid's correlation block is too large") from e
    images = np.arange(grid.m).reshape(1, grid.m_z, grid.m_x)
    for axis in (2, 1):  # x, then z
        if images.shape[axis] % 2 == 0:
            half = np.arange(images.shape[axis] // 2)
            images = np.concatenate([images, np.flip(images, axis)]).take(half, axis=axis)
    images = images.reshape(c, -1)
    q = images.shape[1]
    g = build_correlation_matrix(grid, kernel, images[0], images.ravel()).reshape(q, c, q)
    return images, np.einsum("nc,anb->cab", _signs(c), g)


def _grid_factor(grid: SurfaceGeometry, kernel: str):
    """The factor F of a grid's matrix, F F^T = J up to the clamp, in the
    order the coherent draw reads its columns, through the parity classes
    of `_parity_classes`, cut to the shortest prefix whose dropped columns
    carry at most _RANK_TAIL of its trace sum_k ||F_k||^2. Returns the
    prefix's rank r, the clamped count and the stack (`_stack`) of the
    classes: each one's columns of the prefix and their Q-vectors, r_c
    rows of Q (F's entries at image n of the base are s_nc times them, so
    each column's power is C times its class row's, which gives the cut).

    Each class block is eigendecomposed; eigenvalues below _EIG_CLAMP_REL
    times the largest of all classes are clamped, and the others ordered
    largest first (equal ones in the reverse of their order across the
    classes, so one class keeps the unfolded factor's order, eigh's
    reversed). Each column is signed so that its first entry above 1e-3
    of its largest magnitude (clear of the entries that vanish by
    symmetry) is positive: a base element precedes its mirror images in
    row-major order, so that entry is the first such one of its class
    row. Column k is then close to the same spatial mode on every grid of
    one aperture, so runs that share a chunk's draw are positively
    coupled (their common normals drive similar modes).
    """
    images, blocks = _parity_classes(grid, kernel)
    c, q = images.shape
    evals, evecs, low = _clamped_eigh(blocks)
    lam = evals.ravel()
    order = np.argsort(lam, kind="stable")[::-1]
    order = order[~low.ravel()[order]]
    cls, pos = np.divmod(order, q)
    folded = evecs[cls, :, pos].T * np.sqrt(lam[order] / c)
    mag = np.abs(folded)
    lead = np.argmax(mag > 1e-3 * mag.max(axis=0), axis=0)
    sign = np.where(folded[lead, np.arange(order.size)] < 0.0, -1.0, 1.0)
    folded *= sign
    power = (folded * folded).sum(axis=0)  # each column's power, over C
    tail = np.cumsum(power[::-1])[::-1]  # tail[k]: power of columns k and up
    r = int(np.count_nonzero(tail > _RANK_TAIL * tail[0]))
    members = (np.flatnonzero(cls[:r] == i) for i in range(c))
    classes = _stack([(cols, folded[:, cols].T) for cols in members])
    return r, int(np.count_nonzero(low)), classes


def _stack(classes: list) -> tuple:
    """The padded stack of C classes, each (draw columns, r_c x Q rows):
    idx (C x r_pad), each class's columns, and blocks (C x r_pad x Q), its
    rows, r_pad = max r_c, padded past r_c with column 0 and zero rows. A
    real row is never zero (its class block has full column rank), so the
    stack alone gives back each r_c (`_unstack`); and the zero rows add
    exact zeros to a class's dot products, so its projection keeps its
    bits."""
    r_pad = max(cols.size for cols, _ in classes)
    idx = np.zeros((len(classes), r_pad), dtype=np.intp)
    blocks = np.zeros((len(classes), r_pad, classes[0][1].shape[1]))
    for i, (cols, rows) in enumerate(classes):
        idx[i, : cols.size] = cols
        blocks[i, : cols.size] = rows
    return idx, blocks


def _unstack(classes: tuple) -> list:
    """Each class of a stack (`_stack`) as (draw columns, r_c x Q rows),
    views of its real entries."""
    idx, blocks = classes
    ranks = np.count_nonzero(blocks.any(axis=2), axis=1)
    return [(cols[:r], rows[:r]) for cols, rows, r in zip(idx, blocks, ranks)]


def _workspace(plans: list):
    """Working buffers for the draw blocks of the coherent `plans`, sized by
    the largest rank and grid (M' = C Q, from each class stack's shape): the
    block's normals (r_max x 512), and room for
    one hop's class shares (2 x 128 x M'_max) and for both hops' parts,
    the first hop's power kept while the second's parts follow it
    (3 x 128 x M'_max; a hop's gathered columns, C r_pad <= C Q = M' rows
    of 2 x 128, first fill the room its parts take next); and no less
    than a screen's parts and hop powers need (6 x 128 x s_max,
    `_lower_bound`). Every entry of a plan's `idx` must be a column below
    its rank: the gather does not check."""
    for plan in plans:
        if plan.classes[0].max() >= plan.rank:
            raise ValueError(f"a class reads a column past rank {plan.rank}")
    r_max = max(plan.rank for plan in plans)
    m_max = max(plan.classes[1][:, 0].size for plan in plans)  # C x Q
    s_max = max(min(plan.m_o, _SCREEN_ELEMENTS) for plan in plans)
    size = max(5 * m_max, 6 * s_max)
    return np.empty((r_max, 4 * _BLOCK_TRIALS)), np.empty(_BLOCK_TRIALS * size)


def _screen_layout(plan: RunPlan):
    """The screen-first layout of a coherent plan, which a run with a
    threshold reads its draw blocks in: the stack (`_stack`) of its
    classes' draw columns and rotated blocks, and the s x |S| matrix of
    its screen.

    The screen set S is the first min(m_o, 16) of the C mirror images of
    b = ceil(min(m_o, 16) / C) base elements, the ((2i + 1) Q) // (2b)-th
    rows of the class blocks for i < b, taken image by image: on a grid
    that does not fold, min(m_o, 16) single elements (all of a 3 x 3
    RIS). Each class block B_c is rotated, B'_c = B_c Q_c, by the r_c x
    r_c orthogonal Q factor of the Householder QR of [B_c[base]^T | I];
    so B'_c B'_c^T = B_c B_c^T, the law is unchanged, and B'_c's rows at
    the base reach only its first s_c = min(b, r_c) columns (their
    entries beyond, rounding, are set to 0). Class c reads draw columns
    o_c .. o_c + s_c - 1 (o_c = s_0 + .. + s_(c-1), s = sum s_c <= 16)
    for its screen coordinates, and its other r_c - s_c from column s on,
    all classes' in the draw order of the columns they had in the plan's
    own layout: a permutation of the plan's r columns. The screen matrix
    maps the s screen columns to the parts at S: its entry for column
    o_c + i and image n of the q-th base element is s_nc B'_c[base_q, i]."""
    own = _unstack(plan.classes)
    c = len(own)
    q = plan.classes[1].shape[2]
    width = min(plan.m_o, _SCREEN_ELEMENTS)
    b = -(-width // c)
    base = (2 * np.arange(b) + 1) * q // (2 * b)
    signs = _signs(c)
    cuts = [min(b, cols.size) for cols, _ in own]
    trailing = np.sort(np.concatenate([cols[s:] for (cols, _), s in zip(own, cuts)]))
    classes, screen = [], []
    offset = 0
    for (cols, rows), s, sign in zip(own, cuts, signs.T):
        block = np.ascontiguousarray(rows.T)
        basis = np.linalg.qr(np.hstack([block[base].T, np.eye(cols.size)]))[0]
        block = block @ basis
        block[base, s:] = 0.0
        screen.append(np.kron(sign, block[base, :s].T))
        tail = sum(cuts) + np.searchsorted(trailing, cols[s:])
        classes.append((np.concatenate([offset + np.arange(s), tail]), block.T))
        offset += s
    return _stack(classes), np.ascontiguousarray(np.concatenate(screen)[:, :width])


def _lower_bound(z: np.ndarray, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per trial of a draw block z whose screen columns are filled, the
    lower bound L = (1/4) (sum_{i in S} sqrt P_i)^2 of its coherent gain,
    from the products P of the elements of a screen set S, whose parts are
    the block's first r columns times `rows` (r x |S|, `_screen_layout`).
    The gain sums the m_o largest sqrt P, which dominate any m_o of them,
    and |S| <= m_o. Computed in the workspace w, whose first
    _BLOCK_TRIALS entries it returns."""
    k = _BLOCK_TRIALS
    r, s = rows.shape
    n = k * s
    parts = w[: 4 * n].reshape(4 * k, s)  # row 4t + 2h + i: part i of hop h of trial t
    np.matmul(z[:r].T, rows, out=parts)
    np.square(parts, out=parts)
    parts = parts.reshape(k, 2, 2, s)
    hops = w[4 * n : 6 * n].reshape(k, 2, s)
    np.add(parts[:, :, 0], parts[:, :, 1], out=hops)
    power = np.multiply(hops[:, 0], hops[:, 1], out=w[:n].reshape(k, s))
    amp = np.sqrt(power, out=power).sum(axis=1, out=w[n : n + k])
    amp *= amp
    amp *= _GAIN_SCALE
    return amp


def _static_gains(plan: RunPlan, seed: int, chunk: int, out: np.ndarray) -> None:
    """A static plan's gains E_0 sum_k nu_k E_k for one chunk, into out, whole
    blocks long: per trial E_0, E_1 .. E_K, read block by block from the chunk's stream."""
    rng = _stream(seed, chunk, 0)
    e = np.empty((_BLOCK_TRIALS, plan.weights.size + 1))
    for t0 in range(0, len(out), _BLOCK_TRIALS):
        rng.standard_exponential(out=e)
        out[t0 : t0 + _BLOCK_TRIALS] = e[:, 0] * (e[:, 1:] @ plan.weights)


def _products(zk: np.ndarray, classes: tuple, w: np.ndarray) -> np.ndarray:
    """The (k, M') products P = (2 |a_f|^2) (2 |a_u|^2) of a draw block's
    k = _BLOCK_TRIALS trials from their hop-major normals zk (zk[h, :, i k + t]:
    part i of hop h of trial t, a row per draw column) through a class stack
    (`_stack`). Per hop: one gather of the idx rows, one batched (2k x r_pad)
    @ (r_pad x Q) product of the C classes, whose zero padding rows leave
    each class's shares the bits of its own r_c-term products, and a C x C
    Hadamard sum to the parts at each mirror image; the hop's power is the
    sum of its parts' squares. Computed in, and returned as a view of, the
    workspace w (`_workspace`); the gather does not check idx."""
    k = _BLOCK_TRIALS
    idx, blocks = classes
    c, r_pad, q = blocks.shape
    n = k * c * q
    shares = w[: 2 * n].reshape(c, 2 * k, q)
    # hop f, then hop u: the power of hop h goes to w[(2 + h) n :][:n]
    for h in (0, 1):
        # both parts of the hop: every class's share at the base elements,
        # from its columns gathered where the parts go next
        zg = w[(2 + h) * n :][: idx.size * 2 * k].reshape(c, r_pad, 2 * k)
        np.take(zk[h], idx.ravel(), axis=0, out=zg.reshape(-1, 2 * k), mode="clip")  # unbuffered
        np.matmul(zg.transpose(0, 2, 1), blocks, out=shares)
        # a part at image n of base element q is sum_c s_nc y_c, laid out
        # trial by trial (with one class, the share itself)
        a = shares.reshape(-1)
        if c > 1:
            a = w[(2 + h) * n : (4 + h) * n]
            np.matmul(shares.reshape(c, -1).T, _signs(c), out=a.reshape(-1, c))
        np.square(a, out=a)
        np.add(a[:n], a[n:], out=w[(2 + h) * n : (3 + h) * n])
    f, u = w[2 * n : 3 * n], w[3 * n : 4 * n]
    return np.multiply(f, u, out=f).reshape(k, c * q)


def _compute_chunk(gains: dict, seed: int, chunk: int, work, bar, layouts) -> None:
    """Writes one chunk's gains into `gains`, an array per distinct coherent
    plan, whole blocks of _BLOCK_TRIALS long, each computed whole: the
    trials past the trial count read draws that no trial before them
    reads, so a trial's gain does not depend on the trial count.

    Static plans are `run_many`'s to fill (`_static_gains`). The blocks are
    drawn into buffers reused from block to block, so a chunk holds a few
    MB whatever its size; block j is draw block j, its r_max columns
    filled. With one BLAS thread every gain tested equals the whole
    chunk's to the bit (3 x 3 to 20 x 20 grids, 1 to 8192 trials). A
    block's columns are rewritten hop-major, and each plan that computes
    it `_combine`s their `_products` through its own class stack, whatever
    the other plans. `work` is the `_workspace` to compute in.

    Each plan reads the blocks through `layouts[plan]` = (stack, rows):
    its own class stack and no screen rows, or its screen-first layout
    (`_screen_layout`). `bar` is None, which screens no block, or the gain
    to screen at. Each block then first fills as many columns as the
    widest screen reads. A plan whose every trial in the block has
    `_lower_bound` above bar, from its `rows`, writes +inf for them
    instead of computing them; the other columns are filled only if some
    plan computes the block, and the two fills give the bits of one fill
    of both. Until one block passes, a plan screens only blocks 0, 1, 3,
    7, .., 2^i - 1 of the chunk, and every block after: a threshold that
    no block clears costs a plan seven screens of a chunk's 64 blocks.
    """
    z, w = work
    n = len(next(iter(gains.values())))
    head = 0 if bar is None else max(rows.shape[0] for _, rows in layouts.values())
    # the block each plan screens next: 2 j + 1 after block j fails, every
    # block (-1) once one has passed, and none without a screen
    due = dict.fromkeys(gains, math.inf if bar is None else 0)
    for j, t0 in enumerate(range(0, n, _BLOCK_TRIALS)):
        block = slice(t0, t0 + _BLOCK_TRIALS)
        draw = _stream(seed, chunk, j + 1)
        draw.standard_normal(out=z[:head])
        exact = []
        for plan in gains:
            if due[plan] <= j:
                if _lower_bound(z, layouts[plan][1], w).min() > bar:
                    due[plan] = -1
                    gains[plan][block] = np.inf
                    continue
                if due[plan] >= 0:
                    due[plan] = 2 * j + 1
            exact.append(plan)
        if not exact:
            continue
        draw.standard_normal(out=z[head:])
        # the block's columns hop-major, zk[h, :, i k + t] holding part i of
        # hop h of trial t: rewritten over z by way of the workspace
        parts = w[: z.size].reshape(2, -1, 2, _BLOCK_TRIALS)
        np.copyto(parts, z.reshape(-1, _BLOCK_TRIALS, 2, 2).transpose(2, 0, 3, 1))
        zk = z.reshape(2, -1, 2 * _BLOCK_TRIALS)
        zk[...] = parts.reshape(zk.shape)
        for plan in exact:
            gains[plan][block] = _combine(plan, _products(zk, layouts[plan][0], w))


def _combine(plan: RunPlan, power: np.ndarray) -> np.ndarray:
    """Coherent gains of k trials from their products, shaped (k, M'):
    per trial and element (2 |a_f|^2) (2 |a_u|^2), in any element order.
    The gain is (1/4) (sum sqrt P)^2 over the m_o largest products P,
    summed in ascending order, so neither the element order nor which of
    several tied products is kept changes a bit. Sorts each row's m_o
    largest in place: a plan with m_o < M' partitions them off first."""
    cut = power.shape[1] - plan.m_o
    if cut:
        power.partition(cut, axis=1)
    kept = power[:, cut:]
    kept.sort(axis=1)
    amp = np.sqrt(kept, out=kept).sum(axis=1)
    return _GAIN_SCALE * amp * amp


@_one_blas_thread()
def run_many(
    plans: list, n: int, seed: int, workers: int | None = None, threshold: float | None = None
) -> list:
    """Equivalent gains of n independent trials for each plan from
    `plan_runs`, in one pass that draws each chunk's coherent normals once.

    Trials are processed in fixed chunks of CHUNK_TRIALS on a pool of
    `workers` threads (None: one per core this process may run on),
    which share the plans; numpy releases the interpreter lock in the
    draws, products and selections. BLAS is held at one thread for the
    chunks, as `plan_runs` holds it for the matrix roots, so no result
    bit depends on the worker count or on the machine's core count. If
    a chunk raises, or the wait is interrupted, chunks not yet started
    are cancelled.

    Each distinct plan fills one array of whole draw blocks, so a trial's
    gain is bit for bit the same whatever n, and each run gets a view of
    its first n gains: runs that share a plan share its array. A chunk
    fills its static plans (`_static_gains`), then its coherent ones
    (`_compute_chunk`, in a thread's `_workspace`; none without them).

    Each coherent plan reads its draw blocks through its own class stack,
    or with a `threshold`, which lets a caller that only counts gains at or
    below it screen them, in its screen-first layout (`_screen_layout`): a
    block whose every trial's lower bound exceeds threshold (1 + 1e-9)
    reads +inf for those trials, and every other gain is the one that
    layout gives at threshold inf, which screens no block. Those are other
    draws of the same law than the gains without a threshold.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if workers is None:
        workers = _available_cores()
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if not plans:
        raise ValueError("plans must hold at least one run")
    size = -(-n // _BLOCK_TRIALS) * _BLOCK_TRIALS
    try:
        gains = {plan: np.empty(size) for plan in dict.fromkeys(plans)}
    except ValueError as e:  # past numpy's size limit
        raise MemoryError(f"{n} trials' gains are too many to hold") from e
    bar = None if threshold is None else threshold * (1.0 + 1e-9)
    layouts = {
        plan: (plan.classes, None) if bar is None else _screen_layout(plan)
        for plan in gains if plan.kind != "static"
    }
    static = [plan for plan in gains if plan not in layouts]
    starts = range(0, n, CHUNK_TRIALS)
    threads = min(workers, len(starts))
    # one workspace a thread, made by the caller and handed from chunk to
    # chunk, so the chunks reuse it instead of allocating their own
    idle = queue.SimpleQueue()
    for _ in range(threads if layouts else 0):
        idle.put(_workspace(list(layouts)))

    def compute(c: int, t0: int) -> None:
        for plan in static:
            _static_gains(plan, seed, c, gains[plan][t0 : t0 + CHUNK_TRIALS])
        if layouts:
            work = idle.get()
            try:
                chunk = {plan: gains[plan][t0 : t0 + CHUNK_TRIALS] for plan in layouts}
                _compute_chunk(chunk, seed, c, work, bar, layouts)
            finally:
                idle.put(work)

    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        futures = [pool.submit(compute, c, t0) for c, t0 in enumerate(starts)]
        for f in futures:
            f.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return [gains[plan][:n] for plan in plans]


def run_trials(
    geom: SurfaceGeometry,
    kernel: str,
    mode,
    n: int,
    seed: int,
    workers: int | None = None,
) -> np.ndarray:
    """Equivalent gains of n independent trials of one mode: `run_many` of its plan."""
    return run_many(plan_runs(kernel, [(geom, mode)]), n, seed, workers)[0]


@dataclass(frozen=True)
class OutageEstimate:
    probability: float
    stderr: float
    hits: int
    reliable: bool


def estimate_outage(samples: np.ndarray, budget: LinkBudget) -> OutageEstimate:
    """Empirical probability that the sampled gains miss the rate target."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 1:
        raise ValueError("estimate requires at least one sample")
    hits = int(np.count_nonzero(samples <= budget.gain_threshold))
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    return OutageEstimate(
        probability=p,
        stderr=stderr,
        hits=hits,
        reliable=hits >= _MIN_RELIABLE_HITS,
    )


@dataclass(frozen=True)
class CapacityEstimate:
    capacity: float
    stderr: float


def estimate_ergodic_capacity(
    samples: np.ndarray, budget: LinkBudget
) -> CapacityEstimate:
    """Mean of log2(1 + received SNR) over the sampled gains."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 1:
        raise ValueError("estimate requires at least one sample")
    rates = np.log2(1.0 + budget.snr_scale * samples)
    mean = float(rates.mean())
    stderr = float(rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CapacityEstimate(capacity=mean, stderr=stderr)


def ks_statistic(samples: np.ndarray, fit: GammaFit) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the Gamma surrogate.

    The cdf F is evaluated first at every 64th sorted sample and the last.
    F is monotone, so a sample i between two of those, a and b, has
    (i + 1)/n - F_i <= b/n - F_a and F_i - i/n <= F_b - (a + 1)/n; only
    the gaps whose bound reaches the largest distance found, less 1e-12,
    are evaluated in full. `gamma_cdf` rounds each value independently of
    the array it comes in, so the result is the same double as evaluating
    F at every sample.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n < 1:
        raise ValueError("ks_statistic requires at least one sample")

    def distance(i: np.ndarray, f: np.ndarray) -> np.ndarray:
        return np.maximum((i + 1.0) / n - f, f - i / n)

    edge = np.arange(0, n, 64)
    if edge[-1] != n - 1:
        edge = np.append(edge, n - 1)
    f = gamma_cdf(fit, s[edge])
    d = distance(edge, f).max()
    a, b = edge[:-1], edge[1:]
    bound = np.maximum(b / n - f[:-1], f[1:] - (a + 1) / n)
    gaps = np.flatnonzero((bound >= d - 1e-12) & (b - a > 1))
    if gaps.size:
        inner = np.concatenate([np.arange(a[g] + 1, b[g]) for g in gaps])
        d = max(d, distance(inner, gamma_cdf(fit, s[inner])).max())
    return float(d)


def empirical_cdf(samples: np.ndarray, g) -> np.ndarray:
    """Fraction of the samples at or below each g: their right-continuous
    empirical distribution."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size < 1:
        raise ValueError("empirical_cdf requires at least one sample")
    return np.searchsorted(s, g, side="right") / s.size
