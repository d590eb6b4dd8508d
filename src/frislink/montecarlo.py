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
                     (`_static_weights`), or a coherent grid's factor
                     through its mirror parity classes (`_parity_classes`,
                     `_grid_factor`) cut to its sampled prefix
                     (`_sampled_prefix`);
  `run_many`         the plans in one pass over the chunks, on threads
                     that each compute in one `_workspace`;
  `_compute_chunk`   one chunk, block by block: a static mode's
                     exponentials, each coherent plan's class projections,
                     signed sums and `_combine`;
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
    principal_submatrix,
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
    "chunk_rng",
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
    """Hold BLAS at one thread for the length of the block; yields whether
    it could. The setting is process-wide, so entries are counted: the
    first sets one thread and the last restores the caller's count, and
    nested or concurrent runs proceed without waiting for each other."""
    global _blas_depth, _blas_saved
    controls = _blas_controls()
    if controls is None:
        yield False
        return
    get_threads, set_threads = controls
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get_threads()
            set_threads(1)
        _blas_depth += 1
    try:
        yield True
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


def chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    """Independent stream for one chunk of one experiment.

    The chunk index is planted in the upper words of the Philox counter,
    far above the in-stream increments, so streams never overlap.
    """
    if chunk < 0:
        raise ValueError(f"chunk index must be nonnegative, got {chunk}")
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk << 128))


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
    of its grid (`_grid_factor`): `classes` holds, per class, the draw
    columns it reads and its Q x r_c block, the 1/sqrt(C) of the C
    classes folded in; a grid that does not fold has one class, the
    whole factor."""

    kind: str  # 'static' | 'coherent'
    rank: int  # r: coherent, the factor prefix it samples; static, its block's factor
    clamped: int  # eigenvalues clamped to zero: coherent, the grid's; static, its block's
    draws_per_trial: int  # static: K + 1 exponentials; coherent: 4r normals
    factor: np.ndarray | None = None  # coherent: the sampled prefix in draw order, M' x r
    m_o: int | None = None  # coherent: elements kept per trial, M' for a RIS
    weights: np.ndarray | None = None  # static: the K weights of S, descending
    classes: tuple | None = None  # coherent: (draw columns, Q x r_c block) per class


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
def plan_runs(kernel: str, runs, correlations: dict) -> list:
    """One RunPlan per checked (grid, mode) run. Each grid's matrix is
    taken from `correlations` if passed, else built here, at most once
    per call. A static run factors its selection's principal block of
    that matrix and keeps only its weights; a grid that coherent runs
    sample is factored once through its parity classes, keeping the
    prefix of its factor in draw order that they sample, its classes'
    share of it and its clamped count. Coherent runs of one grid and one
    m_o get one plan object, which `run_many` computes once."""
    matrices = dict(correlations)
    roots = {}
    coherent = {}
    plans = []
    for grid, mode in runs:
        _check_mode(grid, mode)
        if grid not in matrices:
            matrices[grid] = build_correlation_matrix(grid, kernel)
        if isinstance(mode, StaticMode):
            root = psd_sqrt(principal_submatrix(matrices[grid], mode.selection))
            nu = _static_weights(root.factor, np.asarray(mode.phases, dtype=float))
            r = root.factor.shape[1]
            plans.append(RunPlan("static", r, root.clamped_count, nu.size + 1, weights=nu))
            continue
        if (grid, mode) not in coherent:
            if grid not in roots:
                full, clamped, classes = _grid_factor(grid, matrices[grid])
                roots[grid] = (*_sampled_prefix(full, classes), clamped)
            factor, classes, clamped = roots[grid]
            r = factor.shape[1]
            coherent[grid, mode] = RunPlan(
                "coherent", r, clamped, 4 * r, factor, mode.m_o, classes=classes
            )
        plans.append(coherent[grid, mode])
    return plans


def _signs(c: int) -> np.ndarray:
    """The C x C signs (-1)^popcount(n & c) of mirror image n in parity
    class c, for C = 1, 2 or 4 (the Sylvester Hadamard matrix)."""
    h = np.ones((1, 1))
    while len(h) < c:
        h = np.block([[h, h], [h, -h]])
    return h


def _parity_classes(grid: SurfaceGeometry, j: np.ndarray):
    """The mirror images and parity-class blocks of a grid's matrix J.

    Every axis of even length whose mirror leaves J exactly unchanged is
    folded (a uniform grid's J is, but a caller's matrix need not be),
    which makes C = 1, 2 or 4 classes of Q = M' / C elements (Cantoni &
    Butler, Linear Algebra Appl. 13, 1976). Returns the (C, Q) element
    indices, row n the images under the mirrors of the set bits of n of
    the base elements, those in the first half of each folded axis; and
    the (C, Q, Q) blocks B_c = sum_n s_nc J[base, image n], s = _signs(C).
    J is the sum over c of T_c B_c T_c^T, where T_c maps a class vector
    u to the elements, image n of base element q taking s_nc u_q / sqrt(C).
    """
    j4 = j.reshape(grid.m_z, grid.m_x, grid.m_z, grid.m_x)
    images = np.arange(grid.m).reshape(1, grid.m_z, grid.m_x)
    for axis in (2, 1):  # x, then z
        mirrored = np.flip(j4, (axis - 1, axis + 1))  # J with both indices mirrored
        if images.shape[axis] % 2 == 0 and np.array_equal(j4, mirrored):
            half = np.arange(images.shape[axis] // 2)
            images = np.concatenate([images, np.flip(images, axis)]).take(half, axis=axis)
    images = images.reshape(len(images), -1)
    c, q = images.shape
    g = j[np.ix_(images[0], images.ravel())].reshape(q, c, q)
    return images, np.einsum("nc,anb->cab", _signs(c), g)


def _grid_factor(grid: SurfaceGeometry, j: np.ndarray):
    """The factor F of a grid's matrix, F F^T = J up to the clamp, in the
    order the coherent draw reads its columns, through the parity classes
    of `_parity_classes`. Returns F (M' x r'), the clamped count and, per
    class, its columns of F and their Q-vectors as a Q x r_c block (F's
    entries at image n of the base are s_nc times them).

    Each class block is eigendecomposed; eigenvalues below _EIG_CLAMP_REL
    times the largest of all classes are clamped, and the others ordered
    largest first (equal ones in the reverse of their order across the
    classes, so one class keeps the unfolded factor's order, eigh's
    reversed). Each column is signed so that its first entry above 1e-3
    of its largest magnitude (clear of the entries that vanish by
    symmetry) is positive. Column k is then close to the same spatial
    mode on every grid of one aperture, so runs that share a chunk's draw
    are positively coupled (their common normals drive similar modes).
    """
    images, blocks = _parity_classes(grid, j)
    c, q = images.shape
    evals, evecs, low = _clamped_eigh(blocks)
    lam = evals.ravel()
    order = np.argsort(lam, kind="stable")[::-1]
    order = order[~low.ravel()[order]]
    cls, pos = np.divmod(order, q)
    folded = evecs[cls, :, pos].T * np.sqrt(lam[order] / c)
    full = np.empty((grid.m, order.size))
    for n, row in zip(images, _signs(c)):
        full[n] = folded * row[cls]
    mag = np.abs(full)
    lead = np.argmax(mag > 1e-3 * mag.max(axis=0), axis=0)
    sign = np.where(full[lead, np.arange(order.size)] < 0.0, -1.0, 1.0)
    folded *= sign
    members = (np.flatnonzero(cls == i) for i in range(c))
    classes = tuple((cols, folded[:, cols]) for cols in members)
    return full * sign, int(np.count_nonzero(low)), classes


def _sampled_prefix(full: np.ndarray, classes: tuple):
    """The shortest prefix of a draw-ordered factor whose dropped columns
    carry at most _RANK_TAIL of its trace sum_k ||F_k||^2, and the
    columns of each class that it keeps."""
    power = (full * full).sum(axis=0)
    tail = np.cumsum(power[::-1])[::-1]  # tail[k]: power of columns k and up
    r = int(np.count_nonzero(tail > _RANK_TAIL * tail[0]))
    kept = tuple(
        (cols[cols < r], np.ascontiguousarray(block[:, : np.count_nonzero(cols < r)]))
        for cols, block in classes
    )
    return np.ascontiguousarray(full[:, :r]), kept


def _draw_block(seed: int, chunk: int, j: int) -> np.random.Generator:
    """Stream of coherent draw block j of a chunk: Philox keyed by the
    seed, with the chunk in counter words 2 and 3 and j + 1 in word 1."""
    bits = np.random.Philox(key=seed, counter=(chunk << 128) | ((j + 1) << 64))
    return np.random.Generator(bits)


def _workspace(plans: list):
    """Working buffers for the coherent draw blocks of `plans`, sized by the
    largest rank, class and grid: the block's normals (r_max x 512), and
    room for one hop's class shares (2 x 128 x M'_max) and for both hops'
    parts, the first hop's power kept while the second's parts follow it
    (3 x 128 x M'_max; the last third first holds a class's gathered
    columns); and no less than a screen's parts and hop powers need
    (6 x 128 x s_max, `_lower_bound`). None without a coherent plan.
    Every class must read columns below its plan's rank: the gather does
    not check."""
    coherent = [plan for plan in plans if plan.kind != "static"]
    if not coherent:
        return None
    for plan in coherent:
        if any(cols.size and cols.max() >= plan.rank for cols, _ in plan.classes):
            raise ValueError(f"a class reads a column past rank {plan.rank}")
    r_max = max(plan.rank for plan in coherent)
    c_max = max(cols.size for plan in coherent for cols, _ in plan.classes)
    m_max = max(plan.factor.shape[0] for plan in coherent)
    s_max = max(min(plan.m_o, _SCREEN_ELEMENTS) for plan in coherent)
    size = max(4 * m_max + max(m_max, 2 * c_max), 6 * s_max)
    return np.empty((r_max, 4 * _BLOCK_TRIALS)), np.empty(_BLOCK_TRIALS * size)


def _screen_layout(plan: RunPlan):
    """The screen-first layout of a coherent plan, which a run with a
    threshold reads its draw blocks in: its classes as (draw columns,
    rotated Q x r_c block), and the s x |S| matrix of its screen.

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
    c = len(plan.classes)
    q = plan.factor.shape[0] // c
    width = min(plan.m_o, _SCREEN_ELEMENTS)
    b = -(-width // c)
    base = (2 * np.arange(b) + 1) * q // (2 * b)
    signs = _signs(c)
    cuts = [min(b, cols.size) for cols, _ in plan.classes]
    trailing = np.sort(np.concatenate([cols[s:] for (cols, _), s in zip(plan.classes, cuts)]))
    classes, screen = [], []
    offset = 0
    for (cols, block), s, sign in zip(plan.classes, cuts, signs.T):
        basis = np.linalg.qr(np.hstack([block[base].T, np.eye(cols.size)]))[0]
        block = block @ basis
        block[base, s:] = 0.0
        screen.append(np.kron(sign, block[base, :s].T))
        tail = sum(cuts) + np.searchsorted(trailing, cols[s:])
        classes.append((np.concatenate([offset + np.arange(s), tail]), block))
        offset += s
    return tuple(classes), np.ascontiguousarray(np.concatenate(screen)[:, :width])


def _lower_bound(z: np.ndarray, k: int, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per trial of the k of a draw block z whose screen columns are
    filled, the lower bound L = (1/4) (sum_{i in S} sqrt P_i)^2 of its
    coherent gain, from the products P of the elements of a screen set
    S, whose parts are the block's first r columns times `rows` (r x |S|,
    `_screen_layout`). The gain sums the m_o largest sqrt P, which
    dominate any m_o of them, and |S| <= m_o. Computed in the workspace
    w, whose first k entries it returns."""
    r, s = rows.shape
    n = k * s
    parts = w[: 4 * n].reshape(4 * k, s)  # row 4t + 2h + i: part i of hop h of trial t
    np.matmul(z[:r, : 4 * k].T, rows, out=parts)
    np.square(parts, out=parts)
    parts = parts.reshape(k, 2, 2, s)
    hops = w[4 * n : 6 * n].reshape(k, 2, s)
    np.add(parts[:, :, 0], parts[:, :, 1], out=hops)
    power = np.multiply(hops[:, 0], hops[:, 1], out=w[:n].reshape(k, s))
    amp = np.sqrt(power, out=power).sum(axis=1, out=w[n : n + k])
    amp *= amp
    amp *= _GAIN_SCALE
    return amp


def _compute_chunk(plans: list, seed: int, chunk: int, gains: list, work, screen=None) -> None:
    """Writes the gains of every plan for the n trials of one chunk into
    the matching array of `gains`, each of length n.

    The trials are drawn (and for the coherent modes projected and
    combined) in blocks of _BLOCK_TRIALS, in buffers reused from block
    to block and sized by the largest grid, so a chunk holds a few MB
    whatever its size. The static fills continue the chunk's stream.
    Coherent block j is draw block j, filled whole in one call however
    few trials it holds (a chunk's last block too), of which its k trials
    project the first 4k columns, so the draws are those of the whole
    chunk drawn at once. A coherent gain does not depend on the block
    it is computed in: with one BLAS thread, every one tested (3 x 3 to
    20 x 20 grids, 1 to 8192 trials) equals the whole chunk's to the
    bit. A static last block of one trial is a one-row product, which
    numpy computes as a dot product and which may round its gain an ulp
    or two apart. The blocks are fixed by the trial count alone, so the
    bytes stay reproducible and do not depend on the worker count.

    The coherent plans share each block's columns of the largest rank,
    and each projects its first r rows (in the screen-first layout, in
    another order), so its gains do not depend on the other plans; a
    plan that several runs share is computed once.
    `work` is the `_workspace(plans)` to compute in.

    `screen`, if passed, is (bar, layouts): each coherent plan reads the
    blocks in its screen-first layout `layouts[plan]` = (classes, rows)
    (`_screen_layout`). A block's first columns, as many as the widest
    screen reads, are drawn first, and a plan whose every trial in it has
    `_lower_bound` above bar, from its `rows`, writes +inf for the
    block's trials instead of computing them; the other columns are
    drawn only if some plan computes the block, and a block that no plan
    screens is drawn whole in one call.
    Until one block passes, a plan screens only blocks 0, 1, 3, 7, ..,
    2^i - 1 of the chunk, and every block after: a threshold that no
    block clears costs a plan seven screens of a chunk's 64 blocks, and
    a chunk whose first blocks hold gains below it is still screened
    once one passes.
    """
    n = len(gains[0])
    blocks = [(t0, min(t0 + _BLOCK_TRIALS, n)) for t0 in range(0, n, _BLOCK_TRIALS)]
    coherent = {}  # each distinct plan once, with the arrays its runs fill
    for plan, out in zip(plans, gains):
        if plan.kind != "static":
            coherent.setdefault(plan, []).append(out)
            continue
        # per trial E_0, E_1 .. E_K; the gain is E_0 sum_k nu_k E_k
        rng = chunk_rng(seed, chunk)
        e = np.empty((_BLOCK_TRIALS, plan.weights.size + 1))
        for t0, t1 in blocks:
            k = t1 - t0
            rng.standard_exponential(out=e[:k])
            out[t0:t1] = e[:k, 0] * (e[:k, 1:] @ plan.weights)
    if not coherent:
        return
    z, w = work
    r_max = len(z)
    # each plan once, with the classes it reads the block through and its screen
    layouts = screen[1] if screen is not None else {}
    signed = []
    for plan, outs in coherent.items():
        classes, rows = layouts.get(plan, (plan.classes, None))
        signed.append((plan, classes, rows, _signs(len(classes)), outs))
    # the screen columns of every plan, drawn before the rest
    head = max((rows.shape[0] for _, rows in layouts.values()), default=0)
    # the block each plan screens next: 2 j + 1 after block j fails, and
    # every block (-1) once one has passed
    due = dict.fromkeys(coherent, 0)
    for j, (t0, t1) in enumerate(blocks):
        k = t1 - t0
        draw = _draw_block(seed, chunk, j)
        exact = signed
        if screen is None or all(due[plan] > j for plan in due):
            draw.standard_normal(out=z)
        else:
            # the screen columns; the others only if a plan computes the
            # block, the bits of one fill of both
            draw.standard_normal(out=z[:head])
            exact = []
            for item in signed:
                plan, _, rows, _, outs = item
                if due[plan] <= j:
                    if _lower_bound(z, k, rows, w).min() > screen[0]:
                        due[plan] = -1
                        for out in outs:
                            out[t0:t1] = np.inf
                        continue
                    if due[plan] >= 0:
                        due[plan] = 2 * j + 1
                exact.append(item)
            if not exact:
                continue
            draw.standard_normal(out=z[head:])
        # the block's columns hop-major, zk[h, :, i k + t] holding part i of
        # hop h of trial t: rewritten over z by way of the workspace
        zk = z.reshape(-1)[: r_max * 4 * k].reshape(2, r_max, 2 * k)
        parts = w[: zk.size].reshape(2, r_max, 2, k)
        np.copyto(parts, z[:, : 4 * k].reshape(r_max, k, 2, 2).transpose(2, 0, 3, 1))
        zk[...] = parts.reshape(zk.shape)
        for plan, classes, _, signs, outs in exact:
            m = plan.factor.shape[0]
            c = len(signs)
            n = k * m
            shares = w[: 2 * n].reshape(c, 2 * k, m // c)
            spare = w[4 * n :]
            # hop f, then hop u: the power of hop h goes to w[(2 + h) n :][:n]
            for h in (0, 1):
                # both parts of the hop: class c's share at the base elements
                for i, (cols, block) in enumerate(classes):
                    zi = zk[h, : cols.size]
                    if cols.size and cols[-1] != cols.size - 1:  # not the leading columns
                        zi = spare[: cols.size * 2 * k].reshape(cols.size, 2 * k)
                        np.take(zk[h], cols, axis=0, out=zi, mode="clip")  # unbuffered
                    np.matmul(zi.T, block.T, out=shares[i])
                # a part at image n of base element q is sum_c s_nc y_c, laid
                # out trial by trial (with one class, the share itself); the
                # hop's power (2 |a|^2) is the sum of its parts' squares
                a = shares.reshape(-1)
                if c > 1:
                    a = w[(2 + h) * n : (4 + h) * n]
                    np.matmul(shares.reshape(c, -1).T, signs, out=a.reshape(-1, c))
                np.square(a, out=a)
                np.add(a[:n], a[n:], out=w[(2 + h) * n : (3 + h) * n])
            f, u = w[2 * n : 3 * n], w[3 * n : 4 * n]
            power = np.multiply(f, u, out=f).reshape(k, m)
            gain = _combine(plan, power)
            for out in outs:
                out[t0:t1] = gain


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

    With a `threshold`, a caller that only counts gains at or below it
    lets the coherent plans screen their draw blocks, which they then read
    in the screen-first layout (`_screen_layout`): a block whose every
    trial's lower bound exceeds threshold (1 + 1e-9) reads +inf for those
    trials, and every other gain is the one that layout gives at threshold
    inf, which screens no block. Those are other draws of the same law than
    the gains without a threshold.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if workers is None:
        workers = _available_cores()
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if not plans:
        raise ValueError("plans must hold at least one run")
    gains = [np.empty(n) for _ in plans]
    screen = None
    if threshold is not None:
        layouts = {plan: _screen_layout(plan) for plan in plans if plan.kind != "static"}
        screen = threshold * (1.0 + 1e-9), layouts
    starts = range(0, n, CHUNK_TRIALS)
    threads = min(workers, len(starts))
    # one workspace a thread, made by the caller and handed from chunk to
    # chunk, so the chunks reuse it instead of allocating their own
    idle = queue.SimpleQueue()
    for _ in range(threads):
        idle.put(_workspace(plans))

    def compute(c: int, t0: int) -> None:
        work = idle.get()
        try:
            chunk = [g[t0 : t0 + CHUNK_TRIALS] for g in gains]
            _compute_chunk(plans, seed, c, chunk, work, screen)
        finally:
            idle.put(work)

    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        futures = [pool.submit(compute, c, t0) for c, t0 in enumerate(starts)]
        for f in futures:
            f.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return gains


def run_trials(
    geom: SurfaceGeometry,
    kernel: str,
    mode,
    n: int,
    seed: int,
    workers: int | None = None,
) -> np.ndarray:
    """Equivalent gains of n independent trials of one mode: `run_many` of its plan."""
    return run_many(plan_runs(kernel, [(geom, mode)], {}), n, seed, workers)[0]


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
