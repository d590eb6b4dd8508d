"""Tests for the chunked Monte Carlo engine and estimators."""

import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import frislink.experiments as experiments_mod
import frislink.montecarlo as mc

from frislink.analysis import GammaFit, gamma_cdf, gamma_fit, trace_power
from frislink.channel import LinkBudget, PathLoss
from frislink.cli import main
from frislink.config import parse_config, preset_config
from frislink.correlation import (
    SurfaceGeometry,
    build_correlation_matrix,
    principal_submatrix,
    psd_sqrt,
    uniform_grid_selection,
)
from frislink.montecarlo import (
    CHUNK_TRIALS,
    CapacityEstimate,
    CoherentMode,
    OutageEstimate,
    StaticMode,
    _compute_chunk,
    chunk_rng,
    empirical_cdf,
    estimate_ergodic_capacity,
    estimate_outage,
    ks_statistic,
    plan_runs,
    run_many,
    run_trials,
)
from oracle import (
    column_channels,
    column_normals,
    effective_channel,
    equivalent_gain_coherent,
    equivalent_gain_static,
    plain_factor_gains,
    projected_static_gains,
    screen_first_factor,
    select_top_products,
    trial_major_gains,
    whole_chunk_gains,
)

LAMBDA = 0.12491352416666666


def small_geom():
    return SurfaceGeometry(m_x=6, m_z=6, w_x=2.0, w_z=2.0, wavelength=LAMBDA)


# one mode of each kind on small_geom(): static with phases, adaptive
# top-m_o, and the all-coherent baseline (every element of the 6x6 grid)
SMALL_MODES = [
    StaticMode(np.array([0, 7, 14, 35]), np.array([0.0, 1.0, 2.5, 4.0])),
    CoherentMode(m_o=9),
    CoherentMode(m_o=36),
]
MODE_KINDS = ["static", "adaptive", "baseline"]


def dense_case(kind):
    """The 20x20 reference grid, whose factor keeps r = 167 of 400
    columns (a coherent run samples the first 112 in draw order), and one
    mode of the given kind on the grid it samples (the baseline's own 6x6)."""
    g = SurfaceGeometry(m_x=20, m_z=20, w_x=3.0, w_z=3.0, wavelength=LAMBDA)
    if kind == "static":
        sel = uniform_grid_selection(g, 12, 12)
        phases = np.random.default_rng(705).uniform(0.0, 2.0 * math.pi, sel.size)
        return g, StaticMode(selection=sel, phases=phases)
    if kind == "adaptive":
        return g, CoherentMode(m_o=36)
    return g.regrid(6, 6), CoherentMode(m_o=36)


def plan_of(geom, mode):
    """The plan the engine runs for one mode on its own."""
    return plan_runs("spherical", [(geom, mode)], {})[0]


def unit_budget(gamma_bar=1.0, rate=1.0):
    pl = PathLoss(rho=1.0, alpha=2.0, d_f=1.0, d_u=1.0)
    return LinkBudget(gamma_bar=gamma_bar, pathloss=pl, rate_target=rate)


class TestTrialRng:
    """The per-chunk streams every trial's normals come from."""

    def test_reproducible(self):
        a = chunk_rng(42, 7).standard_normal(8)
        b = chunk_rng(42, 7).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = chunk_rng(42, 0).standard_normal(8)
        b = chunk_rng(42, 1).standard_normal(8)
        c = chunk_rng(43, 0).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError):
            chunk_rng(42, -1)


class TestRunTrials:
    def test_rerun_is_byte_identical(self):
        g = small_geom()
        mode = CoherentMode(m_o=9)
        a = run_trials(g, "spherical", mode, 300, seed=11)
        b = run_trials(g, "spherical", mode, 300, seed=11)
        assert np.array_equal(a, b)

    def test_worker_count_does_not_change_bits(self):
        g = small_geom()
        mode = CoherentMode(m_o=9)
        n = 2 * CHUNK_TRIALS + 123
        a = run_trials(g, "spherical", mode, n, seed=5, workers=1)
        b = run_trials(g, "spherical", mode, n, seed=5, workers=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("phased", [True, False], ids=["phases", "zero-phases"])
    def test_static_weights_match_traces(self, phased):
        # a static trial's S = sum_k nu_k E_k: sum nu = tr(A) and
        # sum nu^2 = tr(A^2) for A = D J~ D^H J~, and nu = lambda(J~)^2
        # at zero phases
        dense, dense_mode = dense_case("static")
        for g, sel in (
            (small_geom(), uniform_grid_selection(small_geom(), 3, 3)),
            (dense, dense_mode.selection),
        ):
            phases = np.random.default_rng(701).uniform(0.0, 2.0 * math.pi, sel.size)
            if not phased:
                phases = np.zeros(sel.size)
            nu = plan_of(g, StaticMode(sel, phases)).weights
            f = psd_sqrt(build_correlation_matrix(g, "spherical")).factor[sel]
            j_sub = f @ f.T  # the clamped block J~
            d = np.exp(1j * phases)
            a = (d[:, None] * j_sub * d.conj()[None, :]) @ j_sub
            assert np.all(np.diff(nu) <= 0.0) and nu[-1] > 0.0
            assert nu.sum() == pytest.approx(np.trace(a).real, rel=1e-10)
            assert (nu * nu).sum() == pytest.approx(np.trace(a @ a).real, rel=1e-10)
            if not phased:
                lam = np.linalg.eigvalsh(j_sub)[::-1][: nu.size]
                assert np.allclose(nu, lam * lam, rtol=0.0, atol=1e-10 * nu[0])

    def test_static_engine_matches_api_composition(self):
        # the engine draws S E from its spectral law; the reference
        # projects both hops' normals and combines them, as artifact
        # version 2 did, and equals the per-trial composition of
        # column_channels, effective_channel and equivalent_gain_static
        g = small_geom()
        sel = uniform_grid_selection(g, 3, 3)
        phases = np.random.default_rng(701).uniform(0.0, 2.0 * math.pi, size=len(sel))
        n = 100_000
        got = run_trials(g, "spherical", StaticMode(sel, phases), n, seed=3)
        f = psd_sqrt(build_correlation_matrix(g, "spherical")).factor
        ref = projected_static_gains(f[sel], phases, 4, n)
        for t, c in enumerate(column_channels(4, 0, 64, f.shape[1])):
            a_f = effective_channel(f, c.h_f, sel)
            a_u = effective_channel(f, c.h_u, sel)
            want = equivalent_gain_static(a_u, a_f, phases)
            assert ref[t] == pytest.approx(want, rel=1e-10, abs=1e-12)
        both = np.sort(np.concatenate([got, ref]))
        cdf_got = np.searchsorted(np.sort(got), both, side="right") / n
        cdf_ref = np.searchsorted(np.sort(ref), both, side="right") / n
        assert np.max(np.abs(cdf_got - cdf_ref)) <= 0.012

    def test_adaptive_engine_matches_api_composition(self):
        g = small_geom()
        mode = CoherentMode(m_o=7)
        got = run_trials(g, "spherical", mode, 64, seed=4)
        # the factor with its columns in the order the coherent draw reads them
        f = plan_of(g, mode).factor
        for t, c in enumerate(column_channels(4, 0, 64, f.shape[1])):
            a_f = effective_channel(f, c.h_f, np.arange(g.m))
            a_u = effective_channel(f, c.h_u, np.arange(g.m))
            sel = select_top_products(a_u, a_f, 7)
            want = equivalent_gain_coherent(a_u[sel], a_f[sel])
            assert got[t] == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("kind", ["static", "adaptive", "baseline"])
    def test_worker_count_does_not_change_bits_rank_deficient(self, kind):
        # 20x20 grid: the factor has r = 167 < M = 400 columns (112 sampled
        # by the coherent modes); the last of the three chunks is ragged
        g = SurfaceGeometry(m_x=20, m_z=20, w_x=3.0, w_z=3.0, wavelength=LAMBDA)
        if kind == "static":
            sel = uniform_grid_selection(g, 4, 4)
            phases = np.random.default_rng(704).uniform(0.0, 2.0 * math.pi, sel.size)
            mode = StaticMode(selection=sel, phases=phases)
        elif kind == "adaptive":
            mode = CoherentMode(m_o=36)
        else:
            g, mode = g.regrid(6, 6), CoherentMode(m_o=36)
        n = 2 * CHUNK_TRIALS + 123
        a = run_trials(g, "spherical", mode, n, seed=6, workers=1)
        b = run_trials(g, "spherical", mode, n, seed=6, workers=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", SMALL_MODES, ids=MODE_KINDS)
    def test_trial_gain_does_not_depend_on_n(self, mode):
        # trial t reads the same normals whatever n is, but a shorter last
        # chunk may take another BLAS kernel, so this holds to rounding,
        # not to the bit
        g = small_geom()
        full = run_trials(g, "spherical", mode, CHUNK_TRIALS + 300, seed=16)
        for n in (1, 37, CHUNK_TRIALS + 1):
            part = run_trials(g, "spherical", mode, n, seed=16)
            assert np.allclose(part, full[:n], rtol=1e-13, atol=0.0)

    def test_static_mean_matches_trace(self):
        # zero-phase static gain has mean tr(J~^2)
        g = small_geom()
        sel = uniform_grid_selection(g, 4, 4)
        mode = StaticMode(selection=sel, phases=np.zeros(len(sel)))
        gains = run_trials(g, "spherical", mode, 30_000, seed=12)
        sub = principal_submatrix(build_correlation_matrix(g, "spherical"), sel)
        t2 = trace_power(sub, 2)
        se = gains.std(ddof=1) / math.sqrt(gains.size)
        assert abs(gains.mean() - t2) < 3.0 * se

    def test_adaptive_pointwise_monotone_in_m_o(self):
        g = small_geom()
        prev = None
        for m_o in (4, 12, 24, 36):
            cur = run_trials(g, "spherical", CoherentMode(m_o), 2048, seed=8)
            if prev is not None:
                assert np.all(cur >= prev * (1.0 - 1e-12))
            prev = cur

    def test_adaptive_dominates_static_in_sorted_order(self):
        # the static engine draws its gains from its exact law on the
        # chunk's own exponential stream, independent of the coherent
        # normals, so trial t of one does not bound trial t of the other
        # (with the same normals it does: the projected test below). The
        # dominance holds in law, so the trials are compared in sorted
        # order: the i-th smallest top-9 gain is at least the i-th
        # smallest gain of the static 3x3 selection
        g = small_geom()
        sel = uniform_grid_selection(g, 3, 3)
        static = run_trials(
            g, "spherical", StaticMode(sel, np.zeros(len(sel))), 2048, seed=9
        )
        adaptive = run_trials(g, "spherical", CoherentMode(len(sel)), 2048, seed=9)
        assert np.all(np.sort(adaptive) >= np.sort(static) * (1.0 - 1e-12))

    def test_adaptive_dominates_projected_static_per_trial(self):
        # the projected static gains share the adaptive mode's normals,
        # so the top-m_o coherent gain bounds each trial's static gain
        g = small_geom()
        sel = uniform_grid_selection(g, 3, 3)
        f = plan_of(g, CoherentMode(len(sel))).factor
        static = projected_static_gains(f[sel], np.zeros(len(sel)), 9, 2048)
        adaptive = run_trials(g, "spherical", CoherentMode(len(sel)), 2048, seed=9)
        assert np.all(adaptive >= static * (1.0 - 1e-12))

    def test_full_activation_degenerates_to_baseline(self):
        # top-M selection over the whole grid is exactly the all-coherent
        # baseline on the same grid
        g = small_geom()
        a = run_trials(g, "spherical", CoherentMode(g.m), 1024, seed=10)
        b = run_trials(g.regrid(g.m_x, g.m_z), "spherical", CoherentMode(g.m), 1024, seed=10)
        assert np.array_equal(a, b)

    def test_baseline_less_dense_grid_draws_fewer_normals(self):
        # baseline grids use their own element count; gains stay finite
        g = small_geom()
        gains = run_trials(g.regrid(2, 2), "spherical", CoherentMode(4), 256, seed=13)
        assert gains.shape == (256,)
        assert np.all(np.isfinite(gains)) and np.all(gains >= 0)

    def test_sparser_baseline_beats_denser_at_same_count(self):
        # same element count, but the denser parent grid lets the adaptive
        # surface pick per-realization peaks: paired-seed mean dominance
        dense = SurfaceGeometry(m_x=10, m_z=10, w_x=2.0, w_z=2.0, wavelength=LAMBDA)
        adaptive = run_trials(dense, "spherical", CoherentMode(16), 8192, seed=21)
        baseline = run_trials(dense.regrid(4, 4), "spherical", CoherentMode(16), 8192, seed=21)
        assert adaptive.mean() > baseline.mean()

    def test_phase_choice_does_not_change_uncorrelated_static_law(self):
        # phase shifts leave the gain law untouched when the selected
        # elements are uncorrelated (half-wavelength linear pitch); with
        # correlation the law genuinely shifts, see the analysis notes
        g = SurfaceGeometry(m_x=9, m_z=1, w_x=4.5, w_z=1.0, wavelength=LAMBDA)
        sel = np.arange(9)
        rng = np.random.default_rng(702)
        ph = rng.uniform(0.0, 2.0 * math.pi, size=len(sel))
        n = 20_000
        a = run_trials(g, "spherical", StaticMode(sel, np.zeros(len(sel))), n, seed=14)
        b = run_trials(g, "spherical", StaticMode(sel, ph), n, seed=15)
        both = np.sort(np.concatenate([a, b]))
        cdf_a = np.searchsorted(np.sort(a), both, side="right") / n
        cdf_b = np.searchsorted(np.sort(b), both, side="right") / n
        assert np.max(np.abs(cdf_a - cdf_b)) <= 0.02

    def test_validation(self):
        g = small_geom()
        with pytest.raises(ValueError):
            run_trials(g, "spherical", CoherentMode(0), 10, seed=1)
        with pytest.raises(ValueError):
            run_trials(g, "spherical", CoherentMode(37), 10, seed=1)
        with pytest.raises(ValueError):
            run_trials(g, "spherical", CoherentMode(5), 0, seed=1)
        with pytest.raises(ValueError):
            run_trials(g, "spherical", CoherentMode(5), 10, seed=1, workers=0)
        with pytest.raises(ValueError):
            run_trials(
                g,
                "spherical",
                StaticMode(np.array([0, 0]), np.zeros(2)),
                10,
                seed=1,
            )
        with pytest.raises(TypeError):
            run_trials(g, "spherical", object(), 10, seed=1)


class TestBlockedChunk:
    """The engine streams a chunk through trial blocks; the reference
    draws, projects and combines the whole chunk at once."""

    @pytest.mark.parametrize("kind", MODE_KINDS)
    @pytest.mark.parametrize(
        "n",
        [CHUNK_TRIALS, 3616, 37, 517],
        ids=["full", "ragged", "below-one-block", "short-remainder"],
    )
    def test_matches_whole_chunk(self, kind, n):
        # 3616 = 28 blocks and 32 trials; 517 = 4 blocks and 5 trials,
        # whose last draw block is projected alone
        g, mode = dense_case(kind)
        plan = plan_of(g, mode)
        for chunk in (0, 3):
            got = np.empty(n)
            _compute_chunk([plan], 17, chunk, [got], mc._workspace([plan]))
            assert np.array_equal(got, whole_chunk_gains(plan, 17, chunk, n))

    @pytest.mark.parametrize("n", [CHUNK_TRIALS, 3616, 517], ids=["full", "ragged", "short-remainder"])
    def test_matches_whole_chunk_to_rounding_on_14x14(self, n):
        # the 14x14 grid (M' = 196), whose unfolded (4k x r) @ (r x M')
        # projection BLAS rounded a few ulp apart in blocks, folds into
        # four 49-element classes, whose blocked products equal the
        # whole chunk's to the bit
        g = dense_case("adaptive")[0].regrid(14, 14)
        plan = plan_of(g, CoherentMode(m_o=36))
        for seed in (17, 18):
            for chunk in (0, 3):
                got = np.empty(n)
                _compute_chunk([plan], seed, chunk, [got], mc._workspace([plan]))
                assert np.array_equal(got, whole_chunk_gains(plan, seed, chunk, n))

    @pytest.mark.parametrize("kind", MODE_KINDS)
    def test_every_last_block_length_matches_whole_chunk(self, kind):
        # n = 129 .. 191: one whole block and a last one of 1 .. 63 trials,
        # projected alone. A static last block of one trial is a one-row
        # product, which numpy computes as a dot product, not with the
        # matrix-vector kernel of the whole chunk, so its gain may round
        # an ulp or two apart
        g, mode = dense_case(kind)
        plan = plan_of(g, mode)
        for n in range(129, 192):
            for chunk in (0, 3):
                got = np.empty(n)
                _compute_chunk([plan], 17, chunk, [got], mc._workspace([plan]))
                want = whole_chunk_gains(plan, 17, chunk, n)
                if kind == "static" and n == 129:
                    assert np.array_equal(got[:128], want[:128])
                    np.testing.assert_allclose(got[128], want[128], rtol=5e-16, atol=0.0)
                else:
                    assert np.array_equal(got, want), n

    def test_every_last_block_length_to_rounding_on_14x14(self):
        g = dense_case("adaptive")[0].regrid(14, 14)
        plan = plan_of(g, CoherentMode(m_o=36))
        for n in range(129, 192):
            for seed in (17, 18):
                for chunk in (0, 3):
                    got = np.empty(n)
                    _compute_chunk([plan], seed, chunk, [got], mc._workspace([plan]))
                    assert np.array_equal(got, whole_chunk_gains(plan, seed, chunk, n)), n

    def test_contract_normals_depend_on_trial_and_rank_only(self):
        # the stream contract the engine is checked against: a trial reads
        # the same normals in a chunk of t + 1 trials as in a full one, and
        # rank r reads the first r rows of any larger rank's draw
        full = column_normals(31, 2, CHUNK_TRIALS, 40)
        for t in (0, 37, 127, 128, 516, CHUNK_TRIALS - 1):
            part = column_normals(31, 2, t + 1, 40)
            assert np.array_equal(part[:, 4 * t : 4 * t + 4], full[:, 4 * t : 4 * t + 4])
        for r in (1, 17, 39):
            assert np.array_equal(column_normals(31, 2, 517, r), full[:r, : 4 * 517])


class TestParityFold:
    """A coherent plan projects through the parity classes of its grid's
    mirror symmetries; the oracle's plain factor is the reference."""

    @pytest.mark.parametrize(
        "shape, classes",
        [((20, 20), 4), ((14, 14), 4), ((10, 10), 4), ((6, 6), 4), ((5, 4), 2), ((3, 3), 1)],
        ids=["20x20", "14x14", "10x10", "6x6", "5x4", "3x3"],
    )
    def test_folded_gains_match_the_plain_factor(self, shape, classes):
        # the folded projection and its signed sums give the gains of
        # z.T @ F.T through the unfolded factor, with the sorted combine
        g = dense_case("adaptive")[0].regrid(*shape)
        for m_o in sorted({min(36, g.m), g.m}):
            plan = plan_of(g, CoherentMode(m_o))
            assert len(plan.classes) == classes
            got = np.empty(3616)
            _compute_chunk([plan], 41, 1, [got], mc._workspace([plan]))
            want = plain_factor_gains(plan, 41, 1, 3616)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_workspace_refuses_a_class_past_the_rank(self):
        # the engine gathers each class's columns unchecked, so a plan with
        # a class that reads a column past its rank is refused before a draw
        f = plan_of(small_geom().regrid(3, 3), CoherentMode(9)).factor
        r = f.shape[1] - 1
        plan = mc.RunPlan("coherent", r, 0, 4 * r, f[:, :r], 5, classes=((np.arange(r + 1), f),))
        with pytest.raises(ValueError, match="past rank"):
            run_many([plan], 16, seed=1)

    @pytest.mark.parametrize("shape", [(20, 20), (14, 14), (6, 5), (5, 4)], ids=str)
    def test_class_eigenvalues_match_the_grid(self, shape):
        g = dense_case("adaptive")[0].regrid(*shape)
        j = build_correlation_matrix(g, "spherical")
        with mc._one_blas_thread():
            _, blocks = mc._parity_classes(g, j)
            folded = np.sort(np.linalg.eigvalsh(blocks).ravel())
            whole = np.linalg.eigvalsh(j)
        assert np.max(np.abs(folded - whole)) <= 1e-12 * whole[-1]

    def test_a_matrix_the_mirrors_change_is_not_folded(self):
        # scaled by a weight that grows along z, a 6x6 grid's matrix keeps
        # its x mirror only; growing along both axes, it keeps neither
        g = small_geom()
        j = build_correlation_matrix(g, "spherical")
        row, col = np.divmod(np.arange(g.m), g.m_x)
        for weight, classes in ((1.0 + 0.1 * row, 2), (1.0 + 0.1 * row + 0.03 * col, 1)):
            scaled = weight[:, None] * j * weight[None, :]
            (plan,) = plan_runs("spherical", [(g, CoherentMode(9))], {g: scaled})
            assert len(plan.classes) == classes
            f = plan.factor
            assert np.allclose(f @ f.T, scaled, rtol=0.0, atol=1e-12 * np.abs(scaled).max())


class TestRunMany:
    """A command's runs share each chunk's coherent draw; every run's gains
    stay those of the run alone."""

    @staticmethod
    def runs():
        # r = 112 (adaptive, 20x20), 36 (RIS 6x6), 90 (adaptive, 10x10),
        # 107 (RIS 14x14) and a static mode, which keeps its own stream
        g, static = dense_case("static")
        return [
            (g, CoherentMode(m_o=36)),
            (g.regrid(6, 6), CoherentMode(36)),
            (g.regrid(10, 10), CoherentMode(m_o=36)),
            (g, static),
            (g.regrid(14, 14), CoherentMode(196)),
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_joint_equals_alone(self, workers):
        runs = self.runs()
        n = CHUNK_TRIALS + 3214
        joint = run_many(plan_runs("spherical", runs, {}), n, seed=25, workers=workers)
        reverse = run_many(plan_runs("spherical", runs[::-1], {}), n, seed=25, workers=workers)
        reverse.reverse()
        for (geom, mode), a, b in zip(runs, joint, reverse):
            alone = run_trials(geom, "spherical", mode, n, seed=25, workers=workers)
            assert np.array_equal(a, alone) and np.array_equal(b, alone)

    def test_each_grid_factored_once(self, monkeypatch):
        # a coherent grid is factored by _grid_factor, through its parity
        # classes, once however many runs sample it
        sizes = []
        real_grid_factor = mc._grid_factor

        def counting_grid_factor(grid, j):
            sizes.append(j.shape[0])
            return real_grid_factor(grid, j)

        monkeypatch.setattr(mc, "_grid_factor", counting_grid_factor)
        g = small_geom()
        plan_runs(
            "spherical",
            [(g, CoherentMode(9)), (g, CoherentMode(36)), (g.regrid(3, 3), CoherentMode(9))],
            {},
        )
        assert sorted(sizes) == [9, 36]

    def test_static_run_factors_its_block_only(self, monkeypatch):
        # a static 12x12 selection of the 20x20 grid factors its 144 x 144
        # block; a coherent run on the same grid adds the whole grid, whose
        # matrix is built once for both, and the caller's dict is left as
        # it was
        sizes, builds = [], []
        real_psd_sqrt, real_build = mc.psd_sqrt, mc.build_correlation_matrix
        real_grid_factor = mc._grid_factor

        def counting_psd_sqrt(j):
            sizes.append(j.shape[0])
            return real_psd_sqrt(j)

        def counting_grid_factor(grid, j):
            sizes.append(j.shape[0])
            return real_grid_factor(grid, j)

        def counting_build(grid, kernel):
            builds.append(grid)
            return real_build(grid, kernel)

        monkeypatch.setattr(mc, "psd_sqrt", counting_psd_sqrt)
        monkeypatch.setattr(mc, "_grid_factor", counting_grid_factor)
        monkeypatch.setattr(mc, "build_correlation_matrix", counting_build)
        g, static = dense_case("static")
        correlations = {}
        plan_runs("spherical", [(g, static)], correlations)
        assert sizes == [144] and builds == [g]
        sizes.clear()
        builds.clear()
        plan_runs("spherical", [(g, static), (g, CoherentMode(36))], correlations)
        assert sizes == [144, 400] and builds == [g]
        assert correlations == {}

    def test_passed_matrix_is_factored_without_a_build(self, monkeypatch):
        # the caller's matrix for a grid is factored as it is; a grid the
        # caller does not pass is built once, however many runs sample it
        builds = []
        real_build = mc.build_correlation_matrix

        def counting_build(grid, kernel):
            builds.append(grid)
            return real_build(grid, kernel)

        monkeypatch.setattr(mc, "build_correlation_matrix", counting_build)
        g = SurfaceGeometry(m_x=5, m_z=7, w_x=1.7, w_z=2.3, wavelength=LAMBDA)
        passed = real_build(g, "spherical")
        assert not passed.flags.writeable
        ris = (g.regrid(3, 3), CoherentMode(9))
        runs = [(g, CoherentMode(9)), ris, ris]
        plans = plan_runs("spherical", runs, {g: passed})
        assert builds == [g.regrid(3, 3)]
        want = run_trials(g, "spherical", CoherentMode(9), 100, seed=27)
        assert builds == [g.regrid(3, 3), g]
        assert np.array_equal(run_many(plans, 100, seed=27)[0], want)
        # a matrix unlike the grid's own is what the plan factors
        (plan,) = plan_runs("spherical", [(g, CoherentMode(9))], {g: np.eye(g.m)})
        assert len(builds) == 2 and (plan.rank, plan.clamped) == (g.m, 0)
        assert np.allclose(plan.factor @ plan.factor.T, np.eye(g.m), rtol=0.0, atol=1e-12)

    def test_plans_state_rank_clamped_and_draws(self):
        # a static run factors its 144-element block, which keeps 135
        # eigenpairs, and draws K + 1 exponentials a trial; 20x20 keeps 167
        # of 400, and a coherent run samples the first r = 112 in draw
        # order and reads 4r normals a trial
        g, static = dense_case("static")
        plans = plan_runs("spherical", [(g, static), (g, CoherentMode(36))], {})
        assert [(plan.rank, plan.clamped) for plan in plans] == [(135, 9), (112, 233)]
        assert plans[0].kind == "static" and plans[0].factor is None
        assert plans[0].draws_per_trial == plans[0].weights.size + 1
        assert plans[1].kind == "coherent" and plans[1].factor.shape == (400, 112)
        assert plans[1].draws_per_trial == 4 * 112 and plans[1].m_o == 36
        # the RIS baseline is the coherent plan that keeps all M' elements
        ris = plan_of(g.regrid(6, 6), CoherentMode(36))
        assert ris.kind == "coherent" and ris.m_o == 36 == ris.factor.shape[0]
        with pytest.raises(ValueError, match="at least one run"):
            run_many([], 10, seed=1)

    def test_draw_order_leads_with_the_largest_mode(self):
        # the coherent draw reads the factor's columns largest eigenvalue
        # first, each signed so that its first entry above 1e-3 of its
        # largest magnitude is positive; the ordered factor, formed from
        # the grid's parity classes, stays a factor of the clamped J (that
        # of the unfolded root, whose degenerate pairs eigh may mix across
        # classes), and a plan samples its shortest prefix whose dropped
        # columns carry at most 1e-8 of the trace
        g, mode = dense_case("adaptive")
        j = build_correlation_matrix(g, "spherical")
        with mc._one_blas_thread():  # the eigenvectors plan_runs orders
            raw = psd_sqrt(j).factor
            full = mc._grid_factor(g, j)[0]
        f = plan_of(g, mode).factor
        power = (full * full).sum(axis=0)
        assert np.all(np.diff(power) <= 1e-12 * power[0])
        for col in full.T:
            assert col[np.abs(col) > 1e-3 * np.abs(col).max()][0] > 0.0
        assert np.allclose(full @ full.T, raw @ raw.T, rtol=0.0, atol=1e-12)
        r = f.shape[1]
        assert np.array_equal(f, full[:, :r])
        assert power[r:].sum() <= 1e-8 * power.sum() < power[r - 1 :].sum()

    @pytest.mark.parametrize("side", [10, 14, 20])
    def test_truncated_rank_tracks_full_rank(self, side):
        # a truncated plan reads a prefix of the full rank's normals, so on
        # one stream its gains stay within 2e-4 of those of the folded
        # full-rank factor, and their mean error within 1e-5
        g = dense_case("adaptive")[0].regrid(side, side)
        plan = plan_of(g, CoherentMode(36))
        with mc._one_blas_thread():  # the eigenvectors plan_runs orders
            full, clamped, classes = mc._grid_factor(g, build_correlation_matrix(g, "spherical"))
        r = full.shape[1]
        assert plan.rank < r
        ref = mc.RunPlan("coherent", r, clamped, 4 * r, full, 36, classes=classes)
        err = whole_chunk_gains(plan, 33, 0, CHUNK_TRIALS) / whole_chunk_gains(
            ref, 33, 0, CHUNK_TRIALS
        ) - 1.0
        assert np.max(np.abs(err)) <= 2e-4 and abs(err.mean()) <= 1e-5

    def test_ties_at_the_threshold_keep_m_o(self):
        # every element has a twin (repeated factor rows), so each trial's
        # 5th largest product is tied; the engine sums the 5 largest values
        # in ascending order, the same whichever of the tied it keeps, and
        # select_top_products keeps the lowest-indexed
        f = np.repeat(plan_of(small_geom().regrid(3, 3), CoherentMode(9)).factor, 2, axis=0)
        r = f.shape[1]
        plan = mc.RunPlan("coherent", r, 0, 4 * r, f, 5, classes=((np.arange(r), f),))
        (got,) = run_many([plan], 256, seed=34)
        for t, c in enumerate(column_channels(34, 0, 256, r)):
            a_f, a_u = f @ c.h_f, f @ c.h_u
            sel = select_top_products(a_u, a_f, 5)
            want = equivalent_gain_coherent(a_u[sel], a_f[sel])
            assert got[t] == pytest.approx(want, rel=1e-10)

    def test_one_computation_per_distinct_plan(self, monkeypatch):
        # fig3c's RIS 6x6 and its adaptive 36 on the 6x6 sweep grid are
        # one plan (m_o = M' = 36), projected and combined once a block
        g = dense_case("adaptive")[0]
        runs = [(g.regrid(6, 6), CoherentMode(36))] + [
            (g.regrid(side, side), CoherentMode(36)) for side in (6, 10, 14, 20)
        ]
        plans = plan_runs("spherical", runs, {})
        assert plans[0] is plans[1] and len({id(plan) for plan in plans}) == 4
        calls = []
        real_combine = mc._combine

        def counting_combine(plan, power):
            calls.append(plan)
            return real_combine(plan, power)

        monkeypatch.setattr(mc, "_combine", counting_combine)
        gains = run_many(plans, 2 * 128, seed=36, workers=1)
        assert len(calls) == 2 * 4
        assert np.array_equal(gains[0], gains[1])
        alone = run_trials(g.regrid(6, 6), "spherical", CoherentMode(36), 256, seed=36)
        assert np.array_equal(gains[0], alone)

    def test_shared_draws_couple_grids_of_one_aperture(self):
        # column k drives the k-th largest mode of each grid, so the gains
        # of a dense adaptive surface and a sparse RIS move together
        g = SurfaceGeometry(m_x=10, m_z=10, w_x=2.0, w_z=2.0, wavelength=LAMBDA)
        runs = [(g, CoherentMode(16)), (g.regrid(4, 4), CoherentMode(16))]
        plans = plan_runs("spherical", runs, {})
        fris, ris = run_many(plans, 8192, seed=30)
        assert np.corrcoef(np.log(fris), np.log(ris))[0, 1] > 0.5

    @pytest.mark.parametrize("kind", ["adaptive", "baseline"])
    def test_coherent_law_matches_trial_major_stream(self, kind):
        # the column-major draw blocks sample the law of the trial-major
        # draw of artifact version 3: two-sample KS at 1e5 vs 1e5,
        # criterion 9's bound
        g = SurfaceGeometry(m_x=10, m_z=10, w_x=2.0, w_z=2.0, wavelength=LAMBDA)
        if kind != "adaptive":
            g = g.regrid(4, 4)
        mode = CoherentMode(m_o=16)
        n = 100_000
        got = run_trials(g, "spherical", mode, n, seed=28)
        ref = trial_major_gains(plan_of(g, mode), 29, n)
        both = np.sort(np.concatenate([got, ref]))
        cdf_got = np.searchsorted(np.sort(got), both, side="right") / n
        cdf_ref = np.searchsorted(np.sort(ref), both, side="right") / n
        assert np.max(np.abs(cdf_got - cdf_ref)) <= 0.012


# the `--config` document of tools/goldens.py
GOLDEN_CONFIG = {
    "geometry": {"m_x": 6, "m_z": 5, "w_x": 2, "w_z": 1.5},
    "modes": [
        {"type": "static", "select_x": 2, "select_z": 2, "phases": [0, 1.5, 3.0, 6.2]},
        {"type": "adaptive_fris", "m_o": 4},
        {"type": "ris_baseline", "m_rx": 3, "m_rz": 3},
    ],
    "trials": 9000,
}


def config_plans(doc):
    """A document's parsed config and the plans of its modes."""
    cfg = parse_config(json.dumps(doc))
    return cfg, plan_runs(cfg.kernel, [(spec.grid, spec.mode) for spec in cfg.modes], {})


def screened_shares(plans, n, seed, x):
    """The share of each plan's trials that `run_many` with threshold x
    screens, after checking that the screened run keeps every count the
    outage rows read and is the same at 1, 2 and 3 workers. The reference
    is the run at threshold inf, which reads the same screen-first layout
    and screens no block."""
    plain = run_many(plans, n, seed, workers=1, threshold=math.inf)
    screened = [run_many(plans, n, seed, workers=w, threshold=x) for w in (1, 2, 3)]
    for other in screened[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(screened[0], other))
    shares = []
    for got, want in zip(screened[0], plain):
        kept = np.isfinite(got)
        # a computed gain keeps its bits, and a screened one exceeds x
        assert np.array_equal(got[kept], want[kept])
        assert np.all(got[~kept] == np.inf) and np.all(want[~kept] > x)
        # the same gains at or below x: the same count at or below any x' <= x
        assert np.array_equal(np.sort(got[got <= x]), np.sort(want[want <= x]))
        shares.append(float(np.mean(~kept)))
    return shares


class TestScreenedRuns:
    """With a threshold, `run_many` reads every coherent draw block in the
    screen-first layout and writes +inf for the blocks whose every
    trial's screen bound exceeds it; the outage counts stay those of the
    same layout with no block screened."""

    def test_fig3a_at_0_db_screens_every_block(self):
        cfg, plans = config_plans(preset_config("fig3a"))
        x = cfg.budget(0.0).gain_threshold
        assert x == pytest.approx(8.0206, abs=1e-4)
        assert screened_shares(plans, CHUNK_TRIALS + 300, 37, x) == [1.0, 1.0]

    def test_config_at_0_db_screens_some_blocks(self):
        # ris(3x3) has 24 trials in outage in 9000; its screen sums all 9
        # elements, so a block passes when none of its trials is in
        # outage. Each of chunk 0's first four blocks holds one, and its
        # probe of block 7 passes; fris(Mo=4)'s four elements bound too
        # loosely, and the static mode is never screened
        cfg, plans = config_plans(GOLDEN_CONFIG)
        x = cfg.budget(0.0).gain_threshold
        static, fris, ris = screened_shares(plans, 9000, 5, x)
        assert static == 0.0 and fris == 0.0 and 0.5 < ris < 1.0
        (ris_gains,) = run_many(plans[2:], 9000, 5, threshold=math.inf)
        assert np.count_nonzero(ris_gains <= x) == 24

    def test_fig3a_at_minus_40_db_screens_no_block(self):
        cfg, plans = config_plans(preset_config("fig3a"))
        x = cfg.budget(-40.0).gain_threshold
        assert screened_shares(plans, CHUNK_TRIALS + 300, 38, x) == [0.0, 0.0]

    @pytest.mark.parametrize("x, screened", [(0.01, "all"), (1.0, "some"), (100.0, "none")])
    def test_lone_2x2_ris(self, x, screened):
        # the screen's parts and hop powers (6 x 128 x 4) outgrow the
        # engine's own buffers on a 4-element grid; the workspace holds
        # them. Its one orbit of four images is the whole grid, so every
        # column is a screen column and no trailing row is drawn
        (plan,) = plan_runs("spherical", [(small_geom().regrid(2, 2), CoherentMode(4))], {})
        assert mc._workspace([plan])[1].size == 6 * 128 * 4
        _, rows = mc._screen_layout(plan)
        assert rows.shape == (plan.rank, 4)
        (share,) = screened_shares([plan], CHUNK_TRIALS + 300, 39, x)
        assert {"all": share == 1.0, "some": 0.0 < share < 1.0, "none": share == 0.0}[screened]

    def test_a_plan_that_keeps_failing_stops_screening(self, monkeypatch):
        # a plan screens every block of a chunk once one has passed, and
        # only blocks 0, 1, 3, 7, 15, 31 and 63 of a chunk where all fail
        calls = []
        real_lower_bound = mc._lower_bound

        def counting_lower_bound(z, k, rows, w):
            calls.append(rows.shape)
            return real_lower_bound(z, k, rows, w)

        monkeypatch.setattr(mc, "_lower_bound", counting_lower_bound)
        cfg, plans = config_plans(preset_config("fig3a"))
        n = 2 * CHUNK_TRIALS
        for snr_db, blocks in ((0.0, 64), (-40.0, 7)):
            calls.clear()
            run_many(plans, n, 40, workers=1, threshold=cfg.budget(snr_db).gain_threshold)
            # 16 screen columns to 4 orbits of 4 images, on both grids
            assert calls == [(16, 16)] * 2 * 2 * blocks

    def test_a_cleared_block_draws_no_trailing_rows(self, monkeypatch):
        # every block of fig3a at 0 dB clears both plans' screens, so each
        # draw block fills its 16 screen columns and nothing else; at
        # -40 dB a screened block (0, 1, 3, .., 63 of a chunk) then fills
        # the 96 other rows fris reads, and the rest fill all 112 at once
        fills = []
        real_draw_block = mc._draw_block

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                fills.append(out.shape)
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(mc, "_draw_block", lambda *a: Recording(real_draw_block(*a)))
        cfg, plans = config_plans(preset_config("fig3a"))
        screened = [j in (0, 1, 3, 7, 15, 31, 63) for j in [*range(64), 0, 1, 2]]
        cleared = [[(16, 512)] for _ in screened]
        failed = [[(16, 512), (96, 512)] if s else [(112, 512)] for s in screened]
        for snr_db, each in ((0.0, cleared), (-40.0, failed)):
            fills.clear()
            run_many(plans, CHUNK_TRIALS + 300, 41, workers=1,
                     threshold=cfg.budget(snr_db).gain_threshold)
            assert fills == [shape for block in each for shape in block]

    @pytest.mark.parametrize(
        "doc", [preset_config("fig3a"), GOLDEN_CONFIG], ids=["fig3a", "config"]
    )
    def test_gains_match_the_complex_oracle_through_the_rotated_factor(self, doc):
        # trial by trial, a coherent gain of a run with a threshold is the
        # complex gain of the block's normals, read as `column_normals`,
        # through the rotated factor F' of the screen-first layout: a
        # computed one to 1e-10, a screened one above the threshold
        cfg, plans = config_plans(doc)
        x = cfg.budget(0.0).gain_threshold
        n = 300
        screened = run_many(plans, n, 42, threshold=x)
        computed = run_many(plans, n, 42, threshold=math.inf)
        for spec, plan, got, full in zip(cfg.modes, plans, screened, computed):
            if plan.kind == "static":
                continue
            j = build_correlation_matrix(spec.grid, cfg.kernel)
            images, _ = mc._parity_classes(spec.grid, j)
            f, _ = screen_first_factor(plan, images)
            for t, c in enumerate(column_channels(42, 0, n, f.shape[1])):
                a_f, a_u = f @ c.h_f, f @ c.h_u
                sel = select_top_products(a_u, a_f, plan.m_o)
                want = equivalent_gain_coherent(a_u[sel], a_f[sel])
                assert full[t] == pytest.approx(want, rel=1e-10)
                assert got[t] == full[t] or (got[t] == math.inf and want > x)

    @pytest.mark.parametrize("grid", [[-4.0, -2.0, 0.0], [0.0, 10.0]], ids=str)
    def test_outage_csv_equals_the_unscreened_one(self, monkeypatch, tmp_path, grid):
        # cmd_outage passes its largest threshold; at threshold inf, which
        # reads the same layout and screens nothing, the bytes are the same
        doc = {**GOLDEN_CONFIG, "snr_grid_db": grid, "trials": 3000}
        cfg = parse_config(json.dumps(doc))
        passed = []
        real_run_many = experiments_mod.run_many

        def unscreened(plans, n, seed, workers=None, threshold=None):
            passed.append(threshold)
            return real_run_many(plans, n, seed, workers, None if threshold is None else math.inf)

        experiments_mod.cmd_outage(cfg, tmp_path / "screened.csv")
        monkeypatch.setattr(experiments_mod, "run_many", unscreened)
        experiments_mod.cmd_outage(cfg, tmp_path / "plain.csv")
        experiments_mod.cmd_capacity(cfg, tmp_path / "capacity.csv")
        assert passed == [cfg.budget(grid[0]).gain_threshold, None]
        assert (tmp_path / "screened.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestThreadWorkers:
    @pytest.mark.parametrize("mode", SMALL_MODES, ids=MODE_KINDS)
    def test_more_threads_than_cores_keep_bits(self, mode):
        # frequent interpreter switches interleave the chunk threads as
        # finely as they can be
        g = small_geom()
        n = 5 * CHUNK_TRIALS + 77
        want = run_trials(g, "spherical", mode, n, seed=18, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_trials(g, "spherical", mode, n, seed=18, workers=5)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    def test_failed_chunk_stops_the_run(self, monkeypatch):
        started = []
        lock = threading.Lock()
        real_draw_block = mc._draw_block

        def failing_draw_block(seed, chunk, j):
            if j == 0:  # a chunk's first draw block
                with lock:
                    started.append(chunk)
                if chunk == 2:
                    raise RuntimeError("chunk 2 failed")
            return real_draw_block(seed, chunk, j)

        monkeypatch.setattr(mc, "_draw_block", failing_draw_block)
        n = 40 * CHUNK_TRIALS
        with pytest.raises(RuntimeError, match="chunk 2 failed"):
            run_trials(small_geom(), "spherical", CoherentMode(9), n, seed=19, workers=2)
        with lock:
            assert 2 in started and len(started) < 40

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory(self, workers):
        # a whole 8192-trial chunk of adaptive 36-of-400 held its draws
        # and projections at once, about 150 MB; blocks keep each worker
        # to a few MB
        g, mode = dense_case("adaptive")
        tracemalloc.start()
        try:
            run_trials(g, "spherical", mode, 2 * CHUNK_TRIALS, seed=20, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48e6

    def test_peak_memory_with_a_short_tail(self):
        # a chunk of 191 trials ends in a block of 63, which reuses the
        # buffers of a whole block, so 8192 + 191 trials peak no higher
        # than two whole chunks
        g, mode = dense_case("adaptive")
        plans = plan_runs("spherical", [(g, mode), (g.regrid(6, 6), CoherentMode(36))], {})
        run_many(plans, 1, seed=20, workers=1)  # one-time allocations of a first run
        peaks = []
        for n in (CHUNK_TRIALS + 191, 2 * CHUNK_TRIALS):
            tracemalloc.start()
            try:
                run_many(plans, n, seed=20, workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


class TestDefaultWorkers:
    def test_default_matches_one_worker(self):
        g = small_geom()
        mode = CoherentMode(m_o=9)
        n = 2 * CHUNK_TRIALS + 77
        want = run_trials(g, "spherical", mode, n, seed=21, workers=1)
        assert np.array_equal(run_trials(g, "spherical", mode, n, seed=21, workers=None), want)
        with pytest.raises(ValueError):
            run_trials(g, "spherical", mode, n, seed=21, workers=0)

    def test_default_is_one_thread_per_core(self, monkeypatch):
        sizes = []
        real_pool = mc.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(mc, "_available_cores", lambda: 3)
        run_trials(small_geom(), "spherical", CoherentMode(9), 5 * CHUNK_TRIALS, seed=22)
        # never more threads than chunks
        run_trials(small_geom(), "spherical", CoherentMode(9), 100, seed=22)
        assert sizes == [3, 1]

    def test_cores_follow_affinity_then_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert mc._available_cores() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert mc._available_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mc._available_cores() == 1


def tiny_config():
    doc = {
        "geometry": {"m_x": 4, "m_z": 4, "w_x": 1.5, "w_z": 1.5},
        "modes": [{"type": "static", "select_x": 2, "select_z": 2}],
        "snr_grid_db": [0.0, 10.0],
        "trials": 500,
        "seed": 3,
    }
    return parse_config(json.dumps(doc))


@pytest.fixture
def blas_controls(monkeypatch):
    """numpy's OpenBLAS thread-count getter, with the count raised to 2
    where the library allows it, and the list of counts the pin sets;
    the count found before the test is restored after it."""
    controls = mc._blas_controls()
    if controls is None:
        pytest.skip("numpy's bundled OpenBLAS thread controls are not available")
    get_threads, set_threads = controls
    before = get_threads()
    calls = []

    def recording_set(k):
        calls.append(k)
        set_threads(k)

    monkeypatch.setattr(mc, "_blas_controls", lambda: (get_threads, recording_set))
    set_threads(2)
    try:
        yield get_threads, calls
    finally:
        set_threads(before)


class TestBlasPin:
    def test_command_restores_count_on_return_and_raise(self, blas_controls, monkeypatch, tmp_path):
        get_threads, calls = blas_controls
        caller = get_threads()
        seen = []

        def failing_run_many(*args, **kwargs):
            seen.append(get_threads())
            raise RuntimeError("engine failed")

        monkeypatch.setattr(experiments_mod, "run_many", failing_run_many)
        with pytest.raises(RuntimeError, match="engine failed"):
            experiments_mod.cmd_outage(tiny_config(), tmp_path / "o.csv")
        assert seen == [1]
        assert get_threads() == caller
        assert calls == [1, caller]

    def test_nested_entry_restores_once_at_outer_exit(self, blas_controls, monkeypatch, tmp_path):
        get_threads, calls = blas_controls
        caller = get_threads()
        seen = []
        real_run_many = experiments_mod.run_many

        def recording_run_many(*args, **kwargs):
            seen.append(get_threads())
            out = real_run_many(*args, **kwargs)
            seen.append(get_threads())  # the inner exit keeps the pin
            return out

        monkeypatch.setattr(experiments_mod, "run_many", recording_run_many)
        experiments_mod.cmd_dist(tiny_config(), tmp_path / "d.csv")
        assert seen == [1, 1]
        assert get_threads() == caller
        assert calls == [1, caller]

    def test_concurrent_runs_keep_bits_and_restore(self, blas_controls, monkeypatch):
        # more runs than cores, all inside the pin at once, with the
        # interpreter switching threads as often as it can
        get_threads, calls = blas_controls
        caller = get_threads()
        g, mode = dense_case("static")
        n = CHUNK_TRIALS + 3214
        want = run_trials(g, "spherical", mode, n, seed=23, workers=1)
        calls.clear()
        runs = 4
        barrier = threading.Barrier(runs, timeout=60)
        real_psd_sqrt = mc.psd_sqrt
        seen = []

        def meeting_psd_sqrt(*args):
            # each run's plan factors its one grid here
            barrier.wait()
            seen.append(get_threads())
            return real_psd_sqrt(*args)

        monkeypatch.setattr(mc, "psd_sqrt", meeting_psd_sqrt)
        results = [None] * runs

        def run(i):
            results[i] = run_trials(g, "spherical", mode, n, seed=23, workers=2)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(runs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r is not None and np.array_equal(r, want) for r in results)
        assert seen == [1] * runs
        assert get_threads() == caller
        assert calls == [1, caller]

    def test_missing_library_runs_unpinned(self, monkeypatch, capsys):
        controls = mc._blas_controls()
        g, mode = dense_case("static")
        n = CHUNK_TRIALS + 3214
        want = run_trials(g, "spherical", mode, n, seed=24)
        monkeypatch.setattr(mc, "_blas_controls", lambda: None)
        if controls is None:
            assert np.array_equal(run_trials(g, "spherical", mode, n, seed=24), want)
        else:
            get_threads, set_threads = controls
            before = get_threads()
            seen = []
            real_psd_sqrt = mc.psd_sqrt

            def recording_psd_sqrt(*args):
                seen.append(get_threads())
                return real_psd_sqrt(*args)

            monkeypatch.setattr(mc, "psd_sqrt", recording_psd_sqrt)
            try:
                # unpinned at the caller's one thread: the pinned bits
                set_threads(1)
                assert np.array_equal(run_trials(g, "spherical", mode, n, seed=24), want)
                # unpinned at the caller's two threads: the count is left
                # alone (the eigenvectors, and so the draws' mapping to
                # gains, may then differ)
                set_threads(2)
                caller = get_threads()
                run_trials(g, "spherical", mode, 1000, seed=24)
                assert get_threads() == caller
            finally:
                set_threads(before)
            assert seen == [1, caller]
        assert main(["validate", "--preset", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "blas: unpinned (no scipy-openblas symbol); bytes may depend on BLAS threads" in out
        assert "blas: pinned" not in out


class TestEstimators:
    def test_outage_counts(self):
        # unit budget at rate 1 puts the gain threshold at exactly 1
        samples = np.array([0.1, 0.5, 2.0, 3.0])
        est = estimate_outage(samples, unit_budget())
        assert est.hits == 2
        assert est.probability == pytest.approx(0.5)
        assert est.stderr == pytest.approx(0.25)
        assert est.reliable is False

    def test_outage_extremes(self):
        high = estimate_outage(np.full(100, 50.0), unit_budget())
        assert high.probability == 0.0 and high.stderr == 0.0
        assert high.reliable is False
        low = estimate_outage(np.zeros(100), unit_budget())
        assert low.probability == 1.0 and low.stderr == 0.0
        assert low.hits == 100 and low.reliable is True

    def test_capacity_single_sample(self):
        est = estimate_ergodic_capacity(np.array([1.0]), unit_budget())
        assert est.capacity == pytest.approx(1.0, rel=1e-14)
        assert est.stderr == 0.0

    def test_capacity_zero_gain(self):
        est = estimate_ergodic_capacity(np.zeros(10), unit_budget())
        assert est.capacity == 0.0 and est.stderr == 0.0

    def test_capacity_stderr_formula(self):
        samples = np.array([0.5, 1.0, 2.0, 4.0])
        est = estimate_ergodic_capacity(samples, unit_budget())
        rates = np.log2(1.0 + samples)
        assert est.capacity == pytest.approx(rates.mean(), rel=1e-14)
        assert est.stderr == pytest.approx(rates.std(ddof=1) / 2.0, rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_outage(np.array([]), unit_budget())
        with pytest.raises(ValueError):
            estimate_ergodic_capacity(np.array([]), unit_budget())


class TestKsStatistic:
    def test_matches_per_sample_definition(self):
        # one vectorised cdf call gives the per-sample scalar loop's value
        fit = GammaFit(16.4, 2.89)
        s = np.sort(np.random.default_rng(706).gamma(15.0, 3.1, 5000))
        f = np.array([gamma_cdf(fit, float(g)) for g in s])
        grid = np.arange(s.size, dtype=float)
        want = max(np.max((grid + 1.0) / s.size - f), np.max(f - grid / s.size))
        assert ks_statistic(s[::-1], fit) == want

    def test_single_sample_exact(self):
        fit = GammaFit(1.0, 1.0)
        want = 1.0 - math.exp(-1.0)  # F(1); D = max(F, 1 - F)
        assert ks_statistic(np.array([1.0]), fit) == pytest.approx(want, rel=1e-12)

    def test_null_calibration(self):
        # samples drawn from the fitted law itself stay within twice the
        # 95% null band 1.358/sqrt(n)
        fit = GammaFit(16.4, 2.89)
        rng = np.random.default_rng(703)
        samples = rng.gamma(shape=fit.shape_k, scale=fit.scale_theta, size=100_000)
        assert ks_statistic(samples, fit) <= 2.0 * 1.358 / math.sqrt(samples.size)

    def test_degenerate_samples_fail(self):
        fit = GammaFit(16.4, 2.89)
        assert ks_statistic(np.full(1000, fit.shape_k * fit.scale_theta), fit) >= 0.4


class TestEmpiricalCdf:
    def test_step_values(self):
        samples = np.array([3.0, 1.0, 2.0])
        assert empirical_cdf(samples, 0.5) == 0.0
        assert empirical_cdf(samples, 1.0) == pytest.approx(1 / 3)
        assert empirical_cdf(samples, 2.5) == pytest.approx(2 / 3)
        assert empirical_cdf(samples, 3.0) == 1.0
        out = empirical_cdf(samples, np.array([0.0, 1.5, 10.0]))
        assert np.allclose(out, [0.0, 1 / 3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf(np.array([]), 0.0)

