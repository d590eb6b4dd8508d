"""Tests for the per-realization oracle (tests/oracle.py) and the link budget."""

import itertools
import math

import numpy as np
import pytest

from frislink.channel import LinkBudget, PathLoss, path_loss_factor
from frislink.correlation import (
    SurfaceGeometry,
    build_correlation_matrix,
)
from oracle import (
    effective_channel,
    equivalent_gain_coherent,
    equivalent_gain_static,
    ris_baseline_gain,
    sample_channels,
    select_top_products,
    symmetric_sqrt,
)


@pytest.fixture(scope="module")
def small_sqrt():
    g = SurfaceGeometry(m_x=2, m_z=2, w_x=0.8, w_z=0.8, wavelength=0.125)
    return symmetric_sqrt(build_correlation_matrix(g))


class TestSampleChannels:
    def test_deterministic_per_stream(self):
        a = sample_channels(np.random.default_rng(7), 16)
        b = sample_channels(np.random.default_rng(7), 16)
        assert np.array_equal(a.h_f, b.h_f)
        assert np.array_equal(a.h_u, b.h_u)

    def test_draw_order(self):
        # h_f consumes the first 2m normals (re then im), h_u the next 2m
        z = np.random.default_rng(11).standard_normal(16)
        got = sample_channels(np.random.default_rng(11), 4)
        rt = 1 / math.sqrt(2)
        assert np.array_equal(got.h_f, (z[:4] + 1j * z[4:8]) * rt)
        assert np.array_equal(got.h_u, (z[8:12] + 1j * z[12:16]) * rt)

    def test_unit_variance_and_independence(self):
        rng = np.random.default_rng(42)
        n = 100_000
        hf = np.empty((n, 4), dtype=complex)
        hu = np.empty((n, 4), dtype=complex)
        for t in range(n):
            c = sample_channels(rng, 4)
            hf[t] = c.h_f
            hu[t] = c.h_u
        for h in (hf, hu):
            v = np.mean(np.abs(h) ** 2, axis=0)
            assert np.all(v > 0.97) and np.all(v < 1.03)
        # cross-hop sample correlation should vanish
        c01 = np.mean(hf[:, 0] * np.conj(hu[:, 0]))
        assert abs(c01) < 0.02


class TestEffectiveChannel:
    def test_identity_passthrough(self):
        h = np.array([1 + 2j, -0.5j, 3.0, 0.25 + 0.25j])
        out = effective_channel(np.eye(4), h, np.arange(4))
        assert np.array_equal(out, h)

    def test_single_row(self, small_sqrt):
        h = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        out = effective_channel(small_sqrt, h, np.array([2]))
        assert out[0] == pytest.approx(small_sqrt[2, 0], rel=1e-15)

    def test_two_element_closed_form(self):
        s = np.array([[0.9659258262890682, 0.2588190451025207],
                      [0.2588190451025207, 0.9659258262890682]])
        h = np.array([1.0, 0.0], dtype=complex)
        out = effective_channel(s, h, np.arange(2))
        assert out == pytest.approx([s[0, 0], s[1, 0]], rel=1e-14)


class TestEquivalentGain:
    def test_constructive_and_destructive(self):
        a = np.array([1.0 + 0j, 1.0 + 0j])
        assert equivalent_gain_static(a, a, np.zeros(2)) == pytest.approx(4.0)
        assert equivalent_gain_static(a, a, np.array([0.0, math.pi])) == pytest.approx(
            0.0, abs=1e-30
        )

    def test_matrix_form_oracle(self, small_sqrt):
        # dense-algebra reference: h_u^H S^(1/2)^T Sel^T Phi Sel S^(1/2) h_f
        rng = np.random.default_rng(501)
        for _ in range(25):
            hf = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / math.sqrt(2)
            hu = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / math.sqrt(2)
            sel = np.sort(rng.choice(4, size=3, replace=False))
            phases = rng.uniform(0, 2 * math.pi, size=3)
            s_mat = np.zeros((3, 4))
            s_mat[np.arange(3), sel] = 1.0
            phi = np.diag(np.exp(1j * phases))
            h_eq = np.conj(small_sqrt @ hu) @ s_mat.T @ phi @ s_mat @ (small_sqrt @ hf)
            want = abs(h_eq) ** 2
            a_f = effective_channel(small_sqrt, hf, sel)
            a_u = effective_channel(small_sqrt, hu, sel)
            got = equivalent_gain_static(a_u, a_f, phases)
            assert got == pytest.approx(want, rel=1e-10)

    def test_coherent_single_element(self):
        a_u = np.array([0.3 - 0.4j])
        a_f = np.array([1.2 + 0.5j])
        want = (abs(a_u[0]) * abs(a_f[0])) ** 2
        assert equivalent_gain_coherent(a_u, a_f) == pytest.approx(want, rel=1e-14)

    def test_coherent_dominates_static(self):
        rng = np.random.default_rng(502)
        for _ in range(50):
            a_u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            a_f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            phases = rng.uniform(0, 2 * math.pi, size=6)
            assert equivalent_gain_coherent(a_u, a_f) >= equivalent_gain_static(
                a_u, a_f, phases
            ) - 1e-12

    def test_coherent_is_phase_optimum(self):
        # random search over phases never beats the aligned sum
        rng = np.random.default_rng(503)
        a_u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a_f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        best = max(
            equivalent_gain_static(a_u, a_f, rng.uniform(0, 2 * math.pi, 3))
            for _ in range(200_000)
        )
        opt = equivalent_gain_coherent(a_u, a_f)
        assert best <= opt + 1e-12
        assert best >= 0.98 * opt

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(504)
        a_u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a_f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phases = rng.uniform(0, 2 * math.pi, 5)
        rot = np.exp(1j * 1.234)
        assert equivalent_gain_static(a_u, a_f * rot, phases) == pytest.approx(
            equivalent_gain_static(a_u, a_f, phases), rel=1e-12
        )
        assert equivalent_gain_coherent(a_u, a_f * rot) == pytest.approx(
            equivalent_gain_coherent(a_u, a_f), rel=1e-12
        )


class TestSelectTopProducts:
    def test_all_selected(self):
        a = np.ones(4, dtype=complex)
        assert np.array_equal(select_top_products(a, a, 4), np.arange(4))

    def test_simple_ranking(self):
        a_u = np.array([3.0, 1.0, 2.0], dtype=complex)
        a_f = np.ones(3, dtype=complex)
        assert np.array_equal(select_top_products(a_u, a_f, 2), [0, 2])

    def test_tie_breaks_to_lower_index(self):
        a = np.array([2.0, 2.0, 2.0], dtype=complex)
        assert np.array_equal(select_top_products(a, a, 2), [0, 1])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(505)
        a_u = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a_f = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        base = select_top_products(a_u, a_f, 4)
        scaled = select_top_products(a_u * 7.5, a_f, 4)
        assert np.array_equal(base, scaled)

    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(506)
        a_u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a_f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        got = select_top_products(a_u, a_f, 3)
        best = max(
            itertools.combinations(range(8), 3),
            key=lambda c: sum(abs(a_u[i]) * abs(a_f[i]) for i in c),
        )
        assert np.array_equal(got, sorted(best))

    def test_bad_m_o(self):
        a = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            select_top_products(a, a, 0)
        with pytest.raises(ValueError):
            select_top_products(a, a, 5)


class TestPathLossAndBudget:
    def test_unit_factor(self):
        pl = PathLoss(rho=1.0, alpha=2.0, d_f=1.0, d_u=1.0)
        assert path_loss_factor(pl, "f") == 1.0
        assert path_loss_factor(pl, "u") == 1.0

    def test_frozen_values(self):
        pl = PathLoss(rho=10.0, alpha=2.1, d_f=20.0, d_u=40.0)
        assert path_loss_factor(pl, "f") == pytest.approx(
            0.1361189231065016, rel=1e-12
        )
        assert path_loss_factor(pl, "u") == pytest.approx(
            0.06574110644134873, rel=1e-12
        )

    def test_leg_validation(self):
        pl = PathLoss(rho=10.0, alpha=2.1, d_f=20.0, d_u=40.0)
        with pytest.raises(ValueError):
            path_loss_factor(pl, "x")

    def test_pathloss_validation(self):
        with pytest.raises(ValueError, match="rho"):
            PathLoss(rho=0.0, alpha=2.1, d_f=20.0, d_u=40.0)
        with pytest.raises(ValueError, match="d_f"):
            PathLoss(rho=1.0, alpha=2.1, d_f=-1.0, d_u=40.0)

    def test_received_snr(self):
        # received SNR per unit equivalent gain, and the outage threshold
        pl = PathLoss(rho=10.0, alpha=2.1, d_f=20.0, d_u=40.0)
        budget = LinkBudget(gamma_bar=1e4, pathloss=pl, rate_target=0.1)
        assert budget.snr_scale == pytest.approx(89.48608612626285, rel=1e-12)
        assert budget.rate_threshold == pytest.approx(
            0.07177346253629313, rel=1e-13
        )
        assert budget.gain_threshold == budget.rate_threshold / budget.snr_scale

    def test_budget_validation(self):
        pl = PathLoss(rho=10.0, alpha=2.1, d_f=20.0, d_u=40.0)
        with pytest.raises(ValueError):
            LinkBudget(gamma_bar=0.0, pathloss=pl, rate_target=0.1)
        with pytest.raises(ValueError):
            LinkBudget(gamma_bar=1.0, pathloss=pl, rate_target=-0.5)


class TestRisBaseline:
    def test_single_element(self):
        s = np.eye(1)
        h_u = np.array([0.5 + 0.5j])
        h_f = np.array([2.0 - 1.0j])
        want = (abs(h_u[0]) * abs(h_f[0])) ** 2
        assert ris_baseline_gain(s, h_u, h_f) == pytest.approx(want, rel=1e-14)

    def test_matches_coherent_over_all(self, small_sqrt):
        rng = np.random.default_rng(507)
        h_u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h_f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        want = equivalent_gain_coherent(small_sqrt @ h_u, small_sqrt @ h_f)
        assert ris_baseline_gain(small_sqrt, h_u, h_f) == pytest.approx(
            want, rel=1e-14
        )
