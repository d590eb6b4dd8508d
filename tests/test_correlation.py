"""Tests for surface geometry and the spatial correlation model."""

import math

import numpy as np
import pytest

from frislink.correlation import (
    KERNELS,
    SurfaceGeometry,
    build_correlation_matrix,
    jakes_coefficient,
    principal_submatrix,
    psd_sqrt,
    uniform_grid_selection,
)
from oracle import element_position, pairwise_distance, symmetric_sqrt

LAMBDA = 0.12491352416666666  # 2.4 GHz carrier


@pytest.fixture(scope="module")
def dense_geom():
    return SurfaceGeometry(m_x=20, m_z=20, w_x=3.0, w_z=3.0, wavelength=LAMBDA)


@pytest.fixture(scope="module")
def dense_j(dense_geom):
    return build_correlation_matrix(dense_geom)


class TestSurfaceGeometry:
    def test_regrid_keeps_aperture(self):
        g = SurfaceGeometry(m_x=20, m_z=20, w_x=3.0, w_z=2.0, wavelength=0.125)
        sub = g.regrid(6, 4)
        assert (sub.m_x, sub.m_z) == (6, 4)
        assert (sub.w_x, sub.w_z, sub.wavelength) == (3.0, 2.0, 0.125)
        with pytest.raises(ValueError, match="m_z"):
            g.regrid(6, 0)

    def test_spacing(self):
        g = SurfaceGeometry(m_x=20, m_z=20, w_x=3.0, w_z=3.0, wavelength=0.125)
        assert g.d_x == pytest.approx(0.01875, rel=1e-15)
        assert g.d_z == pytest.approx(0.01875, rel=1e-15)
        assert g.m == 400

    def test_validation(self):
        with pytest.raises(ValueError, match="m_x"):
            SurfaceGeometry(m_x=0, m_z=2, w_x=1.0, w_z=1.0, wavelength=0.1)
        with pytest.raises(ValueError, match="m_z"):
            SurfaceGeometry(m_x=2, m_z=-3, w_x=1.0, w_z=1.0, wavelength=0.1)
        with pytest.raises(ValueError, match="w_x"):
            SurfaceGeometry(m_x=2, m_z=2, w_x=0.0, w_z=1.0, wavelength=0.1)
        with pytest.raises(ValueError, match="wavelength"):
            SurfaceGeometry(m_x=2, m_z=2, w_x=1.0, w_z=1.0, wavelength=-0.1)
        with pytest.raises(ValueError, match="m_x"):
            SurfaceGeometry(m_x=2.5, m_z=2, w_x=1.0, w_z=1.0, wavelength=0.1)

    def test_positions(self):
        g = SurfaceGeometry(m_x=20, m_z=20, w_x=3.0, w_z=3.0, wavelength=0.125)
        assert element_position(0, g) == (0.0, 0.0)
        assert element_position(3, g) == pytest.approx((3 * 0.01875, 0.0))
        assert element_position(20, g) == pytest.approx((0.0, 0.01875))
        assert element_position(399, g) == pytest.approx((19 * 0.01875, 19 * 0.01875))
        with pytest.raises(ValueError):
            element_position(400, g)
        with pytest.raises(ValueError):
            element_position(-1, g)


class TestPairwiseDistance:
    def test_axis_and_diagonal(self):
        g = SurfaceGeometry(m_x=20, m_z=20, w_x=3.0, w_z=3.0, wavelength=0.125)
        assert pairwise_distance(5, 5, g) == 0.0
        assert pairwise_distance(0, 1, g) == pytest.approx(g.d_x, rel=1e-15)
        assert pairwise_distance(0, 20, g) == pytest.approx(g.d_z, rel=1e-15)
        assert pairwise_distance(0, 21, g) == pytest.approx(
            math.hypot(g.d_x, g.d_z), rel=1e-15
        )

    def test_symmetry(self):
        g = SurfaceGeometry(m_x=5, m_z=4, w_x=1.5, w_z=2.0, wavelength=0.125)
        rng = np.random.default_rng(3001)
        for _ in range(50):
            i, j = rng.integers(0, g.m, size=2)
            assert pairwise_distance(int(i), int(j), g) == pairwise_distance(
                int(j), int(i), g
            )


class TestJakesCoefficient:
    def test_trivials(self):
        assert jakes_coefficient(0.0, 0.125) == 1.0
        # half-wavelength spacing decorrelates exactly under the 3-D kernel
        assert abs(jakes_coefficient(0.0625, 0.125)) < 1e-15

    def test_frozen_adjacent_value(self):
        # adjacent elements of the dense 20x20 grid over 3x3 wavelengths
        g = SurfaceGeometry(m_x=20, m_z=20, w_x=3.0, w_z=3.0, wavelength=0.125)
        got = jakes_coefficient(g.d_x, g.wavelength)
        assert got == pytest.approx(0.8583936913341398, rel=1e-12)

    def test_cylindrical_option(self):
        from frislink.special import bessel_j0_cylindrical

        d, lam = 0.03, 0.125
        assert jakes_coefficient(d, lam, kernel="cylindrical") == pytest.approx(
            bessel_j0_cylindrical(2 * math.pi * d / lam), rel=1e-15
        )

    def test_bounded(self):
        for d in np.linspace(0.0, 1.0, 400):
            for kern in ("spherical", "cylindrical"):
                assert abs(jakes_coefficient(float(d), 0.125, kern)) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jakes_coefficient(-0.1, 0.125)
        with pytest.raises(ValueError):
            jakes_coefficient(0.1, 0.0)
        with pytest.raises(ValueError):
            jakes_coefficient(0.1, 0.125, kernel="bogus")


class TestBuildCorrelationMatrix:
    def test_single_element(self):
        g = SurfaceGeometry(m_x=1, m_z=1, w_x=1.0, w_z=1.0, wavelength=0.125)
        assert np.array_equal(build_correlation_matrix(g), np.eye(1))

    def test_half_wavelength_pair_is_identity(self):
        # two elements exactly lambda/2 apart: d_x = w_x * lambda / m_x
        g = SurfaceGeometry(m_x=2, m_z=1, w_x=1.0, w_z=1.0, wavelength=0.125)
        j = build_correlation_matrix(g)
        assert np.allclose(j, np.eye(2), atol=1e-15)

    def test_structure(self, dense_geom, dense_j):
        j = dense_j
        assert j.shape == (400, 400)
        assert np.array_equal(j, j.T)
        assert np.array_equal(np.diag(j), np.ones(400))
        assert np.all(np.abs(j) <= 1.0)

    def test_frozen_neighbour_entry(self, dense_j):
        assert dense_j[0, 1] == pytest.approx(0.8583936913341398, rel=1e-12)
        assert dense_j[0, 20] == pytest.approx(0.8583936913341398, rel=1e-12)

    def test_matches_scalar_kernel(self, dense_geom, dense_j):
        rng = np.random.default_rng(3002)
        for _ in range(100):
            i, j = (int(v) for v in rng.integers(0, dense_geom.m, size=2))
            d = pairwise_distance(i, j, dense_geom)
            assert dense_j[i, j] == pytest.approx(
                jakes_coefficient(d, dense_geom.wavelength), rel=1e-14, abs=1e-14
            )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_every_entry_is_the_kernel_at_its_distance(self, dense_geom, kernel):
        # bit for bit: entry (i, j) is the scalar kernel at the hypot of
        # the two elements' per-axis offsets
        g = dense_geom
        col, row = np.arange(g.m) % g.m_x, np.arange(g.m) // g.m_x
        off_x = np.abs(col[:, None] - col[None, :]) * g.d_x
        off_z = np.abs(row[:, None] - row[None, :]) * g.d_z
        dist = [list(map(math.hypot, xs, zs)) for xs, zs in zip(off_x.tolist(), off_z.tolist())]
        unique = {d for row_dist in dist for d in row_dist}
        kernel_at = {d: jakes_coefficient(d, g.wavelength, kernel) for d in unique}
        expected = np.array([[kernel_at[d] for d in row_dist] for row_dist in dist])
        assert build_correlation_matrix(g, kernel).tobytes() == expected.tobytes()

    def test_axis_transpose_consistency(self):
        # swapping the grid axes permutes indices without changing the spectrum
        a = SurfaceGeometry(m_x=3, m_z=4, w_x=1.2, w_z=2.0, wavelength=0.125)
        b = SurfaceGeometry(m_x=4, m_z=3, w_x=2.0, w_z=1.2, wavelength=0.125)
        ja = build_correlation_matrix(a)
        jb = build_correlation_matrix(b)
        perm = np.array([(i % 3) * 4 + (i // 3) for i in range(12)])
        assert np.allclose(ja, jb[np.ix_(perm, perm)], atol=1e-15)


class TestPsdSqrt:
    def test_identity(self):
        res = psd_sqrt(np.eye(5))
        assert np.allclose(symmetric_sqrt(np.eye(5)), np.eye(5), atol=1e-14)
        assert res.clamped_count == 0

    def test_two_element_closed_form(self):
        # sqrt of [[1, r], [r, 1]] has diag (sqrt(1+r)+sqrt(1-r))/2
        # and off-diag (sqrt(1+r)-sqrt(1-r))/2; here r = 0.5
        j = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = psd_sqrt(j)
        s = symmetric_sqrt(j)
        a = 0.9659258262890682
        b = 0.2588190451025207
        assert s[0, 0] == pytest.approx(a, rel=1e-12)
        assert s[1, 1] == pytest.approx(a, rel=1e-12)
        assert s[0, 1] == pytest.approx(b, rel=1e-12)
        assert np.allclose(s @ s, j, atol=1e-12)
        assert res.clamped_count == 0

    def test_dense_grid_factorization(self, dense_j):
        res = psd_sqrt(dense_j)
        s = symmetric_sqrt(dense_j)
        assert np.array_equal(s, s.T)
        # dense half-wavelength-scale sampling makes J rank deficient
        assert res.clamped_count > 0
        resid = np.max(np.abs(s @ s - dense_j))
        assert resid <= 1e-8
        evals = np.linalg.eigvalsh(s)
        assert evals.min() >= -1e-10

    def test_interlacing(self, dense_j):
        # any principal submatrix spectrum sits inside the full spectrum
        full_top = np.linalg.eigvalsh(dense_j)[-1]
        rng = np.random.default_rng(3003)
        for _ in range(10):
            sel = np.sort(rng.choice(400, size=36, replace=False))
            sub = principal_submatrix(dense_j, sel)
            top = np.linalg.eigvalsh(sub)[-1]
            assert top <= full_top + 1e-9

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.ones((2, 3)))

    def test_dense_grid_factor_rank(self, dense_j):
        res = psd_sqrt(dense_j)
        assert res.clamped_count == 233
        assert res.factor.shape == (400, 167)

    def test_factor_reproduces_clamped_root(self, dense_j):
        res = psd_sqrt(dense_j)
        gram = res.factor @ res.factor.T
        s = symmetric_sqrt(dense_j)
        assert np.max(np.abs(gram - s @ s)) <= 1e-12

    def test_full_rank_factor(self):
        # half-wavelength pitch keeps every eigenvalue above the clamp
        g = SurfaceGeometry(m_x=6, m_z=6, w_x=3.0, w_z=3.0, wavelength=LAMBDA)
        res = psd_sqrt(build_correlation_matrix(g))
        assert res.clamped_count == 0
        assert res.factor.shape == (36, 36)


class TestSelections:
    def test_full_grid(self, dense_geom):
        sel = uniform_grid_selection(dense_geom, 20, 20)
        assert np.array_equal(sel, np.arange(400))

    def test_single(self, dense_geom):
        assert np.array_equal(uniform_grid_selection(dense_geom, 1, 1), [0])

    def test_uniform_12x12(self, dense_geom):
        sel = uniform_grid_selection(dense_geom, 12, 12)
        assert len(sel) == 144
        assert len(np.unique(sel)) == 144
        assert np.all(np.diff(sel) > 0)
        cols = sel % 20
        rows = sel // 20
        assert set(cols) == set(rows)  # symmetric pattern on a square grid
        # evenly spread: every axis gap at least the minimum pitch
        gaps = np.diff(np.unique(cols))
        assert gaps.min() >= 1

    def test_infeasible(self, dense_geom):
        with pytest.raises(ValueError):
            uniform_grid_selection(dense_geom, 21, 4)
        with pytest.raises(ValueError):
            uniform_grid_selection(dense_geom, 0, 4)

    def test_principal_submatrix(self, dense_j):
        assert np.array_equal(
            principal_submatrix(dense_j, np.arange(400)), dense_j
        )
        one = principal_submatrix(dense_j, np.array([7]))
        assert np.array_equal(one, np.eye(1))
        sel = np.array([0, 5, 13])
        sub = principal_submatrix(dense_j, sel)
        assert np.array_equal(sub, sub.T)
        assert np.array_equal(np.diag(sub), np.ones(3))

