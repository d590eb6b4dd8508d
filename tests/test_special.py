"""Tests for the special-function kernels.

Frozen expected values were produced by independent oracles (mpmath-free:
scipy.special and high-order quadrature run separately) and pinned here.
"""

import math

import numpy as np
import pytest
import scipy.special

from frislink.special import (
    bessel_j0_cylindrical,
    bessel_j0_spherical,
    ln_gamma,
    reg_lower_inc_gamma,
)
from frislink.special import _lower_series, _upper_continued_fraction


class TestLnGamma:
    def test_integer_points(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half_integer(self):
        # G(1/2) = sqrt(pi)
        assert ln_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-13)

    def test_against_libm(self):
        xs = np.concatenate(
            [
                np.geomspace(1e-3, 0.5, 200),
                np.linspace(0.5, 20.0, 400),
                np.linspace(20.0, 170.0, 400),
            ]
        )
        for x in xs:
            assert ln_gamma(float(x)) == math.lgamma(float(x))

    def test_recurrence(self):
        # G(x+1) = x G(x)  <=>  lnG(x+1) - lnG(x) = ln x
        rng = np.random.default_rng(2001)
        for x in rng.uniform(0.5, 100.0, size=200):
            lhs = ln_gamma(x + 1.0) - ln_gamma(x)
            assert lhs == pytest.approx(math.log(x), rel=1e-12, abs=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                ln_gamma(bad)


class TestRegLowerIncGamma:
    def test_exponential_special_case(self):
        # k = 1 reduces to the exponential CDF.
        for x in (0.0, 0.1, 1.0, 2.5, 10.0, 40.0):
            assert reg_lower_inc_gamma(1.0, x) == pytest.approx(
                -math.expm1(-x), rel=1e-13, abs=1e-300
            )

    def test_frozen_oracle_values(self):
        # Quadrature oracle values, both branches exercised.
        pins = [
            (3.5, 2.0, 0.2202225915242841),  # series branch
            (0.5, 0.3, 0.5614219739189993),  # series branch, k < 1
            (2.0, 7.0, 0.9927049442755638),  # continued-fraction branch
            (10.0, 4.0, 0.008132242796933862),  # series branch, deep left tail
            (10.0, 25.0, 0.9997785233617511),  # continued-fraction branch
            (144.0, 120.0, 0.018078436756017276),  # large shape, series branch
        ]
        for k, x, expected in pins:
            assert reg_lower_inc_gamma(k, x) == pytest.approx(expected, rel=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(2002)
        for _ in range(400):
            k = float(rng.uniform(0.05, 200.0))
            x = float(rng.uniform(0.0, 2.5 * k + 10.0))
            assert reg_lower_inc_gamma(k, x) == pytest.approx(
                float(scipy.special.gammainc(k, x)), rel=1e-12, abs=1e-14
            )

    def test_bounds_and_monotonicity(self):
        for k in (0.3, 1.0, 3.5, 25.7, 144.0):
            prev = -1.0
            for x in np.linspace(0.0, 4.0 * k + 20.0, 300):
                p = reg_lower_inc_gamma(k, float(x))
                assert 0.0 <= p <= 1.0
                assert p >= prev
                prev = p

    def test_series_and_fraction_routes_are_complementary(self):
        # On x >= k + 1 both expansions converge; P_series + Q_cf = 1.
        for k in (0.5, 1.0, 3.5, 16.4, 60.0):
            x = np.linspace(k + 1.0, k + 30.0, 25)
            p = _lower_series(k, x)
            q = _upper_continued_fraction(k, x)
            assert np.allclose(p + q, 1.0, rtol=0.0, atol=1e-12)

    def test_array_matches_scalar_calls(self):
        # each element iterates on its own, so it gets a scalar call's bits
        rng = np.random.default_rng(2003)
        for k in (0.3, 1.0, 16.39, 25.72, 144.0):
            edges = [0.0, k + 1.0, np.nextafter(k + 1.0, 0.0)]
            x = np.concatenate([edges, rng.uniform(0.0, 3.0 * k + 10.0, 497)])
            got = reg_lower_inc_gamma(k, x)
            assert got.shape == x.shape
            assert np.array_equal(got, [reg_lower_inc_gamma(k, float(v)) for v in x])
            assert np.array_equal(reg_lower_inc_gamma(k, x.reshape(2, -1)), got.reshape(2, -1))
        assert isinstance(reg_lower_inc_gamma(2.0, 1.5), float)
        assert reg_lower_inc_gamma(2.0, np.array([])).shape == (0,)

    def test_array_against_scipy(self):
        rng = np.random.default_rng(2004)
        for _ in range(40):
            k = float(rng.uniform(0.05, 200.0))
            x = rng.uniform(0.0, 2.5 * k + 10.0, 200)
            assert np.allclose(
                reg_lower_inc_gamma(k, x), scipy.special.gammainc(k, x), rtol=1e-12, atol=1e-14
            )

    @pytest.mark.filterwarnings("error")
    def test_plus_inf_is_one(self):
        # P(k, +inf) = 1 directly, in scalar and array calls alike
        for k in (0.5, 3.0, 144.0):
            assert reg_lower_inc_gamma(k, math.inf) == 1.0
            x = np.array([0.0, 1.0, math.inf, k + 5.0, math.inf])
            got = reg_lower_inc_gamma(k, x)
            assert np.array_equal(got, [reg_lower_inc_gamma(k, float(v)) for v in x])
            assert got[2] == got[4] == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(-2.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(1.0, -0.1)
        for bad in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                reg_lower_inc_gamma(1.0, np.array([0.5, bad, 2.0]))


class TestSphericalBessel:
    def test_trivial_points(self):
        assert bessel_j0_spherical(0.0) == 1.0
        assert bessel_j0_spherical(1.0) == pytest.approx(math.sin(1.0), rel=1e-15)
        # sin(pi)/pi in doubles is ~3.9e-17, i.e. zero to double precision
        assert abs(bessel_j0_spherical(math.pi)) < 1e-15

    def test_even_exactly(self):
        rng = np.random.default_rng(2003)
        xs = np.concatenate(
            [rng.uniform(0.0, 50.0, 100), rng.uniform(0.0, 1e-4, 50)]
        )
        for x in xs:
            assert bessel_j0_spherical(float(x)) == bessel_j0_spherical(float(-x))

    def test_taylor_matches_ratio_at_cutoff(self):
        # Continuity across the small-argument branch switch.
        for x in (0.99e-4, 1.01e-4, 5e-5, 2e-4):
            exact = math.sin(x) / x
            assert bessel_j0_spherical(x) == pytest.approx(exact, rel=1e-15)

    def test_bounded_below_one(self):
        for x in np.linspace(1e-6, 60.0, 500):
            v = bessel_j0_spherical(float(x))
            assert abs(v) < 1.0


class TestCylindricalBessel:
    def test_trivial_and_frozen(self):
        assert bessel_j0_cylindrical(0.0) == 1.0
        assert bessel_j0_cylindrical(1.0) == pytest.approx(
            0.7651976865579666, rel=1e-10
        )

    def test_first_root(self):
        root = 2.404825557695773
        assert abs(bessel_j0_cylindrical(root)) < 1e-9
        # sign change bracket around the root
        assert bessel_j0_cylindrical(root - 1e-3) > 0.0
        assert bessel_j0_cylindrical(root + 1e-3) < 0.0

    def test_against_scipy_dense(self):
        xs = np.concatenate(
            [
                np.linspace(0.0, 30.0, 1500),
                np.linspace(7.9, 8.1, 200),  # inside the midpoint rule's range
                np.linspace(16.9, 17.1, 200),  # midpoint rule / asymptotic seam
                np.geomspace(17.0, 1000.0, 300),
            ]
        )
        for x in xs:
            assert bessel_j0_cylindrical(float(x)) == pytest.approx(
                float(scipy.special.j0(float(x))), abs=1e-10
            )

    def test_even(self):
        for x in (0.3, 4.0, 9.5, 25.0, 400.0):
            assert bessel_j0_cylindrical(x) == bessel_j0_cylindrical(-x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_arguments_stay_inside_the_envelope(self):
        # the expansion's amplitude bounds |J0|; at 1e300 its terms
        # underflow and nothing overflows
        x = np.array([1.5e9, 1e300])
        v = bessel_j0_cylindrical(x)
        assert np.all(np.isfinite(v))
        assert np.all(np.abs(v) <= np.sqrt(2.0 / (np.pi * x)) * (1.0 + 1e-12))
        # at the largest double 8 k x and pi x overflow: the amplitude
        # goes to its limit 0, within 1e-154 of the true value
        assert abs(bessel_j0_cylindrical(np.finfo(float).max)) <= 1e-154

