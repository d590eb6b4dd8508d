"""Tests for the closed-form gain statistics."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from frislink.analysis import (
    GammaFit,
    ergodic_capacity_asymptotic,
    ergodic_capacity_bound,
    gamma_cdf,
    gamma_fit,
    gamma_pdf,
    gamma_quantile,
    gain_cdf,
    gain_outage_probability,
    outage_asymptotic,
    outage_probability,
    trace_power,
)
from frislink.channel import LinkBudget, PathLoss
from frislink.correlation import (
    SurfaceGeometry,
    build_correlation_matrix,
    principal_submatrix,
    uniform_grid_selection,
)
from oracle import (
    effective_channel,
    equivalent_gain_static,
    sample_channels,
    sample_gain_exponential_mixture,
    sample_gains_exponential_mixture,
    symmetric_sqrt,
)

LAMBDA = 0.12491352416666666

J2 = np.array([[1.0, 0.5], [0.5, 1.0]])


def unit_budget(gamma_bar=1.0, rate=1.0):
    pl = PathLoss(rho=1.0, alpha=2.0, d_f=1.0, d_u=1.0)
    return LinkBudget(gamma_bar=gamma_bar, pathloss=pl, rate_target=rate)


@pytest.fixture(scope="module")
def dense():
    g = SurfaceGeometry(m_x=20, m_z=20, w_x=3.0, w_z=3.0, wavelength=LAMBDA)
    return g, build_correlation_matrix(g)


class TestTracePower:
    def test_identity(self):
        assert trace_power(np.eye(7), 2) == pytest.approx(7.0, rel=1e-14)
        assert trace_power(np.eye(7), 4) == pytest.approx(7.0, rel=1e-14)

    def test_two_element(self):
        assert trace_power(J2, 2) == pytest.approx(2.5, rel=1e-13)
        assert trace_power(J2, 4) == pytest.approx(5.125, rel=1e-13)

    def test_matches_direct_matrix_power(self):
        rng = np.random.default_rng(601)
        a = rng.standard_normal((8, 8))
        j = a @ a.T / 8.0
        assert trace_power(j, 2) == pytest.approx(np.trace(j @ j), rel=1e-10)
        assert trace_power(j, 4) == pytest.approx(
            np.trace(j @ j @ j @ j), rel=1e-10
        )

    def test_empty_block(self):
        assert trace_power(np.zeros((0, 0)), 2) == 0.0

    def test_bad_power(self):
        with pytest.raises(ValueError):
            trace_power(np.eye(2), 3)


class TestGammaFit:
    def test_identity_block(self):
        fit = gamma_fit(np.eye(36))
        assert fit.shape_k == pytest.approx(36.0, rel=1e-12)
        assert fit.scale_theta == pytest.approx(1.0, rel=1e-12)

    def test_single_element(self):
        fit = gamma_fit(np.eye(1))
        assert fit.shape_k == pytest.approx(1.0, rel=1e-14)
        assert fit.scale_theta == pytest.approx(1.0, rel=1e-14)

    def test_two_element(self):
        fit = gamma_fit(J2)
        assert fit.shape_k == pytest.approx(2.5**2 / 5.125, rel=1e-13)
        assert fit.scale_theta == pytest.approx(5.125 / 2.5, rel=1e-13)

    def test_moment_identities(self, dense):
        g, j = dense
        rng = np.random.default_rng(602)
        for _ in range(5):
            sel = np.sort(rng.choice(g.m, size=30, replace=False))
            sub = principal_submatrix(j, sel)
            fit = gamma_fit(sub)
            assert fit.shape_k * fit.scale_theta == pytest.approx(
                trace_power(sub, 2), rel=1e-10
            )
            assert fit.shape_k * fit.scale_theta**2 == pytest.approx(
                trace_power(sub, 4), rel=1e-10
            )

    def test_dense_grid_regression(self, dense):
        # frozen from this implementation: dense 20x20 grid over 3x3
        # wavelengths, uniform 12x12 selection
        g, j = dense
        sub = principal_submatrix(j, uniform_grid_selection(g, 12, 12))
        fit = gamma_fit(sub)
        assert trace_power(sub, 2) == pytest.approx(560.0758014439742, rel=1e-12)
        assert trace_power(sub, 4) == pytest.approx(12197.448969505918, rel=1e-12)
        assert fit.shape_k == pytest.approx(25.71725482495021, rel=1e-12)
        assert fit.scale_theta == pytest.approx(21.778210981547037, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            gamma_fit(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GammaFit(shape_k=-1.0, scale_theta=1.0)


class TestGammaDistribution:
    def test_pdf_trivials(self):
        assert gamma_pdf(GammaFit(1.0, 1.0), 0.0) == pytest.approx(1.0)
        assert gamma_pdf(GammaFit(2.0, 1.0), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-13
        )
        assert gamma_pdf(GammaFit(2.0, 1.0), -0.5) == 0.0

    def test_pdf_normalizes(self):
        for fit in (GammaFit(1.0, 1.0), GammaFit(25.717, 21.778), GammaFit(0.5, 3.0)):
            total, err = scipy.integrate.quad(
                lambda g: gamma_pdf(fit, g),
                0.0,
                np.inf,
                limit=200,
            )
            assert total == pytest.approx(1.0, abs=max(1e-8, 10 * err))

    def test_cdf_trivials(self):
        assert gamma_cdf(GammaFit(3.0, 2.0), 0.0) == 0.0
        assert gamma_cdf(GammaFit(1.0, 2.0), 2.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-13
        )

    def test_cdf_matches_pdf_derivative(self):
        fit = GammaFit(4.2, 1.7)
        for mult in (0.5, 1.0, 5.0):
            g = mult * fit.shape_k * fit.scale_theta
            h = 1e-5 * g
            fd = (gamma_cdf(fit, g + h) - gamma_cdf(fit, g - h)) / (2 * h)
            assert fd == pytest.approx(gamma_pdf(fit, g), rel=1e-6)

    def test_cdf_vectorised(self):
        # an array of gains, negatives and 0 included, gives scalar calls' bits
        fit = GammaFit(16.39, 2.89)
        g = np.concatenate([[-1.0, 0.0], np.random.default_rng(607).gamma(16.39, 2.89, 300)])
        got = gamma_cdf(fit, g)
        assert np.array_equal(got, [gamma_cdf(fit, float(v)) for v in g])
        assert got[0] == 0.0 and got[1] == 0.0
        assert isinstance(gamma_cdf(fit, 40.0), float)

    def test_pdf_vectorised(self):
        # an array of gains, negatives, 0, 1e-300 and +inf included, gives scalar calls' bits
        rng = np.random.default_rng(608)
        for k in (0.5, 1.0, 16.39):
            fit = GammaFit(k, 2.89)
            g = np.concatenate([[-1.0, 0.0, 1e-300, 1e6, math.inf], rng.gamma(k, 2.89, 300)])
            got = gamma_pdf(fit, g)
            assert np.array_equal(got, [gamma_pdf(fit, float(v)) for v in g])
            assert got[0] == 0.0 and got[4] == 0.0
        assert isinstance(gamma_pdf(fit, 40.0), float)

    @pytest.mark.filterwarnings("error")
    def test_plus_inf(self):
        # the cdf is 1 and the density 0 at +inf, without iterating or warning
        fit = GammaFit(16.39, 2.89)
        assert gamma_cdf(fit, math.inf) == 1.0
        assert np.array_equal(gamma_cdf(fit, np.array([math.inf, 0.0])), [1.0, 0.0])
        assert gamma_pdf(fit, math.inf) == 0.0
        assert np.array_equal(gamma_pdf(fit, np.array([math.inf, -math.inf])), [0.0, 0.0])

    def test_nan(self):
        fit = GammaFit(16.39, 2.89)
        with pytest.raises(ValueError):
            gamma_cdf(fit, math.nan)
        assert math.isnan(gamma_pdf(fit, math.nan))
        got = gamma_pdf(fit, np.array([40.0, math.nan]))
        assert got[0] == gamma_pdf(fit, 40.0) and math.isnan(got[1])

    def test_cdf_monotone(self):
        fit = GammaFit(25.7, 21.8)
        grid = np.linspace(0.0, 3000.0, 500)
        vals = [gamma_cdf(fit, float(g)) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_quantile_round_trip(self):
        fit = GammaFit(16.39, 2.89)
        for p in (0.01, 0.25, 0.5, 0.9, 0.999):
            g = gamma_quantile(fit, p)
            assert gamma_cdf(fit, g) == pytest.approx(p, abs=1e-10)
        assert gamma_quantile(fit, 0.0) == 0.0
        with pytest.raises(ValueError):
            gamma_quantile(fit, 1.0)

    def test_quantile_matches_plain_bisection(self):
        # several bisection levels per cdf call decide each step as one
        # scalar call per midpoint does, so the quantile keeps its bits
        def plain(fit, p):
            k, th = fit.shape_k, fit.scale_theta
            hi = th * (k + 10.0 * math.sqrt(k) + 10.0)
            while gamma_cdf(fit, hi) < p:
                hi *= 2.0
            lo = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if gamma_cdf(fit, mid) < p:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-14 * hi:
                    break
            return 0.5 * (lo + hi)

        for fit in (GammaFit(16.39, 2.89), GammaFit(0.4, 7.0), GammaFit(150.0, 0.02)):
            for p in (1e-12, 0.01, 0.5, 0.999, 1.0 - 1e-12):
                assert gamma_quantile(fit, p) == plain(fit, p)


class TestOutage:
    def test_exponential_case(self):
        # k = 1, theta = 1, unit budget at R = 1: P = 1 - exp(-1)
        fit = GammaFit(1.0, 1.0)
        assert outage_probability(fit, unit_budget()) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12
        )

    def test_identity_with_cdf(self):
        fit = GammaFit(16.39, 2.89)
        b = unit_budget(gamma_bar=100.0, rate=0.1)
        thr = b.rate_threshold / b.snr_scale
        assert outage_probability(fit, b) == gamma_cdf(fit, thr)

    def test_monotone_in_snr(self):
        fit = GammaFit(3.0, 1.5)
        prev = 1.1
        for db in range(0, 42, 2):
            p = outage_probability(fit, unit_budget(gamma_bar=10 ** (db / 10)))
            assert p < prev
            prev = p

    def test_asymptotic_exponential_case(self):
        fit = GammaFit(1.0, 1.0)
        b = unit_budget(gamma_bar=1e4)
        want = b.rate_threshold / b.snr_scale  # x^1 / Gamma(2) = x
        assert outage_asymptotic(fit, b) == pytest.approx(want, rel=1e-12)

    def test_asymptotic_scaling(self):
        # doubling the SNR divides the tail by exactly 2^k
        fit = GammaFit(2.5, 0.8)
        lo = outage_asymptotic(fit, unit_budget(gamma_bar=1e3))
        hi = outage_asymptotic(fit, unit_budget(gamma_bar=2e3))
        assert lo / hi == pytest.approx(2.0**2.5, rel=1e-12)

    def test_asymptotic_ratio_converges(self):
        fit = GammaFit(1.0, 1.0)
        for db in (30.0, 40.0, 50.0):
            b = unit_budget(gamma_bar=10 ** (db / 10))
            exact = outage_probability(fit, b)
            asym = outage_asymptotic(fit, b)
            assert asym / exact == pytest.approx(1.0, abs=0.05)

    def test_diversity_slope(self):
        # log10 tail vs log10 SNR has slope exactly -k
        fit = GammaFit(16.390275562708858, 2.8911094056453663)
        dbs = np.linspace(20.0, 40.0, 9)
        logs = [
            math.log10(outage_asymptotic(fit, unit_budget(gamma_bar=10 ** (d / 10))))
            for d in dbs
        ]
        slope = np.polyfit(dbs / 10.0, logs, 1)[0]
        assert slope == pytest.approx(-fit.shape_k, abs=1e-9)

    def test_deep_tail_underflows_to_zero(self):
        fit = GammaFit(144.0, 20.0)
        assert outage_asymptotic(fit, unit_budget(gamma_bar=1e12)) == 0.0


class TestGainLaw:
    def test_exponential_shape_closed_form(self):
        # k = 1: F(g) = 1 - 2 sqrt(z) K_1(2 sqrt(z)), z = g / theta
        fit = GammaFit(1.0, 2.5)
        g = np.geomspace(1e-5, 200.0, 300)
        z = g / fit.scale_theta
        want = 1.0 - 2.0 * np.sqrt(z) * scipy.special.k1(2.0 * np.sqrt(z))
        np.testing.assert_allclose(gain_cdf(fit, g), want, rtol=0.0, atol=1e-13)

    def test_trivials(self):
        fit = GammaFit(16.39, 2.89)
        np.testing.assert_array_equal(
            gain_cdf(fit, np.array([-1.0, 0.0, np.inf])), [0.0, 0.0, 1.0]
        )
        with pytest.raises(ValueError):
            gain_cdf(fit, np.nan)

    def test_monotone_in_unit_interval(self):
        for fit in (GammaFit(0.5, 3.0), GammaFit(1.0, 1.0), GammaFit(25.717, 21.778)):
            g = np.linspace(0.0, 40.0 * fit.shape_k * fit.scale_theta, 20001)
            f = gain_cdf(fit, g)
            assert np.all((f >= 0.0) & (f <= 1.0))
            assert np.all(np.diff(f) >= 0.0)

    def test_moments_from_survival_integrals(self, dense):
        # E G = int (1 - F) = tr(J~^2); E G^2 = int 2g (1 - F) = 2 tr(J~^2)^2 + 2 tr(J~^4)
        g, j = dense
        jsub = principal_submatrix(j, uniform_grid_selection(g, 12, 12))
        t2, t4 = trace_power(jsub, 2), trace_power(jsub, 4)
        fit = gamma_fit(jsub)

        def survival(x):
            return 1.0 - float(gain_cdf(fit, x))

        m1, _ = scipy.integrate.quad(survival, 0.0, np.inf, limit=400)
        m2, _ = scipy.integrate.quad(lambda x: 2.0 * x * survival(x), 0.0, np.inf, limit=400)
        assert m1 == pytest.approx(t2, rel=1e-9)
        assert m2 == pytest.approx(2.0 * t2 * t2 + 2.0 * t4, rel=1e-9)

    def test_high_snr_tail_has_diversity_one(self):
        # F(g) ~ z / (k - 1) as z = g / theta -> 0, for k > 1
        fit = GammaFit(16.39, 2.89)
        z = 1e-5
        f = float(gain_cdf(fit, z * fit.scale_theta))
        assert f == pytest.approx(z / (fit.shape_k - 1.0), rel=1e-5)

    def test_outage_is_cdf_at_threshold(self):
        fit = GammaFit(16.39, 2.89)
        b = unit_budget(gamma_bar=100.0, rate=0.1)
        thr = b.rate_threshold / b.snr_scale
        assert gain_outage_probability(fit, b) == float(gain_cdf(fit, thr))


class TestCapacity:
    def test_unit_point(self):
        # snr_scale * tr = 1 gives exactly 1 bit
        assert ergodic_capacity_bound(np.eye(1), unit_budget()) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_empty_block_is_zero(self):
        assert ergodic_capacity_bound(np.zeros((0, 0)), unit_budget()) == 0.0

    def test_formula(self):
        b = unit_budget(gamma_bar=16.0)
        want = math.log2(1.0 + 16.0 * 2.5)
        assert ergodic_capacity_bound(J2, b) == pytest.approx(want, rel=1e-13)

    def test_asymptotic_gap(self):
        # bound - asymptote = log2(1 + 1/x) with x = snr_scale * tr
        b = unit_budget(gamma_bar=1e3)
        gap = ergodic_capacity_bound(np.eye(1), b) - ergodic_capacity_asymptotic(
            np.eye(1), b
        )
        assert gap == pytest.approx(math.log2(1.001), abs=1e-6)

    def test_asymptotic_slope(self):
        # exactly one bit per factor-2 in SNR, log2(10) bits per decade
        a1 = ergodic_capacity_asymptotic(J2, unit_budget(gamma_bar=1e2))
        a2 = ergodic_capacity_asymptotic(J2, unit_budget(gamma_bar=1e3))
        assert a2 - a1 == pytest.approx(math.log2(10.0), rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            ergodic_capacity_asymptotic(np.zeros((2, 2)), unit_budget())


class TestExponentialMixtureSampler:
    def test_deterministic(self):
        s = symmetric_sqrt(J2)
        sel = np.arange(2)
        ph = np.zeros(2)
        a = sample_gain_exponential_mixture(np.random.default_rng(9), s, sel, ph)
        b = sample_gain_exponential_mixture(np.random.default_rng(9), s, sel, ph)
        assert a == b

    def test_batched_draws_match_per_draw(self):
        # the batched sampler makes the per-draw RNG calls in their order,
        # across its 1024-draw batches, and stacks only the algebra
        g = SurfaceGeometry(m_x=4, m_z=4, w_x=1.5, w_z=1.5, wavelength=LAMBDA)
        s = symmetric_sqrt(build_correlation_matrix(g))
        sel = uniform_grid_selection(g, 3, 3)
        ph = np.random.default_rng(606).uniform(0.0, 2.0 * math.pi, size=len(sel))
        rng = np.random.default_rng(607)
        want = np.array([sample_gain_exponential_mixture(rng, s, sel, ph) for _ in range(2100)])
        got = sample_gains_exponential_mixture(np.random.default_rng(607), s, sel, ph, 2100)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_uncorrelated_single_element_mean(self):
        # J = I, one element: gain is Exp(1) * Exp(1) product with mean 1
        rng = np.random.default_rng(603)
        s = np.eye(1)
        sel = np.array([0])
        ph = np.zeros(1)
        n = 100_000
        vals = np.array(
            [sample_gain_exponential_mixture(rng, s, sel, ph) for _ in range(n)]
        )
        se = math.sqrt(3.0 / n)  # var of the product law is 3
        assert abs(vals.mean() - 1.0) < 3.5 * se

    def test_matches_direct_sampler_in_law(self):
        # two-sample KS between the mixture draw and the direct draw
        g = SurfaceGeometry(m_x=4, m_z=4, w_x=1.5, w_z=1.5, wavelength=LAMBDA)
        s = symmetric_sqrt(build_correlation_matrix(g))
        sel = uniform_grid_selection(g, 3, 3)
        rng = np.random.default_rng(604)
        ph = rng.uniform(0.0, 2.0 * math.pi, size=len(sel))
        n = 20_000
        mix = np.array(
            [sample_gain_exponential_mixture(rng, s, sel, ph) for _ in range(n)]
        )
        rng2 = np.random.default_rng(605)
        direct = np.empty(n)
        for t in range(n):
            c = sample_channels(rng2, g.m)
            a_f = effective_channel(s, c.h_f, sel)
            a_u = effective_channel(s, c.h_u, sel)
            direct[t] = equivalent_gain_static(a_u, a_f, ph)
        both = np.sort(np.concatenate([mix, direct]))
        cdf_mix = np.searchsorted(np.sort(mix), both, side="right") / n
        cdf_dir = np.searchsorted(np.sort(direct), both, side="right") / n
        ks = np.max(np.abs(cdf_mix - cdf_dir))
        # null two-sample KS 95th percentile at n = 2e4 is ~0.0136
        assert ks <= 0.02
