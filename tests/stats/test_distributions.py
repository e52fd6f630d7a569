"""Unit tests for repro.stats.distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, stats as sps

from repro.errors import ModelError
from repro.stats import (
    Deterministic,
    Erlang,
    Exponential,
    Hypoexponential,
    MaximumOf,
    SumOf,
    two_phase_latency,
)
from repro.stats.convolution import convolve_cdf, convolve_pdf


class TestExponential:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ModelError):
            Exponential(0.0)
        with pytest.raises(ModelError):
            Exponential(-1.5)
        with pytest.raises(ModelError):
            Exponential(float("nan"))

    def test_pdf_matches_scipy(self):
        d = Exponential(2.5)
        t = np.linspace(0, 5, 50)
        np.testing.assert_allclose(d.pdf(t), sps.expon.pdf(t, scale=1 / 2.5))

    def test_cdf_matches_scipy(self):
        d = Exponential(0.7)
        t = np.linspace(0, 10, 50)
        np.testing.assert_allclose(d.cdf(t), sps.expon.cdf(t, scale=1 / 0.7))

    def test_sf_complement(self):
        d = Exponential(1.3)
        t = np.linspace(0, 8, 20)
        np.testing.assert_allclose(d.sf(t), 1.0 - np.asarray(d.cdf(t)))

    def test_negative_time_handling(self):
        d = Exponential(1.0)
        assert d.pdf(-1.0) == 0.0
        assert d.cdf(-1.0) == 0.0
        assert d.sf(-1.0) == 1.0

    def test_mean_and_var(self):
        d = Exponential(4.0)
        assert d.mean() == pytest.approx(0.25)
        assert d.var() == pytest.approx(0.0625)

    def test_quantile_roundtrip(self):
        d = Exponential(2.0)
        for q in (0.1, 0.5, 0.9):
            assert d.cdf(d.quantile(q)) == pytest.approx(q)

    def test_quantile_rejects_bad_levels(self):
        d = Exponential(2.0)
        with pytest.raises(ModelError):
            d.quantile(1.0)
        with pytest.raises(ModelError):
            d.quantile(-0.1)

    def test_sample_mean_converges(self, rng):
        d = Exponential(3.0)
        draws = d.sample(rng, size=200_000)
        assert draws.mean() == pytest.approx(1 / 3.0, rel=0.02)

    def test_scalar_output_for_scalar_input(self):
        d = Exponential(1.0)
        assert isinstance(d.pdf(1.0), float)
        assert isinstance(d.cdf(1.0), float)


class TestErlang:
    def test_rejects_bad_shape(self):
        with pytest.raises(ModelError):
            Erlang(0, 1.0)
        with pytest.raises(ModelError):
            Erlang(-2, 1.0)
        with pytest.raises(ModelError):
            Erlang(1.5, 1.0)

    def test_shape_one_is_exponential(self):
        e = Erlang(1, 2.0)
        x = Exponential(2.0)
        t = np.linspace(0.01, 5, 30)
        np.testing.assert_allclose(e.pdf(t), x.pdf(t), rtol=1e-12)
        np.testing.assert_allclose(e.cdf(t), x.cdf(t), rtol=1e-10)

    @pytest.mark.parametrize("k,lam", [(2, 1.0), (3, 2.5), (7, 0.4)])
    def test_matches_scipy_gamma(self, k, lam):
        d = Erlang(k, lam)
        t = np.linspace(0.01, 20, 60)
        np.testing.assert_allclose(
            d.pdf(t), sps.gamma.pdf(t, a=k, scale=1 / lam), rtol=1e-9
        )
        np.testing.assert_allclose(
            d.cdf(t), sps.gamma.cdf(t, a=k, scale=1 / lam), rtol=1e-8, atol=1e-12
        )

    def test_mean_var(self):
        d = Erlang(5, 2.0)
        assert d.mean() == pytest.approx(2.5)
        assert d.var() == pytest.approx(1.25)

    def test_pdf_at_zero(self):
        assert Erlang(1, 3.0).pdf(0.0) == pytest.approx(3.0)
        assert Erlang(2, 3.0).pdf(0.0) == 0.0

    def test_pdf_integrates_to_one(self):
        d = Erlang(4, 1.5)
        total, _ = integrate.quad(lambda t: d.pdf(t), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_sample_moments(self, rng):
        d = Erlang(3, 2.0)
        draws = d.sample(rng, size=200_000)
        assert draws.mean() == pytest.approx(1.5, rel=0.02)
        assert draws.var() == pytest.approx(0.75, rel=0.05)

    def test_erlang_is_sum_of_exponentials(self, rng):
        # Lemma 3: k sequential Exp(λ) repetitions ~ Erlang(k, λ)
        lam, k, n = 1.7, 4, 100_000
        sums = rng.exponential(1 / lam, size=(n, k)).sum(axis=1)
        d = Erlang(k, lam)
        # Kolmogorov-Smirnov style check on a few quantiles
        for q in (0.25, 0.5, 0.75, 0.9):
            emp = np.quantile(sums, q)
            assert d.cdf(emp) == pytest.approx(q, abs=0.01)


class TestHypoexponential:
    def test_rejects_equal_rates(self):
        with pytest.raises(ModelError):
            Hypoexponential(2.0, 2.0)

    def test_pdf_is_paper_formula(self):
        a, b = 3.0, 1.0
        d = Hypoexponential(a, b)
        t = np.linspace(0.01, 10, 40)
        expected = a * b / (a - b) * (np.exp(-b * t) - np.exp(-a * t))
        np.testing.assert_allclose(d.pdf(t), expected, rtol=1e-12)

    def test_pdf_symmetric_in_rates(self):
        # L_o + L_p is symmetric in the two rates
        t = np.linspace(0.01, 10, 40)
        np.testing.assert_allclose(
            Hypoexponential(3.0, 1.0).pdf(t),
            Hypoexponential(1.0, 3.0).pdf(t),
            rtol=1e-12,
        )

    def test_pdf_integrates_to_one(self):
        d = Hypoexponential(2.0, 0.5)
        total, _ = integrate.quad(lambda t: d.pdf(t), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_cdf_is_pdf_integral(self):
        d = Hypoexponential(2.5, 0.8)
        for t0 in (0.5, 1.0, 3.0):
            val, _ = integrate.quad(lambda t: d.pdf(t), 0, t0)
            assert d.cdf(t0) == pytest.approx(val, abs=1e-8)

    def test_mean_is_sum_of_phase_means(self):
        d = Hypoexponential(4.0, 0.5)
        assert d.mean() == pytest.approx(1 / 4.0 + 1 / 0.5)

    def test_sample_mean(self, rng):
        d = Hypoexponential(3.0, 1.0)
        draws = d.sample(rng, size=100_000)
        assert draws.mean() == pytest.approx(d.mean(), rel=0.02)


class TestTwoPhaseLatency:
    def test_distinct_rates_gives_hypoexponential(self):
        d = two_phase_latency(2.0, 1.0)
        assert isinstance(d, Hypoexponential)

    def test_equal_rates_gives_erlang2(self):
        d = two_phase_latency(2.0, 2.0)
        assert isinstance(d, Erlang)
        assert d.shape == 2
        assert d.rate == 2.0

    def test_near_equal_rates_degrade_gracefully(self):
        d = two_phase_latency(2.0, 2.0 * (1 + 1e-12))
        assert isinstance(d, Erlang)

    def test_continuity_at_the_limit(self):
        # Hypoexp(λ, λ+ε) must approach Erlang(2, λ) as ε → 0
        lam = 1.5
        erl = Erlang(2, lam)
        hypo = two_phase_latency(lam, lam * 1.01)
        t = np.linspace(0.1, 6, 25)
        np.testing.assert_allclose(hypo.pdf(t), erl.pdf(t), rtol=0.05)


class TestDeterministic:
    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            Deterministic(-1.0)

    def test_cdf_step(self):
        d = Deterministic(2.0)
        assert d.cdf(1.99) == 0.0
        assert d.cdf(2.0) == 1.0
        assert d.mean() == 2.0
        assert d.var() == 0.0

    def test_sample(self, rng):
        d = Deterministic(3.5)
        assert d.sample(rng) == 3.5
        assert np.all(d.sample(rng, size=5) == 3.5)


class TestMaximumOf:
    def test_requires_components(self):
        with pytest.raises(ModelError):
            MaximumOf([])

    def test_cdf_is_product(self):
        a, b = Exponential(1.0), Exponential(2.0)
        m = MaximumOf([a, b])
        t = np.linspace(0, 5, 20)
        np.testing.assert_allclose(
            m.cdf(t), np.asarray(a.cdf(t)) * np.asarray(b.cdf(t))
        )

    def test_mean_two_exponentials_closed_form(self):
        # E[max] = 1/a + 1/b − 1/(a+b) (Lemma 1's expression)
        a, b = 2.0, 3.0
        m = MaximumOf([Exponential(a), Exponential(b)])
        assert m.mean() == pytest.approx(1 / a + 1 / b - 1 / (a + b), rel=1e-6)

    def test_sample_max(self, rng):
        m = MaximumOf([Exponential(1.0), Exponential(1.0)])
        draws = m.sample(rng, size=100_000)
        assert np.mean(draws) == pytest.approx(1.5, rel=0.02)


class TestSumOf:
    def test_requires_components(self):
        with pytest.raises(ModelError):
            SumOf([])

    def test_mean_var_additive(self):
        s = SumOf([Exponential(1.0), Erlang(2, 2.0), Deterministic(0.5)])
        assert s.mean() == pytest.approx(1.0 + 1.0 + 0.5)
        assert s.var() == pytest.approx(1.0 + 0.5 + 0.0)

    def test_two_exponentials_match_hypoexponential(self):
        s = SumOf([Exponential(3.0), Exponential(1.0)])
        h = Hypoexponential(3.0, 1.0)
        for t in (0.5, 1.0, 2.0, 4.0):
            assert s.cdf(t) == pytest.approx(h.cdf(t), abs=0.02)

    def test_memoised_grid_is_bit_identical_to_fresh_convolution(self):
        comps = [Exponential(1.5), Erlang(2, 2.0)]
        s = SumOf(comps)
        t = np.array([0.0, 0.3, 1.0, 2.5, 40.0])
        for grid_points in (4096, 512, 4096):
            assert np.array_equal(
                s.cdf(t, grid_points=grid_points),
                convolve_cdf(comps, t, grid_points=grid_points),
            )
            assert np.array_equal(
                s.pdf(t, grid_points=grid_points),
                convolve_pdf(comps, t, grid_points=grid_points),
            )
        assert s.cdf(1.0) == convolve_cdf(comps, 1.0)
        assert sorted(s._grids) == [512, 4096]

    def test_convolves_once_per_grid_size(self, monkeypatch):
        from repro.stats import convolution

        calls = []
        real = convolution.convolve_densities

        def counting(components, grid_points):
            calls.append(grid_points)
            return real(components, grid_points)

        monkeypatch.setattr(convolution, "convolve_densities", counting)
        s = SumOf([Exponential(1.0), Exponential(2.0)])
        for t in np.linspace(0.0, 5.0, 50):
            s.cdf(t)
            s.pdf(t)
        s.sf(1.0, grid_points=256)
        assert calls == [4096, 256]

    def test_mutating_the_input_list_cannot_stale_the_grid(self):
        comps = [Exponential(1.0), Exponential(2.0)]
        s = SumOf(comps)
        before = s.cdf(1.0)
        comps.append(Exponential(0.1))
        assert s.components == (Exponential(1.0), Exponential(2.0))
        assert s.cdf(1.0) == before == SumOf(comps[:2]).cdf(1.0)

    def test_sample(self, rng):
        s = SumOf([Exponential(2.0), Exponential(2.0)])
        draws = s.sample(rng, size=100_000)
        assert draws.mean() == pytest.approx(1.0, rel=0.02)
