"""Marginal families: closed-form values, inversion, sampling, quadrature mass."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtr

from cexpect.errors import DomainError
from cexpect.marginals import (
    Exponential,
    MaxOfIid,
    Normal,
    Uniform,
    marginal_from_config,
)
from cexpect.quadrature import integrate
from cexpect.rng import philox_stream

FAMILIES = [
    Uniform(0.0, 1.0),
    Uniform(-2.0, 5.0),
    Exponential(1.0),
    Exponential(2.5),
    Normal(0.0, 1.0),
    Normal(1.5, 0.7),
]


class TestClosedForms:
    def test_uniform_cdf_midpoint(self):
        assert float(Uniform(0, 1).cdf(0.5)) == pytest.approx(0.5)

    def test_exponential_cdf_left_endpoint(self):
        assert float(Exponential(1.0).cdf(0.0)) == 0.0

    def test_normal_cdf_center(self):
        assert float(Normal(0, 1).cdf(0.0)) == pytest.approx(0.5)

    def test_uniform_quantile(self):
        assert float(Uniform(0, 1).quantile(0.3)) == pytest.approx(0.3)

    def test_exponential_quantile_closed_form(self):
        assert float(Exponential(1.0).quantile(1 - math.exp(-2))) == pytest.approx(2.0, abs=1e-12)

    def test_normal_quantile_median(self):
        assert float(Normal(0, 1).quantile(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_means(self):
        assert Uniform(0, 1).mean() == pytest.approx(0.5)
        assert Exponential(2.0).mean() == pytest.approx(0.5)
        assert Normal(3.0, 2.0).mean() == 3.0

    def test_normal_pdf_at_mode(self):
        assert float(Normal(0, 1).pdf(0.0)) == pytest.approx(0.39894, abs=1e-5)


class TestValidation:
    def test_uniform_requires_order(self):
        with pytest.raises(DomainError):
            Uniform(1.0, 1.0)

    def test_exponential_requires_positive_rate(self):
        with pytest.raises(DomainError):
            Exponential(0.0)

    def test_normal_requires_positive_sd(self):
        with pytest.raises(DomainError):
            Normal(0.0, -1.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            Uniform(0, 1).quantile(p)


class TestInversion:
    @pytest.mark.parametrize("m", FAMILIES, ids=str)
    def test_cdf_quantile_roundtrip_1000_points(self, m):
        rng = philox_stream(7, 0)
        p = 0.001 + rng.random(1000) * 0.998
        err = np.abs(np.asarray(m.cdf(m.quantile(p))) - p)
        assert float(err.max()) <= 1e-10

    @given(p=st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property_normal(self, p):
        m = Normal(0.3, 1.7)
        assert float(m.cdf(m.quantile(p))) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("m", FAMILIES, ids=str)
    def test_cdf_monotone(self, m):
        lo, hi = m.truncated_support()
        x = np.linspace(lo, hi, 501)
        c = np.asarray(m.cdf(x))
        assert np.all(np.diff(c) >= 0)

    @pytest.mark.parametrize("m", FAMILIES, ids=str)
    def test_sf_complements_cdf(self, m):
        lo, hi = m.truncated_support()
        x = np.linspace(lo, hi, 101)
        np.testing.assert_allclose(np.asarray(m.cdf(x)) + np.asarray(m.sf(x)), 1.0, atol=1e-12)

    @pytest.mark.parametrize("m", FAMILIES + [MaxOfIid(base=Exponential(1.0), count=5)], ids=str)
    def test_isf_is_upper_quantile(self, m):
        s = np.logspace(-6, math.log10(0.5), 41)
        np.testing.assert_allclose(m._isf(s), m.quantile(1.0 - s), rtol=1e-9, atol=1e-12)

    def test_isf_exact_in_far_tail(self):
        # Where 1 - s rounds to 1, the quantile runs out of digits; _isf does not.
        assert float(Exponential(2.5)._isf(1e-200)) == pytest.approx(200 * math.log(10) / 2.5)
        assert float(Normal(1.5, 0.7)._isf(1e-200)) == pytest.approx(
            1.5 + 0.7 * stats.norm.isf(1e-200), rel=1e-12
        )

    @pytest.mark.parametrize(
        "m",
        [
            Exponential(2.0),
            MaxOfIid(base=Exponential(), count=50),
            MaxOfIid(base=Uniform(-1.0, 2.0), count=3),
        ],
        ids=str,
    )
    def test_isf_support_ends_exact_and_silent(self, m):
        # s = 0 is the upper support end and s = 1 the lower one.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = m._isf(np.array([0.0, 1.0]))
        assert ends.tolist() == list(m.support())[::-1]

    @pytest.mark.parametrize("m", [Exponential(), MaxOfIid(base=Exponential(), count=2)], ids=str)
    def test_score_map_is_exact_and_silent_in_both_tails(self, m):
        # The quantile at ndtr(z) reads 36.737 for 36.657 at z = 8.2, and
        # inf with a warning from 8.3 on, where ndtr(z) rounds to 1.  The
        # upper half comes from ndtr(-z) instead, the lower from ndtr(z).
        z = np.array([8.2, 8.3, 9.0, 20.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            upper, lower = m._of_score(z), m._of_score(-z)
        assert np.all(np.isfinite(upper))
        assert upper.tobytes() == m._isf(ndtr(-z)).tobytes()
        assert lower.tobytes() == m._quantile(ndtr(-z)).tobytes()


class TestSampling:
    def test_uniform_mean_clt_bound(self):
        n = 100_000
        x = Uniform(0, 1).sample(philox_stream(11, 0), n)
        assert abs(float(x.mean()) - 0.5) <= 4.0 / math.sqrt(12 * n)

    def test_exponential_mean_clt_bound(self):
        n = 100_000
        x = Exponential(1.0).sample(philox_stream(12, 0), n)
        assert abs(float(x.mean()) - 1.0) <= 4.0 / math.sqrt(n)

    def test_fixed_seed_reproducible(self):
        a = Normal(0, 1).sample(philox_stream(13, 0), 1000)
        b = Normal(0, 1).sample(philox_stream(13, 0), 1000)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("m", FAMILIES, ids=str)
    def test_inverse_transform_ks_distance(self, m):
        # KS distance <= 1.63/sqrt(n) at the 99% level for the true cdf.
        n = 100_000
        x = np.sort(m.sample(philox_stream(14, 1), n))
        grid = np.asarray(m.cdf(x))
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(float(np.max(emp_hi - grid)), float(np.max(grid - emp_lo)))
        assert ks <= 1.63 / math.sqrt(n)

    def test_sample_size_validated(self):
        with pytest.raises(DomainError):
            Uniform(0, 1).sample(philox_stream(1, 0), 0)


class TestDensity:
    @pytest.mark.parametrize("m", FAMILIES, ids=str)
    def test_pdf_nonnegative_and_unit_mass(self, m):
        lo, hi = m.truncated_support()
        x = np.linspace(lo, hi, 2001)
        assert np.all(np.asarray(m.pdf(x)) >= 0)
        mass = integrate(lambda t: np.asarray(m.pdf(t)), lo, hi)
        assert 1.0 - 1e-8 <= mass <= 1.0 + 1e-8


class TestMaxOfIid:
    def test_cdf_is_power(self):
        m = MaxOfIid(base=Uniform(0, 1), count=4)
        assert float(m.cdf(0.5)) == pytest.approx(0.5**4)

    def test_mean_of_max_of_uniforms(self):
        # E max of m iid U(0,1) = m/(m+1).
        m = MaxOfIid(base=Uniform(0, 1), count=4)
        assert m.mean() == pytest.approx(0.8, abs=1e-9)

    def test_sampling_matches_distribution(self):
        m = MaxOfIid(base=Uniform(0, 1), count=3)
        x = m.sample(philox_stream(15, 0), 100_000)
        assert float(x.mean()) == pytest.approx(0.75, abs=0.005)

    def test_quantile_roundtrip(self):
        m = MaxOfIid(base=Exponential(1.0), count=5)
        p = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(np.asarray(m.cdf(m.quantile(p))), p, atol=1e-10)


class TestConfig:
    @pytest.mark.parametrize(
        "cfg",
        [
            {"family": "uniform", "lower": 0.0, "upper": 1.0},
            {"family": "exponential", "rate": 2.0},
            {"family": "normal", "mean": 0.0, "sd": 1.0},
        ],
    )
    def test_roundtrip(self, cfg):
        assert marginal_from_config(cfg).to_config() == cfg

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            marginal_from_config({"family": "cauchy"})

    def test_missing_key(self):
        with pytest.raises(DomainError):
            marginal_from_config({"family": "normal", "mean": 0.0})
