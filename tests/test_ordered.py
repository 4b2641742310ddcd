"""Order statistics and record values: closed forms, simulation, reports."""

import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate
from scipy import stats

from cexpect.errors import DomainError, SampleSizeError
from cexpect.marginals import Exponential, Normal, Uniform
from cexpect.ordered import (
    binned_regression,
    cond_pdf_max_given_next,
    cond_pdf_max_given_second,
    cumulative_hazard,
    extract_records,
    g1,
    g2,
    markov_property_check,
    max_regression,
    mse_order_inequality,
    order_stat_matrix,
    order_stats,
    record_gap_pvalue,
    record_predictor_mse,
    simulate_records,
    window_conditional_mean,
)
from cexpect.quadrature import integrate
from cexpect.rng import philox_stream


class TestConditionalDensities:
    def test_uniform_lag1_paper_value(self):
        # f(z) / (1 - F(x)) with f = 1, F(0) = 0.
        assert float(cond_pdf_max_given_next(Uniform(), 0.5, 0.0)) == pytest.approx(1.0)

    def test_exponential_lag1_value(self):
        # e^-2 / e^-1 = e^-1.
        got = float(cond_pdf_max_given_next(Exponential(1.0), 2.0, 1.0))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_zero_below_conditioning_point(self):
        assert float(cond_pdf_max_given_next(Uniform(), 0.2, 0.5)) == 0.0
        assert float(cond_pdf_max_given_second(Uniform(), 0.2, 0.5)) == 0.0

    def test_value_at_conditioning_point(self):
        # The support is z >= x: at z = x the lag-1 density is its right
        # limit f(x) / sf(x), not 0; the lag-2 density is 0 there.
        got = float(cond_pdf_max_given_next(Exponential(1.0), 1.0, 1.0))
        assert got == pytest.approx(1.0, abs=1e-12)
        assert float(cond_pdf_max_given_next(Uniform(), 0.5, 0.5)) == pytest.approx(2.0)
        assert float(cond_pdf_max_given_second(Exponential(1.0), 1.0, 1.0)) == 0.0
        assert float(cond_pdf_max_given_second(Uniform(), 0.5, 0.5)) == 0.0

    def test_uniform_lag2_paper_values(self):
        # 2 (F(z)-F(x)) f(z) / (1-F(x))^2: at (x=0, z=0.5) -> 1; at
        # (x=0.5, z=0.75) -> 2*0.25/0.25 = 2.
        assert float(cond_pdf_max_given_second(Uniform(), 0.5, 0.0)) == pytest.approx(1.0)
        assert float(cond_pdf_max_given_second(Uniform(), 0.75, 0.5)) == pytest.approx(2.0)

    def test_saturated_conditioning_point_rejected(self):
        with pytest.raises(DomainError):
            cond_pdf_max_given_next(Uniform(), 1.5, 1.0)

    @pytest.mark.parametrize("m", [Uniform(), Exponential(1.0), Normal()], ids=str)
    @pytest.mark.parametrize("lag_pdf", [cond_pdf_max_given_next, cond_pdf_max_given_second])
    def test_unit_mass_over_random_conditioning_points(self, m, lag_pdf):
        rng = philox_stream(71, 0)
        lo, hi = m.truncated_support()
        for p in 0.01 + rng.random(100) * 0.9:
            x = float(m.quantile(p))
            mass = integrate(lambda z: lag_pdf(m, z, x), x, hi)
            assert mass == pytest.approx(1.0, abs=1e-8)


class TestClosedFormPredictors:
    def test_uniform_paper_values(self):
        assert g1(Uniform(), 0.5) == pytest.approx(0.75)
        assert g2(Uniform(), 0.5) == pytest.approx(0.8333333333, abs=1e-9)
        # g2 - g1 = (1-x)/6.
        assert g2(Uniform(), 0.4) - g1(Uniform(), 0.4) == pytest.approx(0.1, abs=1e-12)

    def test_exponential_paper_and_derived_values(self):
        assert g1(Exponential(1.0), 2.0) == pytest.approx(3.0)
        # Derived oracle g2(x) = x + 3/2, cross-checked by z-space quadrature.
        oracle, _ = sci_integrate.quad(
            lambda z: z * 2 * (math.exp(-2.0) - math.exp(-z)) * math.exp(-z) / math.exp(-4.0),
            2.0,
            60.0,
            epsabs=1e-12,
        )
        assert oracle == pytest.approx(3.5, abs=1e-9)
        assert g2(Exponential(1.0), 2.0) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("m", [Uniform(), Exponential(1.0)], ids=str)
    def test_quadrature_matches_closed_forms_50_points(self, m):
        lo, hi = m.truncated_support()
        # Interior probe points; quadrature route must agree to 1e-7.
        for p in np.linspace(0.02, 0.98, 50):
            x = float(m.quantile(p))
            assert g1(m, x, method="quadrature") == pytest.approx(
                g1(m, x, method="closed"), abs=1e-7
            )
            assert g2(m, x, method="quadrature") == pytest.approx(
                g2(m, x, method="closed"), abs=1e-7
            )

    @pytest.mark.parametrize("m", [Uniform(), Exponential(1.0)], ids=str)
    def test_g2_strictly_above_g1(self, m):
        for p in np.linspace(0.02, 0.98, 50):
            x = float(m.quantile(p))
            assert g2(m, x) > g1(m, x)

    def test_normal_requires_quadrature(self):
        with pytest.raises(DomainError):
            g1(Normal(), 0.0, method="closed")
        # auto falls back to quadrature.  At x = 0, g1 is the inverse Mills
        # ratio phi(0) / (1 - Phi(0)) = sqrt(2/pi), and g2 is the mean of the
        # max of two half-normal draws, 2/sqrt(pi).
        assert g1(Normal(), 0.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-8)
        assert g2(Normal(), 0.0) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-8)

    def test_interior_precondition(self):
        with pytest.raises(DomainError):
            g1(Uniform(), 1.0)

    def test_max_regression_matches_closed_form(self):
        reg = max_regression(Exponential(1.0), 5, 4)
        for x in (0.5, 1.0, 2.0):
            assert float(reg(x)) == pytest.approx(x + 1.0, abs=1e-7)
        reg2 = max_regression(Uniform(), 5, 3)
        for x in (0.2, 0.5, 0.8):
            assert float(reg2(x)) == pytest.approx((x + 2.0) / 3.0, abs=1e-7)


class TestOrderStatSimulation:
    def test_rows_sorted(self):
        mat = order_stat_matrix(Uniform(), 5, 10_000, 72)
        assert np.all(np.diff(mat, axis=1) >= 0)

    def test_window_conditional_mean_matches_g1(self):
        mat = order_stat_matrix(Uniform(), 5, 400_000, 73)
        mean, count = window_conditional_mean(mat, 4, 0.5, 0.01)
        assert count > 1000
        assert mean == pytest.approx(g1(Uniform(), 0.5), abs=0.01)

    def test_markov_property_uniform(self):
        matrix = order_stat_matrix(Uniform(), 5, 300_000, 74)
        report, details = markov_property_check(Uniform(), matrix, 74)
        assert report.satisfied
        assert not details["bins_widened"]

    def test_markov_property_smallest_case(self):
        matrix = order_stat_matrix(Uniform(), 3, 200_000, 75)
        report, _ = markov_property_check(Uniform(), matrix, 75)
        assert report.satisfied

    def test_markov_bins_widened_when_starved(self):
        matrix = order_stat_matrix(Uniform(), 5, 10_000, 76)
        _, details = markov_property_check(Uniform(), matrix, 76)
        assert details["bins_widened"]

    def test_markov_needs_three(self):
        with pytest.raises(DomainError):
            markov_property_check(Uniform(), order_stat_matrix(Uniform(), 2, 10_000, 77), 77)


class TestMseOrderInequality:
    def test_uniform_case_satisfied(self):
        r = mse_order_inequality(Uniform(), 3, 4, order_stat_matrix(Uniform(), 5, 100_000, 78), 78)
        assert r.satisfied
        assert r.margin_sigmas >= 3

    def test_exponential_case_satisfied(self):
        matrix = order_stat_matrix(Exponential(1.0), 5, 100_000, 79)
        r = mse_order_inequality(Exponential(1.0), 3, 4, matrix, 79)
        assert r.satisfied
        assert r.margin_sigmas >= 3

    def test_k_equals_l_exact_equality(self):
        r = mse_order_inequality(Uniform(), 3, 3, order_stat_matrix(Uniform(), 5, 100_000, 80), 80)
        assert r.lhs_estimate == r.rhs_estimate
        assert r.margin_sigmas == 0.0

    def test_bounds_validated(self):
        matrix = order_stat_matrix(Uniform(), 5, 10_000, 81)
        with pytest.raises(DomainError):
            mse_order_inequality(Uniform(), 4, 3, matrix, 81)
        with pytest.raises(DomainError):
            mse_order_inequality(Uniform(), 1, 5, matrix, 82)


class TestOrderStats:
    def test_each_case_draws_its_matrix_once(self, monkeypatch):
        import cexpect.ordered

        calls = []

        def spy(m, n, n_samples, seed, pool=None):
            calls.append((m, n))
            return order_stat_matrix(m, n, n_samples, seed, pool=pool)

        monkeypatch.setattr(cexpect.ordered, "order_stat_matrix", spy)
        uniform, exponential = Uniform(), Exponential(1.0)
        cases = [(uniform, 5, 3, 4, True), (exponential, 4, 2, 2, False)]
        result = order_stats(cases, 10_000, 83)
        assert calls == [(uniform, 5), (exponential, 4)]

        uniform_matrix = order_stat_matrix(uniform, 5, 10_000, 83)
        exponential_matrix = order_stat_matrix(exponential, 4, 10_000, 83)
        markov_report, markov_details = markov_property_check(uniform, uniform_matrix, 83)
        assert result.reports == [
            mse_order_inequality(uniform, 3, 4, uniform_matrix, 83),
            markov_report,
            mse_order_inequality(exponential, 2, 2, exponential_matrix, 83),
        ]
        assert result.details == {"markov/uniform#0": markov_details}


class TestRecordExtraction:
    def test_spec_example(self):
        rec = extract_records([0.3, 0.1, 0.7, 0.5, 0.9])
        np.testing.assert_allclose(rec.values, [0.3, 0.7, 0.9])
        np.testing.assert_array_equal(rec.times, [1, 3, 5])

    def test_strictly_increasing_all_records(self):
        rec = extract_records([1.0, 2.0, 3.0, 4.0])
        assert rec.values.size == 4
        np.testing.assert_array_equal(rec.times, [1, 2, 3, 4])

    def test_first_element_dominates(self):
        rec = extract_records([5.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(rec.values, [5.0])
        np.testing.assert_array_equal(rec.times, [1])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            extract_records([])

    def test_roundtrip_property(self):
        rng = philox_stream(83, 0)
        seq = rng.random(500)
        rec = extract_records(seq)
        assert np.all(np.diff(rec.values) > 0)
        for v, t in zip(rec.values, rec.times):
            assert v > max(seq[: t - 1], default=-np.inf)
            assert seq[t - 1] == v
        non_record_times = set(range(1, 501)) - set(rec.times.tolist())
        for t in list(non_record_times)[:50]:
            assert seq[t - 1] <= max(seq[: t - 1])


class TestCumulativeHazard:
    def test_exponential_identity(self):
        assert cumulative_hazard(Exponential(1.0), 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_log2(self):
        assert cumulative_hazard(Uniform(), 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_support_endpoint_rejected(self):
        with pytest.raises(DomainError):
            cumulative_hazard(Uniform(), 0.0)
        with pytest.raises(DomainError):
            cumulative_hazard(Uniform(), 1.0)


class TestRecordSimulation:
    def test_depth4_exponential_matches_gamma(self):
        # X_U(n) for Exp(1) is a sum of n iid exponentials (memorylessness).
        batch = simulate_records(Exponential(1.0), 4, 50_000, 84)
        kept = batch.values
        assert batch.n_discarded < 50
        assert float(kept[:, 0].mean()) == pytest.approx(4.0, abs=0.05)
        assert float(kept[:, 1].mean()) == pytest.approx(3.0, abs=0.05)

    def test_records_strictly_increasing(self):
        batch = simulate_records(Uniform(), 3, 20_000, 85)
        assert np.all(batch.values[:, 0] > batch.values[:, 1])
        assert np.all(batch.values[:, 1] > batch.values[:, 2])

    def test_gap_ks_test_memorylessness(self):
        batch = simulate_records(Exponential(1.0), 4, 100_000, 86)
        assert record_gap_pvalue(batch) >= 0.01

    def test_discards_counted_with_tiny_cap(self):
        batch = simulate_records(Exponential(1.0), 4, 5000, 87, cap=50)
        assert batch.n_discarded > 0
        assert batch.values.shape[0] + batch.n_discarded == 5000

    def test_deterministic_across_pools(self):
        from concurrent.futures import ThreadPoolExecutor

        serial = simulate_records(Exponential(1.0), 3, 30_000, 88)
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = simulate_records(Exponential(1.0), 3, 30_000, 88, pool=pool)
        np.testing.assert_array_equal(serial.values, parallel.values)
        assert serial.n_discarded == parallel.n_discarded

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_discard_count_follows_exact_law(self, seed):
        # Fewer than 3 records in the first c draws means the first draw is
        # the maximum (1/c) or exactly one later draw j is a record
        # (H_{c-1}/c in total): P(T_3 > c) = (1 + H_{c-1}) / c.
        n, cap = 200_000, 50
        p = (1.0 + sum(1.0 / i for i in range(1, cap))) / cap
        batch = simulate_records(Exponential(1.0), 3, n, seed, cap=cap)
        z = (batch.n_discarded - n * p) / math.sqrt(n * p * (1.0 - p))
        assert abs(z) <= 4.0

    def test_record_time_counts_the_first_draw(self):
        # T_3 >= 3, and T_3 = 3 only when the first three draws increase.
        n = 60_000
        assert simulate_records(Exponential(1.0), 3, n, 4, cap=2).n_discarded == n
        kept = n - simulate_records(Exponential(1.0), 3, n, 4, cap=3).n_discarded
        p = 1.0 / 6.0
        assert abs(kept - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))

    def test_far_tail_reached_without_drawing_sequences(self):
        # Depth 30 needs about e^29 draws per sequence; the chain draws 59.
        # Records above 36.7 = -log(1e-16) show that no uniform draw near 1
        # is rounded or clipped on the way.
        n = 2000
        batch = simulate_records(Exponential(1.0), 30, n, 5, cap=10**300)
        assert batch.n_discarded == 0
        top = batch.values[:, 0]
        # X_U(30) of Exp(1) is Gamma(30, 1): mean 30, sd sqrt(30).
        assert abs(float(top.mean()) - 30.0) <= 4.0 * math.sqrt(30.0 / n)
        assert float(top.max()) > 36.7

    def test_cap_beyond_float_range_is_no_cap(self):
        batch = simulate_records(Exponential(1.0), 3, 1000, 6, cap=10**400)
        assert batch.n_discarded == 0 and batch.cap == 10**400

    def test_matches_records_of_raw_sequences(self):
        # Independent oracle: scan L raw iid draws per sequence for its
        # first three records; the chain with cap = L must give the same
        # kept laws and the same discard rate.
        n, length = 20_000, 100
        raw = philox_stream(96, 0).standard_exponential((n, length))
        scanned = []
        for row in raw:
            values = extract_records(row).values
            if values.size >= 3:
                scanned.append(values[2::-1])
        scanned = np.array(scanned)
        batch = simulate_records(Exponential(1.0), 3, n, 97, cap=length)
        for col in range(3):
            assert stats.ks_2samp(scanned[:, col], batch.values[:, col]).pvalue >= 1e-3
        discards = np.array([n - scanned.shape[0], batch.n_discarded], dtype=float)
        p = discards.mean() / n
        assert abs(discards[0] - discards[1]) <= 4.0 * math.sqrt(2.0 * n * p * (1.0 - p))


class TestRecordPredictorMse:
    def test_lag1_regression_matches_memorylessness(self):
        # Binned estimate of E(X_U(4) | X_U(3) = x) sits on x + 1.  The gap
        # to the next Exp(1) record is Exp(1) (sd 1) whatever x is, so a bin
        # of `count` rows has standard error 1 / sqrt(count); bound the
        # worst of the 40 bins at |z| <= 4, as markov_property_check does.
        res = record_predictor_mse(Exponential(1.0), 4, 2, 100_000, 89)
        bins = res.details["lag1_bins"]
        cond = np.array(bins["bin_mean_cond"])
        target = np.array(bins["bin_mean_target"])
        count = np.array(bins["bin_count"], dtype=float)
        z = (target - (cond + 1.0)) * np.sqrt(count)
        assert np.max(np.abs(z)) <= 4.0

    def test_lag1_vs_lag2_satisfied(self):
        res = record_predictor_mse(Exponential(1.0), 4, 2, 100_000, 90)
        assert res.reports[0].satisfied
        assert res.reports[0].margin_sigmas >= 3
        assert res.details["n_discarded"] >= 0

    def test_depth3_lag2_conditions_on_first_record(self):
        res = record_predictor_mse(Exponential(1.0), 3, 2, 50_000, 91)
        assert res.reports[0].satisfied

    def test_lag1_degenerates_to_equality(self):
        res = record_predictor_mse(Exponential(1.0), 4, 1, 20_000, 92)
        assert res.reports[0].lhs_estimate == res.reports[0].rhs_estimate
        assert res.reports[0].margin_sigmas == 0.0

    def test_too_few_records_raises(self):
        with pytest.raises(SampleSizeError):
            record_predictor_mse(Exponential(1.0), 4, 2, 2000, 93, cap=10)

    def test_lag_validated(self):
        with pytest.raises(DomainError):
            record_predictor_mse(Exponential(1.0), 4, 3, 10_000, 94)


class TestBinnedRegression:
    def test_linear_relation_recovered(self):
        rng = philox_stream(95, 0)
        cond = rng.random(50_000) * 4.0
        target = 2.0 * cond + rng.standard_normal(50_000) * 0.1
        pred, diag = binned_regression(cond, target)
        assert np.corrcoef(pred, target)[0, 1] > 0.99
        centers = np.array(diag["bin_mean_cond"])
        means = np.array(diag["bin_mean_target"])
        assert np.max(np.abs(means - 2.0 * centers)) <= 0.05
