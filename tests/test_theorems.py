"""Verification harness operations and their spec'd degenerate cases."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from cexpect.condexp import BivariateModel, GaussianVector, ar_vector, equicorrelated_vector
from cexpect.copulas import Clayton, FGM, Gaussian, Independence
from cexpect.errors import ConstructionError, DomainError, UnsupportedModelError
from cexpect.marginals import MaxOfIid, Normal, Uniform
from cexpect.reports import inequality_report
from cexpect.rng import CHUNK_SIZE, simulate_chunked
from cexpect.theorems import (
    ConditionalIidCopies,
    TAG_MAIN,
    GaussianCopies,
    copula_swap_tables,
    default_copies_battery,
    martingale_checks,
    martingale_exact_mse,
    predicted_sequence_stats,
    verify_copula_theorem,
    verify_corollary_chain,
    verify_covariance_identity,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)

N = 100_000


class TestCopiesModels:
    def test_non_positive_definite_rejected(self):
        # n rho_xy^2 >= 1 + (n-1) rho_xx makes Var(Y | copies) negative.
        with pytest.raises(ConstructionError):
            GaussianCopies(5, 0.0, 0.5)

    def test_battery_is_feasible_and_large(self):
        battery = default_copies_battery()
        assert len(battery) >= 8
        labels = [m.label() for m in battery]
        assert "gaussian-copies(n=5,rxx=0,rxy=0.5)" not in labels
        assert any("comono" in s for s in labels)
        assert any("cond-iid" in s for s in labels)

    def test_copies_share_marginal(self):
        m = ConditionalIidCopies(3, 0.8, Normal(), Uniform(-1, 1))
        from cexpect.rng import philox_stream

        _, x = m.sample(philox_stream(61, 0), 50_000)
        base = np.sort(x[:, 0])
        for j in (1, 2):
            other = np.sort(x[:, j])
            ks = float(np.max(np.abs(np.arange(1, base.size + 1) / base.size
                                     - np.searchsorted(base, other, side="right") / base.size)))
            assert ks <= 0.02

    @pytest.mark.parametrize("beta", [0.8, -0.8])
    def test_predictor_truncated_normal_closed_form(self, beta):
        # Y | X = x is N(0, 1) truncated to the y with |x - beta y| <= 1,
        # intersected with the tabulated support of Y; its mean is
        # (pdf(a) - pdf(b)) / (cdf(b) - cdf(a)).  Intervals in the upper tail
        # are mirrored into the lower one, where cdf differences keep their
        # digits.
        y_marginal = Normal()
        predictor = ConditionalIidCopies(3, beta, y_marginal, Uniform(-1, 1)).predictor()
        y_lo, y_hi = y_marginal.truncated_support()
        ends = np.sort([(predictor.grid - 1.0) / beta, (predictor.grid + 1.0) / beta], axis=0)
        a = np.maximum(ends[0], y_lo)
        b = np.minimum(ends[1], y_hi)
        sign = np.where(a + b > 0.0, -1.0, 1.0)
        a, b = np.minimum(sign * a, sign * b), np.maximum(sign * a, sign * b)
        expected = sign * (norm.pdf(a) - norm.pdf(b)) / (norm.cdf(b) - norm.cdf(a))
        assert np.max(np.abs(predictor.values - expected)) <= 1e-8

    def test_predictor_where_the_joint_density_underflows(self):
        # Near x = -1.8 both factors of f_Y(y) f_eps(x - beta y) are about
        # F^49 with F tiny, so the weight underflows to 0 on whole rows.
        peaked = MaxOfIid(base=Uniform(-1, 1), count=50)
        predictor = ConditionalIidCopies(1, 0.8, peaked, peaked).predictor()
        assert np.all(np.isfinite(predictor.values))
        assert np.all((predictor.values >= -1.0) & (predictor.values <= 1.0))
        assert np.all(np.diff(predictor.values) >= 0.0)


class TestTheorem1:
    def test_n1_exact_equality(self):
        r = verify_theorem1([GaussianCopies(1, 0.0, 0.5)], N, 42).reports[0]
        assert r.lhs_estimate == r.rhs_estimate
        assert r.margin_sigmas == 0.0
        assert r.satisfied

    def test_comonotone_exact_equality(self):
        r = verify_theorem1([GaussianCopies(3, 1.0, 0.5)], N, 42).reports[0]
        assert r.lhs_estimate == r.rhs_estimate
        assert r.margin_sigmas == 0.0

    def test_gaussian_cell_satisfied_with_margin(self):
        # Analytic oracle: all quantities affine in a Gaussian vector, so
        # lhs < rhs strictly when copies are not comonotone.
        r = verify_theorem1([GaussianCopies(3, 0.3, 0.5)], N, 42).reports[0]
        assert r.satisfied
        assert r.margin_sigmas >= 3

    def test_conditional_iid_cell(self):
        m = ConditionalIidCopies(3, 0.8, Normal(), Uniform(-1, 1))
        r = verify_theorem1([m], 50_000, 43).reports[0]
        assert r.satisfied
        assert r.margin_sigmas >= 3


class TestTheorem2:
    def test_n1_exact_equality(self):
        r = verify_theorem2([GaussianCopies(1, 0.0, 0.2)], N, 44).reports[0]
        assert r.margin_sigmas == 0.0

    def test_independent_copies_variance_decomposition(self):
        # Y independent of 4 iid copies, all standard normal:
        # lhs = 1 + 1/4, rhs = 2 (analytic variance decomposition).
        r = verify_theorem2([GaussianCopies(4, 0.0, 0.0)], N, 45).reports[0]
        assert r.lhs_estimate == pytest.approx(1.25, abs=0.02)
        assert r.rhs_estimate == pytest.approx(2.0, abs=0.03)
        assert r.satisfied

    def test_comonotone_exact_equality(self):
        r = verify_theorem2([GaussianCopies(4, 1.0, 0.3)], N, 46).reports[0]
        assert r.lhs_estimate == r.rhs_estimate
        assert r.margin_sigmas == 0.0


class TestCopiesBattery:
    @pytest.mark.parametrize("verify", [verify_theorem1, verify_theorem2])
    def test_battery_is_the_one_model_runs_in_order(self, verify):
        models = [
            GaussianCopies(1, 0.0, 0.5),
            GaussianCopies(3, 0.3, 0.5),
            GaussianCopies(3, 1.0, 0.5),
            ConditionalIidCopies(3, 0.8, Normal(), Uniform(-1, 1)),
        ]
        battery = verify(models, 20_000, 90)
        singles = [verify([m], 20_000, 90) for m in models]
        assert battery.experiment == verify.__name__.replace("verify_", "")
        assert battery.reports == [single.reports[0] for single in singles]
        assert battery.details == {"battery_size": 4}
        assert all(single.details == {"battery_size": 1} for single in singles)


class TestTheorem3:
    def test_equicorrelated_closed_forms(self):
        res = verify_theorem3(equicorrelated_vector(3, 0.5), N, 47)
        assert res.details["closed_form"]["mse_both"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.details["closed_form"]["mse_y"] == pytest.approx(0.75, abs=1e-12)
        r = res.reports[0]
        n = r.n_samples
        # Monte Carlo within 4 SE of each closed form.
        assert abs(r.lhs_estimate - 2.0 / 3.0) <= 4 * r.lhs_estimate * math.sqrt(2.0 / n) * 1.5
        assert r.satisfied
        assert r.margin_sigmas >= 3

    def test_redundant_conditioner_margin_near_zero(self):
        # Z independent of (X, Y): conditioning on Z adds nothing.
        cov = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
        res = verify_theorem3(GaussianVector(np.zeros(3), cov), N, 48)
        r = res.reports[0]
        assert abs(r.lhs_estimate - r.rhs_estimate) <= 1e-10
        assert r.satisfied

    def test_duplicate_conditioner_exact_equality(self):
        res = verify_theorem3(equicorrelated_vector(2, 0.5), N, 49)
        assert res.reports[0].name == "theorem3/duplicate"
        assert res.reports[0].lhs_estimate == res.reports[0].rhs_estimate
        assert res.reports[0].margin_sigmas == 0.0

    def test_dimension_validated(self):
        with pytest.raises(DomainError) as info:
            verify_theorem3(equicorrelated_vector(4, 0.2), N, 50)
        assert info.value.param == "dim"


class TestCorollaryChain:
    def test_nested_chain_nonincreasing(self):
        res = verify_corollary_chain(
            ar_vector(4, 0.6), [(0,), (0, 1), (0, 1, 2)], N, 51
        )
        mses = res.details["monte_carlo_mse"]
        assert mses[0] >= mses[1] >= mses[2]
        assert res.all_satisfied
        closed = res.details["closed_form_mse"]
        for mc, cf in zip(mses, closed):
            assert mc == pytest.approx(cf, abs=0.03)

    def test_duplicated_set_equal_mse(self):
        res = verify_corollary_chain(
            ar_vector(3, 0.5), [(0, 1), (0, 1)], N, 52
        )
        r = res.reports[0]
        assert r.lhs_estimate == r.rhs_estimate
        assert r.margin_sigmas == 0.0

    def test_empty_then_singleton(self):
        # MSE(singleton) <= Var(target): variance decomposition.
        res = verify_corollary_chain(ar_vector(3, 0.5), [(), (1,)], N, 53)
        r = res.reports[0]
        assert r.satisfied
        assert res.details["closed_form_mse"][0] == pytest.approx(1.0)

    def test_non_nested_rejected(self):
        with pytest.raises(DomainError):
            verify_corollary_chain(ar_vector(4, 0.5), [(0, 1), (1, 2)], N, 54)

    def test_target_not_conditionable(self):
        with pytest.raises(DomainError):
            verify_corollary_chain(ar_vector(3, 0.5), [(2,), (0, 2)], N, 55)


def _covariances(res):
    """(Cov(phi(Y), Y), Cov(psi(X), X), Cov(X, Y)) as the covariance reports
    state them."""
    phi_y, psi_x, _ = res.reports
    return phi_y.lhs_estimate, psi_x.lhs_estimate, phi_y.rhs_estimate


class TestCovarianceIdentity:
    def test_independence_all_near_zero(self):
        m = BivariateModel(Independence(), Uniform(), Uniform())
        res = verify_covariance_identity(m, N, 56)
        for cov in _covariances(res):
            assert abs(cov) <= 0.01
        assert res.all_satisfied

    def test_gaussian_rho05_all_near_half(self):
        res = verify_covariance_identity(
            BivariateModel(Gaussian(rho=0.5), Normal(), Normal()), N, 57
        )
        for cov in _covariances(res):
            assert cov == pytest.approx(0.5, abs=0.02)
        assert res.all_satisfied

    def test_memory_releases_each_column_after_its_last_product(self):
        # Forming the three products while all four centred columns live
        # takes six columns of n float64; releasing each column after its
        # last product keeps the peak near five.
        n = 4 * CHUNK_SIZE
        model = BivariateModel(Gaussian(rho=0.5), Normal(), Normal())
        verify_covariance_identity(model, 1000, 58)
        tracemalloc.start()
        try:
            verify_covariance_identity(model, n, 58)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.75 * n * 8

    def test_fgm_mutual_consistency(self):
        m = BivariateModel(FGM(theta=1.0), Uniform(), Uniform())
        res = verify_covariance_identity(m, N, 58)
        assert res.all_satisfied


def _predictor_pair_covariance(v: GaussianVector):
    """(Cov(E(X|Y), E(Y|X)), Cov(X, Y)) for a bivariate normal v: the slopes
    b = Cov/Var(Y) and d = Cov/Var(X) of the two regressions give
    Cov(bY, dX) = bd Cov(X, Y) = rho^2 Cov(X, Y)."""
    _, (b,) = v.conditional_coefficients(0, (1,))
    _, (d,) = v.conditional_coefficients(1, (0,))
    cov_xy = float(v.cov[0, 1])
    return float(b * d) * cov_xy, cov_xy


class TestCovarianceCounterexample:
    def test_rho_half_standard(self):
        # rho^2 Cov(X, Y) = 0.125 differs from Cov(X, Y) = 0.5.
        got = _predictor_pair_covariance(equicorrelated_vector(2, 0.5))
        assert got == (0.125, 0.5)

    def test_rho_zero_both_zero(self):
        v = GaussianVector([0.0, 0.0], np.eye(2))
        assert _predictor_pair_covariance(v) == (0.0, 0.0)

    def test_monte_carlo_cross_check(self):
        from cexpect.rng import philox_stream

        v = equicorrelated_vector(2, 0.5)
        mat = v.sample(philox_stream(59, 0), 200_000)
        z1 = 0.5 * mat[:, 1]  # E(X|Y)
        z2 = 0.5 * mat[:, 0]  # E(Y|X)
        mc = float(np.cov(z1, z2, ddof=1)[0, 1])
        assert mc == pytest.approx(_predictor_pair_covariance(v)[0], abs=0.01)


def _verify_swap(models, n_samples, seed):
    tables = [copula_swap_tables(m) for m in models]
    return verify_copula_theorem(models, tables, n_samples, seed)


class TestCopulaSwap:
    def test_gaussian_rho05(self):
        res = _verify_swap([BivariateModel(Gaussian(rho=0.5), Normal(), Normal())], N, 60)
        (report,) = res.reports
        assert report.name == "copula-swap/gaussian#0/swapped"
        assert report.lhs_estimate <= 0.02
        assert res.all_satisfied

    def test_independence_rejected(self):
        m = BivariateModel(Independence(), Uniform(), Uniform())
        with pytest.raises(UnsupportedModelError):
            copula_swap_tables(m)

    def test_clayton_uniform(self):
        res = _verify_swap([BivariateModel(Clayton(alpha=2.0), Uniform(), Uniform())], N, 62)
        (report,) = res.reports
        assert report.name == "copula-swap/clayton#0/swapped"
        assert report.lhs_estimate <= 0.02

    def test_one_report_per_model(self):
        # Every family is exchangeable, so a report against the unswapped
        # C would repeat the swapped one: each model writes one report.
        models = [
            BivariateModel(Gaussian(rho=0.5), Normal(), Normal()),
            BivariateModel(FGM(theta=0.5), Uniform(), Uniform()),
        ]
        res = _verify_swap(models, 20_000, 66)
        names = ["copula-swap/gaussian#0", "copula-swap/fgm#1"]
        assert [r.name for r in res.reports] == [f"{name}/swapped" for name in names]
        assert res.details == {name: {"grid": 50} for name in names}


class TestPredictedSequence:
    def test_bivariate_normal_rho06(self):
        m = BivariateModel(Gaussian(rho=0.6), Normal(), Normal())
        res = predicted_sequence_stats(m, N, 63)
        # Cov(Y1, Y2) = Cov(X1, rho X1) = 0.6 analytically.
        cov = res.reports[1]
        assert cov.lhs_estimate == pytest.approx(0.6, abs=0.02)
        assert cov.rhs_estimate == pytest.approx(0.6, abs=0.02)
        assert res.all_satisfied

    def test_independence_constant_predictor(self):
        m = BivariateModel(Independence(), Uniform(), Uniform())
        res = predicted_sequence_stats(m, N, 64)
        assert abs(res.reports[1].lhs_estimate) <= 1e-6
        assert res.all_satisfied

    def test_fgm_negative_theta(self):
        m = BivariateModel(FGM(theta=-1.0), Uniform(), Uniform())
        res = predicted_sequence_stats(m, N, 65)
        assert res.all_satisfied


class TestMartingale:
    def test_full_information_equality(self):
        res = martingale_checks(5, N, 66, [(1, 2, 3, 4, 5)])
        r = res.reports[0]
        assert r.lhs_estimate == 1.0
        assert r.rhs_estimate == 1.0
        assert r.margin_sigmas == 0.0

    def test_subset_3_oracle(self):
        res = martingale_checks(5, N, 67, [(3,)])
        r = res.reports[0]
        assert martingale_exact_mse(5, 3) == 3.0
        se_rhs = math.sqrt(2.0) * 3.0 / math.sqrt(N)  # rough chi2 scale
        assert r.rhs_estimate == pytest.approx(3.0, abs=6 * se_rhs)
        assert r.satisfied

    def test_empty_subset_variance_oracle(self):
        res = martingale_checks(5, N, 68, [()])
        r = res.reports[0]
        assert martingale_exact_mse(5, 0) == 6.0
        assert r.rhs_estimate == pytest.approx(6.0, abs=0.15)
        assert r.satisfied

    def test_shared_walk_matches_single_subset_calls(self):
        from concurrent.futures import ThreadPoolExecutor

        subsets = [(1, 2, 3, 4, 5), (1,), (3,), (5,), (), (4, 2, 4)]
        shared = martingale_checks(5, N, 72, subsets)
        assert shared.reports == [martingale_checks(5, N, 72, [s]).reports[0] for s in subsets]
        assert shared.reports[-1].name == "martingale/subset=[2, 4, 4]"
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert martingale_checks(5, N, 72, subsets, pool=pool) == shared

    @pytest.mark.parametrize("n", [126, 127, 128])
    def test_narrow_integer_walk_matches_float_walk(self, n):
        # n = 126 is the longest walk an int8 holds; 127 and 128 need int16.
        def float_walk(rng, count):
            steps = rng.integers(0, 2, size=(count, n + 1)).astype(np.float64) * 2.0 - 1.0
            return (np.cumsum(steps, axis=1),)

        walk = simulate_chunked(float_walk, 3000, 73, TAG_MAIN)[0]
        lhs_sq = (walk[:, n] - walk[:, n - 1]) ** 2
        subsets = [(n,), (1,), ()]
        results = martingale_checks(n, 3000, 73, subsets)
        for subset, report in zip(subsets, results.reports, strict=True):
            pred = walk[:, subset[-1] - 1] if subset else np.zeros(3000)
            name = f"martingale/subset={list(subset)}"
            expect = inequality_report(name, lhs_sq, (walk[:, n] - pred) ** 2, 73)
            assert report == expect

    def test_subset_validated(self):
        with pytest.raises(DomainError):
            martingale_checks(5, N, 69, [(0,)])
        with pytest.raises(DomainError):
            martingale_checks(5, N, 70, [(6,)])
        with pytest.raises(DomainError):
            martingale_checks(5, N, 70, [(1,), (6,)])


class TestDeterminism:
    def test_reports_bit_identical_across_pools(self):
        from concurrent.futures import ThreadPoolExecutor

        m = GaussianCopies(3, 0.3, 0.5)
        serial = verify_theorem1([m], N, 71)
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = verify_theorem1([m], N, 71, pool=pool)
        assert serial == parallel

    def test_theorem1_memory_stays_near_its_report_columns(self):
        # Assembling the (n, 5) copies and then the (n, 5) predictions takes
        # at least 2 * 5 * n * 8 bytes.  Reduced in the workers, the peak is
        # the two squared-error columns plus one chunk's (n/4, 6) normal
        # draws and their Cholesky product: 2 + 3 columns of n float64.
        n = 4 * CHUNK_SIZE
        model = GaussianCopies(5, 0.3, 0.5)
        verify_theorem1([model], 1000, 72)
        tracemalloc.start()
        try:
            verify_theorem1([model], n, 72)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * n * 8

    def test_different_seeds_differ(self):
        m = GaussianCopies(3, 0.3, 0.5)
        assert verify_theorem1([m], 10_000, 1) != verify_theorem1([m], 10_000, 2)
