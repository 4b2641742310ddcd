"""Verification harness operations and their spec'd degenerate cases."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from cexpect.condexp import BivariateModel, GaussianVector, ar_vector, equicorrelated_vector
from cexpect.copulas import Clayton, FGM, Gaussian, Independence
from cexpect.errors import ConstructionError, DomainError, UnsupportedModelError
from cexpect.marginals import MaxOfIid, Normal, Uniform
from cexpect.theorems import (
    ConditionalIidCopies,
    GaussianCopies,
    covariance_counterexample,
    default_copies_battery,
    martingale_check,
    martingale_checks,
    martingale_exact_mse,
    predicted_sequence_stats,
    predictor_pair_covariance,
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
        r = verify_theorem1(GaussianCopies(1, 0.0, 0.5), N, 42)
        assert r.lhs_estimate == r.rhs_estimate
        assert r.margin_sigmas == 0.0
        assert r.satisfied

    def test_comonotone_exact_equality(self):
        r = verify_theorem1(GaussianCopies(3, 1.0, 0.5), N, 42)
        assert r.lhs_estimate == r.rhs_estimate
        assert r.margin_sigmas == 0.0

    def test_gaussian_cell_satisfied_with_margin(self):
        # Analytic oracle: all quantities affine in a Gaussian vector, so
        # lhs < rhs strictly when copies are not comonotone.
        r = verify_theorem1(GaussianCopies(3, 0.3, 0.5), N, 42)
        assert r.satisfied
        assert r.margin_sigmas >= 3

    def test_conditional_iid_cell(self):
        m = ConditionalIidCopies(3, 0.8, Normal(), Uniform(-1, 1))
        r = verify_theorem1(m, 50_000, 43)
        assert r.satisfied
        assert r.margin_sigmas >= 3


class TestTheorem2:
    def test_n1_exact_equality(self):
        r = verify_theorem2(GaussianCopies(1, 0.0, 0.2), N, 44)
        assert r.margin_sigmas == 0.0

    def test_independent_copies_variance_decomposition(self):
        # Y independent of 4 iid copies, all standard normal:
        # lhs = 1 + 1/4, rhs = 2 (analytic variance decomposition).
        r = verify_theorem2(GaussianCopies(4, 0.0, 0.0), N, 45)
        assert r.lhs_estimate == pytest.approx(1.25, abs=0.02)
        assert r.rhs_estimate == pytest.approx(2.0, abs=0.03)
        assert r.satisfied

    def test_comonotone_exact_equality(self):
        r = verify_theorem2(GaussianCopies(4, 1.0, 0.3), N, 46)
        assert r.lhs_estimate == r.rhs_estimate
        assert r.margin_sigmas == 0.0


class TestTheorem3:
    def test_equicorrelated_closed_forms(self):
        res = verify_theorem3(equicorrelated_vector(3, 0.5), N, 47)
        assert res.closed_form["mse_both"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.closed_form["mse_y"] == pytest.approx(0.75, abs=1e-12)
        r = res.report
        n = r.n_samples
        # Monte Carlo within 4 SE of each closed form.
        assert abs(r.lhs_estimate - 2.0 / 3.0) <= 4 * r.lhs_estimate * math.sqrt(2.0 / n) * 1.5
        assert r.satisfied
        assert r.margin_sigmas >= 3

    def test_redundant_conditioner_margin_near_zero(self):
        # Z independent of (X, Y): conditioning on Z adds nothing.
        cov = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
        res = verify_theorem3(GaussianVector(np.zeros(3), cov), N, 48)
        r = res.report
        assert abs(r.lhs_estimate - r.rhs_estimate) <= 1e-10
        assert r.satisfied

    def test_duplicate_conditioner_exact_equality(self):
        res = verify_theorem3(
            equicorrelated_vector(2, 0.5), N, 49, duplicate_last=True
        )
        assert res.report.lhs_estimate == res.report.rhs_estimate
        assert res.report.margin_sigmas == 0.0

    def test_dimension_validated(self):
        with pytest.raises(DomainError):
            verify_theorem3(equicorrelated_vector(4, 0.2), N, 50)


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


class TestCovarianceIdentity:
    def test_independence_all_near_zero(self):
        m = BivariateModel(Independence(), Uniform(), Uniform())
        res = verify_covariance_identity(m, N, 56)
        for key in ("cov_phi_y", "cov_psi_x", "cov_xy"):
            assert abs(res.details[key]) <= 0.01
        assert res.all_satisfied

    def test_gaussian_rho05_all_near_half(self):
        res = verify_covariance_identity(
            BivariateModel(Gaussian(rho=0.5), Normal(), Normal()), N, 57
        )
        for key in ("cov_phi_y", "cov_psi_x", "cov_xy"):
            assert res.details[key] == pytest.approx(0.5, abs=0.02)
        assert res.all_satisfied

    def test_fgm_mutual_consistency(self):
        m = BivariateModel(FGM(theta=1.0), Uniform(), Uniform())
        res = verify_covariance_identity(m, N, 58)
        assert res.all_satisfied


class TestCovarianceCounterexample:
    def test_rho_half_standard(self):
        got = covariance_counterexample(equicorrelated_vector(2, 0.5))
        assert got == (0.125, 0.5)

    def test_rho_one_symbolic_limit(self):
        # Degenerate rho = 1 handled by the scalar closed form, no sampling.
        assert predictor_pair_covariance(1.0, 1.0) == 1.0

    def test_rho_zero_both_zero(self):
        v = GaussianVector([0.0, 0.0], np.eye(2))
        assert covariance_counterexample(v) == (0.0, 0.0)

    def test_monte_carlo_cross_check(self):
        from cexpect.rng import philox_stream

        v = equicorrelated_vector(2, 0.5)
        mat = v.sample(philox_stream(59, 0), 200_000)
        z1 = 0.5 * mat[:, 1]  # E(X|Y)
        z2 = 0.5 * mat[:, 0]  # E(Y|X)
        mc = float(np.cov(z1, z2, ddof=1)[0, 1])
        assert mc == pytest.approx(0.125, abs=0.01)


class TestCopulaSwap:
    def test_gaussian_rho05(self):
        res = verify_copula_theorem(
            BivariateModel(Gaussian(rho=0.5), Normal(), Normal()), N, 60
        )
        assert res.details["sup_distance_swapped"] <= 0.02
        assert res.details["sup_distance_exchangeable"] <= 0.02
        assert res.all_satisfied

    def test_independence_rejected(self):
        m = BivariateModel(Independence(), Uniform(), Uniform())
        with pytest.raises(UnsupportedModelError):
            verify_copula_theorem(m, N, 61)

    def test_clayton_uniform(self):
        res = verify_copula_theorem(
            BivariateModel(Clayton(alpha=2.0), Uniform(), Uniform()), N, 62
        )
        assert res.details["sup_distance_swapped"] <= 0.02
        assert res.details["sup_distance_exchangeable"] <= 0.02


class TestPredictedSequence:
    def test_bivariate_normal_rho06(self):
        m = BivariateModel(Gaussian(rho=0.6), Normal(), Normal())
        res = predicted_sequence_stats(m, N, 63)
        # Cov(Y1, Y2) = Cov(X1, rho X1) = 0.6 analytically.
        assert res.details["cov_y1_y2"] == pytest.approx(0.6, abs=0.02)
        assert res.details["cov_x1_x2"] == pytest.approx(0.6, abs=0.02)
        assert res.all_satisfied

    def test_independence_constant_predictor(self):
        m = BivariateModel(Independence(), Uniform(), Uniform())
        res = predicted_sequence_stats(m, N, 64)
        assert abs(res.details["cov_y1_y2"]) <= 1e-6
        assert res.all_satisfied

    def test_fgm_negative_theta(self):
        m = BivariateModel(FGM(theta=-1.0), Uniform(), Uniform())
        res = predicted_sequence_stats(m, N, 65)
        assert res.all_satisfied


class TestMartingale:
    def test_full_information_equality(self):
        res = martingale_check(5, N, 66, subset=(1, 2, 3, 4, 5))
        r = res.reports[0]
        assert r.lhs_estimate == 1.0
        assert r.rhs_estimate == 1.0
        assert r.margin_sigmas == 0.0

    def test_subset_3_oracle(self):
        res = martingale_check(5, N, 67, subset=(3,))
        r = res.reports[0]
        assert martingale_exact_mse(5, 3) == 3.0
        se_rhs = math.sqrt(2.0) * 3.0 / math.sqrt(N)  # rough chi2 scale
        assert r.rhs_estimate == pytest.approx(3.0, abs=6 * se_rhs)
        assert r.satisfied

    def test_empty_subset_variance_oracle(self):
        res = martingale_check(5, N, 68, subset=())
        r = res.reports[0]
        assert martingale_exact_mse(5, 0) == 6.0
        assert r.rhs_estimate == pytest.approx(6.0, abs=0.15)
        assert r.satisfied

    def test_shared_walk_matches_single_subset_calls(self):
        from concurrent.futures import ThreadPoolExecutor

        subsets = [(1, 2, 3, 4, 5), (1,), (3,), (5,), (), (4, 2, 4)]
        shared = martingale_checks(5, N, 72, subsets)
        assert shared == [martingale_check(5, N, 72, subset=s) for s in subsets]
        assert [r.experiment for r in shared][-1] == "martingale/subset=[2, 4]"
        named = martingale_checks(5, N, 72, subsets[:2], names=["a", "b"])
        assert named == [
            martingale_check(5, N, 72, subset=s, name=name)
            for s, name in zip(subsets[:2], ["a", "b"])
        ]
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert martingale_checks(5, N, 72, subsets, pool=pool) == shared

    def test_subset_validated(self):
        with pytest.raises(DomainError):
            martingale_check(5, N, 69, subset=(0,))
        with pytest.raises(DomainError):
            martingale_check(5, N, 70, subset=(6,))
        with pytest.raises(DomainError):
            martingale_checks(5, N, 70, [(1,), (6,)])


class TestDeterminism:
    def test_reports_bit_identical_across_pools(self):
        from concurrent.futures import ThreadPoolExecutor

        m = GaussianCopies(3, 0.3, 0.5)
        serial = verify_theorem1(m, N, 71)
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = verify_theorem1(m, N, 71, pool=pool)
        assert serial == parallel

    def test_different_seeds_differ(self):
        m = GaussianCopies(3, 0.3, 0.5)
        assert verify_theorem1(m, 10_000, 1) != verify_theorem1(m, 10_000, 2)
