"""Verification harness operations and their spec'd degenerate cases."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import bdtr, bdtrc, ndtri
from scipy.stats import norm

from cexpect.condexp import (
    BivariateModel,
    GaussianVector,
    ar_vector,
    equicorrelated_vector,
    gemm_rows,
)
from cexpect import cli, coalition, theorems
from cexpect.coalition import MarketConfig, compare_strategies, predictor_table, simulate_market
from cexpect.copulas import Clayton, FGM, Gaussian, Independence, lattice_counts
from cexpect.errors import ConstructionError, DomainError, UnsupportedModelError
from cexpect.marginals import Exponential, MaxOfIid, Normal, Uniform
from cexpect.ordered import order_stats
from cexpect.reports import Moments, inequality_report, paired_moments
from cexpect.rng import (
    CHUNK_SIZE,
    MAX_ROW_WIDTH,
    EVAL_BLOCK,
    chunk_sizes,
    chunk_stream,
    join_rows,
    row_slices,
    run_chunked,
    simulate_chunked,
)
from cexpect.theorems import (
    COPULA_SWAP_GRID,
    COPIES_SCALE,
    ConditionalIidCopies,
    TAG_MAIN,
    GaussianCopies,
    copula_swap_tables,
    default_copies_battery,
    martingale_checks,
    martingale_exact_mse,
    predicted_sequence_stats,
    regression_tables,
    sequence_table,
    verify_copula_theorem,
    verify_corollary_chain,
    verify_covariance_identity,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)

N = 100_000


def _covariance(model, n_samples, seed, pool=None):
    """verify_covariance_identity on the tables its reader builds."""
    return verify_covariance_identity(model, regression_tables(model), n_samples, seed, pool=pool)


def _sequence(model, n_samples, seed, pool=None):
    """predicted_sequence_stats on the table its reader builds."""
    return predicted_sequence_stats(model, sequence_table(model), n_samples, seed, pool=pool)


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


def _copies_covariance(m):
    """The exact mean and covariance of (Y, X_1, X̄) of a Gaussian-copies
    model: Var X̄ = Cov(X_1, X̄) = v sd_x^2, and Y has the same covariance
    rho_xy sd_x sd_y with X_1 and X̄."""
    v = (1.0 + (m.n_copies - 1) * m.rho_xx) / m.n_copies
    cross = m.rho_xy * m.sd_x * m.sd_y
    cov = np.array(
        [
            [m.sd_y**2, cross, cross],
            [cross, m.sd_x**2, v * m.sd_x**2],
            [cross, v * m.sd_x**2, v * m.sd_x**2],
        ]
    )
    return np.array([m.mean_y, m.mean_x, m.mean_x]), cov


class TestGaussianCopiesLaw:
    @pytest.mark.parametrize(
        "model",
        [
            GaussianCopies(5, 0.3, 0.5, mean_x=2.0, sd_x=3.0, mean_y=-1.0, sd_y=0.5),
            GaussianCopies(MAX_ROW_WIDTH, 0.3, 0.05),
            GaussianCopies(5, -0.2, 0.15, mean_x=-4.0, sd_x=0.25),
            GaussianCopies(3, 1.0, 0.5, mean_y=10.0, sd_y=2.0),
            GaussianCopies(1, 0.0, -0.6),
        ],
        ids=["scaled", "n128", "negative-rho-xx", "comonotone", "n1"],
    )
    def test_sample_moments_match_the_exact_law(self, model):
        # Each sample mean and covariance within 4 of its SE: sd/sqrt(n) for
        # a mean, and sqrt((c_ii c_jj + c_ij^2) / n) for a Gaussian
        # covariance entry.
        n = 200_000
        y, first, average = model.sample(chunk_stream(31, TAG_MAIN, 0), n)
        mean, cov = _copies_covariance(model)
        draws = np.vstack([y, first, average])
        mean_se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=1) - mean) <= 4 * mean_se)
        cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(np.cov(draws) - cov) <= 4 * cov_se)
        if model.n_copies == 1 or model.rho_xx == 1.0:
            assert first.tobytes() == average.tobytes()
        else:
            assert not np.any(first == average)

    def test_draws_three_normals_a_row_whatever_the_copies(self):
        # After one chunk, two copies and MAX_ROW_WIDTH copies leave the
        # Philox stream in the same state: three normals a row each.
        states = []
        for n_copies in (2, MAX_ROW_WIDTH):
            rng = chunk_stream(32, TAG_MAIN, 0)
            for _ in GaussianCopies(n_copies, 0.3, 0.05).blocks(rng, CHUNK_SIZE):
                pass
            state = rng.bit_generator.state
            states.append((state["state"]["counter"].tolist(), state["buffer_pos"]))
        assert states[0] == states[1]

    def test_averages_only_an_affine_rule(self):
        model = GaussianCopies(3, 0.3, 0.5)
        rng = chunk_stream(33, TAG_MAIN, 0)
        with pytest.raises(UnsupportedModelError):
            next(model.averages(rng, 100, np.square))
        table = ConditionalIidCopies(3, 0.8, Normal(), Uniform(-1, 1)).predictor()
        with pytest.raises(UnsupportedModelError):
            next(model.averages(rng, 100, table))

    @pytest.mark.parametrize(
        "scales, param",
        [
            ({"sd_x": 2.0 * COPIES_SCALE}, "sd_x"),
            ({"sd_y": 0.5 / COPIES_SCALE}, "sd_y"),
            ({"mean_x": 2.0 * COPIES_SCALE}, "mean_x"),
            ({"mean_y": -2.0 * COPIES_SCALE}, "mean_y"),
            ({"mean_y": math.nan}, "mean_y"),
            # Each sd within its range, but the larger one too far above the
            # smaller.
            ({"sd_x": 1e-5, "sd_y": 1e5}, "sd_y"),
        ],
    )
    def test_scales_outside_the_bound_rejected_at_their_field(self, scales, param):
        with pytest.raises(ConstructionError) as exc:
            GaussianCopies(3, 0.3, 0.5, **scales)
        assert exc.value.param == param

    @pytest.mark.parametrize(
        "scales",
        [
            {"sd_x": COPIES_SCALE, "sd_y": COPIES_SCALE, "mean_x": COPIES_SCALE**2},
            {"sd_y": COPIES_SCALE, "mean_x": -COPIES_SCALE, "mean_y": COPIES_SCALE},
            {"sd_x": COPIES_SCALE, "mean_y": -COPIES_SCALE},
            {"sd_x": 1.0 / COPIES_SCALE, "sd_y": 1.0 / COPIES_SCALE, "mean_y": 1.0},
        ],
        ids=["widest", "y-wide", "x-wide", "narrowest"],
    )
    def test_scales_at_the_bound_resolve_their_noise(self, scales):
        # At the corners of COPIES_SCALE, both sides are finite and the
        # copies' noise still separates them: a positive SE, and theorem2's
        # mean difference within 4 SE of its exact (1 - v) sd_x^2.
        model = GaussianCopies(5, 0.3, 0.5, **scales)
        for verify in (verify_theorem1, verify_theorem2):
            r = verify([model], 20_000, 34).reports[0]
            values = (r.lhs_estimate, r.rhs_estimate, r.paired_diff_se)
            assert all(map(math.isfinite, values)) and r.paired_diff_se > 0, values
            assert r.satisfied
        gap = (1.0 - 0.44) * model.sd_x**2
        assert abs(r.rhs_estimate - r.lhs_estimate - gap) <= 4 * r.paired_diff_se


def _copies_closed_forms(experiment, n_copies, rho_xx, rho_xy):
    """(lhs, rhs) of a standard Gaussian-copies report, exact.  With
    v = Var X̄ = (1 + (n - 1) rho_xx) / n, theorem1's errors are
    Y - rho_xy X̄ and Y - rho_xy X_1, theorem2's Y - X̄ and Y - X_1."""
    v = (1.0 + (n_copies - 1) * rho_xx) / n_copies
    if experiment == "theorem1":
        return 1.0 - 2.0 * rho_xy**2 + rho_xy**2 * v, 1.0 - rho_xy**2
    return 1.0 - 2.0 * rho_xy + v, 2.0 - 2.0 * rho_xy


def _closed_form_z(report, n_copies, rho_xx, rho_xy):
    """The z of each side of a copies report against its closed form, with
    SE = sqrt(2) value / sqrt(n), exact for the square of a centred normal
    error."""
    experiment = report.name.split("/")[0]
    exact = _copies_closed_forms(experiment, n_copies, rho_xx, rho_xy)
    sides = (report.lhs_estimate, report.rhs_estimate)
    n = report.n_samples
    return [(side - value) / (math.sqrt(2.0 / n) * value) for side, value in zip(sides, exact)]


class TestCopiesClosedForms:
    @pytest.mark.parametrize("verify", [verify_theorem1, verify_theorem2])
    def test_default_battery_sides_match_their_closed_forms(self, verify):
        # The reports' Jensen verdicts pass for any exchangeable columns;
        # this is what checks the Gaussian-copies sampler.
        cfg = cli.default_suite()[verify.__name__.removeprefix("verify_")]
        battery = default_copies_battery()
        reports = verify(battery, cfg["n_samples"], cfg["seed"]).reports
        checked = 0
        for model, report in zip(battery, reports):
            if isinstance(model, GaussianCopies):
                z = _closed_form_z(report, model.n_copies, model.rho_xx, model.rho_xy)
                assert max(map(abs, z)) <= 4, (report.name, z)
                checked += 1
        assert checked == 21

    def test_closed_form_check_fails_on_the_wrong_rho_xx(self):
        # rho_xx = 0.4 for 0.3 moves v from 0.44 to 0.52: at 100,000 rows
        # theorem1's lhs moves by 0.02, about 7 SE, and theorem2's by 0.08,
        # about 40 SE; neither rhs depends on v.
        for verify in (verify_theorem1, verify_theorem2):
            report = verify([GaussianCopies(5, 0.4, 0.5)], 100_000, 101).reports[0]
            lhs_z, rhs_z = _closed_form_z(report, 5, 0.3, 0.5)
            assert abs(lhs_z) > 4 and abs(rhs_z) <= 4, (report.name, lhs_z, rhs_z)


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

    def test_one_product_predicts_as_each_sets_coefficients(self):
        # The 127 nested sets of ar_vector(128, 0.6) share one product with
        # a (dim, sets) coefficient matrix, 0 off each set; on one block of
        # draws each set's predictions are those of its own
        # conditional_coefficients, to rounding.
        v = ar_vector(128, 0.6)
        sets = [tuple(range(k)) for k in range(128)]
        coefs, intercepts = theorems._linear_predictors(v, 127, sets)
        _, mat = next(v.blocks(chunk_stream(57, TAG_MAIN, 0), 1000))
        preds = coefs.T @ mat.T + intercepts
        assert np.all(preds[0] == v.mean[127])
        for s, got in zip(sets[1:], preds[1:]):
            intercept, c = v.conditional_coefficients(127, s)
            want = intercept + mat[:, list(s)] @ c
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), s

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


# Rows spanning four chunks, the last ragged.
CHUNKED_ROWS = 200_003


class _Replay:
    """A bivariate model whose draws replay given columns block by block,
    in order, in a serial run: (x, y) are columns 0 and 1, phi(Y) column 2
    and psi(X) the last column."""

    marginal_x = marginal_y = Normal()

    def __init__(self, columns):
        self.columns = columns
        self.rows = slice(0, 0)

    def blocks(self, rng, count):
        start = self.rows.stop
        for head in range(0, count, EVAL_BLOCK):
            self.rows = slice(start + head, start + min(head + EVAL_BLOCK, count))
            yield slice(head, head + EVAL_BLOCK), self.columns[0][self.rows], self.columns[1][self.rows]

    def phi(self):
        return lambda y: self.columns[2][self.rows]

    def psi(self):
        return lambda x: self.columns[-1][self.rows]


def _drawn_columns(model, width, n, seed):
    """The columns `width` operation reads from n draws of `model`: (x, y,
    phi(Y), psi(X)) for width 4, (x1, x2, psi(X1)) for width 3."""
    chunks, last = chunk_sizes(n)
    draws = [
        model.sample(chunk_stream(seed, TAG_MAIN, c), CHUNK_SIZE if c < chunks - 1 else last)
        for c in range(chunks)
    ]
    x, y = (np.concatenate(column) for column in zip(*draws))
    if width == 3:
        return [x, y, model.psi()(x)]
    return [x, y, model.phi()(y), model.psi()(x)]


def _signed_zero_columns(k):
    """k columns of mixed magnitude, the first all zeros of either sign."""
    rng = np.random.default_rng(k)
    shape = (k, CHUNKED_ROWS)
    columns = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
    columns[0] = 0.0
    columns[0, ::3] = -0.0
    columns[1:, ::5] = -0.0
    return list(columns)


def _covariance_reference(columns):
    """(lhs, rhs, se) of each covariance report, from whole columns."""
    n = columns[0].size
    xc, yc, z1c, z2c = (column - np.mean(column) for column in columns)
    phi_y, x_y, psi_x = z1c * yc, xc * yc, z2c * xc
    cov_phi, cov_xy, cov_psi = (np.sum(p) / (n - 1) for p in (phi_y, x_y, psi_x))
    pairs = [
        (cov_phi, cov_xy, phi_y - x_y),
        (cov_psi, cov_xy, psi_x - x_y),
        (cov_phi, cov_psi, phi_y - psi_x),
    ]
    return [(lhs, rhs, np.std(d, ddof=1) / math.sqrt(n)) for lhs, rhs, d in pairs]


def _sequence_reference(columns):
    """(lhs, rhs, se) of each sequence-stats report, from whole columns."""
    x1, x2, y2 = columns
    n = x1.size
    x1c = x1 - np.mean(x1)
    cov_pred = np.sum(x1c * (y2 - np.mean(y2))) / (n - 1)
    cov_raw = np.sum(x1c * (x2 - np.mean(x2))) / (n - 1)
    pairs = [(np.mean(y2), np.mean(x2), y2 - x2), (cov_pred, cov_raw, x1c * (y2 - x2))]
    return [(lhs, rhs, np.std(d, ddof=1) / math.sqrt(n)) for lhs, rhs, d in pairs]


CLAYTON_EXP = BivariateModel(Clayton(alpha=2.0), Exponential(), Exponential())
# Means 1e4 sd apart from zero: unshifted, the co-moments of the products
# cancel in the SE's quadratic form to about 1e-8 relative.
FAR_FROM_ZERO = BivariateModel(Gaussian(rho=0.5), Normal(mean_=1e4), Normal(mean_=-1e4, sd=2.0))


@pytest.mark.parametrize("draws", ["clayton-exponential", "signed-zeros", "far-from-zero"])
@pytest.mark.parametrize(
    "operation, width, reference",
    [
        (_covariance, 4, _covariance_reference),
        (_sequence, 3, _sequence_reference),
    ],
    ids=["covariance", "sequence-stats"],
)
def test_fused_reports_equal_whole_column_numpy(operation, width, reference, draws):
    # Reports merged from per-chunk statistics equal np.mean, np.sum and
    # np.std(ddof=1) over the whole product and difference columns, up to
    # their last bits, on draws or on columns of mixed magnitude.
    if draws == "signed-zeros":
        columns = _signed_zero_columns(width)
        result = operation(_Replay(columns), CHUNKED_ROWS, 59)
    else:
        model = FAR_FROM_ZERO if draws == "far-from-zero" else CLAYTON_EXP
        columns = _drawn_columns(model, width, CHUNKED_ROWS, 59)
        result = operation(model, CHUNKED_ROWS, 59)
    expected = reference(columns)
    for report, values in zip(result.reports, expected, strict=True):
        stated = (report.lhs_estimate, report.rhs_estimate, report.paired_diff_se)
        assert stated == pytest.approx(values, rel=1e-10)


GAUSS_NN = BivariateModel(Gaussian(rho=0.5), Normal(), Normal())


@pytest.mark.parametrize(
    "operation",
    [
        lambda: martingale_checks(5, 5000, 1, [(1,), ()]),
        lambda: _covariance(GAUSS_NN, 5000, 1),
        lambda: _sequence(GAUSS_NN, 5000, 1),
        lambda: verify_theorem3(equicorrelated_vector(3, 0.5), 5000, 1),
    ],
    ids=["martingale", "covariance", "sequence-stats", "theorem3"],
)
def test_leaf_passes_leave_no_reference_cycle(operation):
    # A cycle through a chunk worker or its statistics keeps them alive
    # until a collection, so repeated runs pile them up: peak RSS grows by
    # pass.
    operation()
    gc.collect()
    gc.disable()
    try:
        operation()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "operation",
    [
        lambda n: verify_theorem1([GaussianCopies(5, 0.3, 0.5)], n, 76),
        lambda n: _covariance(GAUSS_NN, n, 76),
        lambda n: martingale_checks(5, n, 76, [(1, 2, 3, 4, 5), (1,), (3,), (5,), ()]),
        lambda n: order_stats([(Uniform(), 5, 3, 4, True)], n, 76),
    ],
    ids=["theorem1", "covariance", "martingale", "order-stats"],
)
def test_peak_memory_does_not_grow_with_n_samples(operation):
    # Chunk workers return statistics, not columns, so four times the rows
    # (16 chunks against 4) must not raise the peak by more than 1 MiB; a
    # column of 2**20 float64 kept whole would raise it by 8 MiB.
    operation(1000)
    peaks = []
    for n in (2**18, 2**20):
        tracemalloc.start()
        try:
            operation(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2**20, peaks


# The chunk workers each operation ran before they drew and reduced in row
# blocks: each draws its whole chunk with the model's sample and reduces
# whole columns.  They are the oracles of the blocked workers, which must
# return the same statistics, chunk by chunk and bit for bit.  An oracle
# gives the statistics of every chunk of n rows.


def _chunks(worker):
    return lambda n: run_chunked(worker, n, 81, TAG_MAIN)


def _whole_copies(model, rng, n):
    """(Y, X_1, X̄) of n rows of a Gaussian-copies model, or (Y, X) of a
    conditional-iid one, from the draws of blocks of EVAL_BLOCK rows joined:
    each Gaussian block draws its Z0, Z1 and Z2, each conditional-iid block
    its Y and then its noise."""
    blocks = [(start, min(EVAL_BLOCK, n - start)) for start in range(0, n, EVAL_BLOCK)]
    if isinstance(model, GaussianCopies):
        z0, z1, z2 = np.concatenate([rng.standard_normal((3, size)) for _, size in blocks], axis=1)
        v = (1.0 + (model.n_copies - 1) * model.rho_xx) / model.n_copies
        rho, sd_x, sd_y = model.rho_xy, model.sd_x, model.sd_y
        y = z2 * (sd_y * math.sqrt(1.0 - rho**2 / v)) + z0 * (sd_y * rho / math.sqrt(v))
        average = z0 * (sd_x * math.sqrt(v)) + model.mean_x
        return y + model.mean_y, z1 * (sd_x * math.sqrt(1.0 - v)) + average, average
    parts = []
    for _, size in blocks:
        y = model.y_marginal.sample(rng, size)
        eps = model.noise.sample(rng, size * model.n_copies).reshape(size, model.n_copies)
        parts.append((y, model.beta * y[:, None] + eps))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _whole_averaging(model, columns):
    def worker(rng, count):
        if isinstance(model, GaussianCopies):
            y, first, average = _whole_copies(model, rng, count)
            first, average = columns(first), columns(average)
        else:
            y, x = _whole_copies(model, rng, count)
            values = columns(x)
            first, average = values[:, 0], values.mean(axis=1)
        lhs = (y - average) ** 2
        return Moments.of((lhs, lhs - (y - first) ** 2))

    return worker


def _whole_conditioning(v, target, index_sets, pairs):
    # Every set's predictor is one product with a matrix of each set's
    # coefficients, 0 off the set, plus its intercept; the empty set's
    # intercept is the target's mean.
    sets = list(dict.fromkeys(index_sets))
    coefs = np.zeros((v.dim, len(sets)))
    intercepts = np.full(len(sets), v.mean[target])
    for i, given in enumerate(sets):
        if given:
            intercepts[i], coefs[list(given), i] = v.conditional_coefficients(target, given)

    def worker(rng, count):
        mat = v.sample(rng, count)
        preds = coefs.T @ mat.T + intercepts[:, None]
        errors = dict(zip(sets, (mat[:, target] - preds) ** 2))
        pair_errors = [(errors[index_sets[a]], errors[index_sets[b]]) for a, b in pairs]
        return [Moments.of((lhs, lhs - rhs)) for lhs, rhs in pair_errors]

    return worker


def _whole_covariance(model):
    phi, psi = model.phi(), model.psi()
    mid_x, mid_y = theorems._medians(model)

    def worker(rng, count):
        x, y = model.sample(rng, count)
        phi_y, psi_x = phi(y) - mid_x, psi(x) - mid_y
        x, y = x - mid_x, y - mid_y
        return Moments.of((x, y, phi_y, psi_x, phi_y * y, psi_x * x, x * y))

    return worker


def _whole_sequence(model):
    psi = model.psi()
    mid_1, mid_2 = theorems._medians(model)

    def worker(rng, count):
        x1, x2 = model.sample(rng, count)
        y2 = psi(x1) - mid_2
        x1, x2 = x1 - mid_1, x2 - mid_2
        return Moments.of((x1, x2, y2, x1 * x2, x1 * y2))

    return worker


def _whole_martingale(n, subsets):
    predictors = theorems.martingale_predictors(n, subsets)
    step_dtype = np.min_scalar_type(-(n + 2))

    def worker(rng, count):
        steps = rng.integers(0, 2, size=(count, n + 1)).astype(step_dtype)
        steps *= 2
        steps -= 1
        error = np.zeros(count, dtype=step_dtype)
        sq = {}
        column = n + 1
        for k in reversed(predictors):
            while column > k:
                column -= 1
                error += steps[:, column]
            sq[k] = np.square(error, dtype=np.float64)
        lhs = sq[n]
        return [Moments.of((lhs, lhs - sq[k])) for k in predictors]

    return worker


def _whole_lattice(model):
    def worker(rng, count):
        x, y = model.sample(rng, count)
        return lattice_counts(model.marginal_y.cdf(y), model.marginal_x.cdf(x), COPULA_SWAP_GRID)

    return worker


def _averaging_case(verify, model, columns):
    run = lambda n, pool: verify([model], n, 81, pool=pool)  # noqa: E731
    return run, _chunks(_whole_averaging(model, columns))


def _conditioning_case(verify, v, index_sets, pairs, *args):
    target = v.dim - 1 if verify is verify_corollary_chain else 0
    oracle = _chunks(_whole_conditioning(v, target, index_sets, pairs))
    return lambda n, pool: verify(v, *args, n, 81, pool=pool), oracle


def _martingale_case(n, subsets):
    run = lambda rows, pool: martingale_checks(n, rows, 81, subsets, pool=pool)  # noqa: E731
    return run, _chunks(_whole_martingale(n, subsets))


def _market_case(market):
    """compare_strategies, and the statistics of the rows of
    simulate_market, reduced a CHUNK_SIZE chunk at a time."""
    table = predictor_table(market)
    k = market.n_brokers

    def oracle(n):
        x, y, z = simulate_market(market, n, 81)
        chunks = []
        for rows in row_slices(n, CHUNK_SIZE):
            preds = table(x[rows])
            lhs = (z[rows] - preds.mean(axis=1)) ** 2
            stats = [paired_moments(lhs, (z[rows] - preds[:, i]) ** 2) for i in range(k)]
            wins = np.bincount(coalition._winner(x[rows], y[rows]), minlength=k + 1)
            chunks.append((stats, wins))
        return chunks

    return lambda n, pool: compare_strategies(market, table, n, 81, pool=pool), oracle


CLAYTON_UNIFORM = BivariateModel(Clayton(alpha=2.0), Uniform(), Uniform())
COPIES_5 = GaussianCopies(5, 0.3, 0.5)
COMONOTONE = GaussianCopies(3, 1.0, 0.5)
COND_IID = ConditionalIidCopies(3, 0.8, Normal(), Uniform(lower=-1.0, upper=1.0))
WIDEST = GaussianCopies(128, 0.3, 0.05)  # MAX_ROW_WIDTH copies, three normals a row
AR4 = ar_vector(4, 0.6)
CHAIN = [(0,), (0, 1), (0, 1, 2)]
EQUI3 = equicorrelated_vector(3, 0.5)
DUPLICATE = equicorrelated_vector(2, 0.4)
IID_MARKET = MarketConfig(4, Uniform(), outsider=Exponential())
# The coalition-dependent market of tests/test_report_digests.py.
DEPENDENT_MARKET = MarketConfig(
    3, Normal(), rho_xx=0.4, outsider=MaxOfIid(base=Exponential(), count=2)
)

BLOCKED_WORKERS = {
    "theorem1-copies5": _averaging_case(verify_theorem1, COPIES_5, COPIES_5.predictor()),
    "theorem1-comonotone": _averaging_case(verify_theorem1, COMONOTONE, COMONOTONE.predictor()),
    "theorem1-cond-iid": _averaging_case(verify_theorem1, COND_IID, COND_IID.predictor()),
    "theorem2-d129": _averaging_case(verify_theorem2, WIDEST, lambda x: x),
    "theorem3-d3": _conditioning_case(verify_theorem3, EQUI3, [(1, 2), (1,), (2,)], [(0, 1), (0, 2)]),
    "theorem3-d2": _conditioning_case(verify_theorem3, DUPLICATE, [(1,)] * 3, [(0, 1), (0, 2)]),
    "corollary-ar4": _conditioning_case(
        verify_corollary_chain, AR4, CHAIN, [(1, 0), (2, 1)], CHAIN
    ),
    "covariance-gaussian": (
        lambda n, pool: _covariance(GAUSS_NN, n, 81, pool=pool),
        _chunks(_whole_covariance(GAUSS_NN)),
    ),
    "covariance-clayton": (
        lambda n, pool: _covariance(CLAYTON_EXP, n, 81, pool=pool),
        _chunks(_whole_covariance(CLAYTON_EXP)),
    ),
    "sequence-stats": (
        lambda n, pool: _sequence(CLAYTON_EXP, n, 81, pool=pool),
        _chunks(_whole_sequence(CLAYTON_EXP)),
    ),
    "martingale5": _martingale_case(5, [(1, 2, 3, 4, 5), (1,), (3,), (5,), ()]),
    "martingale-full-only": _martingale_case(7, [(7,)]),
    "copula-swap-gaussian": (
        lambda n, pool: theorems.copula_swap_z(GAUSS_NN, n, 81, pool=pool),
        _chunks(_whole_lattice(GAUSS_NN)),
    ),
    "copula-swap-clayton": (
        lambda n, pool: theorems.copula_swap_z(CLAYTON_UNIFORM, n, 81, pool=pool),
        _chunks(_whole_lattice(CLAYTON_UNIFORM)),
    ),
    "coalition-iid": _market_case(IID_MARKET),
    "coalition-dependent": _market_case(DEPENDENT_MARKET),
}


def _same_bits(a, b):
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, Moments):
        return a.n == b.n and a.mean.tobytes() == b.mean.tobytes() and a.m2.tobytes() == b.m2.tobytes()
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("case", BLOCKED_WORKERS)
def test_blocked_workers_return_the_whole_chunk_statistics(case, monkeypatch):
    # Five chunks, the last the 33,920 rows of a 2M-row run, and one chunk
    # below one block of draws, at one worker and three: a thread's later
    # chunks may reuse the memory of the arrays its earlier chunks dropped.
    # Each chunk's statistics are compared after the last chunk ran, so a
    # result that kept a view of a chunk's arrays would read a later chunk's
    # rows.
    from concurrent.futures import ThreadPoolExecutor

    operation, oracle = BLOCKED_WORKERS[case]
    captured = []

    def capture(*args, **kwargs):
        captured.append(run_chunked(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(theorems, "run_chunked", capture)
    monkeypatch.setattr(coalition, "run_chunked", capture)
    for n in (4 * CHUNK_SIZE + 33_920, 1000):
        expected = oracle(n)
        for workers in (1, 3):
            captured.clear()
            with ThreadPoolExecutor(max_workers=workers) as pool:
                operation(n, pool if workers > 1 else None)
            assert len(captured) == 1 and len(captured[0]) == len(expected), (n, workers)
            for c, (got, want) in enumerate(zip(captured[0], expected)):
                assert _same_bits(got, want), (n, workers, c)


ROW = CHUNK_SIZE * 8  # bytes of one float64 row of a chunk


def _gemm_block(dim):
    """Bytes of the normals and draws of one GaussianVector block."""
    return 2 * gemm_rows(dim) * dim * 8


@pytest.mark.parametrize(
    "operation, chunk_arrays",
    [
        # The two squared errors, (lhs, lhs - rhs) and the products' row; a
        # block's three normals a row and the predictor's two values are
        # within its dozen a row.
        (lambda n: verify_theorem1([COPIES_5], n, 76), 5 * ROW),
        # Three sets' errors, a pair's two rows and the products' row.
        (lambda n: verify_corollary_chain(AR4, CHAIN, n, 76), 6 * ROW + _gemm_block(4)),
        # Seven variables and the products' row.
        (lambda n: _covariance(GAUSS_NN, n, 76), 8 * ROW),
        # (lhs, lhs - rhs), the products' row and four predictors' int8
        # errors.
        (
            lambda n: martingale_checks(5, n, 76, [(1, 2, 3, 4, 5), (1,), (3,), (5,), ()]),
            3 * ROW + 4 * CHUNK_SIZE,
        ),
        # No chunk arrays: each block's draws and lattice bins.
        (lambda n: theorems.copula_swap_z(GAUSS_NN, n, 76), 0),
    ],
    ids=["theorem1", "corollary-chain", "covariance", "martingale", "copula-swap"],
)
def test_peak_memory_stays_within_a_chunks_arrays_and_one_block(operation, chunk_arrays):
    # One worker, four chunks: each chunk's arrays are dropped before the
    # next chunk allocates its own, and each block of rows adds at most a
    # dozen float64 values a row of EVAL_BLOCK rows, with 256 KiB for
    # everything else.  Whole-chunk draws and columns exceed this in every
    # case.
    operation(1000)
    tracemalloc.start()
    try:
        operation(4 * CHUNK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= chunk_arrays + 12 * EVAL_BLOCK * 8 + 2**18, (peak, chunk_arrays)


WIDE_MARKET = MarketConfig(128, Normal(), outsider=Normal())
WIDE_TABLE = predictor_table(WIDE_MARKET)
WIDE_BLOCK = EVAL_BLOCK * 128 * 8  # bytes of one block of 128 draws a row


@pytest.mark.parametrize(
    "operation, chunk_arrays, blocks",
    [
        # Two squared errors, the Markov residual and its intp bin; a block's
        # uniforms and their quantiles.
        (lambda n: order_stats([(Uniform(), 128, 64, 127, True)], n, 76), 4 * ROW, 2),
        # The coalition's and 128 brokers' squared errors; a block's normals
        # and its prices or predictions.  The last block's arrays are
        # dropped before the next block draws.
        (lambda n: compare_strategies(WIDE_MARKET, WIDE_TABLE, n, 76), 129 * ROW, 2),
    ],
    ids=["order-stats-n128", "coalition-k128"],
)
def test_peak_memory_of_wide_rows_stays_within_a_chunks_arrays_and_a_few_blocks(
    operation, chunk_arrays, blocks
):
    # One worker, two chunks, 128 draws a row: a chunk draws its rows a
    # block at a time, so it holds its own arrays and a few blocks, with
    # 1 MiB for the tables and everything else.  A whole-chunk draw holds
    # 64 MiB of draws and as much of their quantiles.
    operation(1000)
    tracemalloc.start()
    try:
        operation(2 * CHUNK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= chunk_arrays + blocks * WIDE_BLOCK + 2**20, (peak, chunk_arrays)


def _gaussian_vector(d):
    a = np.random.default_rng(d).standard_normal((d, d))
    return GaussianVector(0.1 * np.arange(d), a @ a.T / d + np.eye(d))


BLOCK_MODELS = {
    **{
        str(c): c
        for c in (Independence(), Gaussian(rho=-0.7), FGM(theta=0.6), Clayton(alpha=2.0))
    },
    "bivariate": BivariateModel(Clayton(alpha=2.0), Uniform(2, 4), Exponential(1.0)),
    **{f"vector-d{d}": _gaussian_vector(d) for d in (2, 6, 129)},
    "gaussian-copies": COPIES_5,
    "conditional-iid": ConditionalIidCopies(3, 0.8, Normal(), Uniform(-1, 1)),
    "market-iid-outsider": MarketConfig(3, Exponential(), outsider=Uniform()),
    "market-dependent-normal": MarketConfig(5, Normal(1.0, 2.0), rho_xx=0.3),
}


@pytest.mark.parametrize("name", BLOCK_MODELS)
def test_blocks_yield_arrays_the_caller_keeps(name):
    # Every block's arrays are kept until the iterator is exhausted, and
    # joined they are still `sample`'s draws: no block writes into the
    # arrays of an earlier one.
    model = BLOCK_MODELS[name]
    n = 3 * EVAL_BLOCK + 17
    kept = [block[1:] for block in model.blocks(chunk_stream(17, TAG_MAIN, 0), n)]
    expected = model.sample(chunk_stream(17, TAG_MAIN, 0), n)
    expected = expected if isinstance(expected, tuple) else (expected,)
    joined = join_rows(kept, n)
    assert [a.tobytes() for a in joined] == [a.tobytes() for a in expected]


class TestCovarianceIdentity:
    def test_independence_all_near_zero(self):
        m = BivariateModel(Independence(), Uniform(), Uniform())
        res = _covariance(m, N, 56)
        for cov in _covariances(res):
            assert abs(cov) <= 0.01
        assert res.all_satisfied

    def test_gaussian_rho05_all_near_half(self):
        res = _covariance(
            BivariateModel(Gaussian(rho=0.5), Normal(), Normal()), N, 57
        )
        for cov in _covariances(res):
            assert cov == pytest.approx(0.5, abs=0.02)
        assert res.all_satisfied

    def test_memory_releases_each_column_after_its_last_product(self):
        # Forming the three products while all four centred columns live
        # takes six columns of n float64.  A worker forms them for its chunk
        # alone and returns their Moments, so no column outlives its chunk.
        n = 4 * CHUNK_SIZE
        model = BivariateModel(Gaussian(rho=0.5), Normal(), Normal())
        _covariance(model, 1000, 58)
        tracemalloc.start()
        try:
            _covariance(model, n, 58)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.75 * n * 8

    def test_memory_stays_near_its_four_columns(self):
        # Below the four columns it once kept: no draw, centred column,
        # product or difference is full length.
        n = 2**20
        model = BivariateModel(Gaussian(rho=0.5), Normal(), Normal())
        _covariance(model, 1000, 58)
        tracemalloc.start()
        try:
            _covariance(model, n, 58)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.6 * n * 8

    def test_fgm_mutual_consistency(self):
        m = BivariateModel(FGM(theta=1.0), Uniform(), Uniform())
        res = _covariance(m, N, 58)
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
        assert report.lhs_estimate <= theorems.COPULA_SWAP_Z
        assert report.rhs_estimate == theorems.COPULA_SWAP_Z
        assert res.all_satisfied

    def test_independence_rejected(self):
        m = BivariateModel(Independence(), Uniform(), Uniform())
        with pytest.raises(UnsupportedModelError):
            copula_swap_tables(m)

    def test_clayton_uniform(self):
        res = _verify_swap([BivariateModel(Clayton(alpha=2.0), Uniform(), Uniform())], N, 62)
        (report,) = res.reports
        assert report.name == "copula-swap/clayton#0/swapped"
        assert report.lhs_estimate <= theorems.COPULA_SWAP_Z

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
        assert [set(res.details[name]) for name in names] == [
            {"grid", "phi_min_relative_step", "psi_min_relative_step"}
        ] * 2
        assert all(res.details[name]["grid"] == 50 for name in names)

    def test_details_hold_each_tables_smallest_relative_step(self):
        # FGM(theta) with U(0, 1) marginals has phi(v) = psi(v) = 1/2 +
        # theta (2v - 1) / 6, linear, so its smallest relative step is the
        # smallest gap of the table's grid over the grid's span.
        model = BivariateModel(FGM(theta=0.5), Uniform(), Uniform())
        phi, psi = copula_swap_tables(model)
        detail = _verify_swap([model], 20_000, 67).details["copula-swap/fgm#0"]
        for key, table in (("phi_min_relative_step", phi), ("psi_min_relative_step", psi)):
            gap = np.min(np.diff(table.grid)) / (table.grid[-1] - table.grid[0])
            assert detail[key] == pytest.approx(gap, rel=1e-6)
            assert 0.0 < detail[key] < 1e-4

    def test_z_matches_a_whole_sample_reference(self):
        # Three chunks, the last ragged, against the whole sample binned by
        # np.searchsorted and the smaller of both exact binomial tails.
        model = BivariateModel(Clayton(alpha=2.0), Exponential(1.0), Normal())
        n = 2 * CHUNK_SIZE + 12345
        z = theorems.copula_swap_z(model, n, 69)
        chunks = [
            model.sample(chunk_stream(69, TAG_MAIN, c), CHUNK_SIZE if c < 2 else 12345)
            for c in range(3)
        ]
        x, y = (np.concatenate(parts) for parts in zip(*chunks))
        levels = np.linspace(0.0, 1.0, 50)
        s = np.searchsorted(levels, model.marginal_y.cdf(y), side="left")
        t = np.searchsorted(levels, model.marginal_x.cdf(x), side="left")
        counts = np.zeros((50, 50), dtype=np.int64)
        np.add.at(counts, (s, t), 1)
        k = counts.cumsum(axis=0).cumsum(axis=1)
        c = np.array([[float(model.copula.cdf(u, v)) for u in levels] for v in levels])
        inside = (c > 0.0) & (c < 1.0)
        k, c = k[inside], c[inside]
        tail = np.minimum(bdtr(k, n, c), bdtrc(k - 1, n, c))
        assert z == -ndtri(min(tail.min(), 0.5))
        assert inside.sum() == 2400

    def test_workers_do_not_evaluate_the_tables(self):
        # The premise is checked on the tables; the draws check the sampler.
        class Unevaluated:
            def __init__(self, table):
                self.values = table.values

            def __call__(self, x):
                raise AssertionError("a table was evaluated on the draws")

        model = BivariateModel(Clayton(alpha=2.0), Exponential(1.0), Normal())
        tables = [tuple(map(Unevaluated, copula_swap_tables(model)))]
        assert verify_copula_theorem([model], tables, 20_000, 68).all_satisfied


class TestPredictedSequence:
    def test_bivariate_normal_rho06(self):
        m = BivariateModel(Gaussian(rho=0.6), Normal(), Normal())
        res = _sequence(m, N, 63)
        # Cov(Y1, Y2) = Cov(X1, rho X1) = 0.6 analytically.
        cov = res.reports[1]
        assert cov.lhs_estimate == pytest.approx(0.6, abs=0.02)
        assert cov.rhs_estimate == pytest.approx(0.6, abs=0.02)
        assert res.all_satisfied

    def test_independence_constant_predictor(self):
        m = BivariateModel(Independence(), Uniform(), Uniform())
        res = _sequence(m, N, 64)
        assert abs(res.reports[1].lhs_estimate) <= 1e-6
        assert res.all_satisfied

    def test_fgm_negative_theta(self):
        m = BivariateModel(FGM(theta=-1.0), Uniform(), Uniform())
        res = _sequence(m, N, 65)
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
            rhs_sq = (walk[:, n] - pred) ** 2
            assert report == inequality_report(name, paired_moments(lhs_sq, rhs_sq), 73)

    @pytest.mark.parametrize(
        "n, subsets, dtype",
        [
            (1, [(1,), ()], np.uint8),
            (5, [(1, 2, 3, 4, 5), (1,), (3,), (5,), ()], np.uint8),
            (128, [(1,), (64,), (128,), ()], np.uint16),
        ],
    )
    def test_integer_errors_report_as_float_whole_columns(self, n, subsets, dtype):
        # The reference forms each squared error exactly, in `dtype`, the
        # narrowest unsigned type holding (n + 1)**2, from the whole walk in
        # a narrow signed dtype; the float64 copies, read a chunk at a time,
        # give the same bytes.
        walk_dtype = np.min_scalar_type(-(n + 2))
        assert np.min_scalar_type((n + 1) ** 2) == dtype

        def walk_worker(rng, count):
            steps = rng.integers(0, 2, size=(count, n + 1)).astype(walk_dtype)
            steps *= 2
            steps -= 1
            return (np.cumsum(steps, axis=1, dtype=walk_dtype),)

        walk = simulate_chunked(walk_worker, CHUNKED_ROWS, 74, TAG_MAIN)[0]
        s_next = walk[:, n]

        def squared_error(pred):
            error = np.abs(s_next - pred).astype(dtype)
            error *= error
            return error.astype(np.float64)

        lhs_sq = squared_error(walk[:, n - 1])
        results = martingale_checks(n, CHUNKED_ROWS, 74, subsets)
        for subset, report in zip(subsets, results.reports, strict=True):
            rhs_sq = squared_error(walk[:, subset[-1] - 1] if subset else 0)
            assert report == inequality_report(report.name, paired_moments(lhs_sq, rhs_sq), 74)
            assert report.rhs_estimate == pytest.approx(np.mean(rhs_sq), rel=1e-12)
            se = np.std(lhs_sq - rhs_sq, ddof=1) / math.sqrt(CHUNKED_ROWS)
            assert report.paired_diff_se == pytest.approx(se, rel=1e-12)

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

    def test_wide_model_reports_bit_identical_across_pools(self):
        # 127 copies draw three normals a row in EVAL_BLOCK-row blocks, as
        # any copies count does, and the last chunk (4464 rows) is ragged;
        # eight workers run both chunks at once.
        from concurrent.futures import ThreadPoolExecutor

        m = GaussianCopies(127, 0.3, 0.05)
        serial = verify_theorem1([m], 70_000, 73)
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = verify_theorem1([m], 70_000, 73, pool=pool)
        assert serial == parallel

    def test_theorem1_memory_stays_near_its_report_columns(self):
        # Assembling the (n, 5) copies and then the (n, 5) predictions takes
        # at least 2 * 5 * n * 8 bytes.  Reduced in the workers, the peak is
        # one chunk's two rows of squared errors and a block of draws, and no
        # column of n rows.
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
