"""Conditional-expectation engines: closed forms and estimators."""

import math
import time

import numpy as np
import pytest
from scipy import integrate as sci_integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtri

from cexpect.condexp import (
    DECREASING,
    INCREASING,
    NON_MONOTONE,
    GRID_NODES,
    BivariateModel,
    GaussianVector,
    RegressionFunction,
    ar_vector,
    chebyshev_nodes,
    equicorrelated_vector,
    kernel_regress,
)
from cexpect.copulas import FGM, Clayton, Gaussian, Independence
from cexpect.errors import (
    ConstructionError,
    DomainError,
    ExtrapolationError,
)
from cexpect.marginals import Exponential, Normal, Uniform
from cexpect.rng import philox_stream

GAUSS_MODEL = BivariateModel(Gaussian(rho=0.5), Normal(), Normal())


class TestRegressionFunctions:
    def test_gaussian_normal_psi_affine_exact(self):
        # E(Y | X = 1) = rho * 1 = 0.5 for standard normals.
        psi = GAUSS_MODEL.psi()
        assert psi.affine is not None
        assert float(psi(1.0)) == pytest.approx(0.5, abs=1e-14)
        assert psi.monotonicity == INCREASING

    def test_gaussian_nonstandard_affine(self):
        m = BivariateModel(Gaussian(rho=0.6), Normal(1.0, 2.0), Normal(-1.0, 0.5))
        phi = m.phi()  # y -> E(X|Y=y) = mu_x + rho sd_x / sd_y (y - mu_y)
        y = 0.25
        assert float(phi(y)) == pytest.approx(1.0 + 0.6 * 2.0 / 0.5 * (y + 1.0), abs=1e-12)

    def test_independence_phi_constant_mean(self):
        m = BivariateModel(Independence(), Uniform(2, 4), Normal())
        phi = m.phi()
        assert phi.monotonicity == NON_MONOTONE
        for y in (-2.0, 0.0, 1.5):
            assert float(phi(y)) == pytest.approx(3.0, abs=1e-9)

    def test_fgm_conditional_mean_against_density_quadrature_oracle(self):
        # Oracle: x-space integral of v * c(u, v) at u = 0 for theta = 1,
        # i.e. E(Y | X = 0) = int v (1 + (1-2*0)(1-2v)) dv = 1/3.
        oracle, _ = sci_integrate.quad(lambda v: v * (1 + (1 - 2 * v)), 0, 1, epsabs=1e-12)
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-12)
        m = BivariateModel(FGM(theta=1.0), Uniform(), Uniform())
        psi = m.psi()
        assert float(psi(0.0)) == pytest.approx(oracle, abs=1e-8)

    def test_fgm_theta_negative_decreasing(self):
        m = BivariateModel(FGM(theta=-1.0), Uniform(), Uniform())
        psi = m.psi()
        assert psi.monotonicity == DECREASING
        # psi(x) = 1/2 - theta(1-2x)/6; at x=0 with theta=-1: 2/3.
        assert float(psi(0.0)) == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_regression_evaluation_clamps_to_domain(self):
        m = BivariateModel(FGM(theta=1.0), Uniform(), Uniform())
        psi = m.psi()
        assert float(psi(-5.0)) == pytest.approx(float(psi(0.0)), abs=1e-12)
        assert float(psi(7.0)) == pytest.approx(float(psi(1.0)), abs=1e-12)

    def test_tabulation_validation(self):
        with pytest.raises(DomainError):
            RegressionFunction([0.0, 1.0], [1.0, np.nan])
        with pytest.raises(DomainError):
            RegressionFunction([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def _same_bits(a, b):
    """Same shape and values, NaN where NaN, and the same sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a) & ~np.isnan(a), np.signbit(b) & ~np.isnan(b))
    )


_IRREGULAR = np.cumsum(philox_stream(3, 0).exponential(size=60))

# (grid, values): grids of every spacing and size, values with plateaus
# (zero secants), sign changes and -0.0.
PCHIP_TABLES = {
    "chebyshev-513": (chebyshev_nodes(-4.0, 4.0), np.tanh(chebyshev_nodes(-4.0, 4.0))),
    "linspace-sign-changes": (np.linspace(0.0, 10.0, 40), np.sin(np.linspace(0.0, 10.0, 40))),
    "irregular-plateaus": (_IRREGULAR, np.round(np.sin(_IRREGULAR) * 2.0)),
    "irregular-random": (_IRREGULAR, philox_stream(4, 0).standard_normal(60)),
    "2-nodes": (np.array([-1.0, 2.0]), np.array([3.0, -0.5])),
    "3-nodes": (np.array([0.0, 0.25, 2.0]), np.array([1.0, 1.5, 4.0])),
    # Every coefficient of the first cubic is negative, so only the sum
    # from +0.0 that scipy starts with makes the value at 0 read +0.0.
    "negative-zero-start": (np.array([0.0, 0.5, 1.5, 2.0]), np.array([-0.0, -1.0, -4.0, -6.0])),
    # Moler's end rule overridden: the three-point slope at 0 has the wrong
    # sign (set to 0), or the secants change sign and it exceeds 3 m0 (set
    # to 3 m0).
    "end-slope-zeroed": (np.arange(4.0), np.array([0.0, 1.0, 6.0, 7.0])),
    "end-slope-tripled": (np.arange(3.0), np.array([0.0, 1.0, -9.0])),
}


@pytest.mark.parametrize("table", sorted(PCHIP_TABLES))
def test_pchip_matches_scipy_bit_for_bit(table):
    grid, values = PCHIP_TABLES[table]
    f = RegressionFunction(grid, values)
    ref = PchipInterpolator(grid, values)
    lo, hi = grid[0], grid[-1]
    x = np.concatenate(
        [
            grid,
            np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf),
            np.linspace(lo, hi, 1001),
            philox_stream(5, 0).uniform(lo - 1.0, hi + 1.0, 1000),
            [lo - 1.0, hi + 1.0, -np.inf, np.inf, np.nan],
        ]
    )
    assert _same_bits(f(x), ref(np.clip(x, lo, hi)))
    assert _same_bits(f(x[:1000].reshape(40, 25)), ref(np.clip(x[:1000], lo, hi).reshape(40, 25)))
    for point in (grid[1], np.float64(lo - 1.0), np.array(hi)):
        assert _same_bits(f(point), ref(np.clip(point, lo, hi)))


def test_pchip_tables_reach_both_end_overrides():
    grid, values = PCHIP_TABLES["end-slope-zeroed"]
    assert PchipInterpolator(grid, values).derivative()(0.0) == 0.0
    grid, values = PCHIP_TABLES["end-slope-tripled"]
    assert PchipInterpolator(grid, values).derivative()(0.0) == 3.0


# Grids of the interval search: both tabulation grids, a regular one, gaps from 1e-12 to 1e3 at two magnitudes, and the fewest nodes.
SEARCH_GRIDS = {
    "chebyshev-513": chebyshev_nodes(-3.0, 5.0),
    "chebyshev-201": chebyshev_nodes(0.0, 1.0, 201),
    "linspace-201": np.linspace(-1.7, 2.3, 201),
    "irregular-gaps": np.cumsum([-5.0, 1e-12, 1e3, 1e-12, 1e-12, 0.5, 1e3, 1e-12, 3.0]),
    "2-nodes": np.array([-1.0, 2.0]),
    "3-nodes": np.array([0.0, 0.25, 2.0]),
}


@pytest.mark.parametrize("name", sorted(SEARCH_GRIDS))
def test_interval_search_matches_searchsorted(name):
    grid = SEARCH_GRIDS[name]
    f = RegressionFunction(grid, np.sin(grid))
    lo, hi = grid[0], grid[-1]
    keys = np.concatenate(
        [
            grid,
            np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf),
            philox_stream(6, 0).uniform(lo, hi, 2000),
            [lo, hi, lo - 1.0, hi + 1.0, -np.inf, np.inf, np.nan],
        ]
    )
    # Keys reach the search clipped to the domain, as __call__ clips them.
    x = np.clip(keys, lo, hi)
    expected = np.searchsorted(grid[1:-1], x, side="right")
    assert np.array_equal(f._interval(x), expected)
    assert np.array_equal(f._interval(x[:2000].reshape(40, 50)), expected[:2000].reshape(40, 50))
    for key in (x[1], np.float64(hi), np.nan):
        point = np.clip(np.asarray(key), lo, hi)
        assert f._interval(point) == np.searchsorted(grid[1:-1], point, side="right")


def test_interval_search_steps_on_tabulation_grids():
    # The Chebyshev grids put at most two breakpoints, the regular one at
    # most one, in a bucket, so a key takes at most that many steps.
    steps = {name: RegressionFunction(g, np.sin(g))._guide[2] for name, g in SEARCH_GRIDS.items()}
    assert steps["chebyshev-513"] <= 2
    assert steps["chebyshev-201"] <= 1
    assert steps["linspace-201"] <= 1


def test_lookup_state_is_small():
    # A 513-node table holds at most 64 KiB of guide table; an affine table
    # evaluates its closed form and holds none.
    grid = chebyshev_nodes(-4.0, 4.0)
    _, table, _ = RegressionFunction(grid, np.tanh(grid))._guide
    assert table.nbytes <= 64 * 1024
    assert GAUSS_MODEL.psi()._guide is None


# Every copula family against every pair of target and conditioning marginals.
GRID_COPULAS = [Independence(), Gaussian(rho=0.5), FGM(theta=0.5), Clayton(alpha=2.0)]
GRID_MARGINALS = [Uniform(), Exponential(), Normal()]
# k = E[X (2 F_X(X) - 1)], the FGM regression slope in 2 F(t) - 1.
FGM_SLOPE = {Uniform: 1.0 / 6.0, Exponential: 0.5, Normal: 1.0 / math.sqrt(math.pi)}
GRID_BUDGET_S = 1.0


def _w_space_reference(copula, target, conditioner, t):
    """scipy quad of the w-space integrand _regression tabulates at node t."""
    v = float(np.clip(conditioner.cdf(t), 1e-14, 1.0 - 1e-14))

    def integrand(w):
        u, u_sf = copula.cond_quantile_pair(np.array([v]), np.array([w]))
        if u[0] <= 0.5:
            return float(target._quantile(u)[0])
        return float(target._isf(u_sf)[0])

    value, _ = sci_integrate.quad(
        integrand, 1e-13, 1.0 - 1e-13, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    return value


class TestCopulaMarginalGrid:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("conditioner", GRID_MARGINALS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("target", GRID_MARGINALS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("copula", GRID_COPULAS, ids=lambda c: type(c).__name__)
    def test_phi_table(self, copula, target, conditioner):
        model = BivariateModel(copula, target, conditioner)
        start = time.perf_counter()
        phi = model.phi()
        assert time.perf_counter() - start < GRID_BUDGET_S

        f_t = conditioner.cdf(phi.grid)
        inside = (f_t >= 1e-9) & (f_t <= 1.0 - 1e-9)
        if isinstance(copula, Independence):
            expected = np.full_like(phi.grid, target.mean())
        elif isinstance(copula, Gaussian) and isinstance(target, Normal):
            expected = target.mean_ + target.sd * copula.rho * ndtri(f_t)
        elif isinstance(copula, FGM):
            expected = target.mean() + copula.theta * (2.0 * f_t - 1.0) * FGM_SLOPE[type(target)]
        else:
            nodes = np.linspace(0, GRID_NODES - 1, 11).astype(int)[1:-1]
            for i in nodes:
                ref = _w_space_reference(copula, target, conditioner, phi.grid[i])
                assert phi.values[i] == pytest.approx(ref, abs=1e-8)
            return
        assert np.max(np.abs(phi.values - expected)[inside]) <= 1e-8


class TestKernelRegress:
    def test_deterministic_linear_relation(self):
        rng = philox_stream(41, 0)
        x = rng.standard_normal(20_000)
        y = 0.5 * x
        assert kernel_regress(x, y, 1.0) == pytest.approx(0.5, abs=0.02)

    def test_independent_coordinates_flat(self):
        rng = philox_stream(42, 0)
        x = rng.standard_normal(100_000)
        y = rng.standard_normal(100_000)
        assert kernel_regress(x, y, 0.3) == pytest.approx(float(y.mean()), abs=0.02)

    def test_bivariate_normal_matches_affine_regression(self):
        rng = philox_stream(43, 0)
        x = rng.standard_normal(100_000)
        y = 0.5 * x + math.sqrt(1 - 0.25) * rng.standard_normal(100_000)
        assert kernel_regress(x, y, 1.0) == pytest.approx(0.5, abs=0.03)

    def test_extrapolation_rejected(self):
        rng = philox_stream(44, 0)
        x = rng.standard_normal(1000)
        with pytest.raises(ExtrapolationError):
            kernel_regress(x, x, float(np.max(x)) + 1.0)
        with pytest.raises(ExtrapolationError):
            kernel_regress(x, x, np.nan)

    def test_min_sample_size(self):
        with pytest.raises(DomainError):
            kernel_regress(np.arange(10.0), np.arange(10.0), 5.0)

    def test_matches_pointwise_formula(self):
        # The Nadaraya-Watson mean with the band and bandwidth of the sample.
        rng = philox_stream(45, 0)
        x = rng.standard_normal(5000)
        y = x**2 + rng.standard_normal(5000)
        lo, hi = np.percentile(x, [5.0, 95.0])
        h = 1.06 * float(np.std(x, ddof=1)) * x.size ** (-0.2)
        for x0 in np.linspace(lo, hi, 17):
            w = np.exp(-0.5 * ((x - x0) / h) ** 2)
            assert kernel_regress(x, y, x0) == float(np.sum(w * y) / np.sum(w))


class TestGaussianVector:
    def test_identity_covariance_conditional_is_mean(self):
        v = GaussianVector([1.0, 2.0, 3.0], np.eye(3))
        intercept, coefs = v.conditional_coefficients(0, (1, 2))
        assert intercept + coefs @ [9.0, -9.0] == pytest.approx(1.0)

    def test_bivariate_standard_rho05(self):
        v = equicorrelated_vector(2, 0.5)
        intercept, coefs = v.conditional_coefficients(0, (1,))
        assert intercept + coefs @ [1.0] == pytest.approx(0.5, abs=1e-14)

    def test_trivariate_equicorrelated_weights(self):
        # Hand oracle: normal equations give weight rho/(1+rho) = 1/3 each.
        v = equicorrelated_vector(3, 0.5)
        x2, x3 = 0.7, -0.2
        expect = (x2 + x3) / 3.0
        intercept, coefs = v.conditional_coefficients(0, (1, 2))
        assert intercept + coefs @ [x2, x3] == pytest.approx(expect, abs=1e-12)

    def test_residual_variance_closed_forms(self):
        v = equicorrelated_vector(3, 0.5)
        assert v.residual_variance(0, (1,)) == pytest.approx(0.75, abs=1e-12)
        assert v.residual_variance(0, (1, 2)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_not_positive_definite_rejected(self):
        with pytest.raises(ConstructionError):
            GaussianVector([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ConstructionError):
            GaussianVector([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_target_in_given_rejected(self):
        v = equicorrelated_vector(3, 0.3)
        with pytest.raises(DomainError):
            v.conditional_coefficients(0, (0, 1))

    def test_empty_given_rejected(self):
        v = equicorrelated_vector(3, 0.3)
        with pytest.raises(DomainError):
            v.conditional_coefficients(0, ())

    def test_ar_vector_structure(self):
        v = ar_vector(4, 0.6)
        assert v.cov[0, 3] == pytest.approx(0.6**3)
        assert v.cov[2, 2] == 1.0

    def test_residual_orthogonality_monte_carlo(self):
        # Residual X - E(X|Y,Z) is uncorrelated with each conditioner.
        v = equicorrelated_vector(3, 0.5)
        mat = v.sample(philox_stream(48, 0), 100_000)
        intercept, coefs = v.conditional_coefficients(0, (1, 2))
        resid = mat[:, 0] - (intercept + mat[:, 1:] @ coefs)
        n = mat.shape[0]
        for j in (1, 2):
            prod = resid * (mat[:, j] - mat[:, j].mean())
            se = float(np.std(prod, ddof=1)) / math.sqrt(n)
            assert abs(float(prod.mean())) <= 4 * se


class TestModuleInvariants:
    def test_tower_property(self):
        # Monte Carlo mean of phi(Y) equals E X within 4 standard errors.
        m = BivariateModel(FGM(theta=1.0), Uniform(2, 4), Exponential(1.0))
        phi = m.phi()
        _, y = m.sample(philox_stream(49, 0), 100_000)
        z1 = phi(y)
        se = float(np.std(z1, ddof=1)) / math.sqrt(z1.size)
        assert abs(float(z1.mean()) - 3.0) <= 4 * se

    def test_least_squares_optimality(self):
        # E(Y - psi(X))^2 = 1 - rho^2 = 0.75 within 4 SE, and every
        # competitor g loses by at least 3 SE of the paired difference.
        psi = GAUSS_MODEL.psi()
        x, y = GAUSS_MODEL.sample(philox_stream(50, 0), 100_000)
        best_sq = (y - psi(x)) ** 2
        n = x.size
        se = float(np.std(best_sq, ddof=1)) / math.sqrt(n)
        assert abs(float(best_sq.mean()) - 0.75) <= 4 * se
        for g in (lambda t: t, lambda t: 0.4 * t, lambda t: 0.6 * t, lambda t: t**2):
            comp_sq = (y - g(x)) ** 2
            d = comp_sq - best_sq
            d_se = float(np.std(d, ddof=1)) / math.sqrt(n)
            assert float(d.mean()) > 3 * d_se

    def test_quantile_transform_consistency(self):
        phi = GAUSS_MODEL.phi()
        _, y = GAUSS_MODEL.sample(philox_stream(51, 0), 100_000)
        z1 = np.asarray(phi(y))
        for t in np.arange(0.1, 0.95, 0.1):
            # phi increases, so the t-quantile of Z1 = phi(Y) is phi at Y's.
            q = float(phi(Normal().quantile(t)))
            frac = float(np.mean(z1 <= q))
            assert abs(frac - t) <= 0.01
