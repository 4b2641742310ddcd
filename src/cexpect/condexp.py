"""Conditional-expectation engines.

* BivariateModel couples two marginals through a copula; its regression
  functions x -> E(Y|X=x) and y -> E(X|Y=y) are tabulated on 513
  Chebyshev-spaced nodes by one batched tanh-sinh quadrature of the
  conditional mean integral, and evaluated through monotone cubic (PCHIP)
  interpolation.  The Gaussian copula with normal marginals short-circuits
  to the exact affine form.
* Generalized inverses of monotone regression functions, with the endpoint
  conventions for out-of-range arguments.
* Empirical regression estimators: Nadaraya-Watson with a Gaussian kernel
  (Silverman bandwidth) and a k-nearest-neighbor estimator on a
  standardized two-dimensional conditioning plane.
* GaussianVector with closed-form conditional means via the normal
  equations, for any dimension >= 2.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from . import quadrature
from .config import Fields
from .copulas import Copula, Gaussian, copula_from_config
from .errors import (
    ConstructionError,
    DomainError,
    ExtrapolationError,
    UnsupportedModelError,
)
from .marginals import Marginal, Normal, marginal_from_config
from .rng import check_row_width

INCREASING = "increasing"
DECREASING = "decreasing"
NON_MONOTONE = "non-monotone"

GRID_NODES = 513
MONOTONE_TOL = 1e-9


def chebyshev_nodes(lo, hi, n=GRID_NODES):
    """n Chebyshev-spaced points on [lo, hi], ascending, endpoints included."""
    k = np.arange(n, dtype=float)
    x = np.cos(math.pi * k / (n - 1))[::-1]
    return lo + (hi - lo) * 0.5 * (x + 1.0)


class RegressionFunction:
    """Tabulated real -> real rule with a monotonicity flag.

    Evaluations clamp to the tabulation domain; `affine` carries the exact
    (intercept, slope) pair when a closed form is known, bypassing the
    interpolant.
    """

    def __init__(self, grid, values, affine=None):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise DomainError("regression tabulation needs matching 1-D grids")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("regression grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DomainError("regression values must be finite inside the domain")
        self.grid = grid
        self.values = values
        self.domain = (float(grid[0]), float(grid[-1]))
        self.affine = affine
        self.monotonicity = self._classify(values, affine)
        self._interp = PchipInterpolator(grid, values)

    @staticmethod
    def _classify(values, affine):
        if affine is not None:
            slope = affine[1]
            if slope > 0:
                return INCREASING
            if slope < 0:
                return DECREASING
            return NON_MONOTONE
        diffs = np.diff(values)
        span = float(values.max() - values.min())
        tol = MONOTONE_TOL * max(1.0, float(np.max(np.abs(values))))
        if span <= 1e3 * tol:
            return NON_MONOTONE
        if np.all(diffs >= -tol):
            return INCREASING
        if np.all(diffs <= tol):
            return DECREASING
        return NON_MONOTONE

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.affine is not None:
            return self.affine[0] + self.affine[1] * x
        lo, hi = self.domain
        return self._interp(np.clip(x, lo, hi))


def generalized_inverse(f: RegressionFunction, t):
    """inf{x : f(x) >= t} for increasing f, inf{x : f(x) <= t} for decreasing.

    Arguments beyond the range map to the domain endpoints (the +/-infinity
    conventions for unbounded supports).  Non-monotone rules are rejected.
    """
    if f.monotonicity == NON_MONOTONE:
        raise UnsupportedModelError(
            "generalized inverse needs a monotone regression function"
        )
    t = float(t)
    lo, hi = f.domain
    if f.affine is not None:
        x = (t - f.affine[0]) / f.affine[1]
        return float(min(max(x, lo), hi))
    v_lo = float(f(lo))
    v_hi = float(f(hi))
    if f.monotonicity == INCREASING:
        if t <= v_lo:
            return lo
        if t >= v_hi:
            return hi
    else:
        if t >= v_lo:
            return lo
        if t <= v_hi:
            return hi
    return float(brentq(lambda x: float(f(x)) - t, lo, hi, xtol=1e-13, rtol=1e-14))


@dataclass(frozen=True)
class BivariateModel:
    """A copula plus two marginals; owns both regression functions."""

    copula: Copula
    marginal_x: Marginal
    marginal_y: Marginal

    def sample(self, rng, n):
        """n joint draws via copula sampling + marginal quantiles."""
        u, v = self.copula.sample(rng, n)
        return self.marginal_x._quantile(u), self.marginal_y._quantile(v)

    def phi(self):
        """y -> E(X | Y = y) as a RegressionFunction over the Y support."""
        return _regression(self.copula, self.marginal_x, self.marginal_y)

    def psi(self):
        """x -> E(Y | X = x) as a RegressionFunction over the X support."""
        return _regression(self.copula, self.marginal_y, self.marginal_x)


def bivariate_from_config(cfg):
    """Build a BivariateModel from its JSON-config dict representation;
    raises ConfigError naming every field at fault."""
    f = Fields(cfg, "a bivariate model object")
    return f.close(
        BivariateModel(
            copula=f.model("copula", copula_from_config),
            marginal_x=f.model("marginal_x", marginal_from_config),
            marginal_y=f.model("marginal_y", marginal_from_config),
        )
    )


def _regression(copula, target: Marginal, conditioner: Marginal):
    """Tabulate t -> E(target | conditioner = t), all nodes in one batched
    tanh-sinh quadrature.

    The conditional mean integral int x f_{target|cond}(x|t) dx is computed
    in conditional-probability space: with u_w the w-quantile of the
    copula's conditional law given F_cond(t), the integrand is Q_target(u_w),
    w in (0, 1).  This importance form has no density spikes however extreme
    the conditioning value, which direct x-space integration cannot avoid
    for lower-tail-dependent families.  All supported copulas are
    exchangeable, so one conditional-quantile orientation serves both phi
    and psi.
    """
    if isinstance(copula, Gaussian) and isinstance(target, Normal) and isinstance(conditioner, Normal):
        slope = copula.rho * target.sd / conditioner.sd
        intercept = target.mean_ - slope * conditioner.mean_
        lo, hi = conditioner.truncated_support()
        grid = chebyshev_nodes(lo, hi)
        return RegressionFunction(grid, intercept + slope * grid, affine=(intercept, slope))

    c_lo, c_hi = conditioner.truncated_support()
    grid = chebyshev_nodes(c_lo, c_hi)
    v = np.clip(conditioner.cdf(grid), 1e-14, 1.0 - 1e-14)
    w_cut = 1e-13  # tail truncation; bias ~ |Q(tail)| * 1e-13, far below tol

    def cond_mean_integrand(rows, w):
        u, u_sf = copula.cond_quantile_pair(v[rows, None], w)
        # Each half from its own tail: above the median through 1 - u, which
        # keeps the digits u loses as it rounds towards 1.
        tiny = np.finfo(float).tiny
        lower = target._quantile(np.clip(u, tiny, 0.5))
        upper = target._isf(np.clip(u_sf, tiny, 0.5))
        return np.where(u <= 0.5, lower, upper)

    values = quadrature.tabulate(
        cond_mean_integrand, np.full_like(grid, w_cut), np.full_like(grid, 1.0 - w_cut)
    )
    return RegressionFunction(grid, values)


def predictor_quantile(model: BivariateModel, which, t, phi=None, psi=None):
    """Quantile of the predictor Z1 = E(X|Y) or Z2 = E(Y|X).

    For a strictly increasing regression function the predictor quantile is
    the regression function evaluated at the conditioning marginal quantile.
    Pass prebuilt phi/psi to avoid re-tabulation inside loops.
    """
    if not (0.0 < t < 1.0):
        raise DomainError(f"quantile level must be in (0, 1), got {t}")
    if which not in ("Z1", "Z2"):
        raise DomainError(f"which must be 'Z1' or 'Z2', got {which!r}")
    if which == "Z1":
        f = phi if phi is not None else model.phi()
        source = model.marginal_y
    else:
        f = psi if psi is not None else model.psi()
        source = model.marginal_x
    if f.monotonicity != INCREASING:
        raise UnsupportedModelError(
            "predictor quantile requires a strictly increasing regression function"
        )
    return float(f(source.quantile(t)))


def kernel_regress(x, y, x0):
    """Nadaraya-Watson estimate of E(Y | X = x0) with a Gaussian kernel.

    Bandwidth is Silverman's rule h = 1.06 * std(x) * n^(-1/5).  x0 must lie
    within the [5th, 95th] percentile band of x.
    """
    return float(kernel_regress_grid(x, y, np.array([float(x0)]))[0])


def kernel_regress_grid(x, y, grid):
    """kernel_regress at every point of `grid`, with the percentile band and
    the bandwidth computed once for the whole grid."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if x.size < 50:
        raise DomainError(f"kernel regression needs >= 50 points, got {x.size}")
    lo, hi = np.percentile(x, [5.0, 95.0])
    outside = ~((grid >= lo) & (grid <= hi))
    if np.any(outside):
        x0 = grid[outside][0]
        raise ExtrapolationError(
            f"x0 = {x0} outside the [5th, 95th] percentile band [{lo:.6g}, {hi:.6g}]"
        )
    h = 1.06 * float(np.std(x, ddof=1)) * x.size ** (-0.2)
    values = np.empty_like(grid)
    for k, x0 in enumerate(grid):
        w = np.exp(-0.5 * ((x - x0) / h) ** 2)
        values[k] = np.sum(w * y) / np.sum(w)
    return values


def knn_regress(targets, cond1, cond2, point):
    """k-NN estimate of E(target | cond = point) on a standardized plane.

    k = ceil(N^(2/3)) capped at N // 10; distances are Euclidean after each
    conditioning coordinate is standardized by its sample mean and sd.
    """
    targets = np.asarray(targets, dtype=float)
    c1 = np.asarray(cond1, dtype=float)
    c2 = np.asarray(cond2, dtype=float)
    n = targets.size
    if n < 1000:
        raise DomainError(f"knn regression needs >= 1000 points, got {n}")
    k = min(math.ceil(n ** (2.0 / 3.0)), n // 10)
    s1 = float(np.std(c1, ddof=1)) or 1.0
    s2 = float(np.std(c2, ddof=1)) or 1.0
    d2 = ((c1 - point[0]) / s1) ** 2 + ((c2 - point[1]) / s2) ** 2
    idx = np.argpartition(d2, k - 1)[:k]
    return float(np.mean(targets[idx]))


class GaussianVector:
    """Multivariate normal with symmetric positive-definite covariance."""

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        d = mean.size
        if mean.ndim != 1 or d < 2:
            raise ConstructionError(f"mean must be 1-D of length >= 2, got {mean.shape}", "mean")
        if cov.shape != (d, d):
            raise ConstructionError(f"covariance must be {d}x{d}, got {cov.shape}", "cov")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConstructionError("covariance must be symmetric", "cov")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ConstructionError("covariance must be positive definite", "cov") from exc
        self.mean = mean
        self.cov = cov
        self._chol = chol

    @property
    def dim(self):
        return self.mean.size

    def sample(self, rng, n):
        x = rng.standard_normal((n, self.dim)) @ self._chol.T
        x += self.mean
        return x

    def conditional_coefficients(self, target, given):
        """(intercept, coefs) with E(X_t | X_g = v) = intercept + coefs @ v."""
        given = tuple(given)
        if len(given) == 0:
            raise DomainError("conditioning index set must be nonempty")
        if target in given:
            raise DomainError(f"target index {target} must not be conditioned on")
        gg = self.cov[np.ix_(given, given)]
        tg = self.cov[target, list(given)]
        coefs = np.linalg.solve(gg, tg)
        intercept = self.mean[target] - float(coefs @ self.mean[list(given)])
        return intercept, coefs

    def conditional_mean(self, target, given, values):
        """E(X_target | X_given = values) via the normal equations."""
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise DomainError("conditioning values must be finite")
        intercept, coefs = self.conditional_coefficients(target, given)
        return intercept + float(coefs @ values)

    def residual_variance(self, target, given):
        """Var(X_target | X_given): the Schur complement entry."""
        given = tuple(given)
        gg = self.cov[np.ix_(given, given)]
        tg = self.cov[target, list(given)]
        return float(self.cov[target, target] - tg @ np.linalg.solve(gg, tg))


def gaussian_conditional(v: GaussianVector, target, given, values):
    """Functional form of GaussianVector.conditional_mean (spec operation)."""
    return v.conditional_mean(target, given, values)


def equicorrelated_vector(dim, rho):
    """Standard equicorrelated GaussianVector: unit variances, correlation rho."""
    check_row_width(dim, "dim")
    cov = np.full((dim, dim), rho, dtype=float)
    np.fill_diagonal(cov, 1.0)
    return GaussianVector(np.zeros(dim), cov)


def ar_vector(dim, r):
    """Standard Gaussian vector with AR(1)-style covariance r^|i-j|."""
    if dim < 2:
        raise ConstructionError(f"dimension must be >= 2, got {dim}", "dim")
    check_row_width(dim, "dim")
    idx = np.arange(dim)
    cov = float(r) ** np.abs(idx[:, None] - idx[None, :])
    return GaussianVector(np.zeros(dim), cov)
