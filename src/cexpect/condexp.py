"""Conditional-expectation engines.

* BivariateModel couples two marginals through a copula; its regression
  functions x -> E(Y|X=x) and y -> E(X|Y=y) are tabulated on 513
  Chebyshev-spaced nodes by one batched tanh-sinh quadrature of the
  conditional mean integral, and evaluated through monotone cubic (PCHIP)
  interpolation.  The PCHIP is in-house: Fritsch-Butland node slopes
  (SIAM J. Sci. Stat. Comput. 5(2), 1984) with Moler's one-sided end rule
  (Numerical Computing with MATLAB, sec. 3.6, pchiptx.m), built and summed
  step for step as scipy's PchipInterpolator, whose bits it matches, so
  importing cexpect loads neither scipy.interpolate nor scipy.optimize.
  Each key finds its interval by the indexed search of Chen & Asau (AIIE
  Trans. 6(2), 1974; Devroye 1986, sec. III.2.4): a guide table over at most
  GUIDE_BUCKETS equal buckets of the domain, built once per table, gives an
  upper bound on the interval index, and a fixed number of backward steps,
  the most breakpoints any bucket holds, lands on the index np.searchsorted
  would give.  Keys and breakpoints go into buckets by one float
  expression, which is monotone in its argument, so a breakpoint in a
  bucket above a key's is above the key: the bound is never low, and
  backward steps alone are exact.  Keys are evaluated EVAL_BLOCK at a time
  into one output array, through scratch arrays of one block that every
  block reuses, so a call allocates its output and O(EVAL_BLOCK) more,
  whatever the number of keys.
  The Gaussian copula with normal marginals short-circuits to the exact
  affine form, and its draws are exact too: the copula's normal scores
  map onto each margin through its `_of_score`, affinely for normal
  margins (the score path of `BivariateModel.blocks`).
* GaussianVector with closed-form conditional means via the normal
  equations, for any dimension >= 2.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import quadrature
from .config import Fields
from .copulas import Copula, Gaussian, copula_from_config
from .errors import ConstructionError, DomainError, ExtrapolationError
from .marginals import Marginal, Normal, marginal_from_config
from .rng import EVAL_BLOCK, check_row_width, join_rows, row_slices

INCREASING = "increasing"
DECREASING = "decreasing"
NON_MONOTONE = "non-monotone"

GRID_NODES = 513
MONOTONE_TOL = 1e-9
# Guide-table buckets at most: 32 KiB of uint16 for a 513-node table, and
# at most two breakpoints a bucket on its Chebyshev grid.
GUIDE_BUCKETS = 16384


def chebyshev_nodes(lo, hi, n=GRID_NODES):
    """n Chebyshev-spaced points on [lo, hi], ascending, endpoints included."""
    k = np.arange(n, dtype=float)
    x = np.cos(math.pi * k / (n - 1))[::-1]
    return lo + (hi - lo) * 0.5 * (x + 1.0)


def fill_massless(values, has_mass):
    """Table values where each node without mass copies the last node with
    mass before it, or the first one where none is before it."""
    source = np.where(has_mass, np.arange(values.size), np.argmax(has_mass))
    return values[np.maximum.accumulate(source)]


def _pchip_end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point end slope with its two shape-preserving
    overrides; h0, m0 are the end interval's width and secant slope."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h, m):
    """PCHIP node slopes from interval widths h and secant slopes m: the
    weighted harmonic mean of the two secants inside (zero where they change
    sign or either is zero), Moler's rule at the ends, linear on 2 nodes."""
    if m.size == 1:
        return np.concatenate([m, m])
    d = np.zeros(m.size + 1)
    mean = np.sign(m[:-1]) * np.sign(m[1:]) > 0
    w1 = (2 * h[1:] + h[:-1])[mean]
    w2 = (h[1:] + 2 * h[:-1])[mean]
    d[1:-1][mean] = 1.0 / ((w1 / m[:-1][mean] + w2 / m[1:][mean]) / (w1 + w2))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _bucket(x, lo, scale, top, out=None):
    """floor((x - lo) * scale) clipped to [0, top], for x >= lo, as floats
    whose integer part is the bucket (into `out` when given); NaN goes to
    top.  One expression for keys and breakpoints, monotone in x."""
    t = np.subtract(x, lo, out=out)
    t *= scale
    np.fmin(t, top, out=t)
    return t


def _guide_table(grid):
    """(scale, table, steps) of the indexed interval search on `grid`.

    table[q] is the number of breakpoints grid[1:-1] in buckets 0..q, so it
    is never below the interval index of a key in bucket q, and never above
    it by more than the breakpoints in bucket q; steps is the most of those
    in any bucket.  The bucket count follows the smallest gap, so that a
    regular or Chebyshev grid puts one or two breakpoints in a bucket.
    """
    span = grid[-1] - grid[0]
    buckets = math.ceil(min(GUIDE_BUCKETS, span / np.min(np.diff(grid))))
    scale = buckets / span
    buckets_of = _bucket(grid[1:-1], grid[0], scale, buckets - 1).astype(np.intp)
    counts = np.bincount(buckets_of, minlength=buckets)
    table = np.cumsum(counts).astype(np.min_scalar_type(grid.size))
    return scale, table, int(counts.max())


class _Scratch(NamedTuple):
    """Scratch arrays of one block of keys, shaped alike."""

    keys: np.ndarray  # the clipped keys, then their offsets from grid[k]
    index: np.ndarray  # interval indices k, intp
    guide: np.ndarray  # guide-table entries, in the table's narrow dtype
    below: np.ndarray  # key < grid[k], bool
    term: np.ndarray  # float temporaries
    power: np.ndarray  # s s, then s s s

    @classmethod
    def of(cls, shape, guide_dtype):
        return cls(
            np.empty(shape),
            np.empty(shape, np.intp),
            np.empty(shape, guide_dtype),
            np.empty(shape, bool),
            np.empty(shape),
            np.empty(shape),
        )

    def head(self, n):
        """The first n entries of each 1-D scratch array."""
        return _Scratch(*(a[:n] for a in self))


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
        # The cubic on [grid[k], grid[k+1]] is c0 + c1 s + c2 s^2 + c3 s^3 in
        # s = x - grid[k], with the coefficients of a cubic Hermite spline.
        h = np.diff(grid)
        secant = np.diff(values) / h
        d = _pchip_slopes(h, secant)
        t = (d[:-1] + d[1:] - 2 * secant) / h
        # + 0.0 turns -0.0 into 0.0, as summing from a zero accumulator does.
        self._c0 = values[:-1] + 0.0
        self._c1 = d[:-1]
        self._c2 = (secant - d[:-1]) / h - t
        self._c3 = t / h
        self._guide = _guide_table(grid) if affine is None else None

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

    def _interval(self, x, work=None):
        """The interval k with grid[k] <= x < grid[k+1] of each key x in the
        domain, as np.searchsorted(grid[1:-1], x, side="right") finds it:
        the last interval also takes x = grid[-1], and NaN.  k is
        work.index, in scratch arrays shaped like x (made when not given)."""
        # The guide table bounds k from above, since monotone bucketing puts
        # no breakpoint <= x in a bucket above x's; each step moves k down
        # while grid[k] > x, and stops at grid[0] <= x.  NaN, which buckets
        # to the top, compares false and stays in the last interval.  Every
        # index is in range, so np.take needs no bounds check ("clip").
        scale, table, steps = self._guide
        if work is None:
            work = _Scratch.of(x.shape, table.dtype)
        k = work.index
        bucket = _bucket(x, self.domain[0], scale, table.size - 1, out=work.term)
        np.copyto(k, bucket, casting="unsafe")
        np.take(table, k, out=work.guide, mode="clip")
        np.copyto(k, work.guide)
        for _ in range(steps):
            np.take(self.grid, k, out=work.term, mode="clip")
            k -= np.less(x, work.term, out=work.below)
        return k

    def _evaluate(self, x, out, work):
        """The interpolant at the 1-D keys x, into out, on scratch arrays
        shaped like x."""
        lo, hi = self.domain
        s = np.clip(x, lo, hi, out=work.keys)
        k = self._interval(s, work)
        term, power = work.term, work.power

        def at_k(values, into=term):
            return np.take(values, k, out=into, mode="clip")

        s -= at_k(self.grid)
        # c0 + c1 s + c2 (s s) + c3 (s s s), summed in this order, not by
        # Horner's rule, to keep scipy's bits.
        at_k(self._c0, out)
        out += np.multiply(at_k(self._c1), s, out=term)
        np.multiply(s, s, out=power)
        out += np.multiply(at_k(self._c2), power, out=term)
        power *= s
        out += np.multiply(at_k(self._c3), power, out=term)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.affine is not None:
            intercept, slope = self.affine
            out = np.multiply(x, slope)
            out += intercept
            return out
        out = np.empty(x.shape)
        # A view of the keys where their layout allows, else one copy.
        keys, values = x.reshape(-1), out.reshape(-1)
        work = _Scratch.of(min(keys.size, EVAL_BLOCK), self._guide[1].dtype)
        for start in range(0, keys.size, EVAL_BLOCK):
            stop = min(start + EVAL_BLOCK, keys.size)
            self._evaluate(keys[start:stop], values[start:stop], work.head(stop - start))
        return out if out.ndim else out[()]


@dataclass(frozen=True)
class BivariateModel:
    """A copula plus two marginals; owns both regression functions."""

    copula: Copula
    marginal_x: Marginal
    marginal_y: Marginal

    def sample(self, rng, n):
        """n joint draws via copula sampling + marginal quantiles: the blocks
        of `blocks`, joined."""
        return join_rows(((x, y) for _, x, y in self.blocks(rng, n)), n)

    def blocks(self, rng, n):
        """An iterator of (rows, x, y): n joint draws in the row blocks of
        copula.blocks, each pair mapped onto the margins by
        copula.marginal_blocks.  Most copulas' uniforms go through the
        marginal quantiles; a Gaussian copula's normal scores go through
        each margin's `_of_score`, so normal margins never leave score
        space."""
        return self.copula.marginal_blocks(rng, n, self.marginal_x, self.marginal_y)

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
    w in (0, 1), read from both tails of u_w by `target._of_tails`.  This
    importance form has no density spikes however extreme the conditioning
    value, which direct x-space integration cannot avoid for
    lower-tail-dependent families.  All supported copulas are
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
        return target._of_tails(*copula.cond_quantile_pair(v[rows, None], w))

    values = quadrature.tabulate(
        cond_mean_integrand, np.full_like(grid, w_cut), np.full_like(grid, 1.0 - w_cut)
    )
    return RegressionFunction(grid, values)


def kernel_regress(x, y, x0):
    """Nadaraya-Watson estimate of E(Y | X = x0) with a Gaussian kernel.

    Bandwidth is Silverman's rule h = 1.06 * std(x) * n^(-1/5).  x0 must lie
    within the [5th, 95th] percentile band of x.
    """
    # No experiment calls this; it stays because the benchmark tracer's
    # ENTRY_POINTS names it, and tests/test_entry_points.py requires every
    # entry point to resolve.
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x0 = float(x0)
    if x.size < 50:
        raise DomainError(f"kernel regression needs >= 50 points, got {x.size}")
    lo, hi = np.percentile(x, [5.0, 95.0])
    if not lo <= x0 <= hi:
        raise ExtrapolationError(
            f"x0 = {x0} outside the [5th, 95th] percentile band [{lo:.6g}, {hi:.6g}]"
        )
    h = 1.06 * float(np.std(x, ddof=1)) * x.size ** (-0.2)
    w = np.exp(-0.5 * ((x - x0) / h) ** 2)
    return float(np.sum(w * y) / np.sum(w))


# OpenBLAS keeps a gemm on the calling thread while m * n * k <= 65536 *
# GEMM_MULTITHREAD_THRESHOLD (4) = GEMM_CELLS; a larger one may run on its
# own threads, which compete with the chunk pool's workers.  A block of
# rows x d draws times the d x d Cholesky factor stays within it at
# rows = GEMM_CELLS // d**2: 16 rows at d = rng.MAX_ROW_WIDTH, the widest
# vector drawn, a corollary chain's or a dependent-broker market's.
GEMM_CELLS = 2**18


def gemm_rows(d):
    """Rows of a GaussianVector block of dimension d: its product with the
    Cholesky factor stays on the calling thread."""
    return max(1, GEMM_CELLS // (d * d))


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
        """n draws mean + L z, one per row, from n rows of standard normals z:
        the blocks of `blocks`, joined into one (n, dim) array."""
        return join_rows(((x,) for _, x in self.blocks(rng, n)), n)[0]

    def blocks(self, rng, n):
        """Yield (rows, x): n draws mean + L z in consecutive row blocks of
        gemm_rows(dim) rows, the last one ragged, x the draws of the slice
        `rows` of range(n).

        Each block draws its rows' normals z, which fill rows in the order of
        one (n, dim) draw, and takes one product z @ L.T small enough for
        OpenBLAS to keep on the calling thread (see the rng module
        docstring).
        """
        chol_t = self._chol.T
        for rows in row_slices(n, gemm_rows(self.dim)):
            x = rng.standard_normal((rows.stop - rows.start, self.dim)) @ chol_t
            x += self.mean
            yield rows, x
            del x

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

    def residual_variance(self, target, given):
        """Var(X_target | X_given): the Schur complement entry."""
        given = tuple(given)
        gg = self.cov[np.ix_(given, given)]
        tg = self.cov[target, list(given)]
        return float(self.cov[target, target] - tg @ np.linalg.solve(gg, tg))


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
