"""Bivariate copulas, copula sampling, and the rank-based empirical copula.

Four families: independence, Gaussian, Farlie-Gumbel-Morgenstern, Clayton.
All are exchangeable (C(u,v) = C(v,u)).  Sampling uses the conditional
distribution method (draw u uniform, invert v from dC/du) except for the
Gaussian family, which maps a correlated normal pair through the normal cdf.

The Gaussian copula cdf is evaluated through Owen's T function, which is
deterministic and accurate to ~1e-15 (cross-checked in tests against a 2-D
quadrature of the bivariate normal density).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .config import Fields
from .errors import DomainError


def _bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for a standard bivariate normal pair, via Owen's T."""
    h, k = np.broadcast_arrays(np.asarray(h, float), np.asarray(k, float))
    r = math.sqrt(1.0 - rho * rho)
    # Guard the h==0 / k==0 divisions; owens_t(x, +/-huge) -> +/-arctan bound.
    tiny = 1e-300
    dh = np.where(np.abs(h) < tiny, tiny, h)
    dk = np.where(np.abs(k) < tiny, tiny, k)
    ah = (k - rho * h) / (dh * r)
    ak = (h - rho * k) / (dk * r)
    res = 0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, ah) - owens_t(k, ak)
    hk = h * k
    res = res - np.where((hk < 0) | ((hk == 0) & (h + k < 0)), 0.5, 0.0)
    both_zero = (h == 0) & (k == 0)
    if np.any(both_zero):
        res = np.where(both_zero, 0.25 + math.asin(rho) / (2.0 * math.pi), res)
    return np.clip(res, 0.0, 1.0)


@dataclass(frozen=True)
class Copula:
    """Base class. Values are immutable; evaluation methods are pure."""

    def cdf(self, u, v):
        """C(u, v), vectorized; boundary behavior C(u,0)=0, C(u,1)=u."""
        u, v = self._clip_pair(u, v)
        return self._cdf(u, v)

    def cond_cdf(self, u, v):
        """dC/du at (u, v): the conditional cdf of V given U = u."""
        u, v = self._clip_pair(u, v)
        return self._cond_cdf(u, v)

    def cond_quantile(self, u, w):
        """Inverse of cond_cdf in v; used by conditional-distribution sampling."""
        u, w = self._clip_pair(u, w)
        return self._cond_quantile(u, w)

    def cond_quantile_pair(self, u, w):
        """(v, 1 - v) for v = cond_quantile(u, w), with 1 - v computed
        without cancellation where the family has a closed form for it."""
        u, w = self._clip_pair(u, w)
        return self._cond_quantile_pair(u, w)

    def _cond_quantile_pair(self, u, w):
        v = self._cond_quantile(u, w)
        return v, 1.0 - v

    def sample(self, rng, n):
        """n dependent uniform pairs (u, v); deterministic given rng."""
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        u = rng.random(n)
        w = rng.random(n)
        return u, self._cond_quantile(u, w)

    @staticmethod
    def _clip_pair(u, v):
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
        return u, v

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Independence(Copula):
    def _cdf(self, u, v):
        return u * v

    def _cond_cdf(self, u, v):
        return v

    def _cond_quantile(self, u, w):
        return w

    def to_config(self):
        return {"family": "independence"}


@dataclass(frozen=True)
class Gaussian(Copula):
    rho: float = 0.0

    def __post_init__(self):
        if not (-1.0 < self.rho < 1.0):
            raise DomainError(f"gaussian copula requires -1 < rho < 1, got {self.rho}", "rho")

    def _cdf(self, u, v):
        if self.rho == 0.0:
            return u * v
        u, v = np.broadcast_arrays(u, v)
        out = np.zeros(u.shape)
        out = np.where(u >= 1.0, v, out)
        out = np.where(v >= 1.0, u, out)
        interior = (u > 0.0) & (v > 0.0) & (u < 1.0) & (v < 1.0)
        h = ndtri(np.where(interior, u, 0.5))
        k = ndtri(np.where(interior, v, 0.5))
        return np.where(interior, _bvn_cdf(h, k, self.rho), out)

    def _cond_cdf(self, u, v):
        x = ndtri(np.clip(u, 1e-300, 1 - 1e-16))
        y = ndtri(np.clip(v, 1e-300, 1 - 1e-16))
        r = self.rho
        out = ndtr((y - r * x) / math.sqrt(1.0 - r * r))
        return np.where(v >= 1.0, 1.0, np.where(v <= 0.0, 0.0, out))

    def _cond_quantile(self, u, w):
        return ndtr(self._cond_score(u, w))

    def _cond_quantile_pair(self, u, w):
        s = self._cond_score(u, w)
        return ndtr(s), ndtr(-s)

    def _cond_score(self, u, w):
        """Normal score of cond_quantile(u, w)."""
        x = ndtri(np.clip(u, 1e-300, 1 - 1e-16))
        z = ndtri(np.clip(w, 1e-300, 1 - 1e-16))
        return self.rho * x + math.sqrt(1.0 - self.rho**2) * z

    def sample(self, rng, n):
        """Correlated normal pair mapped through the normal cdf (exact)."""
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        y = self.rho * z1 + math.sqrt(1.0 - self.rho**2) * z2
        return ndtr(z1), ndtr(y)

    def to_config(self):
        return {"family": "gaussian", "rho": self.rho}


@dataclass(frozen=True)
class FGM(Copula):
    """Farlie-Gumbel-Morgenstern: C(u,v) = uv(1 + theta(1-u)(1-v))."""

    theta: float = 0.0

    def __post_init__(self):
        if not (-1.0 <= self.theta <= 1.0):
            raise DomainError(f"fgm copula requires -1 <= theta <= 1, got {self.theta}", "theta")

    def _cdf(self, u, v):
        return u * v * (1.0 + self.theta * (1.0 - u) * (1.0 - v))

    def _cond_cdf(self, u, v):
        return v * (1.0 + self.theta * (1.0 - 2.0 * u) * (1.0 - v))

    def _cond_quantile(self, u, w):
        # Smaller root of a*v^2 - (1+a)*v + w = 0 with a = theta*(1-2u), as
        # 2w / (b + disc): (b - disc) / (2a) loses its digits as a -> 0.
        a = self.theta * (1.0 - 2.0 * u)
        b = 1.0 + a
        disc = np.sqrt(np.maximum(b * b - 4.0 * a * w, 0.0))
        return np.clip(2.0 * w / np.maximum(b + disc, np.finfo(float).tiny), 0.0, 1.0)

    def _cond_quantile_pair(self, u, w):
        # 1 - v is the root of a*s^2 + (1-a)*s - (1-w) = 0 in [0, 1], taken in
        # the same form.
        a = self.theta * (1.0 - 2.0 * u)
        c = 1.0 - a
        disc = np.sqrt(np.maximum(c * c + 4.0 * a * (1.0 - w), 0.0))
        v_sf = 2.0 * (1.0 - w) / np.maximum(c + disc, np.finfo(float).tiny)
        return self._cond_quantile(u, w), np.clip(v_sf, 0.0, 1.0)

    def to_config(self):
        return {"family": "fgm", "theta": self.theta}


@dataclass(frozen=True)
class Clayton(Copula):
    """Clayton: C(u,v) = (u^-a + v^-a - 1)^(-1/a), a > 0."""

    alpha: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise DomainError(f"clayton copula requires alpha > 0, got {self.alpha}", "alpha")

    def _cdf(self, u, v):
        a = self.alpha
        zero = (u <= 0.0) | (v <= 0.0)
        uu = np.where(zero, 0.5, u)
        vv = np.where(zero, 0.5, v)
        out = (uu ** (-a) + vv ** (-a) - 1.0) ** (-1.0 / a)
        return np.where(zero, 0.0, out)

    @staticmethod
    def _log_t(a, u, v):
        """log(u^-a + v^-a - 1) without overflow (u, v in (0, 1])."""
        lu = -a * np.log(u)
        lv = -a * np.log(v)
        m = np.maximum(lu, lv)
        return m + np.log(np.exp(lu - m) + np.exp(lv - m) - np.exp(-m))

    def _cond_cdf(self, u, v):
        a = self.alpha
        uu = np.maximum(u, 1e-300)
        vv = np.maximum(v, 1e-300)
        log_out = -(a + 1.0) * np.log(uu) - (1.0 / a + 1.0) * self._log_t(a, uu, vv)
        out = np.exp(log_out)
        return np.where(v >= 1.0, 1.0, np.where(v <= 0.0, 0.0, out))

    def _cond_quantile(self, u, w):
        a = self.alpha
        uu = np.maximum(u, 1e-300)
        ww = np.maximum(w, 1e-300)
        with np.errstate(over="ignore"):
            v = (uu ** (-a) * (ww ** (-a / (a + 1.0)) - 1.0) + 1.0) ** (-1.0 / a)
        return np.clip(v, 0.0, 1.0)

    def to_config(self):
        return {"family": "clayton", "alpha": self.alpha}


def _stable_argsort(values):
    """argsort(values, kind="stable") of finite values, from the faster default sort.

    The default sort orders equal values arbitrarily; each run of equal
    values is then put in index order by sorting run_id * n + index.
    """
    order = np.argsort(values)
    ordered = values[order]
    tie = ordered[1:] == ordered[:-1]
    if tie.any():
        run_id = np.concatenate(([0], np.cumsum(~tie)))
        offset = run_id * values.size
        key = offset + order
        key.sort()
        order = key - offset
    return order


class EmpiricalCopula:
    """Rank-based empirical copula of a paired sample.

    Normalized ranks are rank/(N+1) with ties broken deterministically by
    original index (the ranks of a stable argsort), so evaluation is
    reproducible.  The integer ranks are kept (int32 while N < 2**31); the
    normalized ones are derived on demand.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size == 0 or y.size == 0:
            raise DomainError("empirical copula needs a nonempty sample")
        if x.shape != y.shape or x.ndim != 1:
            raise DomainError("empirical copula needs two 1-D arrays of equal length")
        bad_x = x.size - np.count_nonzero(np.isfinite(x))
        bad_y = y.size - np.count_nonzero(np.isfinite(y))
        if bad_x or bad_y:
            raise DomainError(
                f"empirical copula needs finite samples; got {bad_x} non-finite "
                f"x value(s) and {bad_y} non-finite y value(s) of {x.size}"
            )
        self.n = x.size
        self._rank_u = self._ranks(x)
        self._rank_v = self._ranks(y)

    @staticmethod
    def _ranks(values):
        """Ranks 1..N of a stable argsort, in the narrowest of int32/int64."""
        dtype = np.int32 if values.size < 2**31 else np.int64
        ranks = np.empty(values.size, dtype=dtype)
        ranks[_stable_argsort(values)] = np.arange(1, values.size + 1, dtype=dtype)
        return ranks

    @property
    def ranks_u(self):
        """Normalized ranks rank/(N+1) of the first coordinate."""
        return self._rank_u / (self.n + 1)

    @property
    def ranks_v(self):
        """Normalized ranks rank/(N+1) of the second coordinate."""
        return self._rank_v / (self.n + 1)

    def cdf(self, u, v):
        """Fraction of sample points whose normalized ranks are <= (u, v)."""
        return float(np.count_nonzero((self.ranks_u <= u) & (self.ranks_v <= v))) / self.n

    def _rank_bins(self, levels):
        """Bin of every rank 0..N: the index of the smallest level >= rank/(N+1),
        as np.searchsorted(levels, rank / (N+1), side="left") gives it.

        The bins rise with the rank, so the table is found from one count
        per level, #{r : r/(N+1) <= level}.  Each count is located exactly
        by testing the ranks near level * (N+1), whose floating-point error
        is far below one rank.
        """
        n = self.n
        guess = np.floor(levels * (n + 1)).astype(np.int64)
        near = guess[:, None] + np.arange(-2, 3)
        inside = (near >= 0) & (near <= n) & (near / (n + 1) <= levels[:, None])
        counts = np.clip(guess - 2, 0, n + 1) + np.count_nonzero(inside, axis=1)
        per_bin = np.diff(counts, prepend=0, append=n + 1)
        return np.repeat(np.arange(levels.size + 1, dtype=self._rank_u.dtype), per_bin)

    def lattice(self, grid):
        """Empirical copula on the grid x grid lattice over [0, 1]^2.

        O(N + grid^2): bin each point at the smallest lattice level covering
        its rank, through one bin table indexed by rank, then take the 2-D
        cumulative sum.
        """
        if grid < 2:
            raise DomainError(f"grid must be >= 2, got {grid}")
        levels = np.linspace(0.0, 1.0, grid)
        bins = self._rank_bins(levels)
        cell = bins[self._rank_u].astype(np.intp)
        cell *= grid + 1
        cell += bins[self._rank_v]
        counts = np.bincount(cell, minlength=(grid + 1) ** 2)
        counts = counts.reshape(grid + 1, grid + 1)
        return levels, counts[:grid, :grid].cumsum(axis=0).cumsum(axis=1) / self.n


def sup_distance(empirical, copula, grid):
    """Max |empirical - model| over a grid x grid lattice of [0, 1]^2."""
    # Only tests call this unswapped form; it stays because the benchmark
    # tracer's ENTRY_POINTS names it, and tests/test_entry_points.py requires
    # every entry point to resolve.
    return _lattice_distance(empirical, copula.cdf, grid)


def sup_distance_swapped(empirical, copula, grid):
    """Same as sup_distance but against the argument-swapped cdf C(v, u)."""
    return _lattice_distance(empirical, lambda u, v: copula.cdf(v, u), grid)


def _lattice_distance(empirical, cdf, grid):
    levels, emp = empirical.lattice(grid)
    uu, vv = np.meshgrid(levels, levels, indexing="ij")
    return float(np.max(np.abs(emp - cdf(uu, vv))))


def copula_from_config(cfg):
    """Build a copula from its JSON-config dict representation; raises
    ConfigError naming every field at fault."""
    f = Fields(cfg, "a copula config object")
    family = f.choice("family", ("independence", "gaussian", "fgm", "clayton"))
    c = None
    if family == "independence":
        c = Independence()
    elif family == "gaussian":
        c = f.build(Gaussian, rho=f.number("rho"))
    elif family == "fgm":
        c = f.build(FGM, theta=f.number("theta"))
    elif family == "clayton":
        c = f.build(Clayton, alpha=f.number("alpha"))
    return f.close(c)
