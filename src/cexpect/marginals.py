"""Univariate distribution primitives: uniform, exponential, normal.

Each family exposes cdf/sf/pdf/quantile/mean/variance, the support, and
maps onto its values: the quantile of a uniform, by which `sample` and
every copula but the Gaussian draw (inverse transform); `_of_tails(p, q)`,
each half from its own tail; and `_of_score`, the value at a normal score,
by which Gaussian-copula draws and dependent brokers stay in score space.
By default `_of_score(z)` reads one tail, s = ndtr(-|z|): the quantile at s
for z <= 0 and the inverse survival at s above, exact in both tails; a
normal maps z affinely.  Infinite supports are truncated at the
1e-12 and 1 - 1e-12 quantiles for quadrature (`truncated_support()`).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import quadrature
from .config import Fields
from .errors import DomainError

TAIL_EPS = 1e-12


@dataclass(frozen=True)
class Marginal:
    """Base class; subclasses are immutable and safe to share across threads."""

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Survival function 1 - cdf(x), computed without cancellation."""
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        """Inverse cdf; p must lie strictly inside (0, 1)."""
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise DomainError(f"quantile probability must be in (0, 1), got {p}")
        return self._quantile(p)

    def _quantile(self, p):
        raise NotImplementedError

    def _isf(self, s):
        """Inverse survival function, the quantile at 1 - s, exact in the far
        right tail where 1 - s rounds."""
        raise NotImplementedError

    def _of_tails(self, p, q):
        """The value of cdf p and survival q = 1 - p: the quantile at p below
        the median, above it the inverse survival at q, exact as p rounds."""
        tiny = np.finfo(float).tiny
        lower = self._quantile(np.clip(p, tiny, 0.5))
        upper = self._isf(np.clip(q, tiny, 0.5))
        return np.where(p <= 0.5, lower, upper)

    def _of_score(self, z):
        """The value at standard normal score z, exact in both tails: the
        quantile at ndtr(z) for z <= 0, else the inverse survival at
        ndtr(-z), both read from s = ndtr(-|z|)."""
        s = np.maximum(ndtr(-np.abs(z)), np.finfo(float).tiny)
        return np.where(z <= 0, self._quantile(s), self._isf(s))

    # No experiment reads mean or variance; tests and the benchmark use them
    # as oracles.
    def mean(self):
        raise NotImplementedError

    def variance(self):
        raise NotImplementedError

    def support(self):
        """(left, right) endpoints, possibly infinite."""
        raise NotImplementedError

    def truncated_support(self):
        """Support clipped to the [1e-12, 1 - 1e-12] quantile range."""
        lo, hi = self.support()
        if not math.isfinite(lo):
            lo = float(self.quantile(TAIL_EPS))
        if not math.isfinite(hi):
            hi = float(self.quantile(1.0 - TAIL_EPS))
        return lo, hi

    def sample(self, rng, n):
        """n inverse-transform draws; deterministic given the rng state."""
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        u = rng.random(n)
        return self._quantile(u)

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(Marginal):
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self):
        if not (self.lower < self.upper):
            raise DomainError(
                f"uniform requires lower < upper, got [{self.lower}, {self.upper}]", "upper"
            )

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lower) / (self.upper - self.lower), 0.0, 1.0)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((self.upper - x) / (self.upper - self.lower), 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lower) & (x <= self.upper)
        return np.where(inside, 1.0 / (self.upper - self.lower), 0.0)

    def _quantile(self, p):
        return self.lower + p * (self.upper - self.lower)

    def _isf(self, s):
        return self.upper - (self.upper - self.lower) * s

    def mean(self):
        return 0.5 * (self.lower + self.upper)

    def variance(self):
        return (self.upper - self.lower) ** 2 / 12.0

    def support(self):
        return self.lower, self.upper

    def to_config(self):
        return {"family": "uniform", "lower": self.lower, "upper": self.upper}


@dataclass(frozen=True)
class Exponential(Marginal):
    rate: float = 1.0

    def __post_init__(self):
        if not (self.rate > 0.0):
            raise DomainError(f"exponential rate must be > 0, got {self.rate}", "rate")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, np.exp(-self.rate * np.maximum(x, 0.0)), 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def _quantile(self, p):
        return -np.log1p(-p) / self.rate

    def _isf(self, s):
        with np.errstate(divide="ignore"):  # s = 0 is the upper end, +inf
            return -np.log(s) / self.rate

    def mean(self):
        return 1.0 / self.rate

    def variance(self):
        return 1.0 / self.rate**2

    def support(self):
        return 0.0, math.inf

    def to_config(self):
        return {"family": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class Normal(Marginal):
    mean_: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not (self.sd > 0.0):
            raise DomainError(f"normal sd must be > 0, got {self.sd}", "sd")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return ndtr((x - self.mean_) / self.sd)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return ndtr(-(x - self.mean_) / self.sd)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean_) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def _quantile(self, p):
        return self.mean_ + self.sd * ndtri(p)

    def _isf(self, s):
        return self.mean_ - self.sd * ndtri(s)

    def _of_score(self, z):
        # Exact, where the quantile at ndtr(z) loses z's tail digits.
        return self.mean_ + self.sd * z

    def mean(self):
        return self.mean_

    def variance(self):
        return self.sd**2

    def support(self):
        return -math.inf, math.inf

    def to_config(self):
        return {"family": "normal", "mean": self.mean_, "sd": self.sd}


@dataclass(frozen=True)
class MaxOfIid(Marginal):
    """Distribution of the max of `count` iid draws from `base`.

    Used to model a pool of outsiders as one marginal: F(y) = F0(y)^count.
    """

    base: Marginal = None
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise DomainError(f"MaxOfIid count must be >= 1, got {self.count}", "count")
        if not isinstance(self.base, Marginal):
            raise DomainError("MaxOfIid requires a base marginal", "base")

    def cdf(self, x):
        return self.base.cdf(x) ** self.count

    def sf(self, x):
        c = self.base.cdf(x)
        # 1 - c^m without cancellation for c near 1.
        return -np.expm1(self.count * np.log(np.maximum(c, np.finfo(float).tiny)))

    def pdf(self, x):
        return self.count * self.base.cdf(x) ** (self.count - 1) * self.base.pdf(x)

    def _quantile(self, p):
        return self.base._quantile(p ** (1.0 / self.count))

    def _isf(self, s):
        # F = F0^count, so sf0 = 1 - (1 - s)^(1/count), which is 1 at s = 1.
        with np.errstate(divide="ignore"):
            return self.base._isf(-np.expm1(np.log1p(-s) / self.count))

    def mean(self):
        lo, hi = self.truncated_support()
        return float(lo + quadrature.integrate(lambda w: 1.0 - self.cdf(w), lo, hi))

    def variance(self):
        lo, hi = self.truncated_support()
        m = self.mean()
        return float(quadrature.integrate(lambda w: (w - m) ** 2 * self.pdf(w), lo, hi))

    def support(self):
        return self.base.support()

    def to_config(self):
        return {"family": "max-of-iid", "base": self.base.to_config(), "count": self.count}


def marginal_from_config(cfg):
    """Build a marginal from its JSON-config dict representation; raises
    ConfigError naming every field at fault."""
    f = Fields(cfg, "a marginal config object")
    family = f.choice("family", ("uniform", "exponential", "normal", "max-of-iid"))
    m = None
    if family == "uniform":
        m = f.build(Uniform, lower=f.number("lower"), upper=f.number("upper"))
    elif family == "exponential":
        m = f.build(Exponential, rate=f.number("rate"))
    elif family == "normal":
        m = f.build(Normal, mean_=f.number("mean"), sd=f.number("sd"))
    elif family == "max-of-iid":
        base = f.model("base", marginal_from_config)
        m = f.build(MaxOfIid, base=base, count=f.integer("count"))
    return f.close(m)
