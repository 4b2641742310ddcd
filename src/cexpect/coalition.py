"""Broker-coalition market: traded price as a maximum of suggested prices.

n coalition brokers suggest prices X_1..X_n (iid, or Gaussian-copula
equicorrelated); an optional outsider contributes Y (one marginal, possibly
the exact max-distribution of m iid outsiders).  The traded price is the
rowwise maximum Z.  Individual predictors E(Z | X_i = x) come from exact
one-dimensional quadrature in the independent case (E[max(x, M)] =
x + int_x (1 - F_M)) and from tabulated Nadaraya-Watson regression on the
simulated market in the dependent case.  compare_strategies pits the
coalition-average predictor against each individual predictor on common
draws.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .condexp import (
    RegressionFunction,
    chebyshev_nodes,
    equicorrelated_vector,
    kernel_regress_grid,
)
from .config import Fields
from .errors import ConstructionError, DomainError
from .marginals import Marginal, MaxOfIid, marginal_from_config
from .quadrature import tabulate
from .reports import ExperimentResult, inequality_report
from .rng import check_row_width, simulate_chunked

TAG_MARKET = 5
PREDICTOR_NODES = 201


@dataclass(frozen=True)
class MarketConfig:
    """Coalition market scenario.

    rho_xx = None means iid brokers; otherwise broker prices share a
    Gaussian-copula equicorrelation (exactly equicorrelated Gaussians when
    the broker marginal is normal).  outsider = None disables the outsider
    (Z is then the coalition maximum alone).
    """

    n_brokers: int
    broker_marginal: Marginal
    rho_xx: float = None
    outsider: Marginal = None

    def __post_init__(self):
        k = self.n_brokers
        if k < 1:
            raise ConstructionError(f"n_brokers must be >= 1, got {k}", "n_brokers")
        check_row_width(k, "n_brokers")
        floor = -1.0 / (k - 1) if k > 1 else -1.0
        if self.rho_xx is not None and not (floor < self.rho_xx < 1.0):
            raise ConstructionError(
                f"equicorrelation rho_xx={self.rho_xx} must lie in ({floor:.6g}, 1) "
                f"for {k} brokers",
                "rho_xx",
            )

    @property
    def iid_brokers(self):
        return self.rho_xx is None or self.n_brokers == 1


def market_from_config(cfg):
    """Build a MarketConfig from the scenario-config dict schema; raises
    ConfigError naming every field at fault."""
    f = Fields(cfg, "a market config object")
    brokers = f.model("brokers", _brokers_from_config)
    outsider = f.model("outsider", _outsider_from_config, default=None)
    if brokers is None:
        return f.close(None)
    keys = {"n_brokers": "brokers.count", "rho_xx": "brokers.rho_xx"}
    return f.close(f.build(MarketConfig, keys=keys, outsider=outsider, **brokers))


def _brokers_from_config(cfg):
    f = Fields(cfg, "a brokers object")
    marginal = f.model("marginal", marginal_from_config)
    rho_xx = f.number("rho_xx", None)
    return f.close(dict(n_brokers=f.integer("count"), broker_marginal=marginal, rho_xx=rho_xx))


def _outsider_from_config(cfg):
    """The max of `count` iid outsiders (one by default); null for none."""
    if cfg is None:
        return None
    f = Fields(cfg, "an outsider object or null")
    base = f.model("marginal", marginal_from_config)
    count = f.integer("count", 1)
    return f.close(base if count == 1 else f.build(MaxOfIid, base=base, count=count))


def simulate_market(cfg: MarketConfig, n_samples, seed, pool=None):
    """n_samples simulated (X, Y, Z): broker prices, outsider price, rowwise
    max.

    Y is all -inf when the outsider is disabled.  Deterministic given
    seed; brokers draw before the outsider within each chunk.
    """
    k = cfg.n_brokers
    normals = None if cfg.iid_brokers else equicorrelated_vector(k, cfg.rho_xx)

    def worker(rng, count):
        if normals is None:
            u = rng.random((count, k))
        else:
            u = ndtr(normals.sample(rng, count))
        x = cfg.broker_marginal._quantile(np.clip(u, 1e-15, 1.0 - 1e-16))
        if cfg.outsider is not None:
            y = cfg.outsider.sample(rng, count)
        else:
            y = np.full(count, -np.inf)
        z_price = np.maximum(x.max(axis=1), y)
        return x, y, z_price

    return simulate_chunked(worker, n_samples, seed, TAG_MARKET, pool=pool)


def competitor_max_cdf(cfg: MarketConfig, w):
    """cdf of M_-i = max(other brokers, outsider) in the iid-broker case."""
    w = np.asarray(w, dtype=float)
    out = np.ones_like(w)
    if cfg.n_brokers > 1:
        out = out * cfg.broker_marginal.cdf(w) ** (cfg.n_brokers - 1)
    if cfg.outsider is not None:
        out = out * cfg.outsider.cdf(w)
    return out


def _iid_predictor(cfg: MarketConfig, xs):
    """x + int_x^hi (1 - F_M(w)) dw at every x of `xs`.

    1 - F_M has a kink at each finite support endpoint of its factors, which
    tanh-sinh cannot converge across, so a row is split at the endpoints
    strictly inside (x, hi); a row without one is a single quadrature row.
    """
    _, hi = _price_range(cfg)
    factors = [cfg.broker_marginal] if cfg.n_brokers > 1 else []
    if cfg.outsider is not None:
        factors.append(cfg.outsider)
    kinks = sorted({e for m in factors for e in m.support() if math.isfinite(e)})
    rows, lows, highs = [], [], []
    for row, x in enumerate(xs):
        edges = [x, *(e for e in kinks if x < e < hi), hi]
        rows += [row] * (len(edges) - 1)
        lows += edges[:-1]
        highs += edges[1:]
    pieces = tabulate(
        lambda _, w: 1.0 - competitor_max_cdf(cfg, w), np.array(lows), np.array(highs)
    )
    return xs + np.bincount(rows, weights=pieces, minlength=xs.size)


def _price_range(cfg: MarketConfig):
    lo, hi = cfg.broker_marginal.truncated_support()
    if cfg.outsider is not None:
        _, o_hi = cfg.outsider.truncated_support()
        hi = max(hi, o_hi)
    return lo, hi


def predictor_table(cfg: MarketConfig, i=0, sample=None):
    """Tabulated individual predictor for fast rowwise evaluation.

    iid brokers share one exact quadrature table; dependent brokers get a
    Nadaraya-Watson table fit on `sample` (conditioning values clamp to the
    estimator's trusted interior band).
    """
    b_lo, b_hi = cfg.broker_marginal.truncated_support()
    if cfg.iid_brokers:
        grid = chebyshev_nodes(b_lo, b_hi, PREDICTOR_NODES)
        return RegressionFunction(grid, _iid_predictor(cfg, grid))
    if sample is None:
        raise DomainError("dependent-broker predictor table needs the simulated sample")
    x_s, z_s = sample[0][:, i], sample[2]
    lo, hi = np.percentile(x_s, [5.0, 95.0])
    grid = np.linspace(lo, hi, PREDICTOR_NODES)
    return RegressionFunction(grid, kernel_regress_grid(x_s, z_s, grid))


def compare_strategies(cfg: MarketConfig, n_samples, seed, pool=None):
    """Coalition-average predictor vs each individual predictor, plus win
    probabilities (strict-max winner; ties, probability zero for continuous
    models, break toward the lowest broker index, then the outsider).

    One report per broker, all on the same n_samples markets drawn from
    `seed`; the details carry the win probabilities.
    """
    sample = simulate_market(cfg, n_samples, seed, pool=pool)
    x, y, z = sample
    if cfg.iid_brokers:
        shared = predictor_table(cfg)
        tables = [shared] * cfg.n_brokers
    else:
        tables = [predictor_table(cfg, i, sample) for i in range(cfg.n_brokers)]
    preds = np.column_stack([tables[i](x[:, i]) for i in range(cfg.n_brokers)])
    coalition = preds.mean(axis=1)

    lhs_sq = (z - coalition) ** 2
    reports = []
    for i in range(cfg.n_brokers):
        rhs_sq = (z - preds[:, i]) ** 2
        reports.append(inequality_report(f"coalition/broker{i + 1}", lhs_sq, rhs_sq, seed))

    board = np.column_stack([x, y])
    winner = np.argmax(board, axis=1)
    win_counts = np.bincount(winner, minlength=cfg.n_brokers + 1)
    win_probs = win_counts / x.shape[0]

    details = {
        "win_probabilities": win_probs[: cfg.n_brokers].tolist(),
        "outsider_win_probability": float(win_probs[cfg.n_brokers]),
    }
    return ExperimentResult(experiment="coalition", reports=reports, details=details)
