"""Broker-coalition market: traded price as a maximum of suggested prices.

n coalition brokers suggest prices X_1..X_n (iid, or Gaussian-copula
equicorrelated); an optional outsider contributes Y (one marginal, possibly
the exact max-distribution of m iid outsiders).  The traded price is the
rowwise maximum Z.  The brokers are exchangeable, so one table of the
individual predictor E(Z | X_i = x) serves them all.  It is exact
one-dimensional quadrature, E(Z | x) = x + int_x (1 - P(max of the others
<= w | x)) dw: in w for independent brokers, and in the other brokers'
conditional normal score for dependent ones, whose maximum has the
equicorrelated-normal distribution of Dunnett & Sobel (1955); scores map
to prices by the broker's `_of_score`.  compare_strategies pits the
coalition-average predictor against each individual predictor on common
draws, which `MarketConfig.blocks` makes in row blocks (see rng).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import ndtr, ndtri

from .condexp import RegressionFunction, chebyshev_nodes, equicorrelated_vector
from .config import Fields
from .errors import ConstructionError, NumericalError
from .marginals import TAIL_EPS, Marginal, MaxOfIid, marginal_from_config
from .quadrature import tabulate
from .reports import ExperimentResult, inequality_report, merged, paired_moments
from .rng import check_row_width, join_rows, row_slices, run_chunked, simulate_chunked

TAG_MARKET = 5
PREDICTOR_NODES = 201
# The others' standardized score at which the dependent-broker integral
# leaves u for w: each other broker lies above it with probability TAIL_EPS.
U_TOP = float(-ndtri(TAIL_EPS))
SQRT_2PI = math.sqrt(2.0 * math.pi)
# Gauss-Hermite nodes of the equicorrelated maximum: the first count, the
# largest, and the agreement of two successive tables that stops doubling.
GH_START = 16
GH_MAX = 256
GH_TOL = 1e-10
# Rows that probe a count after two tables disagree (see _dependent_predictor).
GH_PROBE_ROWS = 8


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

    def sample(self, rng, n):
        """(X, Y): n markets' broker prices and outsider prices (all -inf
        without an outsider), the blocks of `blocks` joined."""
        return join_rows(((x, y) for _, x, y in self.blocks(rng, n)), n)

    def blocks(self, rng, n):
        """An iterator of (rows, x, y): n markets in row blocks of
        EVAL_BLOCK, each drawing its brokers and then its outsider.  iid
        brokers are quantiles of uniforms, dependent ones the `_of_score` of
        equicorrelated normals, so normal brokers stay in score space."""
        k, broker = self.n_brokers, self.broker_marginal
        normals = None if self.iid_brokers else equicorrelated_vector(k, self.rho_xx)
        for rows in row_slices(n):
            b = rows.stop - rows.start
            if normals is None:
                x = broker._quantile(rng.random((b, k)))
            else:
                x = broker._of_score(normals.sample(rng, b))
            y = np.full(b, -np.inf) if self.outsider is None else self.outsider.sample(rng, b)
            yield rows, x, y


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
    """n_samples markets (X, Y, Z): cfg.sample's prices and their rowwise
    max.  Deterministic given seed; these are the markets compare_strategies
    scores."""

    def worker(rng, count):
        x, y = cfg.sample(rng, count)
        return x, y, np.maximum(x.max(axis=1), y)

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


def _split_integrals(f, lows, highs, cuts=()):
    """int_{lows_i}^{highs_i} f(i, w) dw for every row i, in one tabulation.

    A kink of the integrand stops tanh-sinh from converging across it, so
    row i is split at each cuts[j][i] strictly inside (lows_i, highs_i); a
    row without one is a single quadrature row.  `cuts` are scalars or
    arrays shaped like `lows`, and f(rows, w) gets the row of each piece.
    """
    cuts = [np.broadcast_to(c, lows.shape) for c in cuts]
    owners, starts, ends = [], [], []
    for row, (lo, hi) in enumerate(zip(lows, highs)):
        edges = [lo, *sorted({c[row] for c in cuts if lo < c[row] < hi}), hi]
        owners += [row] * (len(edges) - 1)
        starts += edges[:-1]
        ends += edges[1:]
    owners = np.array(owners, dtype=np.intp)
    pieces = tabulate(lambda p, w: f(owners[p], w), np.array(starts), np.array(ends))
    return np.bincount(owners, weights=pieces, minlength=lows.size)


def _finite_endpoints(marginals):
    return sorted({e for m in marginals for e in m.support() if math.isfinite(e)})


def _iid_predictor(cfg: MarketConfig, xs):
    """x + int_x^hi (1 - F_M(w)) dw at every x of `xs`, split at the finite
    support endpoints of F_M's factors, where 1 - F_M has its kinks."""
    _, hi = _price_range(cfg)
    factors = [cfg.broker_marginal] if cfg.n_brokers > 1 else []
    if cfg.outsider is not None:
        factors.append(cfg.outsider)
    tail = _split_integrals(
        lambda _, w: 1.0 - competitor_max_cdf(cfg, w),
        xs,
        np.full_like(xs, hi),
        _finite_endpoints(factors),
    )
    return xs + tail


def _price_range(cfg: MarketConfig):
    lo, hi = cfg.broker_marginal.truncated_support()
    if cfg.outsider is not None:
        _, o_hi = cfg.outsider.truncated_support()
        hi = max(hi, o_hi)
    return lo, hi


def _score(m: Marginal, w):
    """Normal score Phi^-1(F(w)) of price w, each half from its own tail."""
    p, q = m.cdf(w), m.sf(w)
    return np.where(p <= 0.5, ndtri(np.minimum(p, 0.5)), -ndtri(np.minimum(q, 0.5)))


def _others_below(u, m, r, nodes):
    """P(max of m standard normals with equicorrelation r <= u).

    That is E_S[Phi((u - sqrt(r) S) / sqrt(1 - r))^m] over S ~ N(0, 1)
    (Dunnett & Sobel 1955), here by `nodes` Gauss-Hermite nodes in S, one at
    a time so that memory stays that of u.  For r < 0, sqrt(r) is imaginary
    and the real part is taken (Steck & Owen 1962).
    """
    if m == 1:
        return ndtr(u)
    s, weights = hermegauss(nodes)
    weights /= SQRT_2PI
    if r < 0.0:
        # S and -S give complex conjugates, whose real parts agree.
        shifts, weights = 1j * math.sqrt(-r) * s[s > 0.0], 2.0 * weights[s > 0.0]
    else:
        shifts = math.sqrt(r) * s
    scale = 1.0 / math.sqrt(1.0 - r)
    total = np.zeros(u.shape)
    for shift, weight in zip(shifts, weights):
        total += weight * np.real(ndtr((u - shift) * scale) ** m)
    return total


def _dependent_predictor(cfg: MarketConfig, xs):
    """E(Z | X_i = x) for equicorrelated brokers at every x of `xs`, all
    inside the broker's [TAIL_EPS, 1 - TAIL_EPS] quantile range.

    Given broker i's normal score z, the other k - 1 scores are
    rho z + sigma E_j, sigma = sqrt(1 - rho^2), where the E_j are standard
    normals with equicorrelation r = rho / (1 + rho).  So
    E(Z | x) = x + int_x (1 - P(M <= w | x) F_out(w)) dw, which is integrated
    in the others' standardized score u = (Phi^-1(F(w)) - rho z) / sigma,
    from u(x) up to U_TOP, split at the outsider's finite support endpoints.
    Above the price at U_TOP the other brokers are below w but for TAIL_EPS,
    and only 1 - F_out(w) remains, integrated in w.  The Gauss-Hermite
    count of P(M <= w | x) doubles from GH_START until two successive
    tables agree within GH_TOL; past GH_MAX, NumericalError names rho_xx.
    After a disagreement, a count whose GH_PROBE_ROWS probe rows already
    disagree is skipped untabulated; the tables accepted and the counts
    rejected are those of building every table.
    """
    b, rho, out = cfg.broker_marginal, cfg.rho_xx, cfg.outsider
    m = cfg.n_brokers - 1
    sigma = math.sqrt(1.0 - rho * rho)
    r = rho / (1.0 + rho)
    z = np.clip(_score(b, xs), -U_TOP, U_TOP)
    kinks = _finite_endpoints([out] if out is not None else [])
    values = xs.copy()
    if out is not None:
        w_top = np.maximum(xs, b._of_score(rho * z + sigma * U_TOP))
        _, o_hi = out.truncated_support()
        values += _split_integrals(lambda _, w: out.sf(w), w_top, np.maximum(w_top, o_hi), kinks)
    u_lo = np.minimum((1.0 - rho) * z / sigma, U_TOP)
    u_kinks = [(float(_score(b, e)) - rho * z) / sigma for e in kinks]

    def tail(nodes, rows=slice(None)):
        z_rows, lo = z[rows], u_lo[rows]

        def integrand(pieces, u):
            s = rho * z_rows[pieces, None] + sigma * u
            w = b._of_score(s)
            below = _others_below(u, m, r, nodes)
            if out is not None:
                below *= out.cdf(w)
            # dw/du = sigma phi(s) / f(w)
            return (1.0 - below) * (sigma / SQRT_2PI) * np.exp(-0.5 * s * s) / b.pdf(w)

        return _split_integrals(integrand, lo, np.full_like(lo, U_TOP), [k[rows] for k in u_kinks])

    if m == 1:
        return values + tail(None)
    # A row's integral does not depend on which rows share its tabulation.
    # So once two tables disagree, the rows that disagreed most probe the
    # next count first: while they alone move by more than GH_TOL, so does
    # the whole table, which is then not built (previous is None).
    nodes, previous, probe = GH_START, tail(GH_START), None
    while nodes < GH_MAX:
        nodes *= 2
        if probe is not None:
            rows, before = probe
            after = tail(nodes, rows)
            if np.max(np.abs(after - before)) > GH_TOL:
                previous, probe = None, (rows, after)
                continue
            if previous is None:
                previous = tail(nodes // 2)
        current = tail(nodes)
        change = np.abs(current - previous)
        if np.max(change) <= GH_TOL:
            return values + current
        rows = np.sort(np.argsort(change)[-GH_PROBE_ROWS:])
        previous, probe = current, (rows, current[rows])
    raise NumericalError(
        f"the predictor of {cfg.n_brokers} brokers at rho_xx={rho} did not converge "
        f"within {GH_MAX} Gauss-Hermite nodes",
        point=rho,
        param="rho_xx",
    )


def predictor_table(cfg: MarketConfig):
    """The individual predictor x -> E(Z | X_i = x), tabulated once on
    PREDICTOR_NODES Chebyshev nodes; brokers are exchangeable, so every
    broker shares it.

    iid brokers tabulate it over the broker's truncated support, dependent
    brokers over its [TAIL_EPS, 1 - TAIL_EPS] quantile range; evaluations
    clamp to the domain.
    """
    b = cfg.broker_marginal
    if cfg.iid_brokers:
        grid = chebyshev_nodes(*b.truncated_support(), PREDICTOR_NODES)
        return RegressionFunction(grid, _iid_predictor(cfg, grid))
    grid = chebyshev_nodes(float(b._quantile(TAIL_EPS)), float(b._isf(TAIL_EPS)), PREDICTOR_NODES)
    return RegressionFunction(grid, _dependent_predictor(cfg, grid))


def _winner(x, y):
    """The winner of each market: the index of its first highest broker
    price, or the number of brokers for an outsider strictly above them
    all, as np.argmax of [x, y] picks it, without joining the columns."""
    return np.where(y > x.max(axis=1), x.shape[1], np.argmax(x, axis=1))


def compare_strategies(cfg: MarketConfig, table, n_samples, seed, pool=None):
    """Coalition-average predictor vs each individual predictor, plus win
    probabilities (strict-max winner; ties, probability zero for continuous
    models, break toward the lowest broker index, then the outsider).

    `table` is predictor_table(cfg).  One report per broker, all on the same
    n_samples markets drawn from `seed`; the details carry the win
    probabilities.  The reports rest on the brokers' exchangeability: by
    Jensen, (z - mean_i p_i)^2 <= mean_i (z - p_i)^2 on every draw, and
    exchangeable columns p_i share one expected error, so any exchangeable
    predictor columns pass, a wrong table included.
    """
    k = cfg.n_brokers

    def worker(rng, count):
        # The markets of simulate_market, reduced a block at a time to what
        # the reports read: the squared errors of the coalition (row 0) and
        # of each broker, and the wins of each broker and the outsider.
        errors = np.empty((k + 1, count))
        wins = np.zeros(k + 1, dtype=np.intp)
        for rows, x, y in cfg.blocks(rng, count):
            z_price = np.maximum(x.max(axis=1), y)
            wins += np.bincount(_winner(x, y), minlength=k + 1)
            preds = table(x)
            np.square(z_price - preds.mean(axis=1), out=errors[0, rows])
            np.subtract(z_price[:, None], preds, out=preds)
            errors[1:, rows] = np.square(preds, out=preds).T
        return [paired_moments(errors[0], error) for error in errors[1:]], wins

    stats, wins = merged(run_chunked(worker, n_samples, seed, TAG_MARKET, pool=pool))
    reports = [
        inequality_report(f"coalition/broker{i + 1}", broker, seed)
        for i, broker in enumerate(stats)
    ]

    win_probs = wins / n_samples
    details = {
        "win_probabilities": win_probs[: cfg.n_brokers].tolist(),
        "outsider_win_probability": float(win_probs[cfg.n_brokers]),
    }
    return ExperimentResult(experiment="coalition", reports=reports, details=details)
