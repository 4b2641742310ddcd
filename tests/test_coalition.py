"""Coalition-market predictors: the exact quadrature predictor of
independent brokers, its kinks, and the exact dependent-broker predictor."""

import inspect
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from cexpect import cli, coalition, marginals
from cexpect.coalition import (
    MarketConfig,
    compare_strategies,
    competitor_max_cdf,
    market_from_config,
    predictor_table,
    simulate_market,
)
from cexpect.errors import NumericalError
from cexpect.marginals import TAIL_EPS, Exponential, MaxOfIid, Normal, Uniform
from cexpect.quadrature import tabulate
from cexpect.rng import EVAL_BLOCK, philox_stream


def _quad_predictor(cfg, x, hi, points):
    """x + int_x^hi (1 - F_M), by scipy quad told where F_M has kinks."""
    inside = [p for p in points if x < p < hi] or None
    tail, _ = integrate.quad(
        lambda w: 1.0 - competitor_max_cdf(cfg, w), x, hi,
        points=inside, epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return x + tail


@pytest.mark.parametrize(
    "brokers, outsider, kinks",
    [
        (Normal(), Uniform(0.0, 1.0), [0.0, 1.0]),
        (Uniform(0.0, 1.0), Normal(), [0.0, 1.0]),
        (Exponential(), Uniform(-1.0, 0.5), [-1.0, 0.0, 0.5]),
        (Uniform(0.0, 1.0), MaxOfIid(base=Exponential(), count=3), [0.0, 1.0]),
    ],
)
def test_predictor_across_support_kinks_matches_quad(brokers, outsider, kinks):
    # Brokers and outsider with different supports put kinks of 1 - F_M
    # inside the integration rows, where tanh-sinh alone does not converge.
    cfg = MarketConfig(3, brokers, outsider=outsider)
    table = predictor_table(cfg)
    hi = max(brokers.truncated_support()[1], outsider.truncated_support()[1])
    for node in range(0, table.grid.size, 20):
        x = float(table.grid[node])
        assert table.values[node] == pytest.approx(_quad_predictor(cfg, x, hi, kinks), abs=1e-9)


def test_rows_without_interior_kink_are_one_quadrature_row():
    # Uniform(0, 1) everywhere: no support endpoint lies inside any (x, 1),
    # so each value is the single row x + int_x^1 (1 - F_M), bit for bit.
    cfg = MarketConfig(4, Uniform(), outsider=Uniform())
    table = predictor_table(cfg)
    xs = table.grid
    tail = tabulate(lambda rows, w: 1.0 - competitor_max_cdf(cfg, w), xs, np.full_like(xs, 1.0))
    assert np.array_equal(table.values, xs + tail)


def test_individual_predictor_closed_form():
    # k iid Uniform(0, 1) brokers, no outsider: F_M(w) = w^(k-1), so
    # E[max(x, M)] = 1 - (1 - x^k) / k at every node, endpoints included.
    k = 4
    table = predictor_table(MarketConfig(k, Uniform()))
    x = table.grid
    assert (x[0], x[-1]) == (0.0, 1.0)
    np.testing.assert_allclose(table.values, 1.0 - (1.0 - x**k) / k, rtol=0, atol=1e-12)


def test_dependent_table_is_built_from_the_market_alone():
    # One table for every broker, from the model: no sample and no index.
    assert list(inspect.signature(predictor_table).parameters) == ["cfg"]
    table = predictor_table(MarketConfig(3, Normal(), rho_xx=0.3))
    assert table.domain == (float(Normal()._quantile(TAIL_EPS)), float(Normal()._isf(TAIL_EPS)))
    assert table.monotonicity == "increasing"


@pytest.mark.parametrize("rho", [-0.9, 0.3, 0.99])
def test_two_dependent_brokers_closed_form(rho):
    # Given X_1 = x, X_2 ~ N(rho x, sigma^2), so E(max(x, X_2) | x) =
    # x + (rho x - x) Phi(d) + sigma phi(d), with d = (rho x - x) / sigma.
    table = predictor_table(MarketConfig(2, Normal(), rho_xx=rho))
    x = table.grid
    sigma = math.sqrt(1.0 - rho * rho)
    d = (rho * x - x) / sigma
    exact = x + (rho * x - x) * ndtr(d) + sigma * np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(table.values, exact, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "brokers, outsider",
    [
        (Normal(), MaxOfIid(base=Exponential(), count=2)),
        (Exponential(), Uniform(-1.0, 0.5)),
        (Uniform(0.0, 1.0), Normal()),
    ],
)
def test_uncorrelated_brokers_match_the_iid_predictor(brokers, outsider):
    # rho_xx = 0 takes the dependent path; at its nodes, the iid quadrature
    # in w gives the same values.
    dependent = predictor_table(MarketConfig(3, brokers, rho_xx=0.0, outsider=outsider))
    iid = coalition._iid_predictor(MarketConfig(3, brokers, outsider=outsider), dependent.grid)
    np.testing.assert_allclose(dependent.values, iid, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "k, brokers, rho, outsider",
    [
        (4, Normal(), 0.99, Normal()),
        (8, Normal(), 0.9, Normal()),
        (2, Normal(), -0.9, Normal()),
        (3, Exponential(), 0.95, Uniform(0.0, 1.0)),
    ],
)
def test_edge_dependent_markets_end_in_a_verdict(k, brokers, rho, outsider):
    # Integrated in w, the first three did not converge at level 10; with
    # scores mapped to prices through Phi(s) near 1, the last stalled.
    market = MarketConfig(k, brokers, rho_xx=rho, outsider=outsider)
    result = compare_strategies(market, predictor_table(market), 20_000, 7)
    assert len(result.reports) == k and result.all_satisfied


def test_unresolved_predictor_names_rho_xx(monkeypatch):
    # Near its floor -1/(k - 1), rho_xx needs more Gauss-Hermite nodes than
    # the cap; k = 3 at -0.45 needs 256, so a cap of 32 stops it early.
    monkeypatch.setattr(coalition, "GH_MAX", 32)
    with pytest.raises(NumericalError, match="rho_xx") as caught:
        predictor_table(MarketConfig(3, Normal(), rho_xx=-0.45))
    assert caught.value.param == "rho_xx"


def _spy_tail_tables(monkeypatch):
    """Spy on _split_integrals; the returned list gets (lows, values) of
    each table of the brokers' tail, which integrates up to U_TOP, at every
    count and on the rows it tabulates, not the outsider's table."""
    tables = []
    split = coalition._split_integrals

    def spy(f, lows, highs, cuts=()):
        values = split(f, lows, highs, cuts)
        if np.all(highs == coalition.U_TOP):
            tables.append((lows, values))
        return values

    monkeypatch.setattr(coalition, "_split_integrals", spy)
    return tables


FULL = coalition.PREDICTOR_NODES
COUNTS = [coalition.GH_START * 2**i for i in range(5)]
assert COUNTS[-1] == coalition.GH_MAX
# Converges at 128 nodes, with rows still open after 32 and after 64.
STEEP = MarketConfig(5, Exponential(), rho_xx=0.99)


def _full_tail_tables(market):
    """{count: (lows, values)} of the brokers' tail on every row, at each
    count: Gauss-Hermite forced to that count, the first table is full."""
    tables = {}
    below = coalition._others_below
    for count in COUNTS:
        with pytest.MonkeyPatch.context() as mp:
            spied = _spy_tail_tables(mp)
            mp.setattr(coalition, "_others_below", lambda u, m, r, _: below(u, m, r, count))
            predictor_table(market)
        tables[count] = spied[0]
    return tables


def _open_after(full, count):
    """Rows still open after `count`: no count up to it agrees with the one
    before within GH_TOL."""
    open_rows = np.ones(FULL, dtype=bool)
    for n in COUNTS[1 : COUNTS.index(count) + 1]:
        open_rows &= np.abs(full[n][1] - full[n // 2][1]) > coalition.GH_TOL
    return open_rows


@pytest.mark.parametrize(
    "market",
    [
        MarketConfig(4, Normal(), rho_xx=0.3, outsider=Normal()),
        MarketConfig(3, Normal(), rho_xx=0.4, outsider=MaxOfIid(base=Exponential(), count=2)),
    ],
    ids=["tabulation-workload", "pinned-digest"],
)
def test_converging_market_builds_two_full_tables(monkeypatch, market):
    # Every row agrees at 2 GH_START nodes: the work the benchmark times.
    tables = _spy_tail_tables(monkeypatch)
    counts = []
    below = coalition._others_below

    def spy(u, m, r, nodes):
        counts.append(nodes)
        return below(u, m, r, nodes)

    monkeypatch.setattr(coalition, "_others_below", spy)
    predictor_table(market)
    assert [lows.size for lows, _ in tables] == [FULL, FULL]
    assert sorted(set(counts)) == [coalition.GH_START, 2 * coalition.GH_START]


def test_each_row_takes_its_tail_at_its_first_agreeing_count():
    # Row i's value is x_i plus its tail at the first count N >= 2 GH_START
    # whose table agrees with N / 2's within GH_TOL, bit for bit (STEEP has
    # no outsider, whose table the value would add).
    full = _full_tail_tables(STEEP)
    tails = np.full(FULL, np.nan)
    for count in COUNTS[1:]:
        first = np.isnan(tails) & ~_open_after(full, count)
        tails[first] = full[count][1][first]
    assert not np.any(np.isnan(tails))
    xs = predictor_table(STEEP).grid
    assert np.array_equal(coalition._dependent_predictor(STEEP, xs), xs + tails)


def test_doubled_count_tabulates_only_the_rows_still_open(monkeypatch):
    full = _full_tail_tables(STEEP)
    tables = _spy_tail_tables(monkeypatch)
    predictor_table(STEEP)
    assert len(tables) == 4  # 16, 32, 64 and 128 nodes
    assert [lows.size for lows, _ in tables[:2]] == [FULL, FULL]
    for count, (lows, values) in zip(COUNTS[2:4], tables[2:], strict=True):
        open_rows = _open_after(full, count // 2)
        assert 0 < open_rows.sum() < FULL
        assert np.array_equal(lows, full[count][0][open_rows])
        assert np.array_equal(values, full[count][1][open_rows])


def test_non_converging_market_is_rejected_after_two_full_tables(monkeypatch):
    # k = 3 at -0.48 leaves rows open at every count up to GH_MAX; after
    # the two full tables, each count tabulates only the rows still open.
    tables = _spy_tail_tables(monkeypatch)
    market = MarketConfig(3, Normal(), rho_xx=-0.48, outsider=Normal())
    with pytest.raises(NumericalError, match="rho_xx") as caught:
        predictor_table(market)
    assert caught.value.param == "rho_xx"
    sizes = [lows.size for lows, _ in tables]
    assert len(sizes) == len(COUNTS) and sizes[:2] == [FULL, FULL]
    assert all(FULL > a >= b > 0 for a, b in zip(sizes[2:], sizes[3:]))
    rho, price = caught.value.point
    grid = coalition.chebyshev_nodes(
        float(Normal()._quantile(TAIL_EPS)), float(Normal()._isf(TAIL_EPS)), FULL
    )
    assert rho == -0.48 and price in grid and f"{price:.6g}" in str(caught.value)
    cfg = {
        **cli.default_suite()["coalition"],
        "brokers": {"count": 3, "marginal": Normal().to_config(), "rho_xx": -0.48},
    }
    (diagnostic,) = cli.validate_config(cfg)
    assert diagnostic.field == "brokers.rho_xx"


@pytest.mark.parametrize("rho", [0.4, -0.3])
def test_dependent_predictor_is_the_conditional_expectation(rho):
    # E[(Z - pred(X_1)) 1{X_1 <= F^-1(q)}] = 0 for every q when pred is
    # E(Z | X_1): a z-test at q = 0.05, ..., 0.95 on the pinned dependent
    # market (brokers as in tests/test_report_digests.py), and on rho < 0,
    # where the table takes the complex branch.
    market = MarketConfig(3, Normal(), rho_xx=rho, outsider=MaxOfIid(base=Exponential(), count=2))
    n = 200_000
    x, _, z = simulate_market(market, n, 16)
    residual = z - predictor_table(market)(x[:, 0])
    cuts = market.broker_marginal._quantile(np.arange(1, 20) * 0.05)
    terms = residual[:, None] * (x[:, :1] <= cuts)
    z_scores = terms.mean(axis=0) / (terms.std(axis=0, ddof=1) / math.sqrt(n))
    assert np.max(np.abs(z_scores)) <= 4.0


def test_dependent_normal_brokers_take_no_cdf_and_quantile(monkeypatch):
    # The normal cdf and quantile of the margins both raise: dependent
    # normal brokers map their scores affinely and need neither, and
    # dependent exponential brokers, whose scores go through ndtr, show
    # that the patch bites.
    def refuse(p):
        raise AssertionError("the draw left normal-score space")

    monkeypatch.setattr(marginals, "ndtr", refuse)
    monkeypatch.setattr(marginals, "ndtri", refuse)
    n = 2 * EVAL_BLOCK + 1
    x, y = MarketConfig(3, Normal(1.0, 2.0), rho_xx=0.4).sample(philox_stream(54, 0), n)
    assert x.shape == (n, 3) and np.all(y == -np.inf)
    with pytest.raises(AssertionError, match="normal-score space"):
        MarketConfig(3, Exponential(), rho_xx=0.4).sample(philox_stream(54, 0), 10)


def test_one_broker_is_its_own_coalition():
    # The coalition average of one broker's predictor is that predictor, so
    # the report compares a column with itself: exact equality, margin 0.
    market = market_from_config({
        "brokers": {"count": 1, "marginal": {"family": "uniform", "lower": 0.0, "upper": 1.0}},
        "outsider": {"marginal": {"family": "exponential", "rate": 1.0}},
    })
    (report,) = compare_strategies(market, predictor_table(market), 5000, 4).reports
    assert report.lhs_estimate == report.rhs_estimate
    assert report.margin_sigmas == 0.0
    assert report.satisfied


def test_winner_ties_go_to_the_lowest_broker_before_the_outsider():
    # The winner is the first maximum of [brokers, outsider], as np.argmax
    # of the joined columns finds it: a broker that ties the outsider wins,
    # tied brokers go to the lower index, and a missing outsider is -inf.
    x = np.array([[1.0, 2.0, 2.0], [3.0, 3.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.5, 0.2]])
    y = np.array([2.0, 3.5, 0.0, -np.inf])
    assert coalition._winner(x, y).tolist() == [1, 3, 0, 0]
    rng = np.random.default_rng(5)
    x = rng.integers(0, 3, (5000, 4)).astype(float)
    y = rng.integers(0, 4, 5000).astype(float)
    expected = np.argmax(np.column_stack([x, y]), axis=1)
    assert np.array_equal(coalition._winner(x, y), expected)
