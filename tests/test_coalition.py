"""Coalition-market predictors: the exact quadrature predictor of
independent brokers, its kinks, and the exact dependent-broker predictor."""

import inspect
import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from cexpect import cli, coalition
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
    each table of the brokers' tail, which integrates up to U_TOP: full
    tables and probes, not the outsider's table."""
    tables = []
    split = coalition._split_integrals

    def spy(f, lows, highs, cuts=()):
        values = split(f, lows, highs, cuts)
        if np.all(highs == coalition.U_TOP):
            tables.append((lows, values))
        return values

    monkeypatch.setattr(coalition, "_split_integrals", spy)
    return tables


FULL, PROBE = coalition.PREDICTOR_NODES, coalition.GH_PROBE_ROWS


def test_non_converging_market_is_rejected_after_two_full_tables(monkeypatch):
    # k = 3 at -0.48 fails at every count up to GH_MAX.  Building each full
    # table made five; the probe rows skip every count after 32.
    tables = _spy_tail_tables(monkeypatch)
    market = MarketConfig(3, Normal(), rho_xx=-0.48, outsider=Normal())
    with pytest.raises(NumericalError, match="rho_xx") as caught:
        predictor_table(market)
    assert caught.value.param == "rho_xx"
    assert [lows.size for lows, _ in tables] == [FULL, FULL, PROBE, PROBE, PROBE]
    tables.clear()
    cfg = {
        **cli.default_suite()["coalition"],
        "brokers": {"count": 3, "marginal": Normal().to_config(), "rho_xx": -0.48},
    }
    (diagnostic,) = cli.validate_config(cfg)
    assert diagnostic.field == "brokers.rho_xx"
    assert sum(lows.size == FULL for lows, _ in tables) == 2


@pytest.mark.parametrize(
    "market, sizes",
    [
        # Agrees at 32 nodes, as the tabulation workload's market (k = 4).
        (MarketConfig(3, Normal(), rho_xx=0.3, outsider=Normal()), [FULL, FULL]),
        # Agrees at 64 nodes, after one failed comparison and a probe.
        (
            MarketConfig(3, Exponential(), rho_xx=0.95, outsider=Uniform(0.0, 1.0)),
            [FULL, FULL, PROBE, FULL],
        ),
        # Agrees at 128: the probe skips 64, then passes, and 64 is filled in.
        (MarketConfig(6, Exponential(), rho_xx=0.97), [FULL, FULL, PROBE, PROBE, FULL, FULL]),
        # Agrees at 128: the probe passes at 64, the full comparison does not.
        (MarketConfig(5, Exponential(), rho_xx=0.99), [FULL, FULL, PROBE, FULL, PROBE, FULL]),
    ],
)
def test_converging_market_builds_as_many_full_tables_as_before(monkeypatch, market, sizes):
    # Building every table from GH_START up to the count that agrees makes
    # as many full tables.  A probe row has the value of its row in the full
    # table of the same count, the last one built before the next probe,
    # bit for bit: the skip rests on that.
    tables = _spy_tail_tables(monkeypatch)
    predictor_table(market)
    assert [lows.size for lows, _ in tables] == sizes
    for i, (lows, values) in enumerate(tables):
        same_count = list(itertools.takewhile(lambda t: t[0].size == FULL, tables[i + 1 :]))
        if lows.size == PROBE and same_count:
            full_lows, full_values = same_count[-1]
            rows = np.flatnonzero(np.isin(full_lows, lows))
            assert np.array_equal(full_lows[rows], lows)
            assert np.array_equal(full_values[rows], values)


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
