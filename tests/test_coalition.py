"""Coalition-market predictors: the exact quadrature predictor of
independent brokers, its kinks, and the dependent-broker tables."""

import numpy as np
import pytest
from scipy import integrate

from cexpect.coalition import (
    MarketConfig,
    coalition_average_predictor,
    compare_strategies,
    competitor_max_cdf,
    individual_predictor,
    market_from_config,
    predictor_table,
    simulate_market,
)
from cexpect.errors import DomainError, ExtrapolationError
from cexpect.marginals import Exponential, MaxOfIid, Normal, Uniform
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
    # E[max(x, M)] = 1 - (1 - x^k) / k.
    k = 4
    cfg = MarketConfig(k, Uniform())
    for x in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert individual_predictor(cfg, 1, x) == pytest.approx(1.0 - (1.0 - x**k) / k, abs=1e-12)


def test_individual_predictor_agrees_with_table_and_average():
    cfg = MarketConfig(3, Normal(), outsider=Uniform())
    table = predictor_table(cfg)
    x = float(table.grid[57])
    assert individual_predictor(cfg, 2, x) == table.values[57]
    prices = np.array([-0.5, 0.25, 1.5])
    expected = np.mean([individual_predictor(cfg, i, p) for i, p in enumerate(prices)])
    assert coalition_average_predictor(cfg, prices) == expected


def test_individual_predictor_rejects_bad_arguments():
    cfg = MarketConfig(2, Uniform())
    with pytest.raises(DomainError):
        individual_predictor(cfg, 2, 0.5)
    with pytest.raises(ExtrapolationError):
        individual_predictor(cfg, 0, 1.5)


def test_dependent_brokers_need_the_simulated_tables():
    cfg = MarketConfig(3, Normal(), rho_xx=0.3)
    with pytest.raises(DomainError, match="predictor_table"):
        individual_predictor(cfg, 0, 0.0)
    prices = np.zeros(3)
    with pytest.raises(DomainError, match="predictor_table"):
        coalition_average_predictor(cfg, prices)
    sample = simulate_market(cfg, 5000, 3)
    tables = [predictor_table(cfg, i, sample) for i in range(3)]
    expected = np.mean([t(0.0) for t in tables])
    assert coalition_average_predictor(cfg, prices, tables) == expected


def test_one_broker_is_its_own_coalition():
    # The coalition average of one broker's predictor is that predictor, so
    # the report compares a column with itself: exact equality, margin 0.
    market = market_from_config({
        "brokers": {"count": 1, "marginal": {"family": "uniform", "lower": 0.0, "upper": 1.0}},
        "outsider": {"marginal": {"family": "exponential", "rate": 1.0}},
    })
    (report,) = compare_strategies(market, 5000, 4).reports
    assert report.lhs_estimate == report.rhs_estimate
    assert report.margin_sigmas == 0.0
    assert report.satisfied
