"""Schema gate: a config is valid exactly when it runs to a verdict.

Hypothesis draws configs for every experiment over the whole schema: the
four copulas, the four marginal families (max-of-iid included) in every
role, copies models, markets, records and order statistics, with edge and
invalid values mixed into every field (0, negatives, +-Infinity, NaN,
bools, strings, null, and floats where integers belong).  For each config,
`validate_config` is empty exactly when `run_experiment` returns an
ExperimentResult; otherwise `run_experiment` raises a ConfigError with the
same diagnostics.  No config may end in any other error.  Copula-swap
models whose regressions are not increasing, which the check does not
support yet, are among the invalid ones, as is every model with a table
that does not converge: the regression tables of bivariate models, copies
predictors, order-statistic and record tables, and market predictors.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cexpect.cli import EXPERIMENT_NAMES, run_experiment, validate_config
from cexpect.errors import ConfigError
from cexpect.reports import ExperimentResult

N_SAMPLES = 20_000
EDGE = [0, -1.0, math.inf, -math.inf, math.nan, True, "a", None]
EDGE_INT = EDGE + [2.5, 3.0]
EYE3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _dicts(required, optional=None):
    return st.fixed_dictionaries(required, optional=optional or {})


def schema(edge):
    """Config strategies per experiment.  With `edge`, every field may also
    take an edge or invalid value; without, every value is meant valid."""

    def pick(valid, invalid=()):
        # Valid values repeat, so an edged config still has mostly valid
        # fields, and a shrunk example is as valid as it can be.
        return st.sampled_from(list(valid) * 3 + list(invalid)) if edge else st.sampled_from(valid)

    def num(*valid):
        return pick(valid, EDGE)

    def integer(*valid):
        return pick(valid, EDGE_INT)

    base_marginals = st.one_of(
        _dicts({"family": st.just("uniform"), "lower": num(0.0, -1.0), "upper": num(1.0, 2.0)}),
        _dicts({"family": st.just("exponential"), "rate": num(1.0, 2.0)}),
        _dicts({"family": st.just("normal"), "mean": num(0.0, 1.5), "sd": num(1.0, 0.5)}),
    )
    marginals = st.one_of(
        base_marginals,
        _dicts(
            {"family": st.just("max-of-iid"), "base": base_marginals, "count": integer(3, 1, 50)}
        ),
    )
    copulas = st.one_of(
        st.just({"family": "independence"}),
        _dicts({"family": st.just("gaussian"), "rho": num(0.5, -0.5, 0.99)}),
        _dicts({"family": st.just("fgm"), "theta": num(0.5, -0.5, 1.0)}),
        _dicts({"family": st.just("clayton"), "alpha": num(2.0, 0.5, 20.0, 200.0)}),
    )
    bivariate = _dicts({"copula": copulas, "marginal_x": marginals, "marginal_y": marginals})
    copies = st.one_of(
        st.just({"kind": "battery"}),
        _dicts(
            {
                "kind": pick(["gaussian-copies"], ["bogus"]),
                "n_copies": integer(3, 1, 5),
                "rho_xx": num(0.3, 0.0, 1.0),
                "rho_xy": num(0.5, 0.2),
            },
            {"mean_x": num(0.0), "sd_x": num(1.0, 2.0), "mean_y": num(1.0), "sd_y": num(0.5)},
        ),
        _dicts(
            {
                "kind": st.just("conditional-iid"),
                "n_copies": integer(3, 1),
                "beta": num(0.8, -0.5),
                "y": marginals,
                "noise": marginals,
            }
        ),
    )
    theorem3 = st.one_of(
        _dicts(
            {"kind": st.sampled_from(["equicorrelated", "duplicate"]), "rho": num(0.5, -0.3, 0.9)}
        ),
        _dicts(
            {
                "kind": st.just("explicit"),
                "mean": pick(
                    [[0.0, 0.0, 0.0], [1.0, 0.0, -1.0]],
                    [[0.0, 0.0], "x", [0.0, math.inf, 0.0], [True, 0, 0]],
                ),
                "cov": pick(
                    [EYE3, [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]],
                    [
                        [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                        [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                        [[1.0, 0.0], [0.0, 1.0]],
                        [[1.0, 0.0, 0.0], [0.0, 1.0]],
                        [[1.0, "a", 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                    ],
                ),
            }
        ),
    )
    index_sets = pick(
        [[[1], [1, 2], [1, 2, 3]], [[], [1], [1, 2]], [[2], [1, 2]]],
        [[[1]], [[2], [1]], [[1], [1, 4]], [[0], [0, 1]], [[1], [1, 1]], [[True], [1, 2]],
         [[1.5], [1, 2]]]
        + ["x", []],
    )
    subsets = pick(
        [[[1, 2, 3], [1], [3], []], [[1]], [[2, 2, 1]]],
        [[[0]], [[6]], [[True]], [[1.5]], [], "x"],
    )
    order_case = _dicts(
        {"marginal": marginals, "n": integer(5, 3), "k": integer(2, 1), "l": integer(2)},
        {"markov_check": pick([True, False], ["yes"])},
    )
    outsider = st.one_of(st.none(), _dicts({"marginal": marginals}, {"count": integer(1, 3)}))
    return {
        "theorem1": _dicts({"model": copies}),
        "theorem2": _dicts({"model": copies}),
        "theorem3": _dicts({"model": theorem3}),
        "corollary-chain": _dicts(
            {
                "model": _dicts(
                    {"kind": pick(["ar"], ["bogus"]), "dim": integer(4, 3), "r": num(0.6, -0.5)}
                ),
                "index_sets": index_sets,
            }
        ),
        "covariance": _dicts({"model": bivariate}),
        "copula-swap": _dicts({"models": st.lists(bivariate, min_size=1, max_size=2)}),
        "sequence-stats": _dicts({"model": bivariate}),
        "martingale": _dicts({"walk_length": integer(3, 5), "subsets": subsets}),
        "order-stats": _dicts({"cases": st.lists(order_case, min_size=1, max_size=2)}),
        "records": _dicts(
            {"marginal": marginals, "depth": integer(4, 3), "lag": integer(2, 1)},
            {"cap": integer(10**6, 3)},
        ),
        "coalition": _dicts(
            {
                "brokers": _dicts(
                    {"count": integer(4, 1, 2), "marginal": marginals}, {"rho_xx": num(0.3, -0.2)}
                )
            },
            {"outsider": outsider},
        ),
        "common": _dicts(
            {
                "n_samples": pick([N_SAMPLES], [999, 20_000.0, -1, True, "a", math.inf]),
                "seed": pick([1, 7, 2**40], [True, "a", 1.5, None, -1, 2**64]),
            }
        ),
    }


VALID, EDGED = schema(edge=False), schema(edge=True)


def configs(name):
    """Half the examples valid by construction, half with edge values."""
    return st.one_of(
        st.builds(lambda c, e: {"experiment": name, **c, **e}, s["common"], s[name])
        for s in (VALID, EDGED)
    )


def non_increasing_swap(cfg):
    """A copula-swap config with a model whose regressions are not
    increasing: independence, Gaussian rho <= 0 or FGM theta <= 0; only
    called on configs that ran, whose fields are all valid."""
    if cfg["experiment"] != "copula-swap":
        return False
    copulas = [m["copula"] for m in cfg["models"]]
    return any(
        c["family"] == "independence"
        or (c["family"] == "gaussian" and c["rho"] <= 0)
        or (c["family"] == "fgm" and c["theta"] <= 0)
        for c in copulas
    )


def test_every_experiment_has_a_strategy():
    assert sorted(VALID) == sorted([*EXPERIMENT_NAMES, "common"])


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_valid_exactly_when_it_runs(name):
    # 60 examples per experiment keep the gate near 10 s on 2 vCPUs; the
    # deadline is the 2 s budget each config has to reach its verdict.
    @settings(
        max_examples=60,
        derandomize=True,
        deadline=2000,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(configs(name))
    def check(cfg):
        diags = validate_config(cfg)
        try:
            result = run_experiment(cfg)
        except ConfigError as exc:
            assert diags and exc.diagnostics == diags
            return
        assert diags == [] and isinstance(result, ExperimentResult)
        assert not non_increasing_swap(cfg)

    check()
