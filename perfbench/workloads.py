"""Workload definitions: fixed lists of experiment configs.

Each config is one operation, the unit `cexpect verify <experiment>
--config <file>` runs. Config seeds derive from the run seed, so the same
run seed always gives the same inputs.
"""

UNIFORM = {"family": "uniform", "lower": 0.0, "upper": 1.0}
EXP1 = {"family": "exponential", "rate": 1.0}
NORMAL = {"family": "normal", "mean": 0.0, "sd": 1.0}


def _biv(copula, x, y):
    return {"copula": copula, "marginal_x": x, "marginal_y": y}


GAUSS_NN = _biv({"family": "gaussian", "rho": 0.5}, NORMAL, NORMAL)


def _tabulation():
    def swap(model):
        return {"experiment": "copula-swap", "models": [model], "n_samples": 100_000}

    return [
        swap(_biv({"family": "clayton", "alpha": 2.0}, UNIFORM, UNIFORM)),
        swap(_biv({"family": "fgm", "theta": 0.5}, UNIFORM, UNIFORM)),
        # The slow-tabulation stand-in: about half of a pass.
        swap(_biv({"family": "gaussian", "rho": 0.5}, EXP1, UNIFORM)),
        {
            "experiment": "order-stats",
            "cases": [
                {"marginal": UNIFORM, "n": 5, "k": 3, "l": 4, "markov_check": True},
                {"marginal": EXP1, "n": 5, "k": 3, "l": 4},
            ],
            "n_samples": 100_000,
        },
        {
            "experiment": "theorem1",
            "model": {
                "kind": "conditional-iid", "n_copies": 3, "beta": 0.8,
                "y": NORMAL, "noise": {"family": "uniform", "lower": -1.0, "upper": 1.0},
            },
            "n_samples": 100_000,
        },
        {
            "experiment": "coalition",
            "brokers": {"count": 4, "marginal": NORMAL},
            "outsider": {"marginal": NORMAL},
            "n_samples": 100_000,
        },
        {
            "experiment": "coalition",
            "brokers": {"count": 4, "marginal": NORMAL, "rho_xx": 0.3},
            "outsider": {"marginal": NORMAL},
            "n_samples": 50_000,
        },
    ]


def _known_defects():
    """Operations that raised NumericalError when this benchmark was added.

    They run outside the timed passes (see README.md) so a fix shows in the
    `defects.failed` count without being mistaken for a timing change.
    """
    return [
        {
            "experiment": "covariance",
            "model": _biv({"family": "fgm", "theta": 0.5}, NORMAL, UNIFORM),
            "n_samples": 100_000,
        },
        {
            "experiment": "order-stats",
            "cases": [{"marginal": NORMAL, "n": 6, "k": 3, "l": 5}],
            "n_samples": 100_000,
        },
    ]


def _records():
    def rec(marginal, depth, n):
        return {
            "experiment": "records", "marginal": marginal, "depth": depth,
            "lag": 2, "cap": 1_000_000, "n_samples": n,
        }

    return [rec(EXP1, 4, 200_000), rec(NORMAL, 5, 50_000)]


def _sampling():
    rows = 2_000_000
    copies = {"kind": "gaussian-copies", "n_copies": 5, "rho_xx": 0.3, "rho_xy": 0.5}
    return [
        {"experiment": "theorem1", "model": copies, "n_samples": rows},
        {"experiment": "theorem2", "model": copies, "n_samples": rows},
        {
            "experiment": "corollary-chain",
            "model": {"kind": "ar", "r": 0.6, "dim": 4},
            "index_sets": [[1], [1, 2], [1, 2, 3]],
            "n_samples": rows,
        },
        {
            "experiment": "martingale", "walk_length": 5,
            "subsets": [[1, 2, 3, 4, 5], [1], [3], [5], []],
            "n_samples": rows,
        },
        {"experiment": "copula-swap", "models": [GAUSS_NN], "n_samples": rows},
        {"experiment": "covariance", "model": GAUSS_NN, "n_samples": rows},
    ]


WORKLOADS = {
    "tabulation": {"workers": 1, "configs": _tabulation, "defects": _known_defects},
    "records": {"workers": 1, "configs": _records, "defects": list},
    "sampling": {"workers": 2, "configs": _sampling, "defects": list},
}


def seeded(configs, seed):
    """Give config i the seed seed * 1000 + i."""
    return [{**cfg, "seed": seed * 1000 + i} for i, cfg in enumerate(configs)]


def workload_configs(name, seed):
    return seeded(WORKLOADS[name]["configs"](), seed)


def defect_configs(name, seed):
    return seeded(WORKLOADS[name]["defects"](), seed)
