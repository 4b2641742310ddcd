"""Config validation diagnostics and their agreement with the model builders."""

from cexpect.cli import validate_config
from cexpect.coalition import market_from_config
from cexpect.marginals import MaxOfIid

NORMAL = {"family": "normal", "mean": 0.0, "sd": 1.0}


def _market(outsider_marginal):
    return {
        "experiment": "coalition",
        "brokers": {"count": 3, "marginal": NORMAL},
        "outsider": {"marginal": outsider_marginal},
        "n_samples": 10_000,
        "seed": 7,
    }


def test_max_of_iid_marginal_accepted():
    cfg = _market({"family": "max-of-iid", "base": NORMAL, "count": 4})
    assert validate_config(cfg) == []
    # The builder takes the same config.
    outsider = market_from_config(cfg).outsider
    assert isinstance(outsider, MaxOfIid) and outsider.count == 4


def test_max_of_iid_marginal_rejected_with_field_paths():
    bad_base = {"family": "normal", "mean": 0.0, "sd": -1.0}
    cfg = _market({"family": "max-of-iid", "base": bad_base, "count": 0})
    fields = [d.field for d in validate_config(cfg)]
    assert fields == ["outsider.marginal.base.sd", "outsider.marginal.count"]
    missing = _market({"family": "max-of-iid", "count": 2})
    assert [d.field for d in validate_config(missing)] == ["outsider.marginal.base"]
