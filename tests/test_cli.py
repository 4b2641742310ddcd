"""Config validation diagnostics, their agreement with the model builders,
and the `cexpect verify` command: exit codes and worker-independent reports."""

import json
import math

import pytest

from cexpect import cli
from cexpect.cli import validate_config
from cexpect.coalition import market_from_config
from cexpect.marginals import MaxOfIid
from cexpect.reports import ExperimentResult, threshold_report

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


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _verify(*args):
    return cli.main(["verify", *args])


def test_records_report_bytes_independent_of_workers(tmp_path):
    config = _write_config(tmp_path, cli.default_suite()["records"])
    outs = [tmp_path / f"workers{w}" for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        assert _verify("records", "--config", config, "--workers", str(w), "--out", str(out)) == 0
    for name in ("records.json", "reports.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_usage_and_config_errors_exit_2(tmp_path, capsys):
    records = cli.default_suite()["records"]
    valid = _write_config(tmp_path, records)
    shallow = _write_config(tmp_path, {**records, "depth": 2}, "shallow.json")
    out = str(tmp_path / "out")
    assert _verify("records", "--config", shallow, "--out", out) == 2
    assert "depth" in capsys.readouterr().err
    assert _verify("no-such-experiment", "--config", valid, "--out", out) == 2
    assert _verify("records", "--config", valid, "--workers", "0", "--out", out) == 2
    assert not (tmp_path / "out").exists()


def test_unsatisfied_verdict_exits_1(tmp_path, monkeypatch):
    def unsatisfied(cfg, seed=None, workers=1, pool=None):
        report = threshold_report("records", 5.0, 4.0, cfg["n_samples"], cfg["seed"])
        return ExperimentResult(experiment="records", reports=[report])

    monkeypatch.setattr(cli, "run_experiment", unsatisfied)
    config = _write_config(tmp_path, cli.default_suite()["records"])
    out = tmp_path / "out"
    assert _verify("records", "--config", config, "--out", str(out)) == 1
    assert b",false," in (out / "reports.csv").read_bytes()


def test_verify_all_smoke(tmp_path):
    out = tmp_path / "out"
    assert _verify("all", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["experiments"]) == sorted(cli.default_suite())
    assert all(entry["all_satisfied"] for entry in manifest["experiments"].values())


def _validate(*args):
    return cli.main(["validate", *args])


def test_validate_exit_codes(tmp_path, capsys):
    records = cli.default_suite()["records"]
    assert _validate("--config", _write_config(tmp_path, records)) == 0
    assert capsys.readouterr().out.strip() == "OK"
    bad = _write_config(tmp_path, {**records, "depth": 2}, "bad.json")
    assert _validate("--config", bad) == 2
    assert "depth" in capsys.readouterr().err
    missing = str(tmp_path / "missing.json")
    assert _validate("--config", missing) == 2
    assert "config file not found" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert _validate("--config", str(broken)) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_non_object_config_rejected(tmp_path, capsys):
    config = _write_config(tmp_path, [1, 2])
    assert _validate("--config", config) == 2
    assert "must be a JSON object, got list" in capsys.readouterr().err
    out = tmp_path / "out"
    assert _verify("records", "--config", config, "--out", str(out)) == 2
    assert "must be a JSON object, got list" in capsys.readouterr().err
    assert not out.exists()


def test_list_prints_every_experiment(capsys):
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out.split() == cli.EXPERIMENT_NAMES


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is a large share of import time and only one KS helper
    # needs it, so importing the package and its CLI must not load it.
    import subprocess
    import sys
    from pathlib import Path

    import cexpect

    src = str(Path(cexpect.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cexpect, cexpect.cli; "
        "print('scipy.stats' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout.strip() == "False"


def _suite_with(name, **changes):
    return {**cli.default_suite()[name], **changes}


_COPIES = {"kind": "gaussian-copies", "n_copies": 3, "rho_xx": 0.3, "rho_xy": 0.5}
_EYE2 = [[1.0, 0.0], [0.0, 1.0]]
_EYE3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
_BIV = cli.default_suite()["covariance"]["model"]
_EXP1 = {"family": "exponential", "rate": 1.0}
_UNBOUNDED = {"family": "uniform", "lower": 0.0, "upper": math.inf}

# (config, the field its diagnostic must name); each used to pass `validate`
# and then fail or run anyway, or crashed `validate` itself.
REJECTED = {
    "copies-sd-zero": (_suite_with("theorem1", model={**_COPIES, "sd_x": 0}), "model.sd_x"),
    "copies-sd-string": (_suite_with("theorem2", model={**_COPIES, "sd_x": "a"}), "model.sd_x"),
    "copies-no-rho-xx": (
        _suite_with("theorem1", model={k: v for k, v in _COPIES.items() if k != "rho_xx"}),
        "model.rho_xx",
    ),
    "theorem12-no-model": (
        {k: v for k, v in cli.default_suite()["theorem1"].items() if k != "model"},
        "model",
    ),
    "theorem3-mean-string": (
        _suite_with("theorem3", model={"kind": "explicit", "mean": "x", "cov": _EYE3}),
        "model.mean",
    ),
    "theorem3-2d": (
        _suite_with("theorem3", model={"kind": "explicit", "mean": [0.0, 0.0], "cov": _EYE2}),
        "model.mean",
    ),
    "chain-bogus-kind": (
        _suite_with("corollary-chain", model={"kind": "bogus", "r": 0.6, "dim": 4}),
        "model.kind",
    ),
    "chain-bool-index": (
        _suite_with("corollary-chain", index_sets=[[True], [1, 2]]),
        "index_sets[0]",
    ),
    "martingale-bool-index": (_suite_with("martingale", subsets=[[True]]), "subsets[0]"),
    "uniform-upper-infinity": (
        _suite_with("copula-swap", models=[{**_BIV, "marginal_x": _UNBOUNDED}]),
        "models[0].marginal_x.upper",
    ),
    "rho-nan": (
        _suite_with("covariance", model={**_BIV, "copula": {"family": "gaussian", "rho": math.nan}}),
        "model.copula.rho",
    ),
    "copies-float-count": (
        _suite_with("theorem1", model={**_COPIES, "n_copies": 1.5}),
        "model.n_copies",
    ),
    "records-float-depth": (_suite_with("records", depth=4.0), "depth"),
    "order-float-n": (
        _suite_with("order-stats", cases=[{"marginal": _EXP1, "n": 5.0, "k": 3, "l": 4}]),
        "cases[0].n",
    ),
    "brokers-float-count": (
        _suite_with("coalition", brokers={"count": 2.5, "marginal": _EXP1}),
        "brokers.count",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_config_names_its_field(case, tmp_path, capsys):
    cfg, field = REJECTED[case]
    config = _write_config(tmp_path, cfg)
    assert _validate("--config", config) == 2
    err = capsys.readouterr().err
    assert f"{field}: " in err and "Traceback" not in err
    out = tmp_path / "out"
    assert _verify(cfg["experiment"], "--config", config, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{field}: " in err and "Traceback" not in err
    assert not out.exists()
