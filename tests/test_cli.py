"""Config validation diagnostics, their agreement with the model builders,
and the `cexpect verify` command: exit codes and worker-independent reports."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cexpect import cli, coalition, ordered, rng
from cexpect.cli import validate_config
from cexpect.coalition import market_from_config
from cexpect.config import Fields
from cexpect.errors import DomainError, NumericalError
from cexpect.marginals import MaxOfIid
from cexpect.reports import (
    CSV_HEADER,
    MAX_SAMPLE_CELLS,
    ExperimentResult,
    Moments,
    canonical_config_hash,
    threshold_report,
)

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
    # The builder takes the same market object.
    outsider = market_from_config({key: cfg[key] for key in ("brokers", "outsider")}).outsider
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


def test_workers_beyond_the_bound_start_no_pool(tmp_path, monkeypatch, capsys):
    # Each running chunk holds the arrays its worker allocates, so a worker
    # count above rng.MAX_WORKERS, or one that is not an int, is refused
    # before any pool is built.
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    records = cli.default_suite()["records"]
    config = _write_config(tmp_path, records)
    out = tmp_path / "out"
    for workers in (rng.MAX_WORKERS + 1, 4096):
        with pytest.raises(DomainError) as exc:
            cli.run_experiment(records, workers=workers)
        assert exc.value.param == "workers"
        assert _verify("records", "--config", config, "--workers", str(workers), "--out", str(out)) == 2
        assert "workers" in capsys.readouterr().err
    for workers in (1.5, True):
        with pytest.raises(DomainError) as exc:
            cli.run_experiment(records, workers=workers)
        assert exc.value.param == "workers"
    assert not out.exists()


def test_seeds_outside_64_bits_are_config_errors(tmp_path, capsys):
    # Seeds that agree mod 2**64 would draw the same stream under
    # different report seeds.
    records = cli.default_suite()["records"]
    config = _write_config(tmp_path, records)
    out = tmp_path / "out"
    for seed in (-1, 2**64):
        assert [d.field for d in validate_config({**records, "seed": seed})] == ["seed"]
        assert _verify("records", "--config", config, "--seed", str(seed), "--out", str(out)) == 2
        assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_runs_the_config_with_that_seed(tmp_path):
    records = cli.default_suite()["records"]
    reseeded = {**records, "seed": 5}
    flagged, direct = tmp_path / "flagged", tmp_path / "direct"
    config = _write_config(tmp_path, records)
    assert _verify("records", "--config", config, "--seed", "5", "--out", str(flagged)) == 0
    config = _write_config(tmp_path, reseeded, "reseeded.json")
    assert _verify("records", "--config", config, "--out", str(direct)) == 0
    assert (flagged / "records.json").read_bytes() == (direct / "records.json").read_bytes()
    manifest = json.loads((flagged / "manifest.json").read_text())
    assert manifest["experiments"]["records"]["config_hash"] == canonical_config_hash(reseeded)


def test_verify_command_errors_exit_2(tmp_path, capsys):
    records = cli.default_suite()["records"]
    out = tmp_path / "out"
    assert _verify("records", "--out", str(out)) == 2
    assert "--config is required" in capsys.readouterr().err
    config = _write_config(tmp_path, records)
    assert _verify("martingale", "--config", config, "--out", str(out)) == 2
    assert "config is for 'records', not 'martingale'" in capsys.readouterr().err
    # Too few sequences reach depth 4 within 4 draws: a SampleSizeError
    # that only the run can find.
    short = _write_config(tmp_path, {**records, "cap": 4, "n_samples": 20_000}, "short.json")
    assert _verify("records", "--config", short, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_verify_all_rejects_a_config_before_any_run(tmp_path, monkeypatch, capsys):
    # `all` runs the default suite and would not read the file, so a config
    # given to it is refused rather than silently replaced.
    def no_run(cfg, workers=1):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    theorem3 = cli.default_suite()["theorem3"]
    config = _write_config(tmp_path, {**theorem3, "model": {**theorem3["model"], "rho": 2.0}})
    out = tmp_path / "out"
    assert _verify("all", "--config", config, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--config" in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


def test_unsatisfied_verdict_exits_1(tmp_path, monkeypatch):
    def unsatisfied(cfg, workers=1):
        report = threshold_report("records", 5.0, 4.0, cfg["n_samples"], cfg["seed"])
        return ExperimentResult(experiment="records", reports=[report])

    monkeypatch.setattr(cli, "run_experiment", unsatisfied)
    config = _write_config(tmp_path, cli.default_suite()["records"])
    out = tmp_path / "out"
    assert _verify("records", "--config", config, "--out", str(out)) == 1
    assert b",false," in (out / "reports.csv").read_bytes()


@pytest.fixture(scope="module")
def suite_out(tmp_path_factory):
    """The output directory of one `verify all`."""
    out = tmp_path_factory.mktemp("suite")
    assert _verify("all", "--out", str(out)) == 0
    return out


def test_verify_all_smoke(suite_out):
    manifest = json.loads((suite_out / "manifest.json").read_text())
    assert sorted(manifest["experiments"]) == sorted(cli.default_suite())
    assert all(entry["all_satisfied"] for entry in manifest["experiments"].values())


# Detail keys that repeated a report of their own file.
REPEATED_DETAILS = {
    "per_broker_mse", "coalition_mse", "paired_ses", "win_probability_sum",
    "cov_phi_y", "cov_psi_x", "cov_xy", "mean_y2", "mean_x2", "cov_y1_y2", "cov_x1_x2",
    "max_abs_z", "sup_distance_swapped", "sup_distance_exchangeable",
}


def _keys(value):
    """Every dict key anywhere inside `value`."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    return set().union(*map(_keys, value)) if isinstance(value, list) else set()


def test_every_report_row_has_one_key_set_and_details_repeat_none(suite_out):
    rows = []
    for name in cli.default_suite():
        doc = json.loads((suite_out / f"{name}.json").read_text())
        rows += doc["reports"]
        assert doc["schema_version"] == 2
        assert not _keys(doc["details"]) & (REPEATED_DETAILS | set(doc["reports"][0]))
    assert len(rows) == len((suite_out / "reports.csv").read_text().splitlines()) - 1 == 65
    assert {frozenset(row) for row in rows} == {frozenset(rows[0])}
    assert len(rows[0]) == len(CSV_HEADER)


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
    unknown = _write_config(tmp_path, {"experiment": "nope"}, "unknown.json")
    assert _validate("--config", unknown) == 2
    assert capsys.readouterr().err.startswith("experiment: unknown experiment 'nope'")


WIDE = 10**6


@pytest.mark.parametrize(
    "experiment, changes, field",
    [
        ("corollary-chain", {"model": {"kind": "ar", "r": 0.6, "dim": WIDE}}, "model.dim"),
        (
            "theorem1",
            {"model": {"kind": "gaussian-copies", "n_copies": WIDE, "rho_xx": 0.3, "rho_xy": 0.2}},
            "model.n_copies",
        ),
        (
            "theorem2",
            {"model": {"kind": "conditional-iid", "n_copies": WIDE, "beta": 0.8, "y": NORMAL,
                       "noise": NORMAL}},
            "model.n_copies",
        ),
        ("order-stats", {"cases": [{"marginal": NORMAL, "n": WIDE, "k": 1, "l": 2}]}, "cases[0].n"),
        ("coalition", {"brokers": {"count": WIDE, "marginal": NORMAL, "rho_xx": 0.3}}, "brokers.count"),
        ("martingale", {"walk_length": WIDE, "subsets": [[1]]}, "walk_length"),
        ("records", {"depth": WIDE, "cap": 10 * WIDE}, "depth"),
    ],
)
def test_oversized_field_rejected_before_allocating(tmp_path, capsys, experiment, changes, field):
    config = _write_config(tmp_path, {**cli.default_suite()[experiment], **changes})
    tracemalloc.start()
    try:
        status = _validate("--config", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{field}: ") and "<= 128" in lines[0]
    assert peak < 2**20


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


def test_import_leaves_heavy_scipy_modules_unloaded():
    # These submodules take most of scipy's import time and no run needs
    # them: scipy.stats serves one KS helper and is imported there, and the
    # in-house PCHIP keeps out scipy.interpolate, which would load the rest.
    import subprocess
    import sys
    from pathlib import Path

    import cexpect

    src = str(Path(cexpect.__file__).resolve().parent.parent)
    heavy = ["scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.linalg", "scipy.sparse"]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cexpect, cexpect.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src, *heavy],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.split() == []


def _suite_with(name, **changes):
    return {**cli.default_suite()[name], **changes}


_COPIES = {"kind": "gaussian-copies", "n_copies": 3, "rho_xx": 0.3, "rho_xy": 0.5}
_EYE2 = [[1.0, 0.0], [0.0, 1.0]]
_EYE3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
_BIV = cli.default_suite()["covariance"]["model"]
_EXP1 = {"family": "exponential", "rate": 1.0}
_UNBOUNDED = {"family": "uniform", "lower": 0.0, "upper": math.inf}
_UNIT = {"family": "uniform", "lower": 0.0, "upper": 1.0}
_UNIT_UU = {"marginal_x": _UNIT, "marginal_y": _UNIT}

# Models whose tables condexp's tolerance calls increasing, though a step
# is flat or falling where a regression saturates in a tail.
_FLAT_STEP_MODELS = {
    "swap-fgm-weak-exponential": {
        "copula": {"family": "fgm", "theta": 0.01},
        "marginal_x": _EXP1,
        "marginal_y": _EXP1,
    },
    "swap-clayton-weak-normal": {
        "copula": {"family": "clayton", "alpha": 0.05},
        "marginal_x": NORMAL,
        "marginal_y": NORMAL,
    },
    "swap-fgm-uniform-exponential": {
        "copula": {"family": "fgm", "theta": 1.0},
        "marginal_x": _UNIT,
        "marginal_y": _EXP1,
    },
}

# Clayton(200) between Exp(1) and N(0, 1): a regression table that does not
# converge within tanh-sinh's last level.
_STEEP_CLAYTON = {
    "copula": {"family": "clayton", "alpha": 200.0},
    "marginal_x": _EXP1,
    "marginal_y": NORMAL,
}

# Conditional-iid copies whose Y and noise both lie in [0, 1e-9]: the
# predictor's table does not converge within tanh-sinh's last level.
_NARROW = {"family": "uniform", "lower": 0.0, "upper": 1e-9}
_NARROW_COPIES = {"kind": "conditional-iid", "n_copies": 3, "beta": 0.8, "y": _NARROW, "noise": _NARROW}

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
    # n_samples is bounded by the columns the operation keeps: this one
    # validated, then asked for a 74.5 GiB column.
    "theorem3-huge-n-samples": (_suite_with("theorem3", n_samples=10**10), "n_samples"),
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
    # Var(Y | copies) < 0: the covariance is not positive definite, and
    # rho_xy is the field that bounds it.
    "copies-not-definite": (
        _suite_with("theorem1", model={**_COPIES, "n_copies": 5, "rho_xx": 0.0}),
        "model.rho_xy",
    ),
    # Scales outside GaussianCopies' COPIES_SCALE: each validated and then
    # reported NaN sides, or lhs == rhs with se 0 where the copies' noise
    # was lost, or died on an OverflowError from sd**2.
    "copies-mean-y-overflows": (
        _suite_with("theorem2", model={**_COPIES, "mean_y": 1e200}),
        "model.mean_y",
    ),
    "copies-mean-y-swamps-noise": (
        _suite_with("theorem1", model={**_COPIES, "mean_y": 1e300}),
        "model.mean_y",
    ),
    "copies-sd-y-swamps-copies": (
        _suite_with("theorem2", model={**_COPIES, "sd_y": 1e150}),
        "model.sd_y",
    ),
    "copies-sd-x-overflows": (
        _suite_with("theorem1", model={**_COPIES, "sd_x": 1e200}),
        "model.sd_x",
    ),
    "copies-sd-y-overflows": (
        _suite_with("theorem2", model={**_COPIES, "sd_y": 1e160}),
        "model.sd_y",
    ),
    "copies-float-count": (
        _suite_with("theorem1", model={**_COPIES, "n_copies": 1.5}),
        "model.n_copies",
    ),
    "records-float-depth": (_suite_with("records", depth=4.0), "depth"),
    # Models whose regressions are not increasing: constant, or decreasing.
    "swap-independence": (
        _suite_with("copula-swap", models=[{**_UNIT_UU, "copula": {"family": "independence"}}]),
        "models[0]",
    ),
    "swap-gaussian-negative": (
        _suite_with(
            "copula-swap",
            models=[_BIV, {**_BIV, "copula": {"family": "gaussian", "rho": -0.5}}],
        ),
        "models[1]",
    ),
    "swap-fgm-zero": (
        _suite_with("copula-swap", models=[{**_UNIT_UU, "copula": {"family": "fgm", "theta": 0.0}}]),
        "models[0]",
    ),
    **{
        case: (_suite_with("copula-swap", models=[model]), "models[0]")
        for case, model in _FLAT_STEP_MODELS.items()
    },
    # The lattice size and the bound are constants, not keys: grid 2 made
    # every sup distance 0, a huge threshold passed any sample, and a huge
    # grid ran out of memory.
    "copula-swap-huge-grid": (_suite_with("copula-swap", grid=100_000), "grid"),
    "swap-grid-2": (_suite_with("copula-swap", grid=2), "grid"),
    "swap-loose-threshold": (_suite_with("copula-swap", threshold=1e308), "threshold"),
    "order-float-n": (
        _suite_with("order-stats", cases=[{"marginal": _EXP1, "n": 5.0, "k": 3, "l": 4}]),
        "cases[0].n",
    ),
    "brokers-float-count": (
        _suite_with("coalition", brokers={"count": 2.5, "marginal": _EXP1}),
        "brokers.count",
    ),
    # Configs whose experiment would write two reports of one name.
    "martingale-repeated-subset": (_suite_with("martingale", subsets=[[1, 2], [2, 1]]), "subsets[1]"),
    "order-repeated-inequality": (
        _suite_with(
            "order-stats",
            cases=[
                {"marginal": {"family": "uniform", "lower": 0.0, "upper": upper}, "n": 4, "k": 2, "l": 3}
                for upper in (1.0, 2.0)
            ],
        ),
        "cases[1]",
    ),
    "order-repeated-markov": (
        _suite_with(
            "order-stats",
            cases=[
                {"marginal": _EXP1, "n": 5, "k": k, "l": 4, "markov_check": True} for k in (2, 3)
            ],
        ),
        "cases[1]",
    ),
    "chain-repeated-pair": (_suite_with("corollary-chain", index_sets=[[1], [1], [1]]), "index_sets[2]"),
    # A repeated index made the conditioning covariance singular.
    "chain-repeated-index": (_suite_with("corollary-chain", index_sets=[[1], [1, 1]]), "index_sets[1]"),
    # Regression tables that do not converge, built at read time: covariance
    # and sequence-stats named no field, copula-swap an empty one.
    "covariance-unresolved-table": (_suite_with("covariance", model=_STEEP_CLAYTON), "model"),
    "sequence-unresolved-table": (_suite_with("sequence-stats", model=_STEEP_CLAYTON), "model"),
    "swap-unresolved-table": (_suite_with("copula-swap", models=[_STEEP_CLAYTON]), "models[0]"),
    # Tables that the operation built: theorem1 tabulated its copies'
    # predictor after validate printed OK, and the iid coalition table
    # named an empty field.
    "copies-unresolved-predictor": (_suite_with("theorem1", model=_NARROW_COPIES), "model"),
    "coalition-iid-unresolved-predictor": (
        _suite_with(
            "coalition",
            brokers={"count": 4, "marginal": {"family": "normal", "mean": 0.0, "sd": 1e6}},
            outsider={"marginal": NORMAL},
        ),
        "brokers",
    ),
    # Misspelt keys, which used to leave the default in force.
    "records-misspelt-cap": (_suite_with("records", caap=4), "caap"),
    "swap-misspelt-threshold": (_suite_with("copula-swap", treshold=0.5), "treshold"),
    "brokers-misspelt-rho": (
        _suite_with("coalition", brokers={"count": 4, "marginal": _EXP1, "rho": 0.5}),
        "brokers.rho",
    ),
}


@pytest.mark.parametrize("case", sorted(_FLAT_STEP_MODELS))
def test_copula_swap_flat_step_names_its_table_and_step(case):
    (diagnostic,) = validate_config(REJECTED[case][0])
    assert diagnostic.field == "models[0]"
    assert "increasing phi" in diagnostic.message or "increasing psi" in diagnostic.message
    step = float(diagnostic.message.rsplit("smallest relative step is ", 1)[1])
    assert step <= 0.0


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


@pytest.mark.parametrize(
    "case, table",
    [
        ("covariance-unresolved-table", "phi"),
        ("sequence-unresolved-table", "psi"),
        ("swap-unresolved-table", "phi"),
        ("copies-unresolved-predictor", "predictor"),
        ("coalition-iid-unresolved-predictor", "predictor"),
    ],
)
def test_unresolved_table_is_named_at_its_models_field(case, table):
    cfg, field = REJECTED[case]
    diagnostics = validate_config(cfg)
    assert {d.field for d in diagnostics} == {field}
    assert any(d.message.startswith(f"{table} table: ") for d in diagnostics), diagnostics


def test_unresolved_max_regression_is_named_at_its_case(monkeypatch):
    def diverging(f, a, b):
        raise NumericalError("no convergence", point=(0, 0.0, 1.0))

    monkeypatch.setattr(ordered, "tabulate", diverging)
    diagnostics = validate_config(cli.default_suite()["order-stats"])
    assert [(d.field, d.message.split(" table: ")[0]) for d in diagnostics] == [
        (f"cases[{pos}]", f"max_regression(n=5, j={j})") for pos in (0, 1) for j in (3, 4)
    ]


def test_copula_swap_admits_the_n_samples_of_the_row_bound():
    # Copula-swap keeps only lattice counts, and order-stats only the
    # statistics of each chunk's sorted rows: both declare width 0 and
    # admit MAX_SAMPLE_CELLS rows.
    for name in ("copula-swap", "order-stats"):
        assert validate_config(_suite_with(name, n_samples=MAX_SAMPLE_CELLS)) == []
        diagnostics = validate_config(_suite_with(name, n_samples=MAX_SAMPLE_CELLS + 1))
        assert [d.field for d in diagnostics] == ["n_samples"]


def test_unresolved_coalition_predictor_rejected_at_read_time(tmp_path, capsys, monkeypatch):
    # Near its floor -1/(k - 1), rho_xx needs more Gauss-Hermite nodes than
    # the cap allows, and the reader's table build reports it at the field.
    # A cap of 32 fails as the cap of 256 does (in about 7 s), in under 1 s.
    monkeypatch.setattr(coalition, "GH_MAX", 32)
    brokers = {"count": 3, "marginal": NORMAL, "rho_xx": -0.48}
    config = _write_config(tmp_path, _suite_with("coalition", brokers=brokers))
    assert _validate("--config", config) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("brokers.rho_xx: ")
    out = tmp_path / "out"
    assert _verify("coalition", "--config", config, "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == lines
    assert not out.exists()


def _nbytes(part):
    """Bytes of a chunk result: arrays, integers, Moments, and the lists
    and tuples that hold them."""
    if isinstance(part, Moments):
        return part.mean.nbytes + part.m2.nbytes
    if isinstance(part, (list, tuple)):
        return sum(map(_nbytes, part))
    return np.asarray(part).nbytes


def _columns_per_row(part):
    """Columns per row of a column-keeping chunk result: a (count, ...)
    array, or a tuple of them."""
    arrays = part if isinstance(part, tuple) else (part,)
    return sum(math.prod(a.shape[1:]) for a in arrays)


@pytest.mark.parametrize("name", sorted(cli.default_suite()))
def test_declared_width_covers_the_kept_columns(name, monkeypatch):
    # The reader's width bounds n_samples before any draw.  An operation
    # that declares width 0 streams: its chunk results do not grow with a
    # chunk's rows.  Any other must cover every column a chunk returns.
    cfg = cli.default_suite()[name]
    f = Fields(cfg)
    f.read.update(("experiment", "seed", "n_samples"))
    call, width = cli.EXPERIMENTS[name](f)
    f.close(None)
    chunk_results = rng._chunk_results

    def chunks_of(n_samples):
        seen = []

        def spy(*args):
            for part in chunk_results(*args):
                seen.append(part)
                yield part

        monkeypatch.setattr(rng, "_chunk_results", spy)
        call(n_samples, cfg["seed"], pool=None)
        assert seen
        return seen

    # One chunk each, of 5000 and 8000 rows.
    small, large = chunks_of(5000), chunks_of(8000)
    if width == 0:
        assert list(map(_nbytes, small)) == list(map(_nbytes, large))
    else:
        assert max(map(_columns_per_row, small + large)) <= width
        assert sum(map(_nbytes, large)) > sum(map(_nbytes, small))
