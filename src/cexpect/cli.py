"""Batch experiment runner.

Loads scenario configs, dispatches to the verification operations, manages
deterministic parallelism (the runner owns the worker pool; modules never
spawn their own), and writes reports:

    <out>/<experiment>.json   typed report envelope (schema_version 1)
    <out>/reports.csv         one row per report (fixed header, LF, UTF-8)
    <out>/manifest.json       tool version, config hashes, timings, discards

Exit status is 0 iff every verdict in the run is satisfied, 1 on any
unsatisfied verdict, 2 on config or usage errors.  Reports are byte-identical
for a fixed (config, seed) regardless of --workers; the manifest carries
wall-clock timings and is excluded from that guarantee.
"""

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .coalition import compare_strategies, market_from_config
from .condexp import GaussianVector, ar_vector, bivariate_from_config, equicorrelated_vector
from .errors import CexpectError, ConfigError
from .marginals import marginal_from_config
from .ordered import markov_property_check, mse_order_inequality, record_predictor_mse
from .reports import (
    ExperimentResult,
    canonical_config_hash,
    render_csv,
    render_json,
)
from .theorems import (
    copies_model_from_config,
    default_copies_battery,
    martingale_checks,
    predicted_sequence_stats,
    verify_copula_theorem,
    verify_corollary_chain,
    verify_covariance_identity,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)

EXPERIMENT_NAMES = [
    "theorem1",
    "theorem2",
    "theorem3",
    "corollary-chain",
    "covariance",
    "copula-swap",
    "sequence-stats",
    "martingale",
    "order-stats",
    "records",
    "coalition",
]


@dataclass(frozen=True)
class Diagnostic:
    field: str
    message: str

    def render(self):
        return f"{self.field}: {self.message}"


# ---------------------------------------------------------------------------
# Config validation (never simulates).


def _num(cfg, diags, field, key, lo=None, hi=None, lo_strict=False, hi_strict=False, integer=False):
    path = f"{field}.{key}" if field else key
    if key not in cfg:
        diags.append(Diagnostic(path, "missing required key"))
        return None
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        diags.append(Diagnostic(path, f"must be a number, got {val!r}"))
        return None
    if integer and not isinstance(val, int):
        diags.append(Diagnostic(path, f"must be an integer, got {val!r}"))
        return None
    if lo is not None and (val <= lo if lo_strict else val < lo):
        op = ">" if lo_strict else ">="
        diags.append(Diagnostic(path, f"must be {op} {lo}, got {val}"))
        return None
    if hi is not None and (val >= hi if hi_strict else val > hi):
        op = "<" if hi_strict else "<="
        diags.append(Diagnostic(path, f"must be {op} {hi}, got {val}"))
        return None
    return val


def _validate_marginal(cfg, field, diags):
    if not isinstance(cfg, dict):
        diags.append(Diagnostic(field, f"must be a marginal config object, got {cfg!r}"))
        return
    family = cfg.get("family")
    if family == "uniform":
        lo = _num(cfg, diags, field, "lower")
        hi = _num(cfg, diags, field, "upper")
        if lo is not None and hi is not None and not lo < hi:
            diags.append(Diagnostic(f"{field}.upper", f"must be > lower={lo}, got {hi}"))
    elif family == "exponential":
        _num(cfg, diags, field, "rate", lo=0, lo_strict=True)
    elif family == "normal":
        _num(cfg, diags, field, "mean")
        _num(cfg, diags, field, "sd", lo=0, lo_strict=True)
    elif family == "max-of-iid":
        _validate_marginal(cfg.get("base"), f"{field}.base", diags)
        _num(cfg, diags, field, "count", lo=1, integer=True)
    else:
        diags.append(
            Diagnostic(
                f"{field}.family",
                f"must be one of uniform/exponential/normal/max-of-iid, got {family!r}",
            )
        )


def _validate_copula(cfg, field, diags):
    if not isinstance(cfg, dict):
        diags.append(Diagnostic(field, f"must be a copula config object, got {cfg!r}"))
        return
    family = cfg.get("family")
    if family == "independence":
        return
    if family == "gaussian":
        _num(cfg, diags, field, "rho", lo=-1, hi=1, lo_strict=True, hi_strict=True)
    elif family == "fgm":
        _num(cfg, diags, field, "theta", lo=-1, hi=1)
    elif family == "clayton":
        _num(cfg, diags, field, "alpha", lo=0, lo_strict=True)
    else:
        diags.append(
            Diagnostic(
                f"{field}.family",
                f"must be one of independence/gaussian/fgm/clayton, got {family!r}",
            )
        )


def _validate_bivariate(cfg, field, diags):
    if not isinstance(cfg, dict):
        diags.append(Diagnostic(field, f"must be a bivariate model object, got {cfg!r}"))
        return
    _validate_copula(cfg.get("copula", {}), f"{field}.copula", diags)
    _validate_marginal(cfg.get("marginal_x", {}), f"{field}.marginal_x", diags)
    _validate_marginal(cfg.get("marginal_y", {}), f"{field}.marginal_y", diags)


def _validate_common(cfg, diags):
    _num(cfg, diags, "", "n_samples", lo=1000, integer=True)
    if "seed" not in cfg:
        diags.append(
            Diagnostic("seed", "missing required key; seeds are mandatory, never defaulted")
        )
    elif not isinstance(cfg["seed"], int) or isinstance(cfg["seed"], bool):
        diags.append(Diagnostic("seed", f"must be an integer, got {cfg['seed']!r}"))


def _validate_copies_model(model, diags):
    if not isinstance(model, dict):
        diags.append(Diagnostic("model", f"must be an object, got {model!r}"))
        return
    kind = model.get("kind", "gaussian-copies")
    if kind == "battery":
        return
    if kind == "gaussian-copies":
        n = _num(model, diags, "model", "n_copies", lo=1, integer=True)
        rho_xx = _num(model, diags, "model", "rho_xx", lo=-1, hi=1)
        rho_xy = _num(model, diags, "model", "rho_xy", lo=-1, hi=1, lo_strict=True, hi_strict=True)
        if None not in (n, rho_xx, rho_xy) and rho_xx != 1.0 and n > 1:
            if rho_xx <= -1.0 / (n - 1):
                diags.append(
                    Diagnostic("model.rho_xx", f"must be > -1/(n-1) = {-1.0 / (n - 1):.6g}")
                )
            elif n * rho_xy**2 >= 1.0 + (n - 1) * rho_xx:
                diags.append(
                    Diagnostic(
                        "model",
                        f"not positive definite: need n*rho_xy^2 < 1+(n-1)*rho_xx, "
                        f"got {n * rho_xy**2:.6g} >= {1.0 + (n - 1) * rho_xx:.6g}",
                    )
                )
    elif kind == "conditional-iid":
        _num(model, diags, "model", "n_copies", lo=1, integer=True)
        beta = _num(model, diags, "model", "beta")
        if beta == 0:
            diags.append(Diagnostic("model.beta", "must be nonzero"))
        _validate_marginal(model.get("y", {}), "model.y", diags)
        _validate_marginal(model.get("noise", {}), "model.noise", diags)
    else:
        diags.append(
            Diagnostic("model.kind", f"must be battery/gaussian-copies/conditional-iid, got {kind!r}")
        )


def _validate_theorem12(cfg, diags):
    _validate_copies_model(cfg.get("model", {}), diags)


def _validate_theorem3(cfg, diags):
    model = cfg.get("model")
    if not isinstance(model, dict):
        diags.append(Diagnostic("model", f"must be an object, got {model!r}"))
        return
    kind = model.get("kind", "equicorrelated")
    if kind == "equicorrelated":
        _num(model, diags, "model", "rho", lo=-0.5, hi=1, lo_strict=True, hi_strict=True)
    elif kind == "explicit":
        if "mean" not in model or "cov" not in model:
            diags.append(Diagnostic("model", "explicit kind needs 'mean' and 'cov'"))
        else:
            try:
                GaussianVector(model["mean"], model["cov"])
            except CexpectError as exc:
                diags.append(Diagnostic("model.cov", str(exc)))
    elif kind == "duplicate":
        _num(model, diags, "model", "rho", lo=-1, hi=1, lo_strict=True, hi_strict=True)
    else:
        diags.append(Diagnostic("model.kind", f"must be equicorrelated/explicit/duplicate, got {kind!r}"))


def _validate_corollary(cfg, diags):
    model = cfg.get("model")
    if not isinstance(model, dict):
        diags.append(Diagnostic("model", f"must be an object, got {model!r}"))
        return
    dim = _num(model, diags, "model", "dim", lo=2, integer=True)
    _num(model, diags, "model", "r", lo=-1, hi=1, lo_strict=True, hi_strict=True)
    sets = cfg.get("index_sets")
    if not isinstance(sets, list) or len(sets) < 2:
        diags.append(Diagnostic("index_sets", "must be a list of at least two index lists"))
        return
    prev = set()
    for pos, s in enumerate(sets):
        if not isinstance(s, list) or not all(isinstance(i, int) for i in s):
            diags.append(Diagnostic(f"index_sets[{pos}]", "must be a list of integers"))
            return
        if dim is not None and any(not 1 <= i <= dim - 1 for i in s):
            diags.append(
                Diagnostic(f"index_sets[{pos}]", f"indices must be in 1..{dim - 1} (1-based, target is {dim})")
            )
        if not prev.issubset(set(s)):
            diags.append(Diagnostic(f"index_sets[{pos}]", "index sets must be nested"))
        prev = set(s)


def _validate_copula_swap(cfg, diags):
    models = cfg.get("models")
    if models is None and "model" in cfg:
        models = [cfg["model"]]
    if not isinstance(models, list) or not models:
        diags.append(Diagnostic("models", "must be a nonempty list of bivariate models"))
        return
    for pos, m in enumerate(models):
        _validate_bivariate(m, f"models[{pos}]", diags)
    if "grid" in cfg:
        _num(cfg, diags, "", "grid", lo=2, integer=True)
    if "threshold" in cfg:
        _num(cfg, diags, "", "threshold", lo=0, lo_strict=True)


def _validate_bivariate_experiment(cfg, diags):
    _validate_bivariate(cfg.get("model", {}), "model", diags)


def _validate_martingale(cfg, diags):
    n = _num(cfg, diags, "", "walk_length", lo=1, integer=True)
    subsets = cfg.get("subsets")
    if not isinstance(subsets, list) or not subsets:
        diags.append(Diagnostic("subsets", "must be a nonempty list of index lists"))
        return
    for pos, s in enumerate(subsets):
        if not isinstance(s, list) or not all(isinstance(i, int) for i in s):
            diags.append(Diagnostic(f"subsets[{pos}]", "must be a list of integers"))
        elif n is not None and any(not 1 <= i <= n for i in s):
            diags.append(Diagnostic(f"subsets[{pos}]", f"indices must be in 1..{n}"))


def _validate_order_stats(cfg, diags):
    cases = cfg.get("cases")
    if not isinstance(cases, list) or not cases:
        diags.append(Diagnostic("cases", "must be a nonempty list"))
        return
    for pos, case in enumerate(cases):
        field = f"cases[{pos}]"
        if not isinstance(case, dict):
            diags.append(Diagnostic(field, "must be an object"))
            continue
        _validate_marginal(case.get("marginal", {}), f"{field}.marginal", diags)
        n = _num(case, diags, field, "n", lo=2, integer=True)
        k = _num(case, diags, field, "k", lo=1, integer=True)
        l = _num(case, diags, field, "l", lo=1, integer=True)
        if None not in (n, k, l) and not k <= l <= n - 1:
            diags.append(Diagnostic(field, f"need 1 <= k <= l <= n-1, got k={k}, l={l}, n={n}"))
        if case.get("markov_check") and n is not None and n < 3:
            diags.append(Diagnostic(f"{field}.markov_check", "needs n >= 3"))


def _validate_records(cfg, diags):
    _validate_marginal(cfg.get("marginal", {}), "marginal", diags)
    _num(cfg, diags, "", "depth", lo=3, integer=True)
    lag = _num(cfg, diags, "", "lag", lo=1, hi=2, integer=True)
    if "cap" in cfg:
        _num(cfg, diags, "", "cap", lo=1, integer=True)


def _validate_coalition(cfg, diags):
    brokers = cfg.get("brokers")
    if not isinstance(brokers, dict):
        diags.append(Diagnostic("brokers", f"must be an object, got {brokers!r}"))
        return
    count = _num(brokers, diags, "brokers", "count", lo=1, integer=True)
    _validate_marginal(brokers.get("marginal", {}), "brokers.marginal", diags)
    rho = brokers.get("rho_xx")
    if rho is not None:
        bound = -1.0 / (count - 1) if count and count > 1 else -1.0
        val = _num(brokers, diags, "brokers", "rho_xx", hi=1, hi_strict=True)
        if val is not None and count and count > 1 and val <= bound:
            diags.append(Diagnostic("brokers.rho_xx", f"must be > -1/(count-1) = {bound:.6g}"))
    outsider = cfg.get("outsider")
    if outsider is not None:
        if not isinstance(outsider, dict):
            diags.append(Diagnostic("outsider", f"must be an object or null, got {outsider!r}"))
            return
        _validate_marginal(outsider.get("marginal", {}), "outsider.marginal", diags)
        if "count" in outsider:
            _num(outsider, diags, "outsider", "count", lo=1, integer=True)


VALIDATORS = {
    "theorem1": _validate_theorem12,
    "theorem2": _validate_theorem12,
    "theorem3": _validate_theorem3,
    "corollary-chain": _validate_corollary,
    "covariance": _validate_bivariate_experiment,
    "copula-swap": _validate_copula_swap,
    "sequence-stats": _validate_bivariate_experiment,
    "martingale": _validate_martingale,
    "order-stats": _validate_order_stats,
    "records": _validate_records,
    "coalition": _validate_coalition,
}


def validate_config(cfg, experiment=None):
    """Validate a config dict; returns a list of Diagnostic (empty = valid).

    Never executes simulations.
    """
    diags = []
    name = experiment or cfg.get("experiment")
    if name not in EXPERIMENT_NAMES:
        diags.append(
            Diagnostic("experiment", f"unknown experiment {name!r}; see `cexpect list`")
        )
        return diags
    _validate_common(cfg, diags)
    VALIDATORS[name](cfg, diags)
    return diags


# ---------------------------------------------------------------------------
# Experiment runners: validated config -> ExperimentResult.


def _run_theorem12(cfg, seed, pool, verify):
    model_cfg = cfg.get("model", {"kind": "battery"})
    n = cfg["n_samples"]
    which = cfg["experiment"]
    if model_cfg.get("kind", "gaussian-copies") == "battery":
        models = default_copies_battery()
    else:
        models = [copies_model_from_config(model_cfg)]
    reports = [
        verify(m, n, seed, pool=pool, name=f"{which}/{m.label()}") for m in models
    ]
    return ExperimentResult(experiment=which, reports=reports, details={"battery_size": len(models)})


def _run_theorem3(cfg, seed, pool):
    model = cfg["model"]
    kind = model.get("kind", "equicorrelated")
    if kind == "equicorrelated":
        v = equicorrelated_vector(3, float(model["rho"]))
        result = verify_theorem3(v, cfg["n_samples"], seed, pool=pool, name="theorem3")
    elif kind == "explicit":
        v = GaussianVector(model["mean"], model["cov"])
        result = verify_theorem3(v, cfg["n_samples"], seed, pool=pool, name="theorem3")
    else:  # duplicate
        v = equicorrelated_vector(2, float(model["rho"]))
        result = verify_theorem3(
            v, cfg["n_samples"], seed, pool=pool, name="theorem3/duplicate", duplicate_last=True
        )
    return ExperimentResult(
        experiment="theorem3", reports=[result.report], details={"closed_form": result.closed_form}
    )


def _run_corollary(cfg, seed, pool):
    model = cfg["model"]
    v = ar_vector(int(model["dim"]), float(model["r"]))
    sets = [tuple(i - 1 for i in s) for s in cfg["index_sets"]]
    return verify_corollary_chain(
        v, sets, cfg["n_samples"], seed, target=v.dim - 1, pool=pool, name="corollary-chain"
    )


def _run_covariance(cfg, seed, pool):
    model = bivariate_from_config(cfg["model"])
    return verify_covariance_identity(model, cfg["n_samples"], seed, pool=pool, name="covariance")


def _run_copula_swap(cfg, seed, pool):
    models = cfg.get("models") or [cfg["model"]]
    grid = int(cfg.get("grid", 50))
    threshold = float(cfg.get("threshold", 0.02))
    reports = []
    details = {}
    for pos, mc in enumerate(models):
        model = bivariate_from_config(mc)
        label = f"copula-swap/{mc['copula']['family']}#{pos}"
        result = verify_copula_theorem(
            model, cfg["n_samples"], seed, grid=grid, threshold=threshold, pool=pool, name=label
        )
        reports.extend(result.reports)
        details[label] = result.details
    return ExperimentResult(experiment="copula-swap", reports=reports, details=details)


def _run_sequence_stats(cfg, seed, pool):
    model = bivariate_from_config(cfg["model"])
    return predicted_sequence_stats(model, cfg["n_samples"], seed, pool=pool, name="sequence-stats")


def _run_martingale(cfg, seed, pool):
    subsets = cfg["subsets"]
    results = martingale_checks(
        cfg["walk_length"], cfg["n_samples"], seed, subsets, pool=pool,
        names=[f"martingale/subset={sorted(s)}" for s in subsets],
    )
    reports = []
    details = {}
    for s, result in zip(subsets, results):
        reports.extend(result.reports)
        details[f"subset={sorted(s)}"] = result.details
    return ExperimentResult(experiment="martingale", reports=reports, details=details)


def _run_order_stats(cfg, seed, pool):
    reports = []
    details = {}
    for pos, case in enumerate(cfg["cases"]):
        m = marginal_from_config(case["marginal"])
        fam = case["marginal"]["family"]
        label = f"order-stats/{fam}(n={case['n']},k={case['k']},l={case['l']})"
        reports.append(
            mse_order_inequality(
                m, case["n"], case["k"], case["l"], cfg["n_samples"], seed, pool=pool, name=label
            )
        )
        if case.get("markov_check"):
            result = markov_property_check(
                m, case["n"], cfg["n_samples"], seed, pool=pool,
                name=f"order-stats/markov/{fam}(n={case['n']})",
            )
            reports.extend(result.reports)
            details[f"markov/{fam}#{pos}"] = result.details
    return ExperimentResult(experiment="order-stats", reports=reports, details=details)


def _run_records(cfg, seed, pool):
    m = marginal_from_config(cfg["marginal"])
    result = record_predictor_mse(
        m,
        cfg["depth"],
        cfg["lag"],
        cfg["n_samples"],
        seed,
        cap=int(cfg.get("cap", 10**6)),
        pool=pool,
        name="records",
    )
    return ExperimentResult(experiment="records", reports=[result.report], details=result.details)


def _run_coalition(cfg, seed, pool):
    market = market_from_config({**cfg, "seed": seed})
    _, result = compare_strategies(market, pool=pool, name="coalition")
    return result


RUNNERS = {
    "theorem1": lambda cfg, seed, pool: _run_theorem12(cfg, seed, pool, verify_theorem1),
    "theorem2": lambda cfg, seed, pool: _run_theorem12(cfg, seed, pool, verify_theorem2),
    "theorem3": _run_theorem3,
    "corollary-chain": _run_corollary,
    "covariance": _run_covariance,
    "copula-swap": _run_copula_swap,
    "sequence-stats": _run_sequence_stats,
    "martingale": _run_martingale,
    "order-stats": _run_order_stats,
    "records": _run_records,
    "coalition": _run_coalition,
}


# ---------------------------------------------------------------------------
# Default suite.


def default_suite():
    """Built-in configs for every experiment (the `--suite default` battery)."""
    biv_gauss = {
        "copula": {"family": "gaussian", "rho": 0.5},
        "marginal_x": {"family": "normal", "mean": 0.0, "sd": 1.0},
        "marginal_y": {"family": "normal", "mean": 0.0, "sd": 1.0},
    }
    return {
        "theorem1": {
            "experiment": "theorem1", "model": {"kind": "battery"},
            "n_samples": 100_000, "seed": 101,
        },
        "theorem2": {
            "experiment": "theorem2", "model": {"kind": "battery"},
            "n_samples": 100_000, "seed": 102,
        },
        "theorem3": {
            "experiment": "theorem3", "model": {"kind": "equicorrelated", "rho": 0.5},
            "n_samples": 100_000, "seed": 103,
        },
        "corollary-chain": {
            "experiment": "corollary-chain",
            "model": {"kind": "ar", "r": 0.6, "dim": 4},
            "index_sets": [[1], [1, 2], [1, 2, 3]],
            "n_samples": 100_000, "seed": 104,
        },
        "covariance": {
            "experiment": "covariance", "model": biv_gauss,
            "n_samples": 100_000, "seed": 105,
        },
        "copula-swap": {
            "experiment": "copula-swap",
            "models": [
                {**biv_gauss, "copula": {"family": "gaussian", "rho": 0.3}},
                {**biv_gauss, "copula": {"family": "gaussian", "rho": 0.5}},
                {**biv_gauss, "copula": {"family": "gaussian", "rho": 0.8}},
                {
                    "copula": {"family": "clayton", "alpha": 2.0},
                    "marginal_x": {"family": "uniform", "lower": 0.0, "upper": 1.0},
                    "marginal_y": {"family": "uniform", "lower": 0.0, "upper": 1.0},
                },
            ],
            "grid": 50, "threshold": 0.02,
            "n_samples": 100_000, "seed": 106,
        },
        "sequence-stats": {
            "experiment": "sequence-stats",
            "model": {**biv_gauss, "copula": {"family": "gaussian", "rho": 0.6}},
            "n_samples": 100_000, "seed": 107,
        },
        "martingale": {
            "experiment": "martingale", "walk_length": 5,
            "subsets": [[1, 2, 3, 4, 5], [1], [3], [5], []],
            "n_samples": 100_000, "seed": 108,
        },
        "order-stats": {
            "experiment": "order-stats",
            "cases": [
                {"marginal": {"family": "uniform", "lower": 0.0, "upper": 1.0},
                 "n": 5, "k": 3, "l": 4, "markov_check": True},
                {"marginal": {"family": "exponential", "rate": 1.0},
                 "n": 5, "k": 3, "l": 4},
            ],
            "n_samples": 100_000, "seed": 109,
        },
        "records": {
            "experiment": "records",
            "marginal": {"family": "exponential", "rate": 1.0},
            "depth": 4, "lag": 2, "cap": 1_000_000,
            "n_samples": 100_000, "seed": 110,
        },
        "coalition": {
            "experiment": "coalition",
            "brokers": {"count": 4, "marginal": {"family": "uniform", "lower": 0.0, "upper": 1.0}},
            "outsider": {"marginal": {"family": "uniform", "lower": 0.0, "upper": 1.0}},
            "n_samples": 100_000, "seed": 111,
        },
    }


# ---------------------------------------------------------------------------
# Run orchestration.


def run_experiment(cfg, seed=None, workers=1, pool=None):
    """Validate and run one experiment config; returns ExperimentResult."""
    cfg = dict(cfg)
    if seed is not None:
        cfg["seed"] = int(seed)
    diags = validate_config(cfg)
    if diags:
        raise ConfigError(diags)
    own_pool = None
    try:
        if pool is None and workers > 1:
            own_pool = ThreadPoolExecutor(max_workers=workers)
            pool = own_pool
        return RUNNERS[cfg["experiment"]](cfg, cfg["seed"], pool)
    finally:
        if own_pool is not None:
            own_pool.shutdown()


def write_outputs(results, out_dir, fmt="both", manifest_extra=None):
    """Write report files, the aggregate CSV, and the manifest.

    `results` is a list of (config, ExperimentResult, wallclock_seconds).
    Returns the manifest dict.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": 1,
        "tool_version": __version__,
        "experiments": {},
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    all_reports = []
    for cfg, result, elapsed in results:
        name = result.experiment
        entry = {
            "config_hash": canonical_config_hash(cfg),
            "wallclock_seconds": elapsed,
            "all_satisfied": result.all_satisfied,
        }
        if fmt in ("json", "both"):
            path = out / f"{name}.json"
            path.write_bytes(render_json(result.to_json_dict()))
            entry["report_file"] = path.name
        if "n_discarded" in result.details:
            entry["discards"] = result.details["n_discarded"]
        manifest["experiments"][name] = entry
        all_reports.extend(result.reports)
    if fmt in ("csv", "both"):
        (out / "reports.csv").write_bytes(render_csv(all_reports))
    (out / "manifest.json").write_bytes(render_json(manifest))
    return manifest


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([Diagnostic(str(path), "config file not found")])
    except json.JSONDecodeError as exc:
        raise ConfigError([Diagnostic(str(path), f"invalid JSON: {exc}")])
    if not isinstance(cfg, dict):
        raise ConfigError(
            [Diagnostic(str(path), f"config must be a JSON object, got {type(cfg).__name__}")]
        )
    return cfg


def list_suite():
    """The recognized experiment names, one per line."""
    return "\n".join(EXPERIMENT_NAMES)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cexpect",
        description="Conditional-expectation inequality verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one experiment or the whole suite")
    p_verify.add_argument("experiment", help="experiment name, or 'all' for a suite")
    p_verify.add_argument("--config", help="JSON config path (required unless 'all')")
    p_verify.add_argument("--suite", default="default", help="suite name for 'all'")
    p_verify.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_verify.add_argument("--workers", type=int, default=1, help="worker threads (>= 1)")
    p_verify.add_argument("--out", default="reports", help="output directory")
    p_verify.add_argument("--format", choices=["json", "csv", "both"], default="both")

    p_validate = sub.add_parser("validate", help="validate a config without running it")
    p_validate.add_argument("--config", required=True)

    sub.add_parser("list", help="list experiment names")

    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_suite())
        return 0

    if args.command == "validate":
        try:
            diags = validate_config(_load_config(args.config))
        except ConfigError as exc:
            diags = exc.diagnostics
        if diags:
            for d in diags:
                print(d.render(), file=sys.stderr)
            return 2
        print("OK")
        return 0

    # verify
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.experiment == "all":
            if args.suite != "default":
                print(f"unknown suite {args.suite!r}", file=sys.stderr)
                return 2
            configs = list(default_suite().values())
        else:
            if args.experiment not in EXPERIMENT_NAMES:
                print(f"unknown experiment {args.experiment!r}; see `cexpect list`", file=sys.stderr)
                return 2
            if not args.config:
                print("--config is required for a single experiment", file=sys.stderr)
                return 2
            cfg = _load_config(args.config)
            cfg.setdefault("experiment", args.experiment)
            if cfg["experiment"] != args.experiment:
                print(
                    f"config is for {cfg['experiment']!r}, not {args.experiment!r}",
                    file=sys.stderr,
                )
                return 2
            configs = [cfg]

        results = []
        for cfg in configs:
            started = time.perf_counter()
            result = run_experiment(cfg, seed=args.seed, workers=args.workers)
            elapsed = time.perf_counter() - started
            used_cfg = dict(cfg)
            if args.seed is not None:
                used_cfg["seed"] = args.seed
            results.append((used_cfg, result, elapsed))
            status = "ok" if result.all_satisfied else "UNSATISFIED"
            print(f"{result.experiment}: {len(result.reports)} report(s), {status} [{elapsed:.2f}s]")
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(d.render(), file=sys.stderr)
        return 2
    except CexpectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    write_outputs(results, args.out, fmt=args.format, manifest_extra={"workers": args.workers})
    return 0 if all(r.all_satisfied for _, r, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
