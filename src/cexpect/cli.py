"""Batch experiment runner.

Loads scenario configs, reads each into built models (one reader per
experiment, on the model builders and constructors, which own every
parameter domain), dispatches to the verification operations, manages
deterministic parallelism (the runner owns the worker pool; modules never
spawn their own), and writes reports:

    <out>/<experiment>.json   typed report envelope (schema_version 1)
    <out>/reports.csv         one row per report (fixed header, LF, UTF-8)
    <out>/manifest.json       tool version, config hashes, timings, discards

`cexpect validate` builds the models of a config and never simulates; it
names every field at fault, as `verify` does before it runs anything.

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
from pathlib import Path

from . import __version__, ordered, theorems
from .coalition import compare_strategies, market_from_config
from .condexp import GaussianVector, ar_vector, bivariate_from_config, equicorrelated_vector
from .config import Diagnostic, Fields
from .errors import CexpectError, ConfigError
from .marginals import marginal_from_config
from .reports import (
    ExperimentResult,
    canonical_config_hash,
    check_sample_size,
    render_csv,
    render_json,
)


# ---------------------------------------------------------------------------
# Experiments: each reads its config into built models and returns the run.


def _read_copies(which, verify):
    def read(f, n_samples, seed):
        models = f.model("model", _copies_models)

        def run(pool):
            reports = [
                verify(m, n_samples, seed, pool=pool, name=f"{which}/{m.label()}") for m in models
            ]
            details = {"battery_size": len(models)}
            return ExperimentResult(experiment=which, reports=reports, details=details)

        return run

    return read


def _copies_models(cfg):
    """The default battery, or the one copies model the config describes."""
    f = Fields(cfg, "a copies model object")
    kinds = ("battery", "gaussian-copies", "conditional-iid")
    if f.close(f.choice("kind", kinds, default="gaussian-copies")) == "battery":
        return theorems.default_copies_battery()
    return [theorems.copies_model_from_config(cfg)]


def _read_theorem3(f, n_samples, seed):
    vector, duplicate = f.model("model", _theorem3_vector) or (None, False)
    name = "theorem3/duplicate" if duplicate else "theorem3"

    def run(pool):
        result = theorems.verify_theorem3(
            vector, n_samples, seed, pool=pool, name=name, duplicate_last=duplicate
        )
        details = {"closed_form": result.closed_form}
        return ExperimentResult(experiment="theorem3", reports=[result.report], details=details)

    return run


def _theorem3_vector(cfg):
    """(vector, duplicate_last): (X, Y, Z), or (X, Y) with Z a duplicate of Y."""
    f = Fields(cfg, "a theorem3 model object")
    kind = f.choice("kind", ("equicorrelated", "explicit", "duplicate"), default="equicorrelated")
    vector = None
    if kind == "explicit":
        vector = f.build(GaussianVector, mean=f.array("mean"), cov=f.array("cov"))
        if vector is not None:
            f.build(theorems.check_theorem3_dim, keys={"dim": "mean"}, dim=vector.dim)
    elif kind is not None:
        dim = 2 if kind == "duplicate" else 3
        vector = f.build(equicorrelated_vector, keys={"cov": "rho"}, dim=dim, rho=f.number("rho"))
    return f.close((vector, kind == "duplicate"))


def _read_corollary(f, n_samples, seed):
    vector = f.model("model", _ar_vector)
    sets = f.index_lists("index_sets")
    if vector is not None and isinstance(sets, list):
        # Config indices are 1-based and the target is the last coordinate.
        zero_based = [[i - 1 for i in s] for s in sets]
        target = vector.dim - 1
        sets = f.build(
            theorems.chain_index_sets, dim=vector.dim, index_sets=zero_based, target=target
        )
    return lambda pool: theorems.verify_corollary_chain(
        vector, sets, n_samples, seed, target=vector.dim - 1, pool=pool, name="corollary-chain"
    )


def _ar_vector(cfg):
    f = Fields(cfg, "an AR model object")
    f.choice("kind", ("ar",), default="ar")
    vector = f.build(ar_vector, keys={"cov": "r"}, dim=f.integer("dim"), r=f.number("r"))
    return f.close(vector)


def _read_bivariate(verify, name):
    def read(f, n_samples, seed):
        model = f.model("model", bivariate_from_config)
        return lambda pool: verify(model, n_samples, seed, pool=pool, name=name)

    return read


def _read_copula_swap(f, n_samples, seed):
    if "models" not in f.cfg and "model" in f.cfg:
        models = [f.model("model", bivariate_from_config)]
    else:
        models = f.models("models", bivariate_from_config)
    grid = f.integer("grid", theorems.COPULA_SWAP_DEFAULT_GRID)
    threshold = f.number("threshold", theorems.COPULA_SWAP_DEFAULT_THRESHOLD)
    f.build(theorems.check_copula_swap, grid=grid, threshold=threshold)

    def run(pool):
        reports = []
        details = {}
        for pos, model in enumerate(models):
            label = f"copula-swap/{model.copula.to_config()['family']}#{pos}"
            result = theorems.verify_copula_theorem(
                model, n_samples, seed, grid=grid, threshold=threshold, pool=pool, name=label
            )
            reports.extend(result.reports)
            details[label] = result.details
        return ExperimentResult(experiment="copula-swap", reports=reports, details=details)

    return run


def _read_martingale(f, n_samples, seed):
    walk_length = f.integer("walk_length")
    subsets = f.index_lists("subsets")
    f.build(theorems.martingale_subsets, walk_length=walk_length, subsets=subsets)

    def run(pool):
        results = theorems.martingale_checks(
            walk_length, n_samples, seed, subsets, pool=pool,
            names=[f"martingale/subset={sorted(s)}" for s in subsets],
        )
        reports = []
        details = {}
        for s, result in zip(subsets, results):
            reports.extend(result.reports)
            details[f"subset={sorted(s)}"] = result.details
        return ExperimentResult(experiment="martingale", reports=reports, details=details)

    return run


def _order_case(cfg):
    """(marginal, n, k, l, markov_check) of one order-stats case."""
    f = Fields(cfg, "an order-stats case object")
    marginal = f.model("marginal", marginal_from_config)
    n, k, l = f.integer("n"), f.integer("k"), f.integer("l")
    markov = f.choice("markov_check", (False, True), default=False)
    f.build(ordered.check_order_indices, n=n, k=k, l=l)
    if markov is True:
        f.build(ordered.check_markov_order, keys={"n": "markov_check"}, n=n)
    return f.close((marginal, n, k, l, markov))


def _read_order_stats(f, n_samples, seed):
    cases = f.models("cases", _order_case)

    def run(pool):
        reports = []
        details = {}
        for pos, (m, n, k, l, markov) in enumerate(cases):
            fam = m.to_config()["family"]
            label = f"order-stats/{fam}(n={n},k={k},l={l})"
            reports.append(
                ordered.mse_order_inequality(m, n, k, l, n_samples, seed, pool=pool, name=label)
            )
            if markov:
                result = ordered.markov_property_check(
                    m, n, n_samples, seed, pool=pool, name=f"order-stats/markov/{fam}(n={n})"
                )
                reports.extend(result.reports)
                details[f"markov/{fam}#{pos}"] = result.details
        return ExperimentResult(experiment="order-stats", reports=reports, details=details)

    return run


def _read_records(f, n_samples, seed):
    marginal = f.model("marginal", marginal_from_config)
    depth, lag = f.integer("depth"), f.integer("lag")
    cap = f.integer("cap", ordered.RECORD_CAP_DEFAULT)
    f.build(ordered.check_record_mse, keys={"n": "depth"}, n=depth, lag=lag, cap=cap)

    def run(pool):
        result = ordered.record_predictor_mse(
            marginal, depth, lag, n_samples, seed, cap=cap, pool=pool, name="records"
        )
        return ExperimentResult("records", reports=[result.report], details=result.details)

    return run


def _read_coalition(f, n_samples, seed):
    market = f.merge(market_from_config)
    return lambda pool: compare_strategies(market, pool=pool, name="coalition")[1]


# experiment name -> reader(fields, n_samples, seed) -> run(pool) -> ExperimentResult
EXPERIMENTS = {
    "theorem1": _read_copies("theorem1", theorems.verify_theorem1),
    "theorem2": _read_copies("theorem2", theorems.verify_theorem2),
    "theorem3": _read_theorem3,
    "corollary-chain": _read_corollary,
    "covariance": _read_bivariate(theorems.verify_covariance_identity, "covariance"),
    "copula-swap": _read_copula_swap,
    "sequence-stats": _read_bivariate(theorems.predicted_sequence_stats, "sequence-stats"),
    "martingale": _read_martingale,
    "order-stats": _read_order_stats,
    "records": _read_records,
    "coalition": _read_coalition,
}

EXPERIMENT_NAMES = list(EXPERIMENTS)


def _read(cfg, experiment=None):
    """(run, diagnostics) for a config dict: run(pool) runs the experiment on
    the models built here, and is None when a diagnostic names a field."""
    name = experiment or cfg.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        message = f"unknown experiment {name!r}; see `cexpect list`"
        return None, [Diagnostic("experiment", message)]
    f = Fields(cfg)
    seed = f.integer("seed")
    n_samples = f.integer("n_samples")
    f.build(check_sample_size, n_samples=n_samples)
    run = EXPERIMENTS[name](f, n_samples, seed)
    return (None if f.diags else run), f.diags


def validate_config(cfg, experiment=None):
    """Diagnostics for a config dict, empty when it is valid.

    Builds every model the config describes and never simulates.
    """
    return _read(cfg, experiment)[1]


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
    """Build the models of one experiment config and run it; returns
    ExperimentResult, or raises ConfigError naming every field at fault."""
    cfg = dict(cfg)
    if seed is not None:
        cfg["seed"] = int(seed)
    run, diags = _read(cfg)
    if diags:
        raise ConfigError(diags)
    own_pool = None
    try:
        if pool is None and workers > 1:
            own_pool = ThreadPoolExecutor(max_workers=workers)
            pool = own_pool
        return run(pool)
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

    p_validate = sub.add_parser(
        "validate", help="check a config by building its models, without simulating"
    )
    p_validate.add_argument("--config", required=True)

    sub.add_parser("list", help="list experiment names")

    args = parser.parse_args(argv)

    if args.command == "list":
        print("\n".join(EXPERIMENT_NAMES))
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
