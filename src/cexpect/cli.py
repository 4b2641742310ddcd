"""Batch experiment runner.

Loads scenario configs, reads each into built models (one reader per
experiment, on the model builders and constructors, which own every
parameter domain), manages deterministic parallelism (the runner owns the
worker pool; modules never spawn their own), and writes reports.  A reader
returns its experiment's operation with the config's models bound, which
takes n_samples and seed and returns the finished ExperimentResult, report
names and detail keys included, and the number of columns it keeps per
row: 0 for an operation whose chunk workers return statistics, which keeps
none.  No reader loops, builds a result or reads n_samples or seed.
`verify --seed` replaces the seed of each config, and the manifest hashes
the config as run.  Every run writes all three outputs:

    <out>/<experiment>.json   report envelope (schema_version 2)
    <out>/reports.csv         one row per report (fixed header, LF, UTF-8)
    <out>/manifest.json       tool version, config hashes, timings, discards

`cexpect validate` builds the models of a config and never simulates; it
names every field at fault, and every key no reader reads, as `verify`
does before it runs anything.  n_samples is bounded by
reports.MAX_SAMPLE_CELLS rows, or cells for records, which hold the
hazards of every kept sequence, so a run that could not hold its sample
fails here, not at allocation.  Every table is built at read time (phi
and psi, the copies predictors, the max_regression, record and coalition
tables), and no operation tabulates: a model whose regressions are not
increasing, or whose table does not converge, is at fault at its field.

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
from functools import partial
from pathlib import Path

from . import __version__, ordered, theorems
from .coalition import compare_strategies, market_from_config, predictor_table
from .condexp import GaussianVector, ar_vector, bivariate_from_config, equicorrelated_vector
from .config import Diagnostic, Fields
from .errors import CexpectError, ConfigError
from .marginals import marginal_from_config
from .reports import canonical_config_hash, check_sample_size, render_csv, render_json
from .rng import MAX_WORKERS, check_seed, check_workers


# ---------------------------------------------------------------------------
# Experiments: each reads its config into built models and tables and
# returns its operation's call and the columns that operation keeps.


def _read_model(builder, verify):
    """The reader of an experiment whose "model" key describes what it runs."""
    return lambda f: (partial(verify, f.model("model", builder)), 0)


def _read_theorem1(f):
    models = f.model("model", theorems.copies_models_from_config)
    predictors = [f.table("model", "predictor", model.predictor) for model in models or []]
    return partial(theorems.verify_theorem1, models, predictors), 0


def _regression_tables(f, key, model):
    """(phi, psi) of the bivariate model read at `key`."""
    return f.table(key, "phi", model.phi), f.table(key, "psi", model.psi)


def _read_covariance(f):
    model = f.model("model", bivariate_from_config)
    tables = None if model is None else _regression_tables(f, "model", model)
    return partial(theorems.verify_covariance_identity, model, tables), 0


def _read_sequence_stats(f):
    model = f.model("model", bivariate_from_config)
    psi = None if model is None else f.table("model", "psi", model.psi)
    return partial(theorems.predicted_sequence_stats, model, psi), 0


def _theorem3_vector(cfg):
    """(X, Y, Z), or (X, Y) with Z a duplicate of Y."""
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
    return f.close(vector)


def _read_corollary(f):
    vector = f.model("model", _ar_vector)
    sets = f.index_lists("index_sets")
    if vector is not None and isinstance(sets, list):
        # Config indices are 1-based.
        zero_based = [[i - 1 for i in s] for s in sets]
        sets = f.build(theorems.chain_index_sets, dim=vector.dim, index_sets=zero_based)
    return partial(theorems.verify_corollary_chain, vector, sets), 0


def _ar_vector(cfg):
    f = Fields(cfg, "an AR model object")
    f.choice("kind", ("ar",), default="ar")
    vector = f.build(ar_vector, keys={"cov": "r"}, dim=f.integer("dim"), r=f.number("r"))
    return f.close(vector)


def _read_copula_swap(f):
    models = f.models("models", bivariate_from_config)
    tables = []
    for pos, model in enumerate(models or []):
        if model is not None:
            key = f"models[{pos}]"
            phi, psi = _regression_tables(f, key, model)
            tables.append(f.build(theorems.copula_swap_tables, keys={"model": key}, phi=phi, psi=psi))
    return partial(theorems.verify_copula_theorem, models, tables), 0


def _read_martingale(f):
    walk_length = f.integer("walk_length")
    subsets = f.index_lists("subsets")
    f.build(theorems.martingale_subsets, walk_length=walk_length, subsets=subsets)
    return partial(theorems.martingale_checks, walk_length, subsets=subsets), 0


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


def _read_order_stats(f):
    cases = f.models("cases", _order_case)
    tables = None
    if cases and None not in cases:
        f.build(ordered.check_order_cases, cases=cases)
        tables = [_max_regressions(f, f"cases[{pos}]", *case) for pos, case in enumerate(cases)]
    return partial(ordered.order_stats, cases, tables), 0


def _max_regressions(f, key, m, n, k, l, markov_check):
    """{j: max_regression(m, n, j)} of each table the case read at `key` reads."""
    return {
        j: f.table(key, f"max_regression(n={n}, j={j})", ordered.max_regression, m, n, j)
        for j in ordered.case_regressions(n, k, l, markov_check)
    }


def _read_records(f):
    marginal = f.model("marginal", marginal_from_config)
    depth, lag = f.integer("depth"), f.integer("lag")
    cap = f.integer("cap", ordered.RECORD_CAP_DEFAULT)
    f.build(ordered.check_record_mse, keys={"n": "depth"}, n=depth, lag=lag, cap=cap)
    # A config already at fault is not tabulated.
    tables = None
    if marginal is not None and not f.diags:
        tables = f.table("marginal", "record", ordered.record_tables, marginal, depth, lag)
    # The hazards of the last three records.
    return partial(ordered.record_predictor_mse, marginal, depth, lag, tables, cap=cap), 3


def _read_coalition(f):
    market = f.merge(market_from_config)
    if market is None:  # its diagnostics are recorded
        return None, 0
    table = f.table("brokers", "predictor", predictor_table, market)
    return partial(compare_strategies, market, table), 0


# experiment name -> reader(fields) -> (call(n_samples, seed, pool=), width),
# where call runs the experiment's operation on the models and tables the
# reader built and width is the number of columns the operation keeps per
# row (0 for none).
EXPERIMENTS = {
    "theorem1": _read_theorem1,
    "theorem2": _read_model(theorems.copies_models_from_config, theorems.verify_theorem2),
    "theorem3": _read_model(_theorem3_vector, theorems.verify_theorem3),
    "corollary-chain": _read_corollary,
    "covariance": _read_covariance,
    "copula-swap": _read_copula_swap,
    "sequence-stats": _read_sequence_stats,
    "martingale": _read_martingale,
    "order-stats": _read_order_stats,
    "records": _read_records,
    "coalition": _read_coalition,
}

EXPERIMENT_NAMES = list(EXPERIMENTS)


def _read(cfg):
    """run(pool) for a config dict, which runs the experiment on the models
    and tables built here, so that it draws and reduces but never
    tabulates; raises ConfigError naming every field at fault.  The reader
    says how many columns its operation keeps, and n_samples is bounded by
    them here, before any draw."""
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        message = f"unknown experiment {name!r}; see `cexpect list`"
        raise ConfigError([Diagnostic("experiment", message)])
    f = Fields(cfg)
    f.read.add("experiment")
    seed = f.integer("seed")
    f.build(check_seed, seed=seed)
    n_samples = f.integer("n_samples")
    call, width = EXPERIMENTS[name](f)
    f.build(check_sample_size, n_samples=n_samples, width=width)
    return f.close(lambda pool: call(n_samples, seed, pool=pool))


def validate_config(cfg):
    """Diagnostics for a config dict, empty when it is valid.

    Builds every model the config describes and never simulates.
    """
    try:
        _read(cfg)
    except ConfigError as exc:
        return exc.diagnostics
    return []


# ---------------------------------------------------------------------------
# Default suite.


def default_suite():
    """Built-in configs for every experiment, the ones `verify all` runs."""
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


def run_experiment(cfg, workers=1):
    """Build the models of one experiment config and run it; returns
    ExperimentResult, or raises ConfigError naming every field at fault.
    `workers` is checked first, so that no pool starts with more than
    rng.MAX_WORKERS threads."""
    check_workers(workers)
    run = _read(cfg)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return run(pool)
    return run(None)


def write_outputs(results, out_dir, manifest_extra=None):
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
        path = out / f"{name}.json"
        path.write_bytes(render_json(result.to_json_dict()))
        entry["report_file"] = path.name
        if "n_discarded" in result.details:
            entry["discards"] = result.details["n_discarded"]
        manifest["experiments"][name] = entry
        all_reports.extend(result.reports)
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
    p_verify.add_argument("experiment", help="experiment name, or 'all' for the default suite")
    p_verify.add_argument("--config", help="JSON config path (for a single experiment, not 'all')")
    p_verify.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_verify.add_argument("--workers", type=int, default=1, help=f"worker threads (1..{MAX_WORKERS})")
    p_verify.add_argument("--out", default="reports", help="output directory")

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
        except CexpectError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if diags:
            for d in diags:
                print(d.render(), file=sys.stderr)
            return 2
        print("OK")
        return 0

    # verify
    try:
        check_workers(args.workers)
        if args.experiment == "all":
            if args.config:
                print("--config is not read by 'all', the default suite", file=sys.stderr)
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
            if args.seed is not None:
                cfg = {**cfg, "seed": args.seed}
            started = time.perf_counter()
            result = run_experiment(cfg, workers=args.workers)
            elapsed = time.perf_counter() - started
            results.append((cfg, result, elapsed))
            status = "ok" if result.all_satisfied else "UNSATISFIED"
            print(f"{result.experiment}: {len(result.reports)} report(s), {status} [{elapsed:.2f}s]")
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(d.render(), file=sys.stderr)
        return 2
    except CexpectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    write_outputs(results, args.out, manifest_extra={"workers": args.workers})
    return 0 if all(r.all_satisfied for _, r, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
