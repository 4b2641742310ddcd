"""Tests of the benchmark itself, on tiny configs.

    python3 -m pytest perfbench
"""

import json
import sys

import pytest

import run
import tracer
from workloads import EXP1, UNIFORM, seeded

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "tabulation": [
        {
            "experiment": "copula-swap",
            "models": [{"copula": {"family": "fgm", "theta": 0.5},
                        "marginal_x": UNIFORM, "marginal_y": UNIFORM}],
            "n_samples": 20_000,
        },
        {
            "experiment": "order-stats",
            "cases": [{"marginal": EXP1, "n": 3, "k": 1, "l": 2}],
            "n_samples": 5_000,
        },
    ],
    "records": [
        {"experiment": "records", "marginal": EXP1, "depth": 3, "lag": 2,
         "cap": 100_000, "n_samples": 5_000},
    ],
    "sampling": [
        {"experiment": "corollary-chain", "model": {"kind": "ar", "r": 0.6, "dim": 3},
         "index_sets": [[1], [1, 2]], "n_samples": 5_000},
        {"experiment": "martingale", "walk_length": 3, "subsets": [[1], []],
         "n_samples": 5_000},
    ],
}


def run_tiny(workload, trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, configs=seeded(TINY[workload], 3)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_prints_every_metric(workload, trace, capsys, monkeypatch):
    lines, result = run_tiny(workload, trace, capsys, monkeypatch)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_records_time_lands_in_simulate_records(capsys, monkeypatch):
    _, result = run_tiny("records", 1, capsys, monkeypatch)
    metrics = result["metrics"]
    self_times = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "ordered.simulate_records.self_s"
    assert metrics["ordered.simulate_records.calls"]["value"] == 1
    assert 0.0 < metrics["ordered.records_kept_frac"]["value"] <= 1.0


def test_tracer_reports_missing_names_and_restores_bindings():
    import cexpect.ordered as ordered
    import cexpect.quadrature as quadrature

    original = quadrature.integrate
    missing = ["quadrature.no_such_function", "no_such_module.f", "condexp.NoSuchClass.method"]
    t = tracer.Tracer()
    with t.installed(tracer.ENTRY_POINTS + missing) as absent:
        assert ordered.integrate is not original
        assert ordered.integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5)
    assert absent == missing
    assert ordered.integrate is original and quadrature.integrate is original
    metrics = t.layer_metrics(tracer.ENTRY_POINTS + missing)
    assert metrics["quadrature.integrate"][1] == 1
    assert all(metrics[name] == (0.0, 0) for name in missing)


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "records", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""
