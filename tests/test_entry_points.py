"""The benchmark's interface to the package still holds.

`perfbench/tracer.py` patches the package from outside and reports a name
it cannot resolve as absent, so a renamed or moved entry point would
silently drop out of the per-layer metrics; `perfbench/workloads.py` holds
configs that the benchmark runs through `cli.run_experiment(cfg,
workers=)`, so a config the package stopped accepting would fail every
operation of a workload, and a report it no longer satisfies would count
as a wrong answer.  These tests load both files by path and write nothing
under `perfbench/`.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import cexpect.ordered
import cexpect.quadrature
import cexpect.rng
from cexpect import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    assert [name for name in tracer.ENTRY_POINTS if tracer.resolve(name) is None] == []


@pytest.mark.parametrize("workload", ["tabulation", "records", "sampling"])
def test_every_workload_and_defect_config_validates(monkeypatch, workload):
    workloads = _load(monkeypatch, "workloads")
    configs = workloads.workload_configs(workload, 1) + workloads.defect_configs(workload, 1)
    assert configs and [cli.validate_config(cfg) for cfg in configs] == [[]] * len(configs)


@pytest.mark.parametrize("workload", ["tabulation", "records", "sampling"])
def test_every_workload_config_is_satisfied_at_seed_1(monkeypatch, workload):
    # The benchmark counts a failed verdict as a wrong answer, so a change of
    # draws that trips one fails here before it fails the benchmark.
    workloads = _load(monkeypatch, "workloads")
    workers = workloads.WORKLOADS[workload]["workers"]
    for cfg in workloads.workload_configs(workload, 1):
        result = cli.run_experiment(cfg, workers=workers)
        assert result.all_satisfied, (cfg, [r for r in result.reports if not r.satisfied])


def test_run_experiment_takes_workers():
    assert "workers" in inspect.signature(cli.run_experiment).parameters


@pytest.mark.parametrize("scheduler", [cexpect.rng.run_chunked, cexpect.rng.simulate_chunked])
def test_schedulers_take_the_worker_and_row_count_first(scheduler):
    # The tracer reads a traced scheduler call's positional arguments: the
    # worker, args[0], to name the code it runs, and n_total, args[1], to
    # count its rows.
    assert list(inspect.signature(scheduler).parameters)[:2] == ["worker", "n_total"]


def test_ordered_integrates_through_the_traced_engine():
    # ordered does not call integrate.  It keeps the binding because
    # perfbench's test_tracer_reports_missing_names_and_restores_bindings
    # calls ordered.integrate through the tracer's rebinding, which only
    # reaches a module-level copy of quadrature.integrate.
    assert cexpect.ordered.integrate is cexpect.quadrature.integrate
