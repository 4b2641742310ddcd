"""The benchmark's tracer finds every entry point it times.

`perfbench/tracer.py` patches the package from outside and reports a name
it cannot resolve as absent, so a renamed or moved entry point would
silently drop out of the per-layer metrics.  This test loads the tracer by
path and writes nothing under `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

import cexpect.ordered
import cexpect.quadrature

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_entry_point_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert [name for name in tracer.ENTRY_POINTS if tracer.resolve(name) is None] == []


def test_ordered_integrates_through_the_traced_engine():
    # The tracer rebinds every module-level copy of quadrature.integrate, so
    # ordered's calls are timed only while it holds that same function.
    assert cexpect.ordered.integrate is cexpect.quadrature.integrate
