"""The package names and configs that the benchmark in perfbench/ relies on.

perfbench/ drives decentsim from outside: its workloads build RunConfigs,
its tracer wraps functions by module and name, and its set-up timer
replaces `simulator.initial_states`, which `run` must therefore look up
through the module once per run. A change that breaks one of these pins
fails here instead of in a benchmark run. Nothing under perfbench/ is
modified; its files are only loaded.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from decentsim import RunConfig, simulator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    qualified = f"perfbench_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(qualified, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
    return sys.modules[qualified]


@pytest.mark.parametrize("workload", ["skew-ring5", "wide-compngc", "ring-many"])
def test_every_benchmark_sweep_config_validates(workload):
    sweeps = load_perfbench("workloads").WORKLOADS[workload].sweeps(1)
    assert sweeps
    for sweep in sweeps:
        sweep.config.validate()


def test_every_traced_name_is_a_callable_of_its_module():
    for short, names in load_perfbench("tracer").TRACED.items():
        module = importlib.import_module(f"decentsim.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"decentsim.{short}.{name}"


def test_run_calls_initial_states_once_through_the_module(monkeypatch):
    calls = []
    original = simulator.initial_states

    def counted(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(simulator, "initial_states", counted)
    config = RunConfig(agents=4, classes=4, dim=6, per_class=24, val_per_class=8,
                       hidden_dim=5, epochs=1, batch_size=8)
    simulator.run(config)
    assert calls == [config]
