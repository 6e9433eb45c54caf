"""The package names, configs and outputs that the benchmark in perfbench/ relies on.

perfbench/ drives decentsim from outside: its workloads build RunConfigs,
its tracer wraps functions by module and name, its set-up timer
replaces `simulator.initial_states`, which `run` must therefore look up
through the module once per run, and its output checks read each run's
result, ledger and metrics.csv. A change that breaks one of these pins
fails here instead of in a benchmark run. Nothing under perfbench/ is
modified; its files are only loaded.
"""
from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from decentsim import ModelSpec, RunConfig, cli, simulator, wire_size_bytes
from decentsim.algorithms import neighbor_slots

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


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_every_frozen_config_validates_and_survives_its_echo(tmp_path):
    # The frozen benchmark's sweep configs and the golden config.txt files
    # must stay inside what RunConfig.validate accepts, and each must read
    # back unchanged from its echo (the golden ones byte for byte).
    configs = [sweep.config for workload in ("skew-ring5", "wide-compngc", "ring-many")
               for sweep in load_perfbench("workloads").WORKLOADS[workload].sweeps(1)]
    echoes = sorted(GOLDEN.glob("*/seed_*/config.txt"))
    assert len(echoes) == 14
    configs += [RunConfig(**cli.read_config_file(str(path))) for path in echoes]
    path = tmp_path / "config.txt"
    for config in configs:
        config.validate()
        cli.write_config_file(config, str(path))
        assert RunConfig(**cli.read_config_file(str(path))) == config
    for echo, config in zip(echoes, configs[-len(echoes):]):
        cli.write_config_file(config, str(path))
        assert path.read_bytes() == echo.read_bytes(), echo


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


@pytest.mark.parametrize("algorithm", ["dpsgd", "ngc", "compngc"])
def test_each_emission_calls_consensus_model_and_error_once_through_the_module(
        algorithm, monkeypatch):
    # perfbench's metrics.emit_calls counts these two spans, which its
    # tracer catches where run looks them up. The centre goes into an
    # out row and consensus_error reuses it.
    calls = []
    model, error = simulator.consensus_model, simulator.consensus_error

    def counted_model(x, out=None):
        calls.append(("model", out))
        return model(x, out=out)

    def counted_error(x, out=None, center=None):
        calls.append(("error", center))
        return error(x, out=out, center=center)

    monkeypatch.setattr(simulator, "consensus_model", counted_model)
    monkeypatch.setattr(simulator, "consensus_error", counted_error)
    result = simulator.run(small_config(algorithm))
    assert [name for name, _ in calls] == ["model", "error"] * len(result.rows)
    for (_, out), (_, center) in zip(calls[::2], calls[1::2]):
        assert out is not None and out.shape == (result.spec.param_count,)
        assert center is out


# ------------------------------------------------ what perfbench/run.py reads


def small_config(algorithm: str) -> RunConfig:
    return RunConfig(algorithm=algorithm, agents=4, topology="ring", partition="iid",
                     classes=4, dim=6, per_class=24, val_per_class=8, hidden_dim=5,
                     epochs=2, batch_size=8, seed=1)


def per_round(config: RunConfig):
    """The closed form perfbench checks: a 4-ring has 8 directed edges."""
    d = ModelSpec(config.dim, config.classes, config.hidden_dim).param_count
    cross = 8 * (wire_size_bytes(d) if config.algorithm == "compngc" else 4 * d)
    codec = dict(ef_step=12, decompress=32) if config.algorithm == "compngc" else {}
    return load_perfbench("workloads").PerRound(
        grad=12, messages=16, param_bytes=8 * 4 * d, crossgrad_bytes=cross, **codec)


@pytest.mark.parametrize("algorithm", ["ngc", "compngc"])
def test_perfbench_output_checks_pass_on_a_sweep(algorithm, tmp_path, monkeypatch):
    # _check_run reads result.states (params, momentum, err_self, the
    # err_out dict), the ledger's per-round lists and metrics.csv.
    results = []

    def kept_run(config):
        results.append(simulator.run(config))
        return results[-1]

    monkeypatch.setattr(cli, "run", kept_run)
    config = small_config(algorithm)
    seeds = [1, 2]
    summary = cli.run_sweep(config, seeds, str(tmp_path))
    assert summary["completed"] == seeds
    sweep = load_perfbench("workloads").Sweep(algorithm, config, tuple(seeds),
                                              per_round(config))
    check_run = load_perfbench("run")._check_run
    for seed, result in zip(seeds, results):
        assert check_run(result, sweep, seed, tmp_path) == []


def traced_round(algorithm: str, sent: bool, n: int, e: int):
    """Per round with N agents and E directed edges: gradient, ef_step and
    decompress calls, and messages; sent says whether cross-gradients are sent."""
    codec = (n + e, 2 * (n + e) + e * sent) if algorithm == "compngc" else (0, 0)
    return (n if algorithm == "dpsgd" else n + e), *codec, e * (1 + sent)


# The 5-ring at alpha = 1 is skew-ring5's and wide-compngc's round (under
# compngc 15 / 15 / 40 / 20); the 5-agent Metropolis chain has uneven degrees.
# On the 3x3 torus the data-variant slots are index arrays, so compngc's
# reads there are gathers. dpsgd takes no alpha, so it runs at alpha = 1 only.
TRACED_ROUNDS = [pytest.param(algorithm, "ring", 1.0, id=algorithm)
                 for algorithm in ("compngc", "ngc", "dpsgd")] + [
    pytest.param(algorithm, kind, alpha, id=f"{algorithm}-{kind}-a{alpha}")
    for algorithm in ("compngc", "ngc", "dpsgd") for kind in ("ring", "chain", "torus")
    for alpha in (0.0, 0.5, 1.0)
    if (kind, alpha) != ("ring", 1.0) and (algorithm != "dpsgd" or alpha == 1.0)
    and (kind != "torus" or algorithm == "compngc")]
AGENTS = {"ring": 5, "chain": 5, "torus": 9}


@pytest.mark.parametrize("algorithm, kind, alpha", TRACED_ROUNDS)
def test_traced_compngc_round_meets_the_perfbench_closed_form(algorithm, kind, alpha):
    # perfbench's simulator.exchange_s reads the exchange spans: per block
    # of degree k, k + 1 gossip slots and, when alpha != 0, k data-variant
    # slots. A sender reads its own messages through no exchange.
    tracer_mod = load_perfbench("tracer")
    tracer = tracer_mod.Tracer()
    agents = AGENTS[kind]
    config = dataclasses.replace(small_config(algorithm), agents=agents, per_class=5 * agents,
                                 topology=kind, alpha=alpha)
    with tracer_mod.patched(tracer.wrap):
        result = simulator.run(config)
    table = tracer_mod.SpanTable(tracer)
    rounds = table.ids(tracer_mod.ROUND)
    assert rounds.size == 4  # 2 epochs of 20-sample shards at batch 8
    n = result.w.shape[0]
    edges = np.count_nonzero(result.w[~np.eye(n, dtype=bool)])
    sent = algorithm != "dpsgd" and alpha != 0.0
    grad, ef_steps, decompresses, messages = traced_round(algorithm, sent, n, edges)
    blocks = neighbor_slots(result.w, result.spec.param_count).blocks
    if kind == "torus":
        assert any(not isinstance(index, slice) for b in blocks for index in b.back)
    for name, count in [("models.loss_and_gradient", grad), ("compression.ef_step", ef_steps),
                        ("compression.decompress", decompresses),
                        ("simulator.exchange_params", sum(len(b.nbrs) for b in blocks)),
                        ("simulator.exchange_cross_gradients",
                         sum(len(b.back) for b in blocks) if sent else 0)]:
        assert table.within(rounds, name).tolist() == [count] * rounds.size, name
    assert [m for _, m in tracer.round_messages] == [messages] * rounds.size


# ------------------------------------------------ what perfbench/probes.py calls


def test_kernel_probes_run_every_probe_once(monkeypatch):
    # --trace 1 runs the probes after measuring; a changed signature must
    # fail here, not at the end of a benchmark run.
    probes = load_perfbench("probes")
    calls = []

    def once(fn, min_seconds=0.2, min_reps=5):
        fn()
        calls.append(fn)
        return {"us": 0.0, "reps": 1}

    monkeypatch.setattr(probes, "_median_us", once)
    out = probes.kernel_probes()
    # Four kernel shapes; at each of two d: ef_step, decompress, encode, two gossip degrees.
    assert len(calls) == 4 + 2 * (3 + 2)
    gaps = [k for k in out if k.startswith("spectral_gap.")]
    assert len(gaps) == 3 and all(out[k]["ok"] for k in gaps), out


def test_criterion_3_gate_runs_in_process():
    load_perfbench("probes").GATES["criterion-3"]()
