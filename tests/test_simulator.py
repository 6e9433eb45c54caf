"""Engine: determinism, exchange accounting, gossip dynamics, aborts."""
from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from decentsim import algorithms, simulator, topology
from decentsim import (
    CommLedger,
    ConfigurationError,
    HyperParams,
    ModelSpec,
    RunAbortError,
    RunConfig,
    TopologySpec,
    build_mixing_matrix,
    consensus_error,
    generate_synthetic,
    run,
    run_round,
    seed_streams,
    spectral_gap,
)

from conftest import make_states


def tiny_config(**kw) -> RunConfig:
    base = dict(algorithm="ngc", agents=4, topology="ring", partition="skew",
                classes=4, dim=6, per_class=24, val_per_class=8, spread=0.3,
                epochs=2, batch_size=8, seed=5, model="mlp", hidden_dim=5)
    base.update(kw)
    return RunConfig(**base)


# ------------------------------------------------------------- seed streams


def test_seed_streams_are_reproducible_and_distinct():
    a = seed_streams(42, 4)
    b = seed_streams(42, 4)
    assert a.partition_seed == b.partition_seed
    assert a.val_seed == b.val_seed
    draws_a = [rng.random(1000) for rng in a.agent_rngs]
    draws_b = [rng.random(1000) for rng in b.agent_rngs]
    for da, db in zip(draws_a, draws_b):
        assert (da == db).all()
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (draws_a[i] == draws_a[j]).all()
    assert not (a.init_rng.random(100) == b.agent_rngs[0].random(100)).all()


def test_seed_streams_differ_across_master_seeds():
    a = seed_streams(1, 2)
    b = seed_streams(2, 2)
    assert a.partition_seed != b.partition_seed
    assert not (a.init_rng.random(50) == b.init_rng.random(50)).all()


# ------------------------------------------------------------ determinism


def test_same_config_twice_gives_bitwise_identical_rows_and_params():
    cfg = tiny_config()
    r1 = run(cfg)
    r2 = run(cfg)
    assert r1.rows == r2.rows
    for s1, s2 in zip(r1.states, r2.states):
        assert (s1.params == s2.params).all()


def test_different_seeds_change_the_trajectory():
    r1 = run(tiny_config(seed=1))
    r2 = run(tiny_config(seed=2))
    assert r1.rows != r2.rows


def test_partition_does_not_depend_on_training_length():
    short = run(tiny_config(epochs=1))
    long = run(tiny_config(epochs=3))
    for s1, s2 in zip(short.states, long.states):
        assert (s1.shard == s2.shard).all()


def test_two_identical_agents_stay_bitwise_identical():
    # Exchangeability: same shard, same batch stream, symmetric weights.
    data = generate_synthetic(3, 4, 30, 0.3, 11)
    spec = ModelSpec(4, 3, hidden_dim=5)
    w = np.full((2, 2), 0.5)
    hp = HyperParams(1.0, 0.9, 0.05, 0.5, "constant")
    shard = np.arange(data.n)
    for alg in ("dpsgd", "ngc", "compngc"):
        states = make_states(2, spec, data, [shard, shard], seed=4,
                             shared_rng_seed=321)
        for _ in range(10):
            states, _, _ = run_round(states, w, hp, alg, batch_size=10)
            assert (states[0].params == states[1].params).all()


def test_compngc_error_buffers_start_empty_and_act_as_zero():
    data = generate_synthetic(4, 6, 24, 0.3, 2)
    spec = ModelSpec(6, 4, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("ring", 4))
    hp = HyperParams(1.0, 0.9, 0.05, 0.5, "constant")
    shards = np.array_split(np.arange(data.n), 4)
    lazy = make_states(4, spec, data, shards, seed=6)
    assert lazy[0].err_self is None and lazy[0].err_out == {}
    zero = np.zeros(spec.param_count)
    seeded = [
        dataclasses.replace(s, err_self=zero.copy(),
                            err_out={(i - 1) % 4: zero.copy(), (i + 1) % 4: zero.copy()})
        for i, s in enumerate(make_states(4, spec, data, shards, seed=6))
    ]
    for _ in range(20):
        lazy, _, _ = run_round(lazy, w, hp, "compngc", batch_size=8)
        seeded, _, _ = run_round(seeded, w, hp, "compngc", batch_size=8)
    for a, b in zip(lazy, seeded):
        assert (a.params == b.params).all()
        assert (a.err_self == b.err_self).all()
        assert a.err_out.keys() == b.err_out.keys()
        assert all((a.err_out[j] == b.err_out[j]).all() for j in a.err_out)


# ------------------------------------------------------ in-place rounds


@pytest.mark.parametrize("alg", ["dpsgd", "ngc", "compngc"])
def test_run_round_updates_every_agent_in_place(alg):
    data = generate_synthetic(4, 6, 24, 0.3, 2)
    spec = ModelSpec(6, 4, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("ring", 4))
    hp = HyperParams(1.0, 0.9, 0.05, 0.5, "constant")
    states = make_states(4, spec, data, np.array_split(np.arange(data.n), 4), seed=6)
    before = list(states)
    x0 = states[0].params
    returned, _, _ = run_round(states, w, hp, alg, batch_size=8)
    assert returned is states
    assert all(a is b for a, b in zip(states, before))
    assert states[0].params is not x0 and not (states[0].params == x0).all()


def test_ngc_round_matches_a_reference_with_copied_inboxes():
    # The engine runs each agent's update and gossip back to back. Its
    # inboxes alias the senders' params, so a later agent's gossip must
    # still see its neighbours' pre-round values: the same result as
    # finishing every update before any gossip, from copied inboxes.
    data = generate_synthetic(3, 4, 30, 0.3, 3)
    spec = ModelSpec(4, 3, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("ring", 3))
    hp = HyperParams(0.5, 0.9, 0.05, 0.5, "constant")
    shards = np.array_split(np.arange(data.n), 3)
    engine = make_states(3, spec, data, shards, seed=9)
    ref = make_states(3, spec, data, shards, seed=9)
    weights = [{j: float(w[i, j]) for j in topology.neighbors(w, i)} for i in range(3)]
    peers = [[j for j in weights[i] if j != i] for i in range(3)]
    for _ in range(3):
        params_in = [{j: ref[j].params.copy() for j in peers[i]} for i in range(3)]
        works = [algorithms.ngc_prepare(s, params_in[i], hp, 10) for i, s in enumerate(ref)]
        cross_in = [{j: works[j].outgoing[i].copy() for j in peers[i]} for i in range(3)]
        updates = [algorithms.ngc_update(s, works[i], cross_in[i], hp, weights[i])
                   for i, s in enumerate(ref)]
        for i, s in enumerate(ref):
            algorithms.ngc_apply(s, updates[i][0], updates[i][1], params_in[i], weights[i], hp)
        run_round(engine, w, hp, "ngc", batch_size=10)
        for a, b in zip(engine, ref):
            assert (a.params == b.params).all()
            assert (a.momentum == b.momentum).all()


# ------------------------------------------------------- byte accounting


def d_of(spec: ModelSpec) -> int:
    return spec.param_count


def test_ring5_param_exchange_is_4000_bytes_per_round_at_d100():
    # 19 features, 5 classes: logistic d = 19*5 + 5 = 100.
    data = generate_synthetic(5, 19, 12, 0.3, 0)
    spec = ModelSpec(19, 5)
    assert spec.param_count == 100
    w = build_mixing_matrix(TopologySpec("ring", 5))
    shards = np.array_split(np.arange(data.n), 5)
    states = make_states(5, spec, data, shards, seed=0)
    hp = HyperParams(0.0, 0.0, 0.01, 1.0, "constant")
    ledger = CommLedger()
    run_round(states, w, hp, "ngc", batch_size=4, ledger=ledger)
    assert ledger.param_bytes == 4000  # 10 directed edges * 4 bytes * d=100
    assert ledger.crossgrad_bytes == 0  # alpha == 0 sends nothing
    assert ledger.messages == 10


def test_ngc_round_bytes_are_exactly_double_dpsgd():
    cfg_d = tiny_config(algorithm="dpsgd", epochs=1)
    cfg_n = tiny_config(algorithm="ngc", alpha=1.0, epochs=1)
    led_d = run(cfg_d).ledger
    led_n = run(cfg_n).ledger
    assert led_n.total_bytes == 2 * led_d.total_bytes
    assert led_n.param_bytes == led_d.param_bytes
    assert led_n.crossgrad_bytes == led_n.param_bytes


def test_alpha_zero_ngc_costs_the_same_as_dpsgd():
    led_0 = run(tiny_config(algorithm="ngc", alpha=0.0, epochs=1)).ledger
    led_d = run(tiny_config(algorithm="dpsgd", epochs=1)).ledger
    assert led_0.total_bytes == led_d.total_bytes
    assert led_0.crossgrad_bytes == 0


def test_compressed_cross_gradients_use_wire_size():
    from decentsim import wire_size_bytes
    cfg = tiny_config(algorithm="compngc", epochs=1)
    result = run(cfg)
    d = result.spec.param_count
    rounds = len(result.ledger.round_param_bytes)
    edges = 8  # ring-4: each agent has 2 peers
    assert result.ledger.param_bytes == rounds * edges * 4 * d
    assert result.ledger.crossgrad_bytes == rounds * edges * wire_size_bytes(d)


def test_ledger_counts_are_monotone_and_per_agent_totals_match():
    result = run(tiny_config(epochs=2))
    ledger = result.ledger
    assert all(b >= 0 for b in ledger.round_param_bytes)
    running = np.cumsum(ledger.round_param_bytes)
    assert running[-1] == ledger.param_bytes


def test_metrics_rows_track_cumulative_ledger():
    result = run(tiny_config(epochs=3))
    rows = result.rows
    assert rows[0].param_bytes == 0 and rows[0].crossgrad_bytes == 0
    bytes_seq = [r.param_bytes + r.crossgrad_bytes for r in rows]
    assert bytes_seq == sorted(bytes_seq)
    assert bytes_seq[-1] == result.ledger.total_bytes


# ----------------------------------------------------------- gossip dynamics


@pytest.mark.parametrize("alg", ["dpsgd", "ngc"])
def test_pure_gossip_preserves_mean_and_contracts_by_rho(alg):
    data = generate_synthetic(3, 4, 30, 0.3, 2)
    spec = ModelSpec(4, 3, hidden_dim=4)
    topo = TopologySpec("ring", 5)
    w = build_mixing_matrix(topo)
    rho = spectral_gap(w).rho
    shards = np.array_split(np.arange(data.n), 5)
    states = make_states(5, spec, data, shards, seed=8)
    rng = np.random.default_rng(3)
    for s in states:
        s.params = rng.standard_normal(spec.param_count)
    hp = HyperParams(alpha=0.0, beta=0.0, eta=0.0, gamma=1.0, schedule="constant")
    mean_before = np.mean([s.params for s in states], axis=0)
    err = consensus_error(states)
    for _ in range(8):
        states, _, _ = run_round(states, w, hp, alg, batch_size=5)
        new_err = consensus_error(states)
        assert new_err <= (rho + 1e-6) * err
        err = new_err
    mean_after = np.mean([s.params for s in states], axis=0)
    assert np.abs(mean_after - mean_before).max() <= 1e-10


def test_pure_gossip_on_a_full_graph_reaches_consensus_in_one_round():
    data = generate_synthetic(2, 3, 20, 0.3, 2)
    spec = ModelSpec(3, 2)
    w = build_mixing_matrix(TopologySpec("full", 4))
    shards = np.array_split(np.arange(data.n), 4)
    states = make_states(4, spec, data, shards, seed=8)
    rng = np.random.default_rng(4)
    for s in states:
        s.params = rng.standard_normal(spec.param_count)
    hp = HyperParams(alpha=0.0, beta=0.0, eta=0.0, gamma=1.0, schedule="constant")
    states, _, _ = run_round(states, w, hp, "dpsgd", batch_size=5)
    assert consensus_error(states) <= 1e-24


# ------------------------------------------------------------------- aborts


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_aborts_with_the_round_index():
    # Cross-entropy gradients are bounded, so divergence must overflow the
    # float range through momentum accumulation; a huge step does it fast.
    cfg = tiny_config(algorithm="dpsgd", eta=1e308, schedule="constant", epochs=4)
    with pytest.raises(RunAbortError, match="round") as exc_info:
        run(cfg)
    assert exc_info.value.round_index >= 1


def test_batch_size_larger_than_smallest_shard_is_rejected():
    with pytest.raises(ConfigurationError, match="batch_size"):
        run(tiny_config(batch_size=1000))


def test_invalid_configs_are_rejected():
    with pytest.raises(ConfigurationError):
        tiny_config(algorithm="sgd").validate()
    with pytest.raises(ConfigurationError):
        tiny_config(partition="dirichlet").validate()
    with pytest.raises(ConfigurationError):
        tiny_config(alpha=2.0).validate()
    with pytest.raises(ConfigurationError):
        tiny_config(epochs=0).validate()
    with pytest.raises(ConfigurationError):
        tiny_config(workers=0).validate()
    with pytest.raises(ConfigurationError, match="workers"):
        tiny_config(workers=2).validate()


# ---------------------------------------------------------------- CSV input


def write_csv_dataset(tmp_path) -> str:
    """Three well-separated classes of 30 rows in `label,f1,...,f4` form."""
    rng = np.random.default_rng(0)
    lines = []
    for c in range(3):
        center = np.zeros(4)
        center[c] = 1.0
        for _ in range(30):
            row = center + 0.2 * rng.standard_normal(4)
            lines.append(f"{c}," + ",".join(f"{v:.6f}" for v in row))
    path = tmp_path / "train.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_run_on_a_csv_dataset(tmp_path):
    cfg = tiny_config(agents=3, dataset=write_csv_dataset(tmp_path), partition="skew",
                      epochs=2, batch_size=4, model="logistic")
    result = run(cfg)
    assert result.final_row.val_acc > 0.2
    again = run(cfg)
    assert result.rows == again.rows


def test_mlp_beats_chance_quickly_on_an_easy_iid_problem():
    cfg = tiny_config(partition="iid", epochs=15, spread=0.15, eta=0.05,
                      schedule="constant")
    result = run(cfg)
    assert result.final_row.val_acc >= 0.9


# ------------------------------------------------------------- set-up pass

SETUP_STEPS = {
    "build_mixing_matrix": topology,
    "validate_doubly_stochastic": topology,
    "spectral_gap": topology,
    "_neighbor_tables": simulator,
    "seed_streams": simulator,
}


def count_setup_steps(monkeypatch) -> dict:
    """Count calls to each set-up step through every decentsim binding of it."""
    counts = dict.fromkeys(SETUP_STEPS, 0)
    modules = [m for name, m in sys.modules.items()
               if name == "decentsim" or name.startswith("decentsim.")]
    for name, home in SETUP_STEPS.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("source", ["synthetic-compngc", "csv-ngc"])
def test_one_run_builds_checks_and_solves_w_and_seeds_once(source, tmp_path, monkeypatch):
    if source == "synthetic-compngc":
        cfg = tiny_config(algorithm="compngc", epochs=1)
    else:
        cfg = tiny_config(agents=3, dataset=write_csv_dataset(tmp_path), epochs=1,
                          batch_size=4)
    counts = count_setup_steps(monkeypatch)
    run(cfg)
    assert counts == dict.fromkeys(SETUP_STEPS, 1)


def test_result_serves_sqrt_rho_from_its_mixing_matrix():
    result = run(tiny_config(epochs=1))
    assert (result.w == build_mixing_matrix(TopologySpec("ring", 4))).all()
    assert result.sqrt_rho == spectral_gap(result.w).sqrt_rho
