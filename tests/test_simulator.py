"""Engine: determinism, exchange accounting, gossip dynamics, aborts."""
from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from decentsim import simulator, topology
from decentsim import (
    CommLedger,
    ConfigurationError,
    GradientBundle,
    HyperParams,
    ModelSpec,
    RunAbortError,
    RunConfig,
    TopologySpec,
    bias_norms,
    build_mixing_matrix,
    consensus_error,
    cross_gradient,
    decompress,
    ef_step,
    generate_synthetic,
    gossip_step,
    loss_and_gradient,
    momentum_update,
    ngc_mix,
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


def reference_round(states, w, hp, algorithm, batch_size):
    """One round agent by agent from the per-agent rules, every operand a copy.

    Every update finishes before any gossip, and gossip reads the copies
    of the pre-round (or, for dpsgd, x_tilde) params.
    """
    n = len(states)
    weights = [{j: float(w[i, j]) for j in topology.neighbors(w, i)} for i in range(n)]
    peers = [[j for j in weights[i] if j != i] for i in range(n)]
    x = [s.params.copy() for s in states]
    losses, self_grads, model, sent = [], [], [], {}
    for i, s in enumerate(states):
        batch = s.draw_batch(batch_size)
        loss, g = loss_and_gradient(s.spec, x[i], s.data, batch)
        losses.append(loss)
        mv = {j: cross_gradient(s.spec, x[j], s.data, batch) for j in peers[i]}
        if algorithm == "compngc":
            zero = np.zeros_like(g)
            delta, s.err_self = ef_step(g, zero if s.err_self is None else s.err_self)
            g = decompress(delta)
            for j in peers[i]:
                message, s.err_out[j] = ef_step(mv[j], s.err_out.get(j, zero))
                mv[j], sent[i, j] = decompress(message), decompress(message)
        else:
            sent.update({(i, j): mv[j].copy() for j in peers[i]})
        self_grads.append(g)
        model.append(mv)
    if algorithm == "dpsgd":
        tilde = []
        for i, s in enumerate(states):
            s.momentum = momentum_update(s.momentum, self_grads[i], hp.beta, hp.eta)
            tilde.append(x[i] + s.momentum)
        for i, s in enumerate(states):
            operands = {j: tilde[j].copy() for j in weights[i]}
            s.params = gossip_step(tilde[i], i, operands, weights[i], hp.gamma)
        return losses, None
    bundles = []
    for i, s in enumerate(states):
        data_variant = {j: sent[j, i] for j in peers[i]} if hp.alpha != 0.0 else {}
        bundles.append(GradientBundle(i, self_grads[i], model[i], data_variant, weights[i]))
        s.momentum = momentum_update(s.momentum, ngc_mix(bundles[-1], hp.alpha),
                                     hp.beta, hp.eta)
    for i, s in enumerate(states):
        operands = {j: x[j].copy() for j in weights[i]}
        s.params = gossip_step(x[i] + s.momentum, i, operands, weights[i], hp.gamma)
    return losses, bundles


# graph, agents, activation, rows per block (None: the default rule)
PARITY_GRAPHS = {
    "ring3": ("ring", 3, "tanh", None),
    "chain5": ("chain", 5, "relu", 2),
    "torus8": ("torus", 8, "relu", 1),
    "full4": ("full", 4, "tanh", None),
}
PARITY_CASES = [(g, "dpsgd", 1.0) for g in PARITY_GRAPHS] + [
    (g, alg, alpha) for g in PARITY_GRAPHS for alg in ("ngc", "compngc")
    for alpha in (0.0, 0.5, 1.0)
]


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("graph, algorithm, alpha", PARITY_CASES,
                         ids=[f"{g}-{a}-{al}" for g, a, al in PARITY_CASES])
def test_ngc_round_matches_a_reference_with_copied_inboxes(graph, algorithm, alpha,
                                                           monkeypatch):
    # The engine updates stacked rows in place, block by block, reading
    # neighbours through slot tables. Agent by agent from the per-agent
    # rules on copies, every params, momentum and error-feedback bit must
    # come out the same, and so must the batch losses and bias norms.
    kind, n, activation, block_rows = PARITY_GRAPHS[graph]
    data = generate_synthetic(3, 4, 10 * n, 0.3, 3)
    spec = ModelSpec(4, 3, hidden_dim=5, activation=activation)
    if block_rows is not None:
        monkeypatch.setattr(simulator, "BLOCK_ELEMS", block_rows * spec.param_count)
    w = build_mixing_matrix(TopologySpec(kind, n))
    hp = HyperParams(alpha, 0.9, 0.05, 0.5, "constant")
    shards = np.array_split(np.arange(data.n), n)
    engine = make_states(n, spec, data, shards, seed=9)
    ref = make_states(n, spec, data, shards, seed=9)
    stack = simulator.StackedState(engine, simulator._neighbor_tables(w, spec.param_count))
    if block_rows is not None:
        assert max(blk.size for blk in stack.slots.blocks) == block_rows
    for _ in range(3):
        _, losses, grads = run_round(engine, w, hp, algorithm, 10, tables=stack)
        want_losses, bundles = reference_round(ref, w, hp, algorithm, 10)
        assert bits(losses) == bits(want_losses)
        for a, b in zip(engine, ref):
            assert bits(a.params) == bits(b.params)
            assert bits(a.momentum) == bits(b.momentum)
            assert (a.err_self is None) == (b.err_self is None)
            if a.err_self is not None:
                assert bits(a.err_self) == bits(b.err_self)
            assert a.err_out.keys() == b.err_out.keys()
            for j in a.err_out:
                assert bits(a.err_out[j]) == bits(b.err_out[j])
        if bundles is not None:
            for got, want in zip(grads, bundles):
                assert bits(got.self_grad) == bits(want.self_grad)
                assert got.weights == want.weights
                for name in ("model_variant", "data_variant"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert list(a) == list(b), name
                    assert all(bits(a[j]) == bits(b[j]) for j in a), name
        if bundles is not None and stack.slots.uniform:
            assert bits(grads.bias_norms()) == bits(bias_norms(bundles))
            assert bits(bias_norms(grads)) == bits(bias_norms(bundles))


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
