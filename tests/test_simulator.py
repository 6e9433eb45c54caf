"""Engine: determinism, exchange accounting, gossip dynamics, aborts."""
from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decentsim import simulator, topology
from decentsim import (
    CommLedger,
    ConfigurationError,
    GradientBundle,
    HyperParams,
    ModelSpec,
    RunAbortError,
    RunConfig,
    StackedState,
    TopologySpec,
    build_mixing_matrix,
    consensus_error,
    decompress,
    generate_synthetic,
    loss_and_gradient,
    run,
    run_round,
    seed_streams,
    spectral_gap,
)

from decentsim.algorithms import BLOCK_ELEMS, RoundGradients, cluster_deviation
from decentsim.compression import compress
from decentsim.models import ACTIVATIONS

from conftest import make_states
from reference import assert_rounds_match, bits


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


@pytest.mark.parametrize("algorithm", ["dpsgd", "compngc"])
def test_emitted_rows_match_the_metrics_functions_bits(algorithm):
    # run emits the consensus error from the spare rows and the initial
    # loss from the forward pass alone; both are the reference bits.
    config = tiny_config(algorithm=algorithm)
    result = run(config)
    assert bits(result.final_row.consensus_error) == bits(consensus_error(result.states))
    states, _, _ = simulator.initial_states(config)
    init = np.mean([loss_and_gradient(s.spec, s.params, s.data, s.shard)[0] for s in states])
    assert bits(result.rows[0].train_loss) == bits(init)


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
        stack = StackedState(states, w, alg)
        for _ in range(10):
            run_round(stack, hp, batch_size=10)
            assert (states[0].params == states[1].params).all()


def test_compngc_error_feedback_rows_start_at_zero():
    data = generate_synthetic(4, 6, 24, 0.3, 2)
    spec = ModelSpec(6, 4, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("ring", 4))
    shards = np.array_split(np.arange(data.n), 4)
    states = make_states(4, spec, data, shards, seed=6)
    assert states[0].err_self is None and states[0].err_out == {}
    stack = StackedState(states, w, "compngc")
    d = spec.param_count
    assert stack.err_self.shape == (4, d)
    assert stack.err_out.shape == (stack.slots.edges, d) == (8, d)
    for rows in (stack.err_self, stack.err_out):
        assert rows.tobytes() == bytes(rows.nbytes)  # +0.0 everywhere
    for state, links in zip(states, stack.slots.links):
        assert np.shares_memory(state.err_self, stack.err_self[state.agent_id])
        assert state.err_self.tobytes() == bytes(8 * d)
        assert list(state.err_out) == [j for j, _ in links]
        for j, e in links:
            assert np.shares_memory(state.err_out[j], stack.err_out[e])
            assert state.err_out[j].tobytes() == bytes(8 * d)
    for alg in ("dpsgd", "ngc"):
        other = make_states(4, spec, data, shards, seed=6)
        stack = StackedState(other, w, alg)
        assert stack.err_self is None and stack.err_out is None
        assert other[0].err_self is None and other[0].err_out == {}
        assert (stack.cross is None) == (alg == "dpsgd")


def test_stacked_state_rejects_an_unknown_algorithm():
    data = generate_synthetic(4, 6, 24, 0.3, 2)
    spec = ModelSpec(6, 4, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("ring", 4))
    states = make_states(4, spec, data, np.array_split(np.arange(data.n), 4), seed=6)
    with pytest.raises(ConfigurationError, match="unknown algorithm 'sgd'"):
        StackedState(states, w, "sgd")


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
    stack = StackedState(states, w, alg)
    run_round(stack, hp, batch_size=8)
    assert stack.states is states
    assert all(a is b for a, b in zip(states, before))
    assert states[0].params is not x0 and not (states[0].params == x0).all()
    assert all(np.shares_memory(s.params, stack.x[i]) for i, s in enumerate(states))


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
    stack = StackedState(engine, w, algorithm)
    if block_rows is not None:
        assert max(blk.size for blk in stack.slots.blocks) == block_rows
    assert_rounds_match(stack, ref, w, hp, algorithm, 10)


def metropolis_weights(n: int, edges) -> np.ndarray:
    """Metropolis-Hastings W of an undirected graph (Xiao & Boyd, 2004).

    w_ij = 1 / (1 + max(deg i, deg j)) on each edge; the diagonal takes the
    rest of its row.
    """
    edges = {frozenset(e) for e in edges}
    degree = np.zeros(n, dtype=int)
    for i, j in edges:
        degree[[i, j]] += 1
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(degree[i], degree[j]))
    w[np.diag_indices(n)] = 1.0 - w.sum(axis=1)
    return w


@st.composite
def metropolis_graphs(draw, max_agents=12):
    """W of a random connected graph of 2..max_agents agents.

    A random spanning tree keeps the graph connected; extra edges and a
    random relabelling make the degrees and the slot patterns irregular.
    """
    n = draw(st.integers(2, max_agents))
    label = draw(st.permutations(range(n)))
    edges = [(label[k], label[draw(st.integers(0, k - 1))]) for k in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return metropolis_weights(n, edges + draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))


# A hidden width that puts d = 8 * 8200 + 3 = 65,603 above BLOCK_ELEMS (2**16),
# so the default rule gives one-row blocks.
WIDE_HIDDEN = 8200


@settings(max_examples=60, deadline=None)
@given(w=metropolis_graphs(), algorithm=st.sampled_from(simulator.ALGORITHMS),
       alpha=st.sampled_from([0.0, 0.5, 1.0]), activation=st.sampled_from(ACTIVATIONS),
       block_rows=st.sampled_from([1, 2, 3, None]), hidden=st.just(5))
@example(w=metropolis_weights(4, [(1, 0), (1, 2), (1, 3)]), algorithm="compngc", alpha=0.5,
         activation="relu", block_rows=None, hidden=WIDE_HIDDEN)
def test_engine_matches_the_reference_on_random_metropolis_graphs(w, algorithm, alpha,
                                                                  activation, block_rows,
                                                                  hidden):
    # The parity test above on graphs the named topologies never make:
    # irregular degrees, non-uniform W and slots that are not slices. The
    # explicit example is a star whose d exceeds BLOCK_ELEMS.
    n = w.shape[0]
    data = generate_synthetic(3, 4, 10 * n, 0.3, 3)
    spec = ModelSpec(4, 3, hidden_dim=hidden, activation=activation)
    hp = HyperParams(alpha, 0.9, 0.05, 0.5, "constant")
    shards = np.array_split(np.arange(data.n), n)
    engine = make_states(n, spec, data, shards, seed=9)
    ref = make_states(n, spec, data, shards, seed=9)
    elems = BLOCK_ELEMS if block_rows is None else block_rows * spec.param_count
    with mock.patch.object(simulator, "BLOCK_ELEMS", elems):
        stack = StackedState(engine, w, algorithm)
    sizes = {blk.size for blk in stack.slots.blocks}
    if hidden == WIDE_HIDDEN:
        assert spec.param_count > BLOCK_ELEMS and sizes == {1}
    if block_rows is not None:
        assert max(sizes) <= block_rows
    assert_rounds_match(stack, ref, w, hp, algorithm, 10)


# ------------------------------------------------------------- slot reads

SLOT_GRAPHS = {"ring3": ("ring", 3, None), "ring20": ("ring", 20, None),
               "chain7": ("chain", 7, None), "torus2x4": ("torus", 8, 2),
               "full4": ("full", 4, None)}


@pytest.mark.parametrize("block_rows", [1, 2, None], ids=["rows1", "rows2", "default"])
@pytest.mark.parametrize("graph", list(SLOT_GRAPHS))
def test_slot_reads_give_the_gathered_rows_bits(graph, block_rows, monkeypatch):
    # A slot is a slice (read as a view) when its rows run consecutively
    # upward, else an index array (gathered). Either way every read must
    # return the rows np.take gathers from indices derived from W itself.
    kind, n, torus_rows = SLOT_GRAPHS[graph]
    dim = 9
    if block_rows is not None:
        monkeypatch.setattr(simulator, "BLOCK_ELEMS", block_rows * dim)
    w = build_mixing_matrix(TopologySpec(kind, n, torus_rows))
    slots = simulator._neighbor_tables(w, dim)
    if block_rows is not None:
        assert max(blk.size for blk in slots.blocks) == block_rows
    edge = {(i, j): e for i in range(n) for j, e in slots.links[i]}
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, dim))
    cross = rng.standard_normal((slots.edges, dim))
    cross[:, :3] = [-0.0, 0.0, 5e-324]
    messages = [compress(row) for row in cross]
    out = np.empty((n, dim))

    def check(index, rows, got, source):
        consecutive = rows == list(range(rows[0], rows[0] + len(rows)))
        assert isinstance(index, slice) == consecutive
        if block_rows == 1:
            assert isinstance(index, slice)
        if isinstance(index, slice):
            assert np.shares_memory(got, source)
        assert bits(got) == bits(np.take(source, rows, axis=0))

    for blk in slots.blocks:
        agents = range(blk.rows.start, blk.rows.stop)
        for t, index in enumerate(blk.nbrs):
            rows = [topology.neighbors(w, i)[t] for i in agents]
            got = simulator.exchange_params(x, index, out[:blk.size])
            check(index, rows, got, x)
        for s, index in enumerate(blk.back):
            rows = [edge[slots.links[i][s][0], i] for i in agents]
            got = simulator.exchange_cross_gradients(cross, None, index, out[:blk.size])
            check(index, rows, got, cross)
            got = simulator.exchange_cross_gradients(cross, messages, index, out[:blk.size])
            assert bits(got) == bits([decompress(messages[e]) for e in rows])

    # The bias norms read their omega rows the same way.
    self_grads = rng.standard_normal((n, dim))
    grads = RoundGradients(slots, self_grads, cross, True, np.empty((2, n, dim)))
    eps, omega = [], []
    for i in range(n):
        weights = {j: float(w[i, j]) for j in topology.neighbors(w, i)}
        peers = [j for j in weights if j != i]
        bundle = GradientBundle(i, self_grads[i], {j: cross[edge[i, j]] for j in peers},
                                {j: cross[edge[j, i]] for j in peers}, weights)
        for norms, terms in ((eps, bundle.model_variant), (omega, bundle.data_variant)):
            norms.append(np.add.reduce(np.abs(cluster_deviation(bundle, terms))))
    assert bits(grads.bias_norms()) == bits([np.mean(eps), np.mean(omega)])


def test_error_feedback_rows_stay_views_of_the_run_owned_arrays():
    data = generate_synthetic(4, 6, 30, 0.3, 2)
    spec = ModelSpec(6, 4, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("chain", 5))
    hp = HyperParams(1.0, 0.9, 0.05, 0.5, "constant")
    states = make_states(5, spec, data, np.array_split(np.arange(data.n), 5), seed=6)
    stack = StackedState(states, w, "compngc")
    err_self, err_out = stack.err_self, stack.err_out
    assert err_self.shape == (5, spec.param_count)
    assert err_out.shape == (stack.slots.edges, spec.param_count)
    views = [(s.err_self, dict(s.err_out)) for s in states]
    for _ in range(3):
        run_round(stack, hp, 8)
        assert stack.err_self is err_self and stack.err_out is err_out
        for state, links, (own, out) in zip(states, stack.slots.links, views):
            assert state.err_self is own and own.base is err_self
            assert np.shares_memory(own, err_self[state.agent_id])
            assert list(state.err_out) == list(out) == [j for j, _ in links]
            assert all(state.err_out[j] is out[j] for j in out)
            for j, e in links:
                assert out[j].base is err_out and np.shares_memory(out[j], err_out[e])
    assert np.abs(err_self).sum() > 0 and np.abs(err_out).sum() > 0


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
    run_round(StackedState(states, w, "ngc"), hp, batch_size=4, ledger=ledger)
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
    stack = StackedState(states, w, alg)
    for _ in range(8):
        run_round(stack, hp, batch_size=5)
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
    run_round(StackedState(states, w, "dpsgd"), hp, batch_size=5)
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
