"""Engine: determinism, exchange accounting, gossip dynamics, aborts."""
from __future__ import annotations

import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decentsim import algorithms, simulator, topology
from decentsim import (
    CommLedger,
    ConfigurationError,
    Dataset,
    ModelSpec,
    RunAbortError,
    RunConfig,
    StackedState,
    TopologySpec,
    build_mixing_matrix,
    consensus_error,
    decompress,
    generate_synthetic,
    init_params,
    load_csv,
    loss_and_gradient,
    partition_iid,
    run,
    run_round,
    spectral_gap,
)

from decentsim.algorithms import BLOCK_ELEMS, message_rows, neighbor_slots, slot_rows
from decentsim.compression import compress
from decentsim.models import ACTIVATIONS

from conftest import make_states
from reference import assert_rounds_match, bias_norms, bits, round_with_bundles


def tiny_config(**kw) -> RunConfig:
    base = dict(algorithm="ngc", agents=4, topology="ring", partition="skew",
                classes=4, dim=6, per_class=24, val_per_class=8, spread=0.3,
                epochs=2, batch_size=8, seed=5, model="mlp", hidden_dim=5)
    base.update(kw)
    return RunConfig(**base)


# ------------------------------------------------------------- seed streams


def seed_state(config) -> tuple:
    """What each seed stream decides at set-up: shards, x0 and every agent's RNG state."""
    states, _, val = simulator.initial_states(config)
    return ([s.shard for s in states], states[0].params, [s.rng for s in states], val)


def test_initial_states_are_reproducible_and_distinct():
    config = tiny_config(partition="iid")
    shards_a, x0_a, rngs_a, _ = seed_state(config)
    shards_b, x0_b, rngs_b, _ = seed_state(config)
    assert all((a == b).all() for a, b in zip(shards_a, shards_b))
    assert x0_a.tobytes() == x0_b.tobytes()
    draws_a = [rng.random(1000) for rng in rngs_a]
    draws_b = [rng.random(1000) for rng in rngs_b]
    for da, db in zip(draws_a, draws_b):
        assert (da == db).all()
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (draws_a[i] == draws_a[j]).all()


def test_initial_states_differ_across_master_seeds():
    shards_a, x0_a, rngs_a, _ = seed_state(tiny_config(partition="iid", seed=1))
    shards_b, x0_b, rngs_b, _ = seed_state(tiny_config(partition="iid", seed=2))
    assert not all((a == b).all() for a, b in zip(shards_a, shards_b))
    assert not (x0_a == x0_b).all()
    for a, b in zip(rngs_a, rngs_b):
        assert not (a.random(50) == b.random(50)).all()


def test_each_seed_stream_is_its_spawn_key_of_the_master_seed(tmp_path):
    # k = (0,) partition, (1,) shared init, (2, i) agent i's batches, (3,) CSV validation split.
    config = tiny_config(agents=3, dataset=write_csv_dataset(tmp_path), partition="iid", seed=7)
    shards, x0, rngs, val = seed_state(config)

    def stream(*key):
        return np.random.SeedSequence(7, spawn_key=key)

    full = load_csv(config.dataset)
    perm = np.random.default_rng(int(stream(3).generate_state(1)[0])).permutation(full.n)
    n_val = int(full.n * config.val_fraction)
    assert val.features.tobytes() == full.features[np.sort(perm[:n_val])].tobytes()
    train_idx = np.sort(perm[n_val:])
    train = Dataset(full.features[train_idx], full.labels[train_idx], full.num_classes)
    expected = partition_iid(train, 3, int(stream(0).generate_state(1)[0]))
    assert all((a == b).all() for a, b in zip(shards, expected))
    spec = ModelSpec(4, 3, hidden_dim=config.hidden_dim)
    assert x0.tobytes() == init_params(spec, np.random.default_rng(stream(1))).tobytes()
    for i, rng in enumerate(rngs):
        assert rng.bit_generator.state == np.random.default_rng(stream(2, i)).bit_generator.state


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
    assert bits(result.final_row.consensus_error) == bits(consensus_error(
        np.stack([s.params for s in result.states])))
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


@pytest.mark.parametrize("field, value", [("data_seed", 0), ("val_per_class", 1)])
def test_the_smallest_valid_data_seed_and_validation_set_run(field, value):
    # The lower edges RunConfig.validate accepts: data seed 0, and one
    # validation sample per class.
    config = tiny_config(epochs=1, **{field: value})
    result = run(config)
    assert [row.epoch for row in result.rows] == [0, 1]
    assert result.val_data.n == config.classes * config.val_per_class


def test_two_identical_agents_stay_bitwise_identical():
    # Exchangeability: same shard, same batch stream, symmetric weights.
    data = generate_synthetic(3, 4, 30, 0.3, 11)
    spec = ModelSpec(4, 3, hidden_dim=5)
    w = np.full((2, 2), 0.5)
    config = RunConfig(alpha=1.0, beta=0.9, gamma=0.5, batch_size=10)
    shard = np.arange(data.n)
    for alg in ("dpsgd", "ngc", "compngc"):
        states = make_states(2, spec, data, [shard, shard], seed=4,
                             shared_rng_seed=321)
        stack = StackedState(states, w, replace(config, algorithm=alg))
        for _ in range(10):
            run_round(stack, 0.05)
            assert (states[0].params == states[1].params).all()


def test_compngc_error_feedback_rows_start_at_zero():
    data = generate_synthetic(4, 6, 24, 0.3, 2)
    spec = ModelSpec(6, 4, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("ring", 4))
    shards = np.array_split(np.arange(data.n), 4)
    states = make_states(4, spec, data, shards, seed=6)
    assert states[0].err_self is None and states[0].err_out == {}
    stack = StackedState(states, w, RunConfig(algorithm="compngc"))
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
        stack = StackedState(other, w, RunConfig(algorithm=alg))
        assert stack.err_self is None and stack.err_out is None
        assert other[0].err_self is None and other[0].err_out == {}
        assert (stack.cross is None) == (alg == "dpsgd")


# ------------------------------------------------------ in-place rounds


@pytest.mark.parametrize("alg", ["dpsgd", "ngc", "compngc"])
def test_run_round_updates_every_agent_in_place(alg):
    data = generate_synthetic(4, 6, 24, 0.3, 2)
    spec = ModelSpec(6, 4, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("ring", 4))
    config = RunConfig(algorithm=alg, alpha=1.0, beta=0.9, gamma=0.5, batch_size=8)
    states = make_states(4, spec, data, np.array_split(np.arange(data.n), 4), seed=6)
    before = list(states)
    x0 = states[0].params
    stack = StackedState(states, w, config)
    run_round(stack, 0.05)
    assert stack.states is states
    assert all(a is b for a, b in zip(states, before))
    assert states[0].params is not x0 and not (states[0].params == x0).all()
    assert all(np.shares_memory(s.params, stack.x[i]) for i, s in enumerate(states))


@pytest.mark.parametrize("alg", ["dpsgd", "ngc", "compngc"])
def test_the_round_takes_its_step_from_eta_never_from_config_eta(alg):
    # config.eta is the base step; run passes each epoch's scheduled step as
    # eta, so a round whose config holds another base step gives the same bits.
    data = generate_synthetic(4, 6, 24, 0.3, 2)
    spec = ModelSpec(6, 4, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("ring", 4))
    config = RunConfig(algorithm=alg, alpha=1.0, beta=0.9, gamma=0.5, batch_size=8)
    stacks = []
    for cfg in (config, replace(config, eta=123.0)):
        states = make_states(4, spec, data, np.array_split(np.arange(data.n), 4), seed=6)
        stacks.append(StackedState(states, w, cfg))
        for _ in range(3):
            run_round(stacks[-1], 0.05)
    a, b = stacks
    assert np.abs(a.v).sum() > 0.0
    assert a.x.tobytes() == b.x.tobytes() and a.v.tobytes() == b.v.tobytes()


# Hidden widths that put d = 8 * hidden + 3 above BLOCK_ELEMS (2**15), so
# the default rule gives one-row blocks: d = 65,603, and d = BLOCK_ELEMS + 3.
WIDE_HIDDEN = 8200
EDGE_HIDDEN = BLOCK_ELEMS // 8

# graph: kind, agents, activation, rows per block (None: the default rule), hidden width
PARITY_GRAPHS = {
    "ring3": ("ring", 3, "tanh", None, 5),
    "chain5": ("chain", 5, "relu", 2, 5),
    "torus8": ("torus", 8, "relu", 1, 5),
    "full4": ("full", 4, "tanh", None, 5),
    "ring20": ("ring", 20, "tanh", 4, 5),
}
# Two cases at 256 agents, where slots wrap (torus) and blocks hold 5 or 7
# of many rows, and a 64-agent ring at d just above BLOCK_ELEMS; kept out of
# PARITY_GRAPHS, whose cross product they would multiply.
SCALE_GRAPHS = {
    "torus256": ("torus", 256, "relu", 5, 5),
    "chain256": ("chain", 256, "relu", 7, 5),
    "ring64wide": ("ring", 64, "relu", None, EDGE_HIDDEN),
}
PARITY_CASES = [(g, "dpsgd", 1.0) for g in PARITY_GRAPHS] + [
    (g, alg, alpha) for g in PARITY_GRAPHS for alg in ("ngc", "compngc")
    for alpha in (0.0, 0.5, 1.0)
] + [("torus256", "compngc", 0.5), ("chain256", "ngc", 0.5), ("ring64wide", "compngc", 0.5)]


@pytest.mark.parametrize("graph, algorithm, alpha", PARITY_CASES,
                         ids=[f"{g}-{a}-{al}" for g, a, al in PARITY_CASES])
def test_ngc_round_matches_a_reference_with_copied_inboxes(graph, algorithm, alpha,
                                                           monkeypatch):
    # The engine updates stacked rows in place, block by block, reading
    # neighbours through slot tables. Agent by agent from the per-agent
    # rules on copies, every params, momentum and error-feedback bit must
    # come out the same, and so must the batch losses and bias norms.
    kind, n, activation, block_rows, hidden = {**PARITY_GRAPHS, **SCALE_GRAPHS}[graph]
    data = generate_synthetic(3, 4, 10 * n, 0.3, 3)
    spec = ModelSpec(4, 3, hidden_dim=hidden, activation=activation)
    if block_rows is not None:
        monkeypatch.setattr(algorithms, "BLOCK_ELEMS", block_rows * spec.param_count)
    w = build_mixing_matrix(TopologySpec(kind, n))
    config = RunConfig(algorithm=algorithm, alpha=alpha, beta=0.9, gamma=0.5, batch_size=10)
    shards = np.array_split(np.arange(data.n), n)
    engine = make_states(n, spec, data, shards, seed=9)
    ref = make_states(n, spec, data, shards, seed=9)
    stack = StackedState(engine, w, config)
    sizes = {blk.size for blk in stack.slots.blocks}
    if block_rows is not None:
        assert max(sizes) == block_rows
    if hidden == EDGE_HIDDEN:
        assert spec.param_count == BLOCK_ELEMS + 3 and sizes == {1}
    assert_rounds_match(stack, ref, w, 0.05, rounds=2 if graph in SCALE_GRAPHS else 3)


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
    # explicit example is a star whose d exceeds BLOCK_ELEMS. dpsgd takes
    # no alpha, so its draws run at the default.
    n = w.shape[0]
    data = generate_synthetic(3, 4, 10 * n, 0.3, 3)
    spec = ModelSpec(4, 3, hidden_dim=hidden, activation=activation)
    config = RunConfig(algorithm=algorithm,
                       alpha=RunConfig.alpha if algorithm == "dpsgd" else alpha,
                       beta=0.9, gamma=0.5, batch_size=10)
    shards = np.array_split(np.arange(data.n), n)
    engine = make_states(n, spec, data, shards, seed=9)
    ref = make_states(n, spec, data, shards, seed=9)
    elems = BLOCK_ELEMS if block_rows is None else block_rows * spec.param_count
    with mock.patch.object(algorithms, "BLOCK_ELEMS", elems):
        stack = StackedState(engine, w, config)
    sizes = {blk.size for blk in stack.slots.blocks}
    if hidden == WIDE_HIDDEN:
        assert spec.param_count > BLOCK_ELEMS and sizes == {1}
    if block_rows is not None:
        assert max(sizes) <= block_rows
    assert_rounds_match(stack, ref, w, 0.05)


# Rows of d floats a StackedState allocates, for N agents, E directed edges
# and m rows in its largest block: x, v and the gradient rows, which also
# take the gossip pulls; the edge table (ngc only: compngc keeps its
# messages compressed); the error-feedback rows; and the block buffers.
TABLE_ROWS = {"dpsgd": lambda n, e, m: 3 * n + m,
              "ngc": lambda n, e, m: 3 * n + e + 4 * m,
              "compngc": lambda n, e, m: 4 * n + e + 4 * m}


@pytest.mark.parametrize("algorithm", simulator.ALGORITHMS)
@pytest.mark.parametrize("kind, hidden, m", [("ring", 5, 5), ("chain", 5, 3),
                                             ("ring", WIDE_HIDDEN, 1),
                                             ("chain", WIDE_HIDDEN, 1)])
def test_stacked_state_allocates_its_closed_form_of_table_rows(algorithm, kind, hidden, m):
    # The chain has Metropolis weights and degrees 1, 2, 2, 2, 1, so its
    # small-d blocks hold 1, 3 and 1 rows; at d > BLOCK_ELEMS every block
    # holds one row.
    n = 5
    data = generate_synthetic(3, 4, 10 * n, 0.3, 3)
    spec = ModelSpec(4, 3, hidden_dim=hidden)
    w = build_mixing_matrix(TopologySpec(kind, n))
    states = make_states(n, spec, data, np.array_split(np.arange(data.n), n), seed=1)
    stack = StackedState(states, w, RunConfig(algorithm=algorithm))
    assert (stack.cross is None) == (algorithm != "ngc")
    arrays = [a for a in vars(stack).values() if isinstance(a, np.ndarray)]
    owned = [a for a in arrays if a.base is None]
    assert all(any(np.shares_memory(a, o) for o in owned) for a in arrays)
    rows = TABLE_ROWS[algorithm](n, np.count_nonzero(w) - n, m)
    assert sum(a.nbytes for a in owned) == rows * spec.param_count * 8
    # Only 0 < alpha < 1 takes one more block buffer: the data-variant
    # cluster's. dpsgd takes no alpha.
    for alpha, extra in ((0.0, 0), (0.5, 1), (1.0, 0)) if algorithm != "dpsgd" else ():
        other = make_states(n, spec, data, np.array_split(np.arange(data.n), n), seed=1)
        scratch = StackedState(other, w, RunConfig(algorithm=algorithm, alpha=alpha)).scratch
        assert scratch.nbytes == stack.scratch.nbytes + extra * m * spec.param_count * 8


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_a_compngc_round_allocates_no_float_table_of_its_messages(alpha):
    # Each message stays d sign flags and a scale until a block reads it,
    # so at d > BLOCK_ELEMS a round's peak allocation stays below one (E, d)
    # float64 block, which a table of decompressed messages alone would take.
    n = 8
    data = generate_synthetic(3, 4, 10 * n, 0.3, 3)
    spec = ModelSpec(4, 3, hidden_dim=EDGE_HIDDEN)
    w = build_mixing_matrix(TopologySpec("ring", n))
    states = make_states(n, spec, data, np.array_split(np.arange(data.n), n), seed=1)
    config = RunConfig(algorithm="compngc", alpha=alpha, beta=0.9, gamma=0.5, batch_size=10)
    stack = StackedState(states, w, config)
    run_round(stack, 0.05)
    tracemalloc.start()
    try:
        run_round(stack, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.param_count > BLOCK_ELEMS
    assert peak < stack.slots.edges * spec.param_count * 8


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_a_compngc_round_allocates_nothing_d_sized_but_its_sign_bytes(alpha):
    # Each ef_step works in an idle scratch row, so past the E messages'
    # d sign bytes a round allocates only the kernel's batch activations
    # (B x hidden). At input 64 and hidden 600 those stay small next to
    # d = 40,803; one fresh float64 row per ef_step would take a whole row.
    n, hidden, batch = 8, 600, 10
    data = generate_synthetic(3, 64, 10 * n, 0.3, 3)
    spec = ModelSpec(64, 3, hidden_dim=hidden)
    w = build_mixing_matrix(TopologySpec("ring", n))
    states = make_states(n, spec, data, np.array_split(np.arange(data.n), n), seed=1)
    config = RunConfig(algorithm="compngc", alpha=alpha, beta=0.9, gamma=0.5, batch_size=batch)
    stack = StackedState(states, w, config)
    run_round(stack, 0.05)
    tracemalloc.start()
    try:
        run_round(stack, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    d = spec.param_count
    assert d == 40_803 > BLOCK_ELEMS
    assert peak - stack.slots.edges * d < d * 8 / 2


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
        monkeypatch.setattr(algorithms, "BLOCK_ELEMS", block_rows * dim)
    w = build_mixing_matrix(TopologySpec(kind, n, torus_rows))
    slots = neighbor_slots(w, dim)
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
        for s, index in enumerate(blk.sent):  # the sender's reads of its own messages
            rows = [slots.links[i][s][1] for i in agents]
            assert index == slice(rows[0], rows[0] + len(rows))
            got = message_rows(messages, index, out[:blk.size])
            assert bits(got) == bits([decompress(messages[e]) for e in rows])
        for t, index in enumerate(blk.nbrs):
            rows = [topology.neighbors(w, i)[t] for i in agents]
            got = simulator.exchange_params(x, index, out[:blk.size])
            check(index, rows, got, x)
        for s, index in enumerate(blk.back):
            rows = [edge[slots.links[i][s][0], i] for i in agents]
            got = simulator.exchange_cross_gradients(partial(slot_rows, cross), index,
                                                     out[:blk.size])
            check(index, rows, got, cross)
            got = simulator.exchange_cross_gradients(partial(message_rows, messages), index,
                                                     out[:blk.size])
            assert bits(got) == bits([decompress(messages[e]) for e in rows])

    # The round's bias norms come from the same slot reads that its mix
    # makes, over the same blocks, each slot weighed by W, uniform or not.
    data = generate_synthetic(3, 4, 10 * n, 0.3, 3)
    spec = ModelSpec(4, 3)
    if block_rows is not None:
        monkeypatch.setattr(algorithms, "BLOCK_ELEMS", block_rows * spec.param_count)
    states = make_states(n, spec, data, np.array_split(np.arange(data.n), n), seed=4)
    stack = StackedState(states, w, RunConfig(alpha=0.5, beta=0.9, gamma=0.5, batch_size=10))
    for _ in range(2):
        _, bias, bundles = round_with_bundles(stack, w, 0.05)
    assert bits(bias) == bits(bias_norms(bundles))


def test_round_returns_the_bias_norms_on_every_w():
    # (eps_l1, omega_l1) on uniform W and on a Metropolis chain, bit for bit
    # the per-bundle reference, with omega 0.0 at alpha = 0; (0.0, 0.0) for
    # dpsgd.
    data = generate_synthetic(3, 4, 50, 0.3, 3)
    spec = ModelSpec(4, 3, hidden_dim=5)

    def two_rounds(topology_kind, algorithm, alpha):
        w = build_mixing_matrix(TopologySpec(topology_kind, 5))
        states = make_states(5, spec, data, np.array_split(np.arange(data.n), 5), seed=4)
        stack = StackedState(states, w, RunConfig(algorithm=algorithm, alpha=alpha, beta=0.9,
                                                  gamma=0.5, batch_size=10))
        for _ in range(2):
            _, bias, bundles = round_with_bundles(stack, w, 0.05)
        return bundles, bias

    for kind in ("ring", "chain"):
        assert bits(two_rounds(kind, "dpsgd", 1.0)[1]) == bits((0.0, 0.0))
        for algorithm in ("ngc", "compngc"):
            for alpha in (0.0, 0.5, 1.0):
                bundles, bias = two_rounds(kind, algorithm, alpha)
                assert bits(bias) == bits(bias_norms(bundles))
                assert bias[0] > 0.0 and (bias[1] == 0.0) == (alpha == 0.0)


@pytest.mark.parametrize("algorithm", ["ngc", "compngc"])
def test_round_zero_model_variant_bias_is_exactly_zero_on_a_chain_and_a_torus(algorithm):
    # Every agent starts from the same params, so each t_j - g_i is 0 and so
    # is w_ij * 0, whatever W's weights: criterion 10 beyond the ring.
    for topology_kind, agents in (("chain", 6), ("torus", 9)):
        config = tiny_config(algorithm=algorithm, alpha=0.5, topology=topology_kind,
                             agents=agents, partition="iid", batch_size=4)
        states, w, _ = simulator.initial_states(config)
        stack = StackedState(states, w, config)
        _, bias, bundles = round_with_bundles(stack, w, config.eta)
        assert bias[0] == 0.0 and bias[1] > 0.0, topology_kind
        assert bits(bias) == bits(bias_norms(bundles))


def test_error_feedback_rows_stay_views_of_the_run_owned_arrays():
    data = generate_synthetic(4, 6, 30, 0.3, 2)
    spec = ModelSpec(6, 4, hidden_dim=5)
    w = build_mixing_matrix(TopologySpec("chain", 5))
    config = RunConfig(algorithm="compngc", alpha=1.0, beta=0.9, gamma=0.5, batch_size=8)
    states = make_states(5, spec, data, np.array_split(np.arange(data.n), 5), seed=6)
    stack = StackedState(states, w, config)
    err_self, err_out = stack.err_self, stack.err_out
    assert err_self.shape == (5, spec.param_count)
    assert err_out.shape == (stack.slots.edges, spec.param_count)
    views = [(s.err_self, dict(s.err_out)) for s in states]
    for _ in range(3):
        run_round(stack, 0.05)
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
    config = RunConfig(alpha=0.0, beta=0.0, gamma=1.0, batch_size=4)
    ledger = CommLedger()
    run_round(StackedState(states, w, config), 0.01, ledger=ledger)
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
    config = RunConfig(algorithm=alg, alpha=RunConfig.alpha if alg == "dpsgd" else 0.0,
                       beta=0.0, gamma=1.0, batch_size=5)
    mean_before = np.mean([s.params for s in states], axis=0)
    stack = StackedState(states, w, config)
    err = consensus_error(stack.x)
    for _ in range(8):
        run_round(stack, 0.0)
        new_err = consensus_error(stack.x)
        assert new_err <= (rho + 1e-6) * err
        err = new_err
    mean_after = np.mean([s.params for s in states], axis=0)
    assert np.abs(mean_after - mean_before).max() <= 1e-10


def eigenmode(kind: str, n: int) -> tuple[np.ndarray, float]:
    """A closed-form eigenpair (u, lambda) of W, W u = lambda u (Xiao & Boyd, 2004)."""
    if kind == "ring":
        return np.cos(2 * np.pi * np.arange(n) / n), (1 + 2 * np.cos(2 * np.pi / n)) / 3
    if kind == "chain":  # Metropolis weights: each end agent keeps 2/3
        return np.cos(np.pi * (np.arange(n) + 0.5) / n), (1 + 2 * np.cos(np.pi / n)) / 3
    if kind == "torus":  # agent r * cols + c; both sides >= 3, so every degree is 4
        rows, cols = TopologySpec(kind, n).torus_dims()
        u = np.outer(eigenmode("ring", rows)[0], eigenmode("ring", cols)[0]).ravel()
        return u, (1 + 2 * np.cos(2 * np.pi / rows) + 2 * np.cos(2 * np.pi / cols)) / 5
    return np.eye(n)[0] - np.eye(n)[1], 0.0  # full: W = ones / n


@pytest.mark.parametrize("kind, n", [("ring", 160), ("ring", 1024), ("chain", 400),
                                     ("chain", 1024), ("torus", 256), ("full", 64)],
                         ids=["ring160", "ring1024", "chain400", "chain1024", "torus16x16",
                              "full64"])
def test_pure_gossip_scales_each_eigenmode_of_w_by_its_closed_form(kind, n):
    # At eta = 0 a dpsgd round is x' = ((1 - gamma) I + gamma W) x, so rows
    # set to u times a column profile shrink by mu = 1 - gamma + gamma
    # lambda each round. This checks the builders and the slot tables
    # together at hundreds of agents and at gaps down to 1 - mu = 1.6e-6
    # (chain1024); a chain400 W with one edge cut misses by over 1e-3.
    u, lam = eigenmode(kind, n)
    data = generate_synthetic(2, 2, n, 0.3, 1)
    spec = ModelSpec(2, 2)
    states = make_states(n, spec, data, np.array_split(np.arange(data.n), n))
    gamma, rounds = 0.5, 4
    config = RunConfig(algorithm="dpsgd", alpha=1.0, beta=0.9, gamma=gamma, batch_size=2)
    stack = StackedState(states, build_mixing_matrix(TopologySpec(kind, n)), config)
    x0 = np.outer(u, np.linspace(-1.0, 2.0, spec.param_count))
    stack.x[:] = x0
    for _ in range(rounds):
        run_round(stack, 0.0)
    want = (1 - gamma + gamma * lam) ** rounds * x0
    assert np.abs(stack.x - want).max() <= 1e-13 * np.abs(want).max()


def test_pure_gossip_on_a_full_graph_reaches_consensus_in_one_round():
    data = generate_synthetic(2, 3, 20, 0.3, 2)
    spec = ModelSpec(3, 2)
    w = build_mixing_matrix(TopologySpec("full", 4))
    shards = np.array_split(np.arange(data.n), 4)
    states = make_states(4, spec, data, shards, seed=8)
    rng = np.random.default_rng(4)
    for s in states:
        s.params = rng.standard_normal(spec.param_count)
    config = RunConfig(algorithm="dpsgd", beta=0.0, gamma=1.0, batch_size=5)
    stack = StackedState(states, w, config)
    run_round(stack, 0.0)
    assert consensus_error(stack.x) <= 1e-24


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
        tiny_config(algorithm="sgd")
    with pytest.raises(ConfigurationError):
        tiny_config(partition="dirichlet")
    with pytest.raises(ConfigurationError):
        tiny_config(alpha=2.0)
    with pytest.raises(ConfigurationError):
        tiny_config(epochs=0)
    with pytest.raises(ConfigurationError):
        tiny_config(workers=0)
    with pytest.raises(ConfigurationError, match="workers"):
        tiny_config(workers=2)


SET_UP_FAILURES = [
    ({"epochs": 2.5}, "epochs must be int, got 2.5"),
    ({"eta": "0.1"}, "eta must be float, got '0.1'"),
    ({"batch_size": True}, "batch_size must be int, got True"),
    ({"alpha": False}, "alpha must be float, got False"),
    ({"seed": None}, "seed must be int, got None"),
    ({"dataset": None}, "dataset must be str, got None"),
    ({"agents": -3}, "num_agents must be positive"),
    ({"agents": 2**30}, "num_agents must be below 2**30: W is a dense (n, n) array"),
    ({"classes": 0}, "need at least two classes"),
    ({"per_class": 0}, "per_class must be positive"),
    ({"dim": 0}, "dim must be positive"),
    ({"dim": 1, "classes": 3}, "dim 1 supports only two classes"),
    # Past numpy's index range: 2**63 - 1 bytes.
    ({"per_class": 10**18}, "synthetic features of shape (10000000000000000000, 16) need more "
                            "than the 9223372036854775807 bytes a numpy array can hold"),
    ({"dim": 10**15}, "synthetic features of shape (2000, 1000000000000000) need more "
                      "than the 9223372036854775807 bytes a numpy array can hold"),
    ({"hidden_dim": 10**18}, "parameter tables of shape (10, 27000000000000000010) need more "
                             "than the 9223372036854775807 bytes a numpy array can hold"),
    ({"topology": "torus", "agents": 7}, "7 agents admit no torus grid with sides >= 2"),
    ({"agents": -3, "alpha": 2.0}, "alpha 2.0 outside [0, 1]"),  # the older check first
]


@pytest.mark.parametrize("fields, message", SET_UP_FAILURES,
                         ids=[",".join(f"{k}={v}" for k, v in f.items())
                              for f, _ in SET_UP_FAILURES])
def test_a_config_that_set_up_would_fail_is_rejected_as_it_is_built(fields, message):
    # Each field takes its annotation's type, and every check that needs no
    # data runs in validate, after the value checks, so no message changed
    # its precedence.
    with pytest.raises(ConfigurationError) as exc_info:
        RunConfig(**fields)
    assert str(exc_info.value) == message


def test_parameter_tables_count_the_edge_rows_only_where_the_algorithm_keeps_them():
    # A 5-agent ring has E = 10 edge rows: ngc keeps them, dpsgd keeps only N = 5.
    d = ModelSpec(16, 10, 6 * 10**15).param_count
    assert 8 * 5 * d <= 2**63 - 1 < 8 * 10 * d
    assert RunConfig(algorithm="dpsgd", hidden_dim=6 * 10**15)
    with pytest.raises(ConfigurationError, match=r"parameter tables of shape \(10, "):
        RunConfig(hidden_dim=6 * 10**15)


@given(classes=st.integers(2, 5), dim=st.integers(1, 3), per_class=st.integers(1, 3),
       spread=st.sampled_from([1e-3, 0.15, 1.0, 1e300]))
@settings(max_examples=120, deadline=None)
def test_every_synthetic_config_that_builds_draws_its_data(classes, dim, per_class, spread):
    # validate runs the mixture's own check, so the two agree on every argument.
    try:
        config = RunConfig(classes=classes, dim=dim, per_class=per_class, spread=spread,
                           val_per_class=per_class)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as drawn:
            generate_synthetic(classes, dim, per_class, spread, 0)
        assert str(drawn.value) == str(exc)
        return
    data = generate_synthetic(config.classes, config.dim, config.per_class, config.spread,
                              config.seed)
    assert data.features.shape == (classes * per_class, dim)
    assert np.isfinite(data.features).all()


def test_a_config_takes_ints_in_float_fields_none_where_annotated_and_csv_classes():
    config = RunConfig(alpha=1, beta=0, data_seed=None, torus_rows=None)
    assert (config.alpha, config.beta) == (1, 0)
    # The synthetic-data checks apply only to synthetic data.
    assert RunConfig(dataset="data.csv", classes=0, dim=0, per_class=0, spread=-1.0)


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


def test_a_one_dimensional_mixture_trains_to_full_accuracy():
    # dim = 1 places the two class centers at -1 and +1 on the line.
    result = run(tiny_config(dim=1, classes=2, partition="iid", epochs=3, eta=0.05,
                             schedule="constant"))
    assert result.val_data.dim == 1
    assert result.rows[0].val_acc < 1.0 and result.final_row.val_acc == 1.0


def test_mlp_beats_chance_quickly_on_an_easy_iid_problem():
    cfg = tiny_config(partition="iid", epochs=15, spread=0.15, eta=0.05,
                      schedule="constant")
    result = run(cfg)
    assert result.final_row.val_acc >= 0.9


# ------------------------------------------------------------- set-up pass

# Each set-up step, by its home module, and the calls one run makes to it:
# W is built and cut into slot tables once, and never checked or solved.
SETUP_STEPS = {
    "build_mixing_matrix": (topology, 1),
    "neighbor_slots": (algorithms, 1),
    "validate_doubly_stochastic": (topology, 0),
    "spectral_gap": (topology, 0),
}


def count_setup_steps(monkeypatch) -> dict:
    """Count calls to each set-up step through every decentsim binding of it."""
    counts = dict.fromkeys(SETUP_STEPS, 0)
    modules = [m for name, m in sys.modules.items()
               if name == "decentsim" or name.startswith("decentsim.")]
    for name, (home, _) in SETUP_STEPS.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("source", ["synthetic-compngc", "csv-ngc"])
def test_one_run_builds_w_slots_and_seeds_once_and_solves_no_w(source, tmp_path, monkeypatch):
    if source == "synthetic-compngc":
        cfg = tiny_config(algorithm="compngc", epochs=1)
    else:
        cfg = tiny_config(agents=3, dataset=write_csv_dataset(tmp_path), epochs=1,
                          batch_size=4)
    counts = count_setup_steps(monkeypatch)
    derived = []
    seed_sequence = np.random.SeedSequence

    def derive(*args, **kwargs):
        seq = seed_sequence(*args, **kwargs)
        derived.append((seq.entropy, seq.spawn_key))
        return seq

    monkeypatch.setattr(np.random, "SeedSequence", derive)
    run(cfg)
    assert counts == {name: calls for name, (_, calls) in SETUP_STEPS.items()}
    keys = [(0,), (1,)] + [(2, i) for i in range(cfg.agents)]
    keys += [(3,)] if source == "csv-ngc" else []
    assert sorted(derived) == sorted((cfg.seed, key) for key in keys)


def test_result_serves_sqrt_rho_from_its_mixing_matrix():
    result = run(tiny_config(epochs=1))
    assert (result.w == build_mixing_matrix(TopologySpec("ring", 4))).all()
    assert result.sqrt_rho == spectral_gap(result.w).sqrt_rho
