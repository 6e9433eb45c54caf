"""Update rules: mixing identity, momentum, gossip, schedules, single-agent rounds."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentsim import (
    ConfigurationError,
    GradientBundle,
    HyperParams,
    ModelSpec,
    ProtocolError,
    TopologySpec,
    apply_lr_schedule,
    bias_terms,
    build_mixing_matrix,
    generate_synthetic,
    gossip_step,
    momentum_update,
    neighbors,
    ngc_mix,
    run_round,
    simulator,
)
from decentsim.algorithms import (
    cluster_deviation,
    compngc_prepare,
    gossip_rows,
    ngc_prepare,
    ngc_update,
)
from decentsim.compression import decompress, ef_step

from conftest import make_states


def random_bundle(rng, num_peers: int, dim: int = 6, agent_id: int = 0):
    peers = [agent_id + 1 + k for k in range(num_peers)]
    m = num_peers + 1
    weights = {agent_id: 1.0 / m, **{j: 1.0 / m for j in peers}}
    return GradientBundle(
        agent_id=agent_id,
        self_grad=rng.standard_normal(dim),
        model_variant={j: rng.standard_normal(dim) for j in peers},
        data_variant={j: rng.standard_normal(dim) for j in peers},
        weights=weights,
    )


# -------------------------------------------------------------- hyper params


def test_hyperparams_ranges():
    HyperParams(0.0, 0.0, 1e-3, 1.0)
    HyperParams(1.0, 0.99, 0.1, 0.01)
    with pytest.raises(ConfigurationError):
        HyperParams(alpha=1.5)
    with pytest.raises(ConfigurationError):
        HyperParams(alpha=-0.1)
    with pytest.raises(ConfigurationError):
        HyperParams(beta=1.0)
    with pytest.raises(ConfigurationError):
        HyperParams(eta=-0.01)
    with pytest.raises(ConfigurationError):
        HyperParams(gamma=0.0)
    with pytest.raises(ConfigurationError):
        HyperParams(gamma=1.5)
    with pytest.raises(ConfigurationError):
        HyperParams(schedule="linear")


def test_step_schedule_decays_at_half_and_three_quarters():
    hp = HyperParams(eta=0.04, schedule="step")
    assert apply_lr_schedule(hp, 0, 100) == 0.04
    assert apply_lr_schedule(hp, 49, 100) == 0.04
    assert apply_lr_schedule(hp, 50, 100) == pytest.approx(0.004)
    assert apply_lr_schedule(hp, 74, 100) == pytest.approx(0.004)
    assert apply_lr_schedule(hp, 75, 100) == pytest.approx(0.0004)
    assert apply_lr_schedule(hp, 99, 100) == pytest.approx(0.0004)


def test_constant_schedule_never_decays():
    hp = HyperParams(eta=0.04, schedule="constant")
    assert all(apply_lr_schedule(hp, e, 10) == 0.04 for e in range(10))


# ------------------------------------------------------------------ ngc_mix


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
def test_mix_equals_self_grad_plus_bias_decomposition(alpha):
    # Uniform weights: mixed gradient == g_self + (1-a)*eps + a*omega.
    rng = np.random.default_rng(42)
    for _ in range(100):
        bundle = random_bundle(rng, num_peers=int(rng.integers(1, 5)))
        mixed = ngc_mix(bundle, alpha)
        eps, omega = bias_terms(bundle)
        recon = bundle.self_grad + (1 - alpha) * eps + alpha * omega
        assert np.abs(mixed - recon).max() <= 1e-12


def test_mix_alpha_zero_ignores_data_variant_entirely():
    rng = np.random.default_rng(0)
    bundle = random_bundle(rng, 3)
    base = ngc_mix(bundle, 0.0)
    poisoned = GradientBundle(
        bundle.agent_id, bundle.self_grad, bundle.model_variant,
        {j: g * 1e9 for j, g in bundle.data_variant.items()}, bundle.weights,
    )
    assert (ngc_mix(poisoned, 0.0) == base).all()
    empty = GradientBundle(bundle.agent_id, bundle.self_grad,
                           bundle.model_variant, {}, bundle.weights)
    assert (ngc_mix(empty, 0.0) == base).all()


def test_mix_alpha_one_ignores_model_variant_entirely():
    rng = np.random.default_rng(1)
    bundle = random_bundle(rng, 3)
    base = ngc_mix(bundle, 1.0)
    poisoned = GradientBundle(
        bundle.agent_id, bundle.self_grad,
        {j: g * 1e9 for j, g in bundle.model_variant.items()},
        bundle.data_variant, bundle.weights,
    )
    assert (ngc_mix(poisoned, 1.0) == base).all()


def test_mix_single_agent_returns_self_gradient():
    g = np.array([1.0, -2.0, 3.0])
    bundle = GradientBundle(0, g, {}, {}, {0: 1.0})
    assert (ngc_mix(bundle, 0.7) == g).all()


def test_mix_rejects_weights_that_do_not_sum_to_one():
    rng = np.random.default_rng(2)
    bundle = random_bundle(rng, 2)
    bad = GradientBundle(bundle.agent_id, bundle.self_grad, bundle.model_variant,
                         bundle.data_variant,
                         {j: w + 1e-6 for j, w in bundle.weights.items()})
    with pytest.raises(ConfigurationError, match="sum"):
        ngc_mix(bad, 0.5)


def test_mix_rejects_incomplete_gradient_maps():
    rng = np.random.default_rng(3)
    bundle = random_bundle(rng, 3)
    partial = dict(bundle.data_variant)
    partial.popitem()
    broken = GradientBundle(bundle.agent_id, bundle.self_grad,
                            bundle.model_variant, partial, bundle.weights)
    with pytest.raises(ProtocolError):
        ngc_mix(broken, 1.0)


def test_bias_terms_zero_when_all_gradients_agree():
    g = np.array([0.5, -0.5])
    bundle = GradientBundle(0, g, {1: g.copy(), 2: g.copy()},
                            {1: g.copy(), 2: g.copy()},
                            {0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
    eps, omega = bias_terms(bundle)
    assert (eps == 0).all() and (omega == 0).all()


def test_bias_terms_require_uniform_weights():
    g = np.zeros(2)
    bundle = GradientBundle(0, g, {1: g}, {1: g}, {0: 0.7, 1: 0.3})
    with pytest.raises(ConfigurationError, match="uniform"):
        bias_terms(bundle)


def test_bias_terms_read_an_empty_data_variant_map_as_zero_omega():
    # alpha = 0 exchanges nothing; a partially filled map is still an error.
    g0 = np.zeros(2)
    shift = np.array([3.0, -3.0])
    weights = {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}
    eps, omega = bias_terms(GradientBundle(0, g0, {1: shift, 2: shift}, {}, weights))
    assert np.allclose(eps, 2.0 * shift / 3.0)
    assert omega.shape == g0.shape and (omega == 0).all()
    with pytest.raises(ProtocolError):
        bias_terms(GradientBundle(0, g0, {1: shift, 2: shift}, {1: shift}, weights))


@given(num_peers=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       zero_share=st.sampled_from([0.0, 0.5]))
@settings(max_examples=40, deadline=None)
def test_cluster_deviation_matches_the_plain_loop(num_peers, seed, zero_share):
    # The plain loop starts from zeros; starting from the first difference
    # may flip the sign of an exact zero but no value and no l1 norm.
    rng = np.random.default_rng(seed)
    bundle = random_bundle(rng, num_peers, dim=9)
    terms = bundle.model_variant
    for v in (bundle.self_grad, *terms.values()):
        v[rng.random(v.size) < zero_share] = 0.0
    if terms:
        terms[min(terms)][::2] = bundle.self_grad[::2]  # exact zero differences
    before = [v.tobytes() for v in (bundle.self_grad, *terms.values())]
    plain = np.zeros_like(bundle.self_grad)
    for j in sorted(terms):
        plain += terms[j] - bundle.self_grad
    plain /= len(bundle.weights)
    dev = cluster_deviation(bundle, terms)
    assert (dev == plain).all()
    assert np.abs(dev).sum().tobytes() == np.abs(plain).sum().tobytes()
    assert [v.tobytes() for v in (bundle.self_grad, *terms.values())] == before
    assert not any(np.shares_memory(dev, v) for v in (bundle.self_grad, *terms.values()))


def test_bias_terms_divide_by_neighborhood_size_including_self():
    g0 = np.zeros(2)
    shift = np.array([3.0, -3.0])
    bundle = GradientBundle(0, g0, {1: shift, 2: shift}, {1: -shift, 2: -shift},
                            {0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
    eps, omega = bias_terms(bundle)
    assert np.allclose(eps, 2.0 * shift / 3.0)
    assert np.allclose(omega, -2.0 * shift / 3.0)


# ------------------------------------------------------- momentum and gossip


def test_momentum_update_formula():
    v = np.array([1.0, -1.0])
    g = np.array([0.5, 0.5])
    out = momentum_update(v, g, beta=0.9, eta=0.1)
    assert np.allclose(out, [0.9 * 1.0 - 0.05, -0.9 - 0.05])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_momentum_with_zero_beta_is_plain_sgd_step(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4)
    g = rng.standard_normal(4)
    assert np.allclose(momentum_update(v, g, 0.0, 0.2), -0.2 * g)


def test_gossip_step_hand_example():
    # Two agents, w = [[.5, .5], [.5, .5]], gamma = 1: land on the average.
    x_tilde = np.array([0.0, 0.0])
    params = {0: np.array([0.0, 0.0]), 1: np.array([2.0, 4.0])}
    weights = {0: 0.5, 1: 0.5}
    out = gossip_step(x_tilde, 0, params, weights, gamma=1.0)
    assert np.allclose(out, [1.0, 2.0])


def test_gossip_step_gamma_scales_the_pull():
    x_tilde = np.array([1.0])
    params = {0: np.array([1.0]), 1: np.array([3.0])}
    weights = {0: 0.5, 1: 0.5}
    out = gossip_step(x_tilde, 0, params, weights, gamma=0.5)
    # mix - own = 2 - 1 = 1; half of that moves us.
    assert np.allclose(out, [1.5])


def test_gossip_step_missing_operand_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="missing"):
        gossip_step(np.zeros(1), 0, {0: np.zeros(1)}, {0: 0.5, 1: 0.5}, 1.0)


# ------------------------------------------------------------- row blocks

# Mostly signed zeros, then subnormals (whose products underflow to a
# signed zero), then ordinary values: where summation order and zero
# signs show.
EDGE_VALUES = [-0.0] * 4 + [0.0] * 2 + [5e-324, -5e-324, 1.0, -2.5]
GRAPHS = [("ring", 5), ("chain", 5), ("torus", 8), ("full", 4), ("ring", 2)]


def edge_rows(rng, shape):
    values = rng.choice(EDGE_VALUES, size=shape)
    dense = rng.random(shape) < 0.2
    values[dense] = rng.standard_normal(int(dense.sum()))
    return values


def slot_tables(kind, n, dim, block_rows):
    """W and its slot tables, cut into blocks of block_rows agents if given."""
    w = build_mixing_matrix(TopologySpec(kind, n))
    elems = simulator.BLOCK_ELEMS if block_rows is None else block_rows * dim
    with mock.patch.object(simulator, "BLOCK_ELEMS", elems):
        return w, simulator._neighbor_tables(w, dim)


@given(graph=st.sampled_from(GRAPHS), seed=st.integers(0, 2**32 - 1),
       block_rows=st.sampled_from([None, 1, 2]), gamma=st.sampled_from([0.5, 1.0, 0.15]))
@settings(max_examples=60, deadline=None)
def test_gossip_rows_give_gossip_steps_bits(graph, seed, block_rows, gamma):
    rng = np.random.default_rng(seed)
    n, dim = graph[1], 7
    w, slots = slot_tables(*graph, dim, block_rows)
    x, x_tilde = edge_rows(rng, (n, dim)), edge_rows(rng, (n, dim))
    pull = np.empty_like(x)
    tmp = np.empty((n, dim))
    for blk in slots.blocks:
        gossip_rows(blk, x[blk.rows], lambda index, out: np.take(x, index, axis=0, out=out),
                    pull[blk.rows], tmp[:blk.size], gamma)
    for i in range(n):
        weights = {j: float(w[i, j]) for j in neighbors(w, i)}
        want = gossip_step(x_tilde[i], i, {j: x[j] for j in weights}, weights, gamma)
        assert (x_tilde[i] + pull[i]).tobytes() == want.tobytes()


@given(graph=st.sampled_from(GRAPHS), seed=st.integers(0, 2**32 - 1),
       block_rows=st.sampled_from([None, 1, 2]), alpha=st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_ngc_update_gives_ngc_mix_and_momentum_updates_bits(graph, seed, block_rows, alpha):
    rng = np.random.default_rng(seed)
    n, dim = graph[1], 7
    w, slots = slot_tables(*graph, dim, block_rows)
    hp = HyperParams(alpha, 0.9, 0.05, 0.5, "constant")
    own = edge_rows(rng, (n, dim))
    cross = edge_rows(rng, (slots.edges, dim))
    v = edge_rows(rng, (n, dim))
    v_before = v.copy()
    scratch = np.empty((3, n, dim))
    for blk in slots.blocks:
        model = cross[blk.edges].reshape(len(blk.back), blk.size, dim)

        def data_variant(s, out, blk=blk):
            return np.take(cross, blk.back[s], axis=0, out=out)

        ngc_update(blk, own[blk.rows], model, data_variant, v[blk.rows], hp, scratch)
    for i in range(n):
        links = slots.links[i]
        bundle = GradientBundle(
            i, own[i], {j: cross[e] for j, e in links},
            {j: cross[slots.back[e]] for j, e in links},
            {j: float(w[i, j]) for j in neighbors(w, i)})
        want = momentum_update(v_before[i], ngc_mix(bundle, alpha), hp.beta, hp.eta)
        assert v[i].tobytes() == want.tobytes()


# ----------------------------------------------------- single-agent rounds


def momentum_sgd_oracle(spec, data, shard, seed, hp, steps, batch_size):
    """Single-node heavy-ball SGD, written independently of the round code."""
    rng = np.random.default_rng(seed)
    params = np.zeros(spec.param_count)
    from decentsim import init_params
    params = init_params(spec, np.random.default_rng(99))
    v = np.zeros_like(params)
    queue: list = []
    from decentsim import loss_and_gradient
    for _ in range(steps):
        if not queue:
            perm = rng.permutation(shard)
            count = shard.size // batch_size
            queue = [perm[k * batch_size:(k + 1) * batch_size] for k in range(count)]
        batch = queue.pop(0)
        _, g = loss_and_gradient(spec, params, data, batch)
        v = hp.beta * v - hp.eta * g
        params = params + v
    return params


W_ONE_AGENT = np.ones((1, 1))


@pytest.mark.parametrize("algorithm", ["ngc", "dpsgd"])
def test_single_agent_round_reduces_to_momentum_sgd(algorithm, small_data, small_spec):
    hp = HyperParams(alpha=1.0, beta=0.9, eta=0.05, gamma=1.0, schedule="constant")
    shard = np.arange(small_data.n)
    states = make_states(1, small_spec, small_data, [shard], seed=99,
                         shared_rng_seed=1234)
    for _ in range(100):
        states, _, _ = run_round(states, W_ONE_AGENT, hp, algorithm, batch_size=10)
    [state] = states
    oracle = momentum_sgd_oracle(small_spec, small_data, shard, 1234, hp, 100, 10)
    denom = max(np.abs(oracle).max(), 1e-12)
    assert np.abs(state.params - oracle).max() / denom <= 1e-12


def test_single_agent_compressed_round_differs_from_uncompressed():
    data = generate_synthetic(3, 4, 30, 0.3, 7)
    spec = ModelSpec(4, 3, hidden_dim=6)
    hp = HyperParams(1.0, 0.9, 0.05, 1.0, "constant")
    a = make_states(1, spec, data, [np.arange(data.n)], seed=1,
                    shared_rng_seed=5)
    b = make_states(1, spec, data, [np.arange(data.n)], seed=1,
                    shared_rng_seed=5)
    for _ in range(5):
        a, _, _ = run_round(a, W_ONE_AGENT, hp, "compngc", batch_size=10)
        b, _, _ = run_round(b, W_ONE_AGENT, hp, "ngc", batch_size=10)
    assert not np.allclose(a[0].params, b[0].params)


def test_round_outbox_empty_when_alpha_zero(small_data, small_spec):
    hp = HyperParams(alpha=0.0, beta=0.0, eta=0.01, gamma=1.0, schedule="constant")
    shards = [np.arange(0, 45), np.arange(45, 90)]
    states = make_states(2, small_spec, small_data, shards, seed=3)
    work = ngc_prepare(states[0], {1: states[1].params}, hp, batch_size=10)
    assert work.outgoing == {}
    assert set(work.model_variant) == {1}


def test_round_outbox_addresses_every_neighbor_when_alpha_set(small_data, small_spec):
    hp = HyperParams(alpha=1.0, beta=0.0, eta=0.01, gamma=1.0, schedule="constant")
    shards = [np.arange(0, 45), np.arange(45, 90)]
    states = make_states(2, small_spec, small_data, shards, seed=3)
    outbox = ngc_prepare(states[0], {1: states[1].params}, hp, batch_size=10).outgoing
    assert set(outbox) == {1}
    assert outbox[1].shape == (small_spec.param_count,)


def test_compngc_prepare_is_ngc_prepare_through_error_feedback(small_data, small_spec):
    # Two copies of agent 0 on one batch stream: compngc_prepare on one must
    # equal ngc_prepare's raw gradients, each through its own ef_step, on
    # the other. The second round starts from the residuals the first stored.
    hp = HyperParams(alpha=1.0, beta=0.0, eta=0.01, gamma=1.0, schedule="constant")
    shards = [np.arange(0, 30), np.arange(30, 60), np.arange(60, 90)]
    comp, left, right = make_states(3, small_spec, small_data, shards, seed=3,
                                    shared_rng_seed=5)
    plain = make_states(1, small_spec, small_data, shards, seed=3, shared_rng_seed=5)[0]
    params_in = {1: left.params + 0.5, 2: right.params - 0.25}
    zero = np.zeros(small_spec.param_count)
    err_self, err_out = zero, {j: zero for j in params_in}

    def bits(x):
        return np.asarray(x, dtype=np.float64).tobytes()

    for _ in range(2):
        work = compngc_prepare(comp, params_in, hp, batch_size=10)
        ref = ngc_prepare(plain, params_in, hp, batch_size=10)
        assert bits(work.batch_loss) == bits(ref.batch_loss)
        delta, err_self = ef_step(ref.self_grad, err_self)
        assert bits(work.self_grad) == bits(decompress(delta))
        assert bits(comp.err_self) == bits(err_self)
        assert set(work.model_variant) == set(work.outgoing) == set(params_in)
        for j in params_in:
            delta, err_out[j] = ef_step(ref.model_variant[j], err_out[j])
            sent = work.outgoing[j]
            assert sent.signs.tobytes() == delta.signs.tobytes()
            assert bits(sent.scale) == bits(delta.scale)
            assert bits(work.model_variant[j]) == bits(decompress(delta))
            assert bits(comp.err_out[j]) == bits(err_out[j])


# -------------------------------------------------------------- batch drawing


def test_draw_batch_covers_the_shard_without_replacement(small_data, small_spec):
    shard = np.arange(40, 80)
    [state] = make_states(1, small_spec, small_data, [shard], seed=0)
    seen = np.concatenate([state.draw_batch(8) for _ in range(5)])
    assert (np.sort(seen) == shard).all()


def test_draw_batch_reshuffles_each_epoch(small_data, small_spec):
    shard = np.arange(40)
    [state] = make_states(1, small_spec, small_data, [shard], seed=0)
    first = [state.draw_batch(10) for _ in range(4)]
    second = [state.draw_batch(10) for _ in range(4)]
    assert any(not np.array_equal(a, b) for a, b in zip(first, second))


def test_draw_batch_rejects_oversized_batches(small_data, small_spec):
    [state] = make_states(1, small_spec, small_data, [np.arange(10)], seed=0)
    with pytest.raises(ConfigurationError):
        state.draw_batch(11)


def test_ngc_prepare_computes_cross_gradients_at_neighbor_params(small_data, small_spec):
    hp = HyperParams(alpha=1.0, beta=0.0, eta=0.01, gamma=1.0, schedule="constant")
    shards = [np.arange(0, 45), np.arange(45, 90)]
    states = make_states(2, small_spec, small_data, shards, seed=3,
                         shared_rng_seed=77)
    foreign = states[1].params + 0.5
    work = ngc_prepare(states[0], {1: foreign}, hp, batch_size=45)
    # Full-shard batch makes the draw deterministic: compare directly.
    from decentsim import loss_and_gradient
    _, expect = loss_and_gradient(small_spec, foreign, small_data, np.arange(0, 45))
    # The drawn batch is a permutation of the shard, which only reorders the
    # mean's summation; values agree to rounding.
    assert np.abs(work.model_variant[1] - expect).max() <= 1e-14
