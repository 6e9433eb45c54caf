"""Diagnostics: consensus quantities, bias norms, the variance bound."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentsim import (
    ConfigurationError,
    GradientBundle,
    ModelSpec,
    RunConfig,
    StackedState,
    TopologySpec,
    build_mixing_matrix,
    consensus_error,
    consensus_model,
    generate_synthetic,
    partition_label_skew,
    run_round,
    variance_bound_check,
)

from conftest import make_states
from reference import bias_norms, round_with_bundles


def test_consensus_error_two_scalar_agents():
    assert consensus_error(np.array([[0.0], [2.0]])) == 1.0


def test_consensus_error_zero_when_agents_agree():
    p = np.random.default_rng(0).standard_normal(5)
    assert consensus_error(np.stack([p, p, p])) == 0.0


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_consensus_error_is_translation_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    base = consensus_error(x)
    shifted = x + rng.standard_normal(4)
    assert consensus_error(shifted) == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_consensus_model_is_the_uniform_average():
    assert (consensus_model(np.array([[1.0, 3.0], [3.0, 5.0]])) == [2.0, 4.0]).all()


def test_consensus_model_writes_the_mean_into_out():
    # The engine takes each emission's centre in an idle scratch row.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 1001))
    x[:, :4] = [-0.0, 5e-324, -5e-324, 1e300]
    row = np.full(1001, np.nan)
    assert consensus_model(x, out=row) is row
    assert row.tobytes() == x.mean(axis=0).tobytes()


def test_bias_norms_average_over_agents():
    g = np.zeros(3)
    up = np.array([1.0, 1.0, 1.0])
    mk = lambda i: GradientBundle(i, g, {1 - i: up}, {1 - i: 2 * up},
                                  {0: 0.5, 1: 0.5})
    eps_l1, omega_l1 = bias_norms([mk(0), mk(1)])
    assert eps_l1 == pytest.approx(1.5)  # |up|_1 / m with m = 2
    assert omega_l1 == pytest.approx(3.0)


def test_bias_norms_weigh_each_deviation_by_its_weight():
    g = np.zeros(2)
    up = np.array([1.0, -3.0])
    eps_l1, omega_l1 = bias_norms([GradientBundle(0, g, {1: up}, {1: 2 * up},
                                                  {0: 0.75, 1: 0.25})])
    assert (eps_l1, omega_l1) == (1.0, 2.0)  # 0.25 * |up|_1 and 0.25 * |2 up|_1


@pytest.mark.parametrize("algorithm, alpha", [("compngc", 1.0), ("ngc", 0.5), ("ngc", 0.0)])
def test_bias_norms_and_consensus_error_leave_their_inputs_unchanged(algorithm, alpha):
    # Both reduce in place on arrays they allocate themselves; a bundle or
    # params array written through would corrupt the next round.
    states, w = skewed_states()
    config = RunConfig(algorithm=algorithm, alpha=alpha, beta=0.9, gamma=0.5, batch_size=7)
    stack = StackedState(states, w, config)
    for _ in range(2):
        run_round(stack, 0.05)
    bundles = round_with_bundles(stack, w, 0.05)[2]

    def arrays():
        out = [stack.x]
        for b in bundles:
            out += [b.self_grad, *b.model_variant.values(), *b.data_variant.values()]
        return out

    before = [a.tobytes() for a in arrays()]
    bias_norms(bundles)
    consensus_error(stack.x)
    assert [a.tobytes() for a in arrays()] == before


def skewed_states(n_agents=4, seed=0):
    data = generate_synthetic(4, 6, 30, 0.3, seed)
    spec = ModelSpec(6, 4, hidden_dim=5)
    topo = TopologySpec("ring", n_agents)
    w = build_mixing_matrix(topo)
    shards = partition_label_skew(data, w, seed=seed)
    return make_states(n_agents, spec, data, shards, seed=seed), w


def test_variance_bound_refuses_tiny_sample_counts():
    states, w = skewed_states()
    with pytest.raises(ConfigurationError):
        variance_bound_check(states, w, batch_size=8, sample_count=50, seed=0)


def test_variance_bound_refuses_a_w_of_another_size():
    states, w = skewed_states()
    with pytest.raises(ConfigurationError, match="^mixing matrix size does not match states$"):
        variance_bound_check(states[:-1], w, batch_size=8, sample_count=100, seed=0)


def test_variance_bound_single_agent_has_zero_lhs():
    data = generate_synthetic(2, 3, 40, 0.3, 1)
    spec = ModelSpec(3, 2)
    states = make_states(1, spec, data, [np.arange(data.n)], seed=0)
    report = variance_bound_check(states, np.ones((1, 1)), batch_size=8,
                                  sample_count=100, seed=0)
    assert report.lhs == 0.0
    assert report.passed


def test_variance_bound_holds_at_shared_initial_params():
    # With identical parameters the doubly-stochastic column sums make the
    # mixed-gradient average equal the plain average in expectation.
    states, w = skewed_states()
    report = variance_bound_check(states, w, batch_size=8, sample_count=150, seed=3)
    assert report.passed
    assert report.lhs <= 1.2 * report.bound
    assert report.sigma2_hat > 0.0
    assert report.zeta2_hat > 0.0


def test_variance_bound_holds_after_some_training():
    states, w = skewed_states()
    config = RunConfig(alpha=1.0, beta=0.9, gamma=0.5, batch_size=7)
    stack = StackedState(states, w, config)
    for _ in range(20):
        run_round(stack, 0.01)
    report = variance_bound_check(states, w, batch_size=7, sample_count=150, seed=4)
    assert report.passed


def test_variance_bound_is_deterministic_in_its_seed():
    states, w = skewed_states()
    r1 = variance_bound_check(states, w, batch_size=8, sample_count=120, seed=9)
    r2 = variance_bound_check(states, w, batch_size=8, sample_count=120, seed=9)
    assert r1 == r2
