"""Shared builders for engine-level tests."""
from __future__ import annotations

import numpy as np
import pytest

from decentsim import AgentState, Dataset, ModelSpec, generate_synthetic, init_params

# tests/reference.py holds shared assertions; rewrite them as in a test module.
pytest.register_assert_rewrite("reference")


def make_states(num_agents: int, spec: ModelSpec, data: Dataset, shards,
                seed: int = 0, shared_rng_seed=None) -> list[AgentState]:
    """Hand-built agent states; shared_rng_seed forces identical batch streams."""
    rng = np.random.default_rng(seed)
    x0 = init_params(spec, rng)
    states = []
    for i in range(num_agents):
        if shared_rng_seed is not None:
            agent_rng = np.random.default_rng(shared_rng_seed)
        else:
            agent_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, i)))
        states.append(AgentState(
            agent_id=i, spec=spec, data=data, shard=np.asarray(shards[i]),
            params=x0.copy(), momentum=np.zeros(spec.param_count), rng=agent_rng,
        ))
    return states


@pytest.fixture
def small_data():
    return generate_synthetic(num_classes=3, dim=4, per_class=30, spread=0.3, seed=7)


@pytest.fixture
def small_spec(small_data):
    return ModelSpec(small_data.dim, small_data.num_classes, hidden_dim=6)
