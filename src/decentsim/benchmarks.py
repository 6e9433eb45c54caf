"""Reference workloads used by the experiment scripts and acceptance suite."""
from __future__ import annotations

import argparse

from .simulator import RunConfig

# Communication-constrained regime: two rounds per epoch (full shard in two
# batches) and a weak averaging rate, so neighborhood gradient exchange has
# information that parameter gossip alone propagates only slowly.
SKEW_BENCHMARK = dict(
    agents=5, topology="ring", partition="skew",
    classes=10, dim=16, per_class=200, val_per_class=50, spread=0.15,
    model="mlp", hidden_dim=32,
    epochs=60, batch_size=200, eta=0.03, gamma=0.15, schedule="step",
)

BENCHMARK_SEEDS = (1, 2, 3)


def skew_benchmark_config(seed: int, **overrides) -> RunConfig:
    """Non-IID reference workload: 5-agent ring under complete label skew."""
    merged = dict(SKEW_BENCHMARK, seed=seed)
    merged.update(overrides)
    return RunConfig(**merged)


def iid_benchmark_config(seed: int, **overrides) -> RunConfig:
    """Same workload with the IID partition, for sanity baselines."""
    return skew_benchmark_config(seed, partition="iid", **overrides)


def seed_list(text: str) -> list[int]:
    """argparse type for the scripts' --seeds: comma-separated integers."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want comma-separated integers, got {text!r}") from None
