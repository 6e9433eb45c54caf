"""Reference workloads used by the experiment scripts and acceptance suite."""
from __future__ import annotations

import argparse

from .errors import ConfigurationError
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

# The paired variants the experiment scripts compare, as RunConfig overrides.
VARIANTS = (
    ("ngc", dict(algorithm="ngc", alpha=1.0)),
    ("ngc-a0", dict(algorithm="ngc", alpha=0.0)),
    ("compngc", dict(algorithm="compngc", alpha=1.0)),
    ("dpsgd", dict(algorithm="dpsgd")),
)


def skew_benchmark_config(seed: int, **overrides) -> RunConfig:
    """Non-IID reference workload: 5-agent ring under complete label skew."""
    merged = dict(SKEW_BENCHMARK, seed=seed)
    merged.update(overrides)
    return RunConfig(**merged)


def iid_benchmark_config(seed: int, **overrides) -> RunConfig:
    """Same workload with the IID partition, for sanity baselines."""
    return skew_benchmark_config(seed, partition="iid", **overrides)


def distinct_seeds(seeds: list[int]) -> list[int]:
    """Return seeds, or raise ConfigurationError if none or a repeat (which counts twice)."""
    if not seeds:
        raise ConfigurationError("a sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError("seeds must not repeat")
    return seeds


def seed_list(text: str) -> list[int]:
    """The one --seeds parser and the scripts' argparse type: integers, comma-separated."""
    try:
        return distinct_seeds([int(tok) for tok in text.split(",")])
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want comma-separated integers, got {text!r}") from None
