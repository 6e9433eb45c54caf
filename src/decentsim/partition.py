"""Shard assignment: IID splits and complete label-wise skew.

The skew rule is deterministic in the class labels: with N <= C agent i
holds every class c with c mod N == i, and with N == m*C each class c is
split across agents {c + t*C}. Either way no two graph-adjacent agents
share a class, which is checked after assignment by walking the edges of
the run's mixing matrix W.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, PartitionError
from .models import Dataset


def partition_iid(data: Dataset, num_agents: int, seed: int) -> list[np.ndarray]:
    """Random permutation split into near-equal shards (sizes within one)."""
    if num_agents < 1:
        raise ConfigurationError("num_agents must be positive")
    if data.n < num_agents:
        raise PartitionError(f"{data.n} samples cannot cover {num_agents} agents")
    perm = np.random.default_rng(seed).permutation(data.n)
    return [np.sort(part) for part in np.array_split(perm, num_agents)]


def _split_round_robin(idx: np.ndarray, parts: int, rng: np.random.Generator):
    """Shuffle then deal into `parts` piles so sizes differ by at most one."""
    shuffled = rng.permutation(idx)
    return [shuffled[t::parts] for t in range(parts)]


def partition_label_skew(data: Dataset, w: np.ndarray, seed: int) -> list[np.ndarray]:
    """Complete label-wise skew over W's agents; W-adjacent agents never share a class."""
    n_agents, n_classes = w.shape[0], data.num_classes
    by_class = [np.flatnonzero(data.labels == c) for c in range(n_classes)]
    for c, idx in enumerate(by_class):
        if idx.size == 0:
            raise PartitionError(f"class {c} has no samples")

    rng = np.random.default_rng(seed)
    shards: list[list[np.ndarray]] = [[] for _ in range(n_agents)]
    if n_agents <= n_classes:
        for c in range(n_classes):
            shards[c % n_agents].append(rng.permutation(by_class[c]))
    elif n_agents % n_classes == 0:
        copies = n_agents // n_classes
        for c in range(n_classes):
            if by_class[c].size < copies:
                raise PartitionError(f"class {c} has fewer samples than {copies} holders")
            for t, part in enumerate(_split_round_robin(by_class[c], copies, rng)):
                shards[c + t * n_classes].append(part)
    else:
        raise PartitionError(
            f"{n_agents} agents with {n_classes} classes: need N <= C or N a multiple of C"
        )
    out = [np.sort(np.concatenate(parts)) for parts in shards]

    classes = [set(np.unique(data.labels[s]).tolist()) for s in out]
    for i, j in zip(*np.nonzero(np.triu(w, 1) > 0.0)):
        shared = classes[i] & classes[j]
        if shared:
            raise PartitionError(f"edge ({i}, {j}) shares classes {sorted(shared)}")
    return out
