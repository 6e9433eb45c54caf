"""Shard assignment: IID splits and complete label-wise skew.

The skew rule is deterministic in the class labels: with N <= C agent i
holds every class c with c mod N == i, and with N == m*C each class c is
split across agents {c + t*C}. Either way no two graph-adjacent agents
share a class: after assignment, an agents x classes holding matrix read
from the shards' labels gives held[i] & held[j] empty on each edge of W.
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


def partition_label_skew(data: Dataset, w: np.ndarray, seed: int) -> list[np.ndarray]:
    """Complete label-wise skew over W's agents; W-adjacent agents never share a class."""
    n_agents, n_classes = w.shape[0], data.num_classes
    by_class = [np.flatnonzero(data.labels == c) for c in range(n_classes)]
    for c, idx in enumerate(by_class):
        if idx.size == 0:
            raise PartitionError(f"class {c} has no samples")

    shards: list[list[np.ndarray]] = [[] for _ in range(n_agents)]
    if n_agents <= n_classes:
        for c in range(n_classes):
            shards[c % n_agents].append(by_class[c])
    elif n_agents % n_classes == 0:
        rng = np.random.default_rng(seed)
        copies = n_agents // n_classes
        for c in range(n_classes):
            if by_class[c].size < copies:
                raise PartitionError(f"class {c} has fewer samples than {copies} holders")
            shuffled = rng.permutation(by_class[c])  # dealt in turn: sizes differ by one at most
            for t in range(copies):
                shards[c + t * n_classes].append(shuffled[t::copies])
    else:
        raise PartitionError(
            f"{n_agents} agents with {n_classes} classes: need N <= C or N a multiple of C"
        )
    out = [np.sort(np.concatenate(parts)) for parts in shards]

    held = np.zeros((n_agents, n_classes), dtype=bool)
    for i, s in enumerate(out):
        held[i, data.labels[s]] = True
    for i, j in zip(*np.nonzero(np.triu(w, 1) > 0.0)):
        shared = np.flatnonzero(held[i] & held[j])
        if shared.size:
            raise PartitionError(f"edge ({i}, {j}) shares classes {shared.tolist()}")
    return out
