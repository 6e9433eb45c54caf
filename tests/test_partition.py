"""Shard assignment: IID balance and the complete label-skew rule."""
from __future__ import annotations

import numpy as np
import pytest

from decentsim import (
    ConfigurationError,
    Dataset,
    PartitionError,
    TopologySpec,
    build_mixing_matrix,
    generate_synthetic,
    partition_iid,
    partition_label_skew,
)


def mixing(kind, n):
    return build_mixing_matrix(TopologySpec(kind, n))


def skew_report(data: Dataset, shards: list[np.ndarray]) -> np.ndarray:
    """Count matrix (agents x classes) of label occurrences per shard."""
    counts = np.zeros((len(shards), data.num_classes), dtype=np.int64)
    for i, shard in enumerate(shards):
        vals, cnt = np.unique(data.labels[shard], return_counts=True)
        counts[i, vals] = cnt
    return counts


def shard_classes(data, shards):
    return [set(np.unique(data.labels[s]).tolist()) for s in shards]


def test_iid_split_of_100_samples_gives_five_shards_of_20():
    data = generate_synthetic(10, 4, 10, 0.3, 0)
    shards = partition_iid(data, 5, seed=1)
    assert [s.size for s in shards] == [20] * 5
    merged = np.sort(np.concatenate(shards))
    assert (merged == np.arange(100)).all()


def test_iid_split_sizes_stay_within_one():
    data = generate_synthetic(2, 2, 51, 0.3, 0)  # 102 samples over 4 agents
    sizes = [s.size for s in partition_iid(data, 4, seed=0)]
    assert sorted(sizes) == [25, 25, 26, 26]


def test_iid_split_is_deterministic_in_the_seed():
    data = generate_synthetic(3, 3, 20, 0.3, 0)
    a = partition_iid(data, 4, seed=9)
    b = partition_iid(data, 4, seed=9)
    c = partition_iid(data, 4, seed=10)
    assert all((x == y).all() for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_iid_rejects_more_agents_than_samples():
    data = generate_synthetic(2, 2, 2, 0.3, 0)
    with pytest.raises(PartitionError):
        partition_iid(data, 5, seed=0)
    with pytest.raises(ConfigurationError, match="^num_agents must be positive$"):
        partition_iid(data, 0, seed=0)


def test_iid_label_proportions_stay_close_to_global():
    # Worst observed total-variation distance across shards and seeds stays
    # under 0.15 for 1000 samples split five ways.
    data = generate_synthetic(10, 4, 100, 0.3, 0)
    global_hist = np.bincount(data.labels, minlength=10) / data.n
    worst = 0.0
    for seed in range(20):
        for shard in partition_iid(data, 5, seed=seed):
            hist = np.bincount(data.labels[shard], minlength=10) / shard.size
            worst = max(worst, 0.5 * np.abs(hist - global_hist).sum())
    assert worst <= 0.15


def test_skew_one_class_per_agent_when_counts_match():
    data = generate_synthetic(5, 4, 12, 0.3, 0)
    w = mixing("ring", 5)
    shards = partition_label_skew(data, w, seed=0)
    classes = shard_classes(data, shards)
    assert classes == [{0}, {1}, {2}, {3}, {4}]
    assert all(s.size == 12 for s in shards)


def test_skew_five_agents_ten_classes_pairs_by_residue():
    data = generate_synthetic(10, 4, 8, 0.3, 0)
    shards = partition_label_skew(data, mixing("ring", 5), seed=3)
    classes = shard_classes(data, shards)
    assert classes == [{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}]


def test_skew_neighbors_never_share_a_class_on_a_ring():
    data = generate_synthetic(10, 4, 8, 0.3, 0)
    w = mixing("ring", 5)
    classes = shard_classes(data, partition_label_skew(data, w, seed=3))
    for i in range(5):
        assert not (classes[i] & classes[(i + 1) % 5])


def test_skew_twenty_agents_ten_classes_splits_each_class_in_two():
    data = generate_synthetic(10, 4, 30, 0.3, 0)
    w = mixing("ring", 20)
    shards = partition_label_skew(data, w, seed=1)
    classes = shard_classes(data, shards)
    for c in range(10):
        holders = [i for i in range(20) if c in classes[i]]
        assert holders == [c, c + 10]
    assert all(s.size == 15 for s in shards)
    merged = np.sort(np.concatenate(shards))
    assert (merged == np.arange(data.n)).all()


def test_skew_split_sizes_within_one_when_class_count_is_odd():
    # 4 agents, 2 classes, 11 samples per class: copies get 6 and 5.
    data = generate_synthetic(2, 3, 11, 0.3, 0)
    shards = partition_label_skew(data, mixing("ring", 4), seed=2)
    sizes = sorted(s.size for s in shards)
    assert sizes == [5, 5, 6, 6]


def test_skew_is_deterministic_and_seed_sensitive():
    data = generate_synthetic(10, 4, 30, 0.3, 0)
    w = mixing("ring", 20)
    a = partition_label_skew(data, w, seed=5)
    b = partition_label_skew(data, w, seed=5)
    c = partition_label_skew(data, w, seed=6)
    assert all((x == y).all() for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_skew_rejects_incompatible_agent_counts():
    data = generate_synthetic(10, 4, 8, 0.3, 0)
    with pytest.raises(PartitionError, match="15 agents"):
        partition_label_skew(data, mixing("ring", 15), seed=0)


def test_skew_reports_the_violated_edge_when_adjacency_fails():
    # Full graph with more agents than classes: some pair must share a class.
    data = generate_synthetic(2, 3, 10, 0.3, 0)
    with pytest.raises(PartitionError) as err:
        partition_label_skew(data, mixing("full", 4), seed=0)
    assert str(err.value) == "edge (0, 2) shares classes [0]"


def test_skew_rejects_an_absent_class():
    feats = np.random.default_rng(0).standard_normal((10, 2))
    labels = np.array([0, 0, 0, 0, 0, 2, 2, 2, 2, 2])
    data = Dataset(feats, labels, num_classes=3)
    with pytest.raises(PartitionError, match="class 1"):
        partition_label_skew(data, mixing("ring", 3), seed=0)


def test_skew_report_counts_match_shards():
    data = generate_synthetic(10, 4, 8, 0.3, 0)
    shards = partition_label_skew(data, mixing("ring", 5), seed=3)
    counts = skew_report(data, shards)
    assert counts.shape == (5, 10)
    assert counts.sum() == data.n
    assert (counts.sum(axis=1) == [s.size for s in shards]).all()
    # Each agent holds exactly its two residue classes.
    for i in range(5):
        assert set(np.flatnonzero(counts[i]).tolist()) == {i, i + 5}


def test_skew_report_on_iid_split_touches_most_classes():
    data = generate_synthetic(10, 4, 100, 0.3, 0)
    counts = skew_report(data, partition_iid(data, 5, seed=0))
    assert (counts > 0).all()
