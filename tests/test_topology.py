"""Mixing matrices: exact weights, validation, spectral quantities."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentsim import (
    ConfigurationError,
    TopologySpec,
    build_mixing_matrix,
    neighbors,
    spectral_gap,
    validate_doubly_stochastic,
)
from decentsim.topology import TOPOLOGIES


def oracle_sqrt_rho(w: np.ndarray, iters: int = 200_000, tol: float = 1e-13) -> float:
    """Independent power iteration on (W - ones/n)^2; test-side oracle."""
    n = w.shape[0]
    b = w - 1.0 / n
    m = b @ b
    v = np.ones(n) / np.sqrt(n) + np.linspace(0.1, 0.9, n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        mv = m @ v
        norm = np.linalg.norm(mv)
        if norm == 0.0:
            return 0.0
        v = mv / norm
        new_lam = float(v @ (m @ v))
        if abs(new_lam - lam) <= tol * max(1.0, new_lam):
            lam = new_lam
            break
        lam = new_lam
    return float(np.sqrt(max(lam, 0.0)))


def ring_sqrt_rho_closed_form(n: int) -> float:
    ks = np.arange(1, n)
    return float(np.abs(1.0 / 3.0 + 2.0 / 3.0 * np.cos(2.0 * np.pi * ks / n)).max())


ALL_SIZES = (4, 5, 8, 10, 16, 20)


def all_desk_specs():
    specs = []
    for n in ALL_SIZES:
        specs.append(TopologySpec("ring", n))
        specs.append(TopologySpec("chain", n))
        specs.append(TopologySpec("full", n))
        try:
            specs.append(TopologySpec("torus", n))
        except ConfigurationError:
            pass  # no grid with both sides >= 2 (e.g. 5 agents)
    return specs


@pytest.mark.parametrize("spec", all_desk_specs(), ids=lambda s: f"{s.kind}-{s.num_agents}")
def test_every_generated_matrix_is_doubly_stochastic(spec):
    w = build_mixing_matrix(spec)
    report = validate_doubly_stochastic(w)
    assert report.passed
    assert report.max_row_dev <= 1e-12
    assert report.max_col_dev <= 1e-12
    assert report.asymmetry == 0.0
    assert report.min_entry >= 0.0
    assert np.diag(w).min() > 0.0


def test_ring_rows_have_three_entries_of_exactly_one_third():
    w = build_mixing_matrix(TopologySpec("ring", 5))
    for i in range(5):
        nz = np.flatnonzero(w[i])
        assert list(nz) == sorted({i, (i - 1) % 5, (i + 1) % 5})
        assert all(w[i, j] == 1.0 / 3.0 for j in nz)


def test_two_agent_ring_merges_the_duplicate_edge():
    w = build_mixing_matrix(TopologySpec("ring", 2))
    assert w[0, 0] == w[1, 1] == pytest.approx(1.0 / 3.0)
    assert w[0, 1] == w[1, 0] == pytest.approx(2.0 / 3.0)
    assert validate_doubly_stochastic(w).passed


def test_chain_three_agents_matches_hand_metropolis_values():
    w = build_mixing_matrix(TopologySpec("chain", 3))
    expect = np.array([
        [2 / 3, 1 / 3, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
        [0.0, 1 / 3, 2 / 3],
    ])
    assert np.allclose(w, expect, atol=1e-15)


def test_torus_ten_agents_uses_two_by_five_grid_with_quarter_weights():
    spec = TopologySpec("torus", 10)
    assert spec.torus_dims() == (2, 5)
    w = build_mixing_matrix(spec)
    # With two rows the up/down neighbors coincide: 3 distinct peers + self.
    assert (np.count_nonzero(w, axis=1) == 4).all()
    assert set(np.unique(w[w > 0])) == {0.25}


def test_torus_twenty_agents_uses_four_by_five_grid_with_fifth_weights():
    spec = TopologySpec("torus", 20)
    assert spec.torus_dims() == (4, 5)
    w = build_mixing_matrix(spec)
    assert (np.count_nonzero(w, axis=1) == 5).all()
    assert set(np.unique(w[w > 0])) == {0.2}


def test_torus_rows_override_and_rejection():
    assert TopologySpec("torus", 16, torus_rows=2).torus_dims() == (2, 8)
    with pytest.raises(ConfigurationError):
        TopologySpec("torus", 16, torus_rows=3)
    with pytest.raises(ConfigurationError):
        TopologySpec("torus", 6, torus_rows=1)
    with pytest.raises(ConfigurationError):
        TopologySpec("torus", 5)


def test_full_graph_weights_are_uniform():
    w = build_mixing_matrix(TopologySpec("full", 8))
    assert (w == 1.0 / 8.0).all()


def test_unknown_kind_and_tiny_graphs_are_rejected():
    with pytest.raises(ConfigurationError):
        TopologySpec("star", 4)
    with pytest.raises(ConfigurationError):
        TopologySpec("ring", 1)
    with pytest.raises(ConfigurationError):
        TopologySpec("chain", 1)
    with pytest.raises(ConfigurationError):
        TopologySpec("full", 0)


def test_agent_counts_no_dense_w_can_hold_are_rejected_before_any_torus_search():
    # n * n * 8 bytes passes numpy's index range from n = 2**30 on. The cap
    # also bounds the torus grid search, which tries up to sqrt(n) row counts:
    # at 2**63 - 1 that took over two minutes.
    for kind in TOPOLOGIES:
        with pytest.raises(ConfigurationError, match=r"must be below 2\*\*30"):
            TopologySpec(kind, 2**30)
    with pytest.raises(ConfigurationError, match=r"must be below 2\*\*30"):
        TopologySpec("torus", 2**63 - 1)
    assert TopologySpec("torus", 2**30 - 1).torus_dims() == (32767, 32769)


def accepted_specs(kind, max_agents=64):
    """Every TopologySpec of this kind that set-up accepts, up to max_agents.

    A torus comes at every torus_rows that factors its agents, and unpinned.
    """
    for n in range(1, max_agents + 1):
        for rows in [None, *range(2, n + 1)] if kind == "torus" else [None]:
            try:
                yield TopologySpec(kind, n, rows)
            except ConfigurationError:
                pass


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_every_accepted_graph_is_doubly_stochastic_and_connected(kind):
    # Set-up builds W and never checks it: these are build_mixing_matrix's
    # postconditions, checked here for every graph of up to 64 agents.
    # Connectivity is checked twice, by the spectral gap and by a walk.
    specs = list(accepted_specs(kind))
    assert specs
    for spec in specs:
        w = build_mixing_matrix(spec)
        assert validate_doubly_stochastic(w).passed, spec
        assert spectral_gap(w).connected, spec
        reached, frontier = {0}, {0}
        while frontier:
            frontier = {j for i in frontier for j in neighbors(w, i)} - reached
            reached |= frontier
        assert reached == set(range(spec.num_agents)), spec


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_edges_count_the_peer_links_of_every_accepted_graph(kind):
    # RunConfig.validate sizes the (E, d) edge rows from edges, before any W exists.
    for spec in accepted_specs(kind):
        w = build_mixing_matrix(spec)
        assert spec.edges == np.count_nonzero(w) - spec.num_agents, spec


def test_validator_flags_a_row_stochastic_only_matrix():
    w = np.array([[0.6, 0.4], [0.5, 0.5]])
    report = validate_doubly_stochastic(w)
    assert not report.passed
    assert report.max_col_dev == pytest.approx(0.1)


def test_validator_accepts_identity():
    assert validate_doubly_stochastic(np.eye(4)).passed


# ------------------------------------------------------------ spectral gap


@pytest.mark.parametrize("n", ALL_SIZES)
def test_ring_spectral_gap_matches_circulant_closed_form(n):
    gap = spectral_gap(build_mixing_matrix(TopologySpec("ring", n)))
    assert abs(gap.sqrt_rho - ring_sqrt_rho_closed_form(n)) <= 1e-8
    assert gap.rho == pytest.approx(gap.sqrt_rho**2)


@pytest.mark.parametrize("spec", all_desk_specs(), ids=lambda s: f"{s.kind}-{s.num_agents}")
def test_spectral_gap_matches_independent_power_iteration(spec):
    w = build_mixing_matrix(spec)
    gap = spectral_gap(w)
    assert abs(gap.sqrt_rho - oracle_sqrt_rho(w)) <= 1e-8
    assert gap.connected


def test_full_graph_has_zero_sqrt_rho():
    gap = spectral_gap(build_mixing_matrix(TopologySpec("full", 6)))
    assert gap.sqrt_rho == pytest.approx(0.0, abs=1e-12)


def test_identity_is_flagged_disconnected():
    gap = spectral_gap(np.eye(5))
    assert gap.sqrt_rho == pytest.approx(1.0, abs=1e-12)
    assert not gap.connected


def test_single_agent_gap_is_zero():
    gap = spectral_gap(np.ones((1, 1)))
    assert gap.sqrt_rho == 0.0
    assert gap.connected


@pytest.mark.parametrize("kind,n", [("ring", 80), ("ring", 256), ("chain", 200), ("chain", 400)])
def test_large_graph_spectral_gap_matches_closed_form(kind, n):
    # Ring: (1 + 2cos(2pi/n))/3. Metropolis chain: (1 + 2cos(pi/n))/3, whose
    # gap 1 - sqrt_rho is only about 2e-5 at n = 400.
    angle = 2 * np.pi / n if kind == "ring" else np.pi / n
    gap = spectral_gap(build_mixing_matrix(TopologySpec(kind, n)))
    assert abs(gap.sqrt_rho - (1 + 2 * np.cos(angle)) / 3) <= 1e-12
    assert gap.connected


def test_spectral_gap_rejects_non_stochastic_input():
    with pytest.raises(ConfigurationError):
        spectral_gap(np.array([[0.6, 0.4], [0.5, 0.5]]))
    for w in (np.full((2, 3), 1 / 3), np.ones(3)):
        with pytest.raises(ConfigurationError, match="^mixing matrix must be square$"):
            spectral_gap(w)


# -------------------------------------------------------------- neighbors


def test_neighbors_sorted_and_contains_self():
    w = build_mixing_matrix(TopologySpec("ring", 5))
    assert neighbors(w, 0) == [0, 1, 4]
    assert neighbors(w, 2) == [1, 2, 3]
    w_id = np.eye(3)
    assert neighbors(w_id, 1) == [1]
    with pytest.raises(IndexError):
        neighbors(w, 7)


# ------------------------------------------------- gossip contraction property


@given(
    spec=st.sampled_from(all_desk_specs()),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_gossip_averaging_contracts_disagreement_by_sqrt_rho(spec, seed):
    w = build_mixing_matrix(spec)
    gap = spectral_gap(w)
    n = spec.num_agents
    x = np.random.default_rng(seed).standard_normal((n, 3))
    center = x.mean(axis=0)
    before = np.linalg.norm(x - center)
    after = np.linalg.norm(w @ x - center)
    assert after <= (gap.sqrt_rho + 1e-9) * before + 1e-12
    # The mean itself never moves.
    assert np.allclose((w @ x).mean(axis=0), center, atol=1e-12)
