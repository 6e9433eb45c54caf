"""Peer graphs and their gossip mixing matrices.

Every topology yields a symmetric doubly-stochastic matrix with
nonnegative entries and self-loops, so one build routine plus one
validator covers ring, chain, torus and fully-connected graphs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

TOPOLOGIES = ("ring", "chain", "torus", "full")
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TopologySpec:
    """Graph family plus agent count; torus_rows optionally pins the grid shape."""

    kind: str
    num_agents: int
    torus_rows: int | None = None

    def __post_init__(self):
        if self.kind not in TOPOLOGIES:
            raise ConfigurationError(f"unknown topology {self.kind!r}")
        if self.num_agents < 1:
            raise ConfigurationError("num_agents must be positive")
        if self.kind in ("ring", "chain") and self.num_agents < 2:
            raise ConfigurationError(f"{self.kind} needs at least two agents")
        if self.kind == "torus":
            self.torus_dims()

    def torus_dims(self) -> tuple[int, int]:
        """Grid shape: pinned rows if given, else the most-square factorization."""
        n = self.num_agents
        if self.torus_rows is not None:
            rows = self.torus_rows
            if rows < 2 or n % rows != 0 or n // rows < 2:
                raise ConfigurationError(f"torus_rows {rows} does not factor {n} agents")
            return rows, n // rows
        for rows in range(int(np.sqrt(n)), 1, -1):
            if n % rows == 0 and n // rows >= 2:
                return rows, n // rows
        raise ConfigurationError(f"{n} agents admit no torus grid with sides >= 2")


@dataclass(frozen=True)
class StochasticityReport:
    """Deviations from the doubly-stochastic contract."""

    max_row_dev: float
    max_col_dev: float
    asymmetry: float
    min_entry: float

    @property
    def passed(self) -> bool:
        return (
            self.max_row_dev <= _SUM_TOL
            and self.max_col_dev <= _SUM_TOL
            and self.asymmetry == 0.0
            and self.min_entry >= 0.0
        )


@dataclass(frozen=True)
class SpectralGap:
    """Second-largest eigenvalue magnitude of W and its square."""

    sqrt_rho: float
    rho: float

    @property
    def connected(self) -> bool:
        return self.sqrt_rho < 1.0 - 1e-9


def _grid_neighbors(rows: int, cols: int, idx: int) -> list[int]:
    r, c = divmod(idx, cols)
    around = {
        ((r - 1) % rows) * cols + c,
        ((r + 1) % rows) * cols + c,
        r * cols + (c - 1) % cols,
        r * cols + (c + 1) % cols,
    }
    around.discard(idx)
    return sorted(around)


def build_mixing_matrix(spec: TopologySpec) -> np.ndarray:
    """Gossip weights for the requested graph, symmetric and doubly stochastic."""
    n = spec.num_agents
    w = np.zeros((n, n))
    if spec.kind == "full":
        w[:] = 1.0 / n
        return w
    if spec.kind == "ring":
        # Circulant (I + P + P^T)/3; duplicate edges merge when n == 2.
        third = 1.0 / 3.0
        for i in range(n):
            w[i, i] += third
            w[i, (i - 1) % n] += third
            w[i, (i + 1) % n] += third
        return w
    if spec.kind == "chain":
        # Metropolis-Hastings weights; the diagonal absorbs the remainder.
        degs = np.array([1 if i in (0, n - 1) else 2 for i in range(n)])
        for i in range(n - 1):
            w[i, i + 1] = w[i + 1, i] = 1.0 / (1.0 + max(degs[i], degs[i + 1]))
        for i in range(n):
            w[i, i] = 1.0 - w[i].sum()
        return w
    rows, cols = spec.torus_dims()
    for i in range(n):
        peers = _grid_neighbors(rows, cols, i)
        weight = 1.0 / (len(peers) + 1)
        w[i, i] = weight
        for j in peers:
            w[i, j] = weight
    return w


def validate_doubly_stochastic(w: np.ndarray) -> StochasticityReport:
    """Measure row/column sums, symmetry and the entry range of W."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConfigurationError("mixing matrix must be square")
    return StochasticityReport(
        max_row_dev=float(np.abs(w.sum(axis=1) - 1.0).max()),
        max_col_dev=float(np.abs(w.sum(axis=0) - 1.0).max()),
        asymmetry=float(np.abs(w - w.T).max()),
        min_entry=float(w.min()),
    )


def spectral_gap(w: np.ndarray) -> SpectralGap:
    """sqrt_rho = max(|lambda_2|, |lambda_n|) from a dense symmetric eigensolve."""
    report = validate_doubly_stochastic(w)
    if not report.passed:
        raise ConfigurationError("spectral gap is defined for doubly-stochastic W only")
    if w.shape[0] == 1:
        return SpectralGap(0.0, 0.0)
    lams = np.linalg.eigvalsh(w)
    sqrt_rho = float(max(abs(lams[0]), abs(lams[-2])))
    sqrt_rho = min(sqrt_rho, 1.0)
    return SpectralGap(sqrt_rho, sqrt_rho * sqrt_rho)


def neighbors(w: np.ndarray, i: int) -> list[int]:
    """Indices with positive weight to agent i, ascending, always including i."""
    if i < 0 or i >= w.shape[0]:
        raise IndexError(f"agent {i} out of range for {w.shape[0]} agents")
    peers = set(np.flatnonzero(w[i] > 0.0).tolist())
    peers.add(i)
    return sorted(peers)
