"""Run diagnostics: consensus quantities and the variance bound.

The variance-bound check is a Monte-Carlo plug-in estimate of
E||(1/N) sum_i (g_mixed^i - g^i)||^2 <= 4 (sigma^2/N + zeta^2), the bound
that justifies mixing data-variant cross-gradients. sigma^2 is estimated
from batch-vs-shard gradient scatter and zeta^2 from shard-vs-population
gradient scatter, both taken worst-case over agents.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import AgentState, GradientBundle, ngc_mix
from .errors import ConfigurationError
from .models import cross_gradient, loss_and_gradient
from .topology import neighbors


@dataclass(frozen=True)
class MetricsRow:
    """One emitted record; byte counts are cumulative at emission time."""

    round: int
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float
    consensus_error: float
    eps_l1: float
    omega_l1: float
    param_bytes: int
    crossgrad_bytes: int


def consensus_model(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform average of the agents' parameter rows x, (N, d), into out if given."""
    return x.mean(axis=0, out=out)


def consensus_error(x: np.ndarray, out=None, center=None) -> float:
    """Mean squared distance of the rows x from center (default: their mean).

    out, if given, takes the deviations.
    """
    dev = np.subtract(x, x.mean(axis=0) if center is None else center, out=out)
    np.square(dev, out=dev)
    return float(dev.sum(axis=1).mean())


@dataclass(frozen=True)
class VarianceBoundReport:
    """Plug-in check of the mixed-gradient deviation bound."""

    lhs: float
    sigma2_hat: float
    zeta2_hat: float
    bound: float
    passed: bool


def variance_bound_check(states: list[AgentState], w: np.ndarray, batch_size: int,
                         sample_count: int, seed: int) -> VarianceBoundReport:
    """Monte-Carlo estimate of the data-variant mixing deviation bound.

    Uses dedicated RNG streams so training state is untouched. The mixed
    gradient is formed with the data-variant cluster (alpha = 1), the
    setting the bound is stated for.
    """
    if sample_count < 100:
        raise ConfigurationError("sample_count below 100 gives a meaningless estimate")
    n = len(states)
    if w.shape != (n, n):
        raise ConfigurationError("mixing matrix size does not match states")
    rngs = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in range(n)
    ]
    weights = [{j: float(w[i, j]) for j in neighbors(w, i)} for i in range(n)]

    # Population-level gradients per shard at every agent's parameters.
    full = np.stack([[loss_and_gradient(s.spec, states[i].params, s.data, s.shard)[1]
                      for s in states] for i in range(n)])
    zeta2_hat = 0.0
    for i in range(n):
        mean_grad = full[i].mean(axis=0)
        zeta2_hat = max(zeta2_hat, float(((full[i] - mean_grad) ** 2).sum(axis=1).mean()))

    sigma2_sum = np.zeros(n)
    lhs_sum = 0.0
    for _ in range(sample_count):
        batches = [
            rngs[i].choice(states[i].shard, size=min(batch_size, states[i].shard.size),
                           replace=False)
            for i in range(n)
        ]
        deviation = np.zeros_like(states[0].params)
        self_grads = []
        for i in range(n):
            _, g_ii = loss_and_gradient(states[i].spec, states[i].params,
                                        states[i].data, batches[i])
            self_grads.append(g_ii)
            sigma2_sum[i] += float(((g_ii - full[i, i]) ** 2).sum())
        for i in range(n):
            # data_variant[j]: shard j's batch gradient at agent i's params.
            data_variant = {
                j: cross_gradient(states[j].spec, states[i].params, states[j].data, batches[j])
                for j in weights[i] if j != i
            }
            bundle = GradientBundle(i, self_grads[i], {}, data_variant, weights[i])
            mixed = ngc_mix(bundle, 1.0)
            deviation = deviation + (mixed - self_grads[i]) / n
        lhs_sum += float((deviation**2).sum())

    sigma2_hat = float(sigma2_sum.max() / sample_count)
    lhs = lhs_sum / sample_count
    bound = 4.0 * (sigma2_hat / n + zeta2_hat)
    return VarianceBoundReport(lhs, sigma2_hat, zeta2_hat, bound, lhs <= 1.2 * bound)
