"""Per-agent update rules for the three training algorithms.

All three share the same round skeleton: draw a batch, build a mixed
gradient, take a heavy-ball momentum step, then gossip-average with the
neighborhood. They differ in what the mixed gradient uses:

* dpsgd: the local stochastic gradient only; neighbors exchange updated
  parameters and average them.
* ngc: neighbors first exchange parameters, then cross-gradients; the
  update mixes model-variant terms (my data at neighbor params) with
  data-variant terms (neighbor data at my params) weighted by alpha.
* compngc: ngc with every cross-gradient sent through an error-feedback
  scaled-sign compressor; the self gradient passes through its own
  compressor stream so all mixed terms live on the same grid.

Each round is split into a prepare step (local work plus outgoing
messages) and a finalize step (consume the inbox), so an engine can run
the exchange phases between them. Both steps update the AgentState they
are given in place: prepare advances its batch stream and, for compngc,
stores the new error-feedback residuals; finalize assigns its new
params and momentum.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compression import CompressedTensor, decompress, ef_step
from .errors import ConfigurationError, ProtocolError
from .models import Dataset, ModelSpec, cross_gradient, loss_and_gradient

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class HyperParams:
    """Update-rule constants; eta is the base step before any schedule."""

    alpha: float = 1.0
    beta: float = 0.9
    eta: float = 0.01
    gamma: float = 0.5
    schedule: str = "step"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigurationError(f"beta {self.beta} outside [0, 1)")
        if self.eta < 0.0 or not np.isfinite(self.eta):
            raise ConfigurationError(f"eta {self.eta} must be nonnegative")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError(f"gamma {self.gamma} outside (0, 1]")
        if self.schedule not in ("step", "constant"):
            raise ConfigurationError(f"unknown schedule {self.schedule!r}")


def apply_lr_schedule(hp: HyperParams, epoch: int, total_epochs: int) -> float:
    """Step decay: 10x down at half the run, 100x down at three quarters."""
    if total_epochs < 1:
        raise ConfigurationError("total_epochs must be positive")
    if hp.schedule == "constant":
        return hp.eta
    frac = epoch / total_epochs
    if frac >= 0.75:
        return hp.eta * 0.01
    if frac >= 0.5:
        return hp.eta * 0.1
    return hp.eta


@dataclass(frozen=True)
class GradientBundle:
    """Everything agent i mixes in one round.

    weights maps every j in N(i), including i itself, to w_ij; the
    model_variant and data_variant maps cover N(i) minus i. Entries are
    my-data-at-their-params and their-data-at-my-params respectively.
    """

    agent_id: int
    self_grad: np.ndarray
    model_variant: dict[int, np.ndarray]
    data_variant: dict[int, np.ndarray]
    weights: dict[int, float]


def ngc_mix(bundle: GradientBundle, alpha: float) -> np.ndarray:
    """Convex combination of the two cross-gradient clusters."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha {alpha} outside [0, 1]")
    weights = bundle.weights
    if bundle.agent_id not in weights:
        raise ConfigurationError("weight map must include the agent itself")
    dev = abs(sum(weights.values()) - 1.0)
    if dev > WEIGHT_SUM_TOL:
        raise ConfigurationError(f"neighborhood weights sum off by {dev:.3e}")
    peers = set(weights) - {bundle.agent_id}

    def cluster(terms: dict[int, np.ndarray], name: str) -> np.ndarray:
        if set(terms) != peers:
            raise ProtocolError(f"{name} gradients cover {sorted(terms)}, need {sorted(peers)}")
        acc = weights[bundle.agent_id] * bundle.self_grad
        for j in terms:
            acc = acc + weights[j] * terms[j]
        return acc

    if alpha == 0.0:
        return cluster(bundle.model_variant, "model-variant")
    if alpha == 1.0:
        return cluster(bundle.data_variant, "data-variant")
    return (1.0 - alpha) * cluster(bundle.model_variant, "model-variant") + alpha * cluster(
        bundle.data_variant, "data-variant"
    )


def bias_terms(bundle: GradientBundle) -> tuple[np.ndarray, np.ndarray]:
    """Mean deviations of both clusters from the self gradient.

    Defined for uniform neighborhood weights only, where the mixed
    gradient decomposes exactly as g_self + (1-alpha)*eps + alpha*omega.
    An empty data-variant map (alpha = 0, nothing exchanged) gives omega = 0.
    Both arrays are fresh; an exact zero in them may carry either sign.
    """
    vals = list(bundle.weights.values())
    if max(vals) != min(vals):
        raise ConfigurationError("bias terms need uniform neighborhood weights")
    peers = set(bundle.weights) - {bundle.agent_id}
    partial_data = bundle.data_variant and set(bundle.data_variant) != peers
    if set(bundle.model_variant) != peers or partial_data:
        raise ProtocolError("bias terms need complete cross-gradient maps")
    return (cluster_deviation(bundle, bundle.model_variant),
            cluster_deviation(bundle, bundle.data_variant))


def cluster_deviation(bundle: GradientBundle, terms: dict[int, np.ndarray]) -> np.ndarray:
    """sum_j (terms[j] - self_grad) / |N(i)|, peers in ascending order; unchecked.

    The sum starts from the first peer's difference rather than from zeros,
    so an exact zero may carry either sign; the values compare equal.
    An empty map gives zeros.
    """
    g = bundle.self_grad
    peers = sorted(terms)
    if not peers:
        return np.zeros_like(g)
    dev = terms[peers[0]] - g
    diff = np.empty_like(dev)
    for j in peers[1:]:
        dev += np.subtract(terms[j], g, out=diff)
    dev /= len(bundle.weights)
    return dev


def momentum_update(v: np.ndarray, grad: np.ndarray, beta: float, eta: float) -> np.ndarray:
    """Heavy-ball: v' = beta*v - eta*grad."""
    return beta * v - eta * grad


def gossip_step(x_tilde: np.ndarray, agent_id: int, params: dict[int, np.ndarray],
                weights: dict[int, float], gamma: float) -> np.ndarray:
    """x' = x_tilde + gamma * (sum_j w_ij x_j - x_i) over the neighborhood."""
    if set(params) != set(weights):
        missing = set(weights) ^ set(params)
        raise ProtocolError(f"gossip operands missing for agents {sorted(missing)}")
    mix = np.zeros_like(x_tilde)
    for j, w in weights.items():
        mix = mix + w * params[j]
    return x_tilde + gamma * (mix - params[agent_id])


@dataclass
class AgentState:
    """One agent's training state, updated in place round after round.

    rng drives its batch shuffles. The compngc error-feedback buffers
    (err_self, err_out) start empty; compngc_prepare treats a missing
    buffer as zero and stores each new residual here, where only this
    agent reads it. params is never written into: each round assigns a
    new array, because peers' inboxes may still hold the old one.
    """

    agent_id: int
    spec: ModelSpec
    data: Dataset
    shard: np.ndarray
    params: np.ndarray
    momentum: np.ndarray
    rng: np.random.Generator
    batch_queue: list = field(default_factory=list)
    err_self: np.ndarray | None = None
    err_out: dict[int, np.ndarray] = field(default_factory=dict)

    def draw_batch(self, batch_size: int) -> np.ndarray:
        """Without-replacement batches, reshuffled at each epoch boundary."""
        if batch_size < 1 or batch_size > self.shard.size:
            raise ConfigurationError(
                f"batch size {batch_size} invalid for shard of {self.shard.size}"
            )
        if not self.batch_queue:
            perm = self.rng.permutation(self.shard)
            count = self.shard.size // batch_size
            self.batch_queue = [
                perm[k * batch_size : (k + 1) * batch_size] for k in range(count)
            ]
        return self.batch_queue.pop(0)


# ---------------------------------------------------------------- dpsgd


@dataclass(frozen=True)
class DpsgdWork:
    batch_loss: float
    v_next: np.ndarray
    x_tilde: np.ndarray


def dpsgd_prepare(state: AgentState, hp: HyperParams, batch_size: int) -> DpsgdWork:
    """Local gradient step; x_tilde is what gets broadcast."""
    batch = state.draw_batch(batch_size)
    loss, grad = loss_and_gradient(state.spec, state.params, state.data, batch)
    v_next = momentum_update(state.momentum, grad, hp.beta, hp.eta)
    return DpsgdWork(loss, v_next, state.params + v_next)


def dpsgd_finalize(state: AgentState, work: DpsgdWork, tilde_in: dict[int, np.ndarray],
                   weights: dict[int, float], hp: HyperParams) -> None:
    """Gossip over the updated parameters received from neighbors."""
    operands = dict(tilde_in)
    operands[state.agent_id] = work.x_tilde
    # Assign, never write into, params: an inbox may alias the old array.
    state.params = gossip_step(work.x_tilde, state.agent_id, operands, weights, hp.gamma)
    state.momentum = work.v_next


# ------------------------------------------------------------ ngc / compngc


@dataclass(frozen=True)
class NgcWork:
    batch_loss: float
    self_grad: np.ndarray
    model_variant: dict[int, np.ndarray]
    outgoing: dict


def ngc_prepare(state: AgentState, params_in: dict[int, np.ndarray], hp: HyperParams,
                batch_size: int) -> NgcWork:
    """Self gradient plus model-variant cross-gradients at neighbor params.

    The same vectors double as the outgoing data-variant messages when
    alpha is nonzero; with alpha == 0 nothing is sent.
    """
    batch = state.draw_batch(batch_size)
    loss, self_grad = loss_and_gradient(state.spec, state.params, state.data, batch)
    model_variant = {
        j: cross_gradient(state.spec, x_j, state.data, batch) for j, x_j in params_in.items()
    }
    outgoing = dict(model_variant) if hp.alpha != 0.0 else {}
    return NgcWork(loss, self_grad, model_variant, outgoing)


def compngc_prepare(state: AgentState, params_in: dict[int, np.ndarray], hp: HyperParams,
                    batch_size: int) -> NgcWork:
    """ngc_prepare's gradients, each routed through its compressor stream.

    The agent's error-feedback buffers start empty (zero) and take the new residuals.
    """
    def feedback(grad, err):
        return ef_step(grad, np.zeros_like(grad) if err is None else err)

    raw = ngc_prepare(state, params_in, hp, batch_size)
    delta_self, state.err_self = feedback(raw.self_grad, state.err_self)
    outgoing: dict[int, CompressedTensor] = {}
    for j, grad in raw.model_variant.items():
        outgoing[j], state.err_out[j] = feedback(grad, state.err_out.get(j))
    model_variant = {j: decompress(delta) for j, delta in outgoing.items()}
    return NgcWork(raw.batch_loss, decompress(delta_self), model_variant, outgoing)


def ngc_update(state: AgentState, work: NgcWork, cross_in: dict[int, np.ndarray],
               hp: HyperParams, weights: dict[int, float]):
    """Mix clusters and take the momentum step; returns pre-gossip results."""
    if hp.alpha == 0.0:
        data_variant: dict[int, np.ndarray] = {}
    else:
        data_variant = {
            j: decompress(v) if isinstance(v, CompressedTensor) else v
            for j, v in cross_in.items()
        }
    bundle = GradientBundle(
        state.agent_id, work.self_grad, work.model_variant, data_variant, weights
    )
    mixed = ngc_mix(bundle, hp.alpha)
    v_next = momentum_update(state.momentum, mixed, hp.beta, hp.eta)
    return state.params + v_next, v_next, bundle


def ngc_apply(state: AgentState, x_tilde: np.ndarray, v_next: np.ndarray,
              gossip_params: dict[int, np.ndarray], weights: dict[int, float],
              hp: HyperParams) -> None:
    """Gossip-average against the pre-round params and take the new state."""
    operands = dict(gossip_params)
    operands.setdefault(state.agent_id, state.params)
    # Assign, never write into, params: a later agent's inbox aliases the old array.
    state.params = gossip_step(x_tilde, state.agent_id, operands, weights, hp.gamma)
    state.momentum = v_next
