"""Update rules for the three training algorithms, per agent and over row blocks.

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

The round engine keeps every agent's parameters, momentum and (under
compngc) error-feedback residuals as rows of the run's StackedState and
applies the rules to them in place: mixing (`ngc_update`) and the gossip
pull (`gossip_rows`) over blocks of consecutive rows of one degree
(`SlotBlock`), slot by slot, where slot s of a row is its s-th peer in
ascending order and is read through `slot_rows`; the elementwise steps
(`dpsgd_prepare`, `ngc_apply`, `dpsgd_finalize`) over whole arrays. They
keep the per-agent rules' operation order element for element, so the
two forms give the same bits:

* a mixed-gradient cluster starts from w_ii * g_i and adds w_ij * term_j
  in ascending peer order (`ngc_mix`);
* the gossip sum adds w_ij * x_j in ascending neighbor order, self
  included (`gossip_step`, which starts from zeros: see `gossip_rows`);
* a bias deviation starts from the first peer's difference and divides
  by |N(i)| (`cluster_deviation`).

The per-agent forms (`ngc_prepare`, `compngc_prepare`, `ngc_mix`,
`bias_terms`, `momentum_update`, `gossip_step`) take dicts keyed by agent
id and check their inputs; the parity tests' reference round runs them.
The blocks check nothing: set-up checks W once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compression import CompressedTensor, decompress, ef_step
from .errors import ConfigurationError, ProtocolError
from .models import Dataset, ModelSpec, cross_gradient, loss_and_gradient

WEIGHT_SUM_TOL = 1e-9
SCHEDULES = ("step", "constant")


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
        if self.schedule not in SCHEDULES:
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
    (err_self, err_out keyed by peer) start empty; a missing buffer counts
    as zero, and only this agent reads them. Once the run's StackedState
    stacks the agents, params and momentum are views of this agent's rows
    of its (N, d) arrays, which every round updates in place. Under
    compngc so are err_self and each err_out[j]: views of its rows of the
    stack's zeroed (N, d) and (E, d) residual arrays, which each ef_step
    overwrites. The per-agent compngc_prepare stores fresh residuals here
    instead.
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


# ------------------------------------------------------ per-agent reference


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
    raw = ngc_prepare(state, params_in, hp, batch_size)
    zero = np.zeros_like(raw.self_grad)
    err_self = zero if state.err_self is None else state.err_self
    delta_self, state.err_self = ef_step(raw.self_grad, err_self)
    outgoing: dict[int, CompressedTensor] = {}
    for j, grad in raw.model_variant.items():
        outgoing[j], state.err_out[j] = ef_step(grad, state.err_out.get(j, zero))
    model_variant = {j: decompress(delta) for j, delta in outgoing.items()}
    return NgcWork(raw.batch_loss, decompress(delta_self), model_variant, outgoing)


# ------------------------------------------------------------ slot tables

# A block holds max(1, BLOCK_ELEMS // d) rows, so each (rows, d) operand
# stays near 512 KiB; at d ~ 1e5 that is one agent per block.
BLOCK_ELEMS = 2**16


@dataclass(frozen=True)
class SlotBlock:
    """Consecutive agents of one degree k and their neighbor slots.

    Per slot, `back` holds each row's edge-table row of the message its
    peer sends it, and `peer_w` the weight. Gossip's k + 1 slots (`nbrs`,
    `nbr_w`) hold the agent itself in its ascending place. A slot's rows
    are a slice when they run consecutively upward (every slot of a
    one-row block does), else an index array; `slot_rows` reads either.
    Each weight (`self_w` too) is a float if every row agrees, else a
    (rows, 1) column. The rows' own messages fill the edge rows `edges`,
    slot by slot: a (k, rows) grid.
    """

    rows: slice
    edges: slice
    self_w: np.ndarray
    peer_w: tuple
    back: tuple
    nbrs: tuple
    nbr_w: tuple

    @property
    def size(self) -> int:
        return self.rows.stop - self.rows.start


def slot_rows(a: np.ndarray, index, out: np.ndarray) -> np.ndarray:
    """The rows a[index] of one slot: a view for a slice, else gathered into out."""
    if isinstance(index, slice):
        return a[index]
    # Indices are valid by construction; mode="raise" would buffer out.
    return np.take(a, index, axis=0, out=out, mode="clip")


@dataclass(frozen=True)
class NeighborSlots:
    """W's neighborhoods as slot tables, built once per run.

    links[i] pairs agent i's peers, ascending, with the rows of a round's
    edge table that carry its messages to them, and back[e] is the row of
    edge e's reverse. The blocks cover the agents in order. uniform says
    whether every neighborhood weighs its members equally (the bias
    terms need it).
    """

    w: np.ndarray
    links: list
    back: np.ndarray
    blocks: tuple
    uniform: bool

    @property
    def edges(self) -> int:
        return self.back.size


@dataclass(frozen=True)
class RoundGradients:
    """One round's gradient rows: self (N, d) and the sent cross-gradients (E, d).

    Row e of `cross` is the message on edge e, as its sender mixes it
    (decompressed under compngc): the sender's batch gradient at the
    receiver's params. The receiver's data-variant terms are the rows
    `back`. Indexing gives agent i's GradientBundle as views; the rows
    are overwritten by the next round. scratch holds two (rows, d)
    buffers of the largest block.
    """

    slots: NeighborSlots
    self_grads: np.ndarray
    cross: np.ndarray
    exchanged: bool
    scratch: np.ndarray

    def __len__(self) -> int:
        return self.self_grads.shape[0]

    def __getitem__(self, i: int) -> GradientBundle:
        links, w = self.slots.links[i], self.slots.w
        back = self.slots.back
        model_variant = {j: self.cross[e] for j, e in links}
        data_variant = {j: self.cross[back[e]] for j, e in links} if self.exchanged else {}
        weights = {j: float(w[i, j]) for j in sorted([i, *model_variant])}
        return GradientBundle(i, self.self_grads[i], model_variant, data_variant, weights)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def bias_norms(self) -> tuple[float, float]:
        """metrics.bias_norms over row blocks, bit for bit; needs uniform weights."""
        n, dim = self.self_grads.shape
        eps, omega = np.zeros(n), np.zeros(n)
        for blk in self.slots.blocks:
            k, m = len(blk.back), blk.size
            if k == 0:
                continue
            dev, diff = self.scratch[0, :m], self.scratch[1, :m]
            own = self.self_grads[blk.rows]
            model = self.cross[blk.edges].reshape(k, m, dim)
            eps[blk.rows] = _deviation_l1(lambda s, out: model[s], k, own, dev, diff)
            if self.exchanged:
                def data(s, out, blk=blk):
                    return slot_rows(self.cross, blk.back[s], out)

                omega[blk.rows] = _deviation_l1(data, k, own, dev, diff)
        return float(np.mean(eps)), float(np.mean(omega))


def _deviation_l1(term, k, own, dev, diff) -> np.ndarray:
    """Per row, |sum_s (term(s) - own) / (k + 1)|_1, as cluster_deviation sums it.

    term(s, out) returns slot s's rows, written into out or as a view.
    """
    np.subtract(term(0, dev), own, out=dev)
    for s in range(1, k):
        dev += np.subtract(term(s, diff), own, out=diff)
    dev /= k + 1
    return np.add.reduce(np.abs(dev, out=dev), axis=1)


# ------------------------------------------------------------- row blocks


def ngc_update(blk: SlotBlock, own: np.ndarray, model: np.ndarray, data_variant,
               momentum: np.ndarray, hp: HyperParams, scratch: np.ndarray) -> None:
    """Mix one block's gradient clusters and take its momentum step in place.

    own holds the block's self-gradient rows and model its (k, rows, d)
    model-variant rows; data_variant(s, out) writes slot s's
    data-variant rows into out and returns it. scratch holds three
    (rows, d) buffers of the largest block.
    """
    m = blk.size
    acc, other, tmp = scratch[0, :m], scratch[1, :m], scratch[2, :m]

    def cluster(term, out):
        np.multiply(own, blk.self_w, out=out)
        for s, w in enumerate(blk.peer_w):
            out += np.multiply(term(s, tmp), w, out=tmp)
        return out

    def model_variant(s, _):
        return model[s]

    if hp.alpha == 0.0:
        mixed = cluster(model_variant, acc)
    elif hp.alpha == 1.0:
        mixed = cluster(data_variant, acc)
    else:
        mixed = cluster(model_variant, acc)
        mixed *= 1.0 - hp.alpha
        data = cluster(data_variant, other)
        data *= hp.alpha
        mixed += data
    momentum *= hp.beta
    mixed *= hp.eta
    momentum -= mixed


def gossip_rows(blk: SlotBlock, own: np.ndarray, neighbor, out: np.ndarray,
                tmp: np.ndarray, gamma: float) -> None:
    """out = gamma * (sum_j w_ij x_j - x_i) for one block: its gossip pull.

    own holds the block's rows x_i; neighbor(index, out) writes the rows
    x[index] into out and returns it. gossip_step starts its sum from
    zeros; starting from the first term instead changes only a sum whose
    terms are all -0.0, and then w_ii x_i = -0.0 too, so x_i is -0.0 or
    a negative that underflows to it. Either way mix - x_i is the same,
    so the pull's bits are gossip_step's.
    """
    first, *rest = zip(blk.nbrs, blk.nbr_w)
    np.multiply(neighbor(first[0], out), first[1], out=out)
    for index, w in rest:
        out += np.multiply(neighbor(index, tmp), w, out=tmp)
    out -= own
    out *= gamma


def dpsgd_prepare(params: np.ndarray, momentum: np.ndarray, grads: np.ndarray,
                  hp: HyperParams) -> None:
    """Momentum step, then params become x_tilde = x + v', what dpsgd gossips.

    All three are (N, d) rows, updated in place; grads is consumed.
    """
    momentum *= hp.beta
    grads *= hp.eta
    momentum -= grads
    params += momentum


def dpsgd_finalize(params: np.ndarray, pull: np.ndarray) -> None:
    """x' = x_tilde + pull, pull being the gossip pull over x_tilde rows."""
    params += pull


def ngc_apply(params: np.ndarray, momentum: np.ndarray, pull: np.ndarray) -> None:
    """x' = (x + v') + pull, pull being the gossip pull over the pre-round rows."""
    params += momentum
    params += pull
