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
applies the rules to them in place, over blocks of consecutive rows of
one degree (`SlotBlock`), slot by slot, slot s of a row being its s-th
peer in ascending order: mixing, the momentum step and the bias norms in
one slot loop (`ngc_update`), each slot read once for both the mix and
the deviation, and the gossip pull (`gossip_rows`) into the spent
self-gradient rows. A slot's rows come through a reader
`read(index, out)`: `slot_rows` reads rows of a table, `message_rows`
decompresses compressed messages where they are read. The elementwise
steps (`dpsgd_prepare`, `ngc_apply`, `dpsgd_finalize`) run over whole
arrays. They keep the per-agent rules' order element for element, so
both forms give the same bits:

* a mixed-gradient cluster starts from w_ii * g_i and adds w_ij * term_j
  in ascending peer order (`ngc_mix`);
* the gossip sum adds w_ij * x_j in ascending neighbor order, self
  included (`gossip_step`, which starts from zeros: see `gossip_rows`);
* a bias deviation starts from the first peer's weighted difference
  w_ij * (t_j - g_i) and adds the rest in ascending peer order
  (`cluster_deviation`).

The per-agent forms (`ngc_prepare`, `compngc_prepare`, `ngc_mix`,
`bias_terms`, `momentum_update`, `gossip_step`) take dicts keyed by agent
id and check their inputs; the parity tests' reference round runs them.
The blocks check nothing; they read W only through `neighbor_slots`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .compression import CompressedTensor, decompress, ef_step
from .errors import ConfigurationError, ProtocolError
from .models import Dataset, ModelSpec, cross_gradient, loss_and_gradient
from .topology import neighbors

if TYPE_CHECKING:  # simulator imports this module
    from .simulator import RunConfig

WEIGHT_SUM_TOL = 1e-9
SCHEDULES = ("step", "constant")


def apply_lr_schedule(config: RunConfig, epoch: int) -> float:
    """The step at epoch: "step" cuts config.eta 10x at half of config.epochs, 100x at 3/4."""
    if config.schedule == "constant":
        return config.eta
    frac = epoch / config.epochs
    if frac >= 0.75:
        return config.eta * 0.01
    if frac >= 0.5:
        return config.eta * 0.1
    return config.eta


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
    """Weighted deviations of both clusters from the self gradient.

    eps = sum_j w_ij (model_variant[j] - g_self) and omega likewise over
    the data-variant terms, so on weights that sum to 1 the mixed gradient
    decomposes as g_self + (1-alpha)*eps + alpha*omega. An empty
    data-variant map (alpha = 0, nothing exchanged) gives omega = 0.
    Both arrays are fresh; an exact zero in them may carry either sign.
    """
    peers = set(bundle.weights) - {bundle.agent_id}
    partial_data = bundle.data_variant and set(bundle.data_variant) != peers
    if set(bundle.model_variant) != peers or partial_data:
        raise ProtocolError("bias terms need complete cross-gradient maps")
    return (cluster_deviation(bundle, bundle.model_variant),
            cluster_deviation(bundle, bundle.data_variant))


def cluster_deviation(bundle: GradientBundle, terms: dict[int, np.ndarray]) -> np.ndarray:
    """sum_j w_ij (terms[j] - self_grad), peers in ascending order; unchecked.

    The sum starts from the first peer's weighted difference rather than
    from zeros, so an exact zero may carry either sign; the values compare
    equal. An empty map gives zeros.
    """
    g, weights = bundle.self_grad, bundle.weights
    peers = sorted(terms)
    if not peers:
        return np.zeros_like(g)
    dev = terms[peers[0]] - g
    dev *= weights[peers[0]]
    diff = np.empty_like(dev)
    for j in peers[1:]:
        np.subtract(terms[j], g, out=diff)
        diff *= weights[j]
        dev += diff
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


def ngc_prepare(state: AgentState, params_in: dict[int, np.ndarray], config: RunConfig) -> NgcWork:
    """Self gradient plus model-variant cross-gradients at neighbor params.

    The same vectors double as the outgoing data-variant messages when
    alpha is nonzero; with alpha == 0 nothing is sent.
    """
    batch = state.draw_batch(config.batch_size)
    loss, self_grad = loss_and_gradient(state.spec, state.params, state.data, batch)
    model_variant = {
        j: cross_gradient(state.spec, x_j, state.data, batch) for j, x_j in params_in.items()
    }
    outgoing = dict(model_variant) if config.alpha != 0.0 else {}
    return NgcWork(loss, self_grad, model_variant, outgoing)


def compngc_prepare(state: AgentState, params_in: dict[int, np.ndarray],
                    config: RunConfig) -> NgcWork:
    """ngc_prepare's gradients, each routed through its compressor stream.

    The agent's error-feedback buffers start empty (zero) and take the new
    residuals. Every stream advances each round; as in ngc_prepare, nothing
    is sent when alpha == 0.
    """
    raw = ngc_prepare(state, params_in, config)
    zero = np.zeros_like(raw.self_grad)
    err_self = zero if state.err_self is None else state.err_self
    delta_self, state.err_self = ef_step(raw.self_grad, err_self)
    deltas: dict[int, CompressedTensor] = {}
    for j, grad in raw.model_variant.items():
        deltas[j], state.err_out[j] = ef_step(grad, state.err_out.get(j, zero))
    model_variant = {j: decompress(delta) for j, delta in deltas.items()}
    outgoing = deltas if config.alpha != 0.0 else {}
    return NgcWork(raw.batch_loss, decompress(delta_self), model_variant, outgoing)


# ------------------------------------------------------------ slot tables

# A block holds max(1, BLOCK_ELEMS // d) rows, so each (rows, d) operand
# stays near 256 KiB; at d ~ 1e5 that is one agent per block.
BLOCK_ELEMS = 2**15


@dataclass(frozen=True)
class SlotBlock:
    """Consecutive agents of one degree k and their neighbor slots.

    Per slot, `sent` holds the edge rows of the block's own messages to that
    peer, `back` each row's edge row of the message its peer sends it, and
    `peer_w` the weight. Gossip's k + 1 slots (`nbrs`, `nbr_w`) hold the agent
    itself in its ascending place. A slot's rows are a slice when they run
    consecutively upward (every `sent` slot and every slot of a one-row block
    do), else an index array; a reader `read(index, out)` takes either. Each
    weight (`self_w` too) is a float if all rows agree, else a (rows, 1) column.
    """

    rows: slice
    sent: tuple
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


def message_rows(messages, index, out: np.ndarray) -> np.ndarray:
    """The rows of one slot of compressed messages (by edge row), decompressed into out."""
    if isinstance(index, slice):
        index = range(index.start, index.stop)
    for row, e in zip(out, index):
        decompress(messages[e], out=row)
    return out


@dataclass(frozen=True)
class NeighborSlots:
    """W's neighborhoods as slot tables, built once per run by `neighbor_slots`.

    links[i] pairs agent i's peers, ascending, with the edge rows of its
    messages to them (rows of ngc's edge table, indices into a compngc
    round's messages), and back[e] is the row of edge e's reverse. The
    blocks cover the agents in order.
    """

    links: list
    back: np.ndarray
    blocks: tuple

    @property
    def edges(self) -> int:
        return self.back.size


def neighbor_slots(w: np.ndarray, dim: int) -> NeighborSlots:
    """W's slot tables, with blocks of max(1, BLOCK_ELEMS // dim) rows of one degree.

    A block's messages fill consecutive edge rows slot by slot, so each
    slot's model-variant rows are one contiguous run. A gossip or
    data-variant slot whose rows run consecutively upward is a slice,
    which `slot_rows` reads as a view; any other is an index array.
    """
    n = w.shape[0]
    nbrs = [neighbors(w, i) for i in range(n)]
    peers = [[j for j in nb if j != i] for i, nb in enumerate(nbrs)]
    per_block = max(1, BLOCK_ELEMS // dim)
    spans = []  # (first row, row count, first edge row)
    start = edge = 0
    while start < n:
        m = 1
        while (start + m < n and m < per_block
               and len(peers[start + m]) == len(peers[start])):
            m += 1
        spans.append((start, m, edge))
        start, edge = start + m, edge + m * len(peers[start])

    links = [[(j, first + s * m + i - start) for s, j in enumerate(peers[i])]
             for start, m, first in spans for i in range(start, start + m)]
    edge_of = {(i, j): e for i in range(n) for j, e in links[i]}
    back = np.empty(edge, dtype=np.intp)
    for (i, j), e in edge_of.items():
        back[e] = edge_of[j, i]

    def slot(index):
        index = [int(r) for r in index]
        if index == list(range(index[0], index[0] + len(index))):
            return slice(index[0], index[0] + len(index))
        return np.array(index)

    def weight(values):
        """A float if every row agrees (numpy's fast path), else a (rows, 1) column."""
        values = [float(v) for v in values]
        return values[0] if len(set(values)) == 1 else np.array(values).reshape(-1, 1)

    blocks = []
    for start, m, first in spans:
        rows = range(start, start + m)
        k = len(peers[start])
        sent = tuple(slice(first + s * m, first + (s + 1) * m) for s in range(k))
        blocks.append(SlotBlock(
            rows=slice(start, start + m),
            sent=sent,
            self_w=weight([w[i, i] for i in rows]),
            peer_w=tuple(weight([w[i, peers[i][s]] for i in rows]) for s in range(k)),
            back=tuple(slot(back[e]) for e in sent),
            nbrs=tuple(slot([nbrs[i][t] for i in rows]) for t in range(k + 1)),
            nbr_w=tuple(weight([w[i, nbrs[i][t]] for i in rows]) for t in range(k + 1)),
        ))
    return NeighborSlots(links, back, tuple(blocks))


# ------------------------------------------------------------- row blocks


def ngc_update(blk: SlotBlock, own: np.ndarray, read_sent, read_back, momentum: np.ndarray,
               config: RunConfig, eta: float, scratch: np.ndarray, norms: np.ndarray) -> None:
    """Mix one block's gradient clusters, step its momentum and take its bias norms.

    own holds the block's self-gradient rows, only read. read_sent and
    read_back read each slot of `blk.sent` and `blk.back` once, for both
    the mix and the deviation w_s (t - own). norms (2, rows) takes the l1
    norms of eps and, when alpha != 0, omega. scratch holds four (rows, d)
    buffers of the largest block, and 0 < alpha < 1 a fifth. config gives
    alpha and beta; eta is the round's step, config.eta after the schedule.
    """
    m = blk.size
    tmp, diff, dev, acc = scratch[:4, :m]

    def cluster(read, slots, out, norm):
        if out is not None:
            np.multiply(own, blk.self_w, out=out)
        for s, (index, w) in enumerate(zip(slots, blk.peer_w)):
            rows = read(index, tmp)
            term = np.subtract(rows, own, out=diff if s else dev)
            term *= w
            if s:
                np.add(dev, term, out=dev)
            if out is not None:
                out += np.multiply(rows, w, out=tmp)
        if slots:
            np.add.reduce(np.abs(dev, out=dev), axis=1, out=norm)
        return out

    if config.alpha == 0.0:
        mixed = cluster(read_sent, blk.sent, acc, norms[0])
    elif config.alpha == 1.0:
        mixed = cluster(read_back, blk.back, acc, norms[1])
        cluster(read_sent, blk.sent, None, norms[0])
    else:
        data = cluster(read_back, blk.back, scratch[4, :m], norms[1])
        data *= config.alpha
        mixed = cluster(read_sent, blk.sent, acc, norms[0])
        mixed *= 1.0 - config.alpha
        mixed += data
    momentum *= config.beta
    mixed *= eta
    momentum -= mixed


def gossip_rows(blk: SlotBlock, own: np.ndarray, read, out: np.ndarray,
                tmp: np.ndarray, gamma: float) -> None:
    """out = gamma * (sum_j w_ij x_j - x_i) for one block: its gossip pull.

    own holds the block's rows x_i; read(index, out) returns the rows
    x[index] of a slot of `blk.nbrs`, written into out or as a view.
    gossip_step starts its sum from zeros; starting from the first term
    instead changes only a sum whose terms are all -0.0, and then w_ii x_i
    = -0.0 too, so x_i is -0.0 or a negative that underflows to it. Either
    way mix - x_i is the same, so the pull's bits are gossip_step's.
    """
    first, *rest = zip(blk.nbrs, blk.nbr_w)
    np.multiply(read(first[0], out), first[1], out=out)
    for index, w in rest:
        out += np.multiply(read(index, tmp), w, out=tmp)
    out -= own
    out *= gamma


def dpsgd_prepare(params: np.ndarray, momentum: np.ndarray, grads: np.ndarray,
                  config: RunConfig, eta: float) -> None:
    """Momentum step, then params become x_tilde = x + v', what dpsgd gossips.

    All three are (N, d) rows, updated in place; grads is consumed. config
    gives beta; eta is the round's step, config.eta after the schedule.
    """
    momentum *= config.beta
    grads *= eta
    momentum -= grads
    params += momentum


def dpsgd_finalize(params: np.ndarray, pull: np.ndarray) -> None:
    """x' = x_tilde + pull, pull being the gossip pull over x_tilde rows."""
    params += pull


def ngc_apply(params: np.ndarray, momentum: np.ndarray, pull: np.ndarray) -> None:
    """x' = (x + v') + pull, pull being the gossip pull over the pre-round rows."""
    params += momentum
    params += pull
