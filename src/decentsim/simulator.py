"""Synchronous round engine over stacked agent state, with byte-exact accounting.

A run owns its agents' parameters x and momenta v as (N, d) arrays; each
AgentState's params and momentum are views of its rows. W's
neighborhoods become slot tables once per run (`_neighbor_tables`):
agent i's peers in ascending order, the edge rows of its messages, and
blocks of consecutive agents of one degree, max(1, 2**16 // d) rows each.

A round has two parts. First, per agent in agent order, the gradient
kernel and codec calls, each writing straight into its row: the self
gradient into row i of an (N, d) table and, for ngc and compngc, the
gradient at each peer's params into that edge's row of an (E, d) table
(through error feedback and decompression under compngc). Second, the
rest of the round as row operations, block by block: data-variant
delivery (`exchange_cross_gradients`), mixing and the momentum step
(`ngc_update`), and the gossip pull (`gossip_rows` over the neighbor rows
that `exchange_params` delivers) into a spare (N, d) array; only once
every pull is formed are the rows updated in place, since each pull reads
its neighbors' pre-round rows. dpsgd first steps momentum and params to
x_tilde, then gossips over the x_tilde rows. The row operations keep the
per-agent rules' order element for element (see `algorithms`), so a
round is bitwise the per-agent one. After each round, `run` checks x
for non-finite values in one reduction and, for uniform weights, takes
the bias norms over the same blocks (`RoundGradients.bias_norms`).

Byte accounting models 32-bit wire floats: a parameter or raw gradient
message costs 4*d bytes per directed edge, a compressed cross-gradient
costs its serialized size. Self-loops are local and cost nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algorithms import (
    BLOCK_ELEMS,
    AgentState,
    HyperParams,
    NeighborSlots,
    RoundGradients,
    SlotBlock,
    apply_lr_schedule,
    dpsgd_finalize,
    dpsgd_prepare,
    feedback,
    gossip_rows,
    ngc_apply,
    ngc_update,
)
from .compression import decompress, wire_size_bytes
from .errors import ConfigurationError, RunAbortError
from .metrics import MetricsRow, consensus_error, consensus_model
from .models import (
    ACTIVATIONS,
    Dataset,
    ModelSpec,
    cross_gradient,
    evaluate,
    generate_synthetic,
    init_params,
    load_csv,
    loss_and_gradient,
)
from .partition import partition_iid, partition_label_skew
from .topology import TOPOLOGIES, TopologySpec, build_mixing_matrix, neighbors, spectral_gap

ALGORITHMS = ("dpsgd", "ngc", "compngc")
PARTITIONS = ("iid", "skew")
_VAL_SEED_OFFSET = 10_000_019


@dataclass(frozen=True)
class RunConfig:
    """Everything one training run depends on; flat so config files stay flat."""

    algorithm: str = "ngc"
    agents: int = 5
    topology: str = "ring"
    torus_rows: int | None = None
    partition: str = "skew"
    alpha: float = 1.0
    beta: float = 0.9
    eta: float = 0.01
    gamma: float = 0.5
    schedule: str = "step"
    epochs: int = 60
    batch_size: int = 32
    seed: int = 1
    dataset: str = "synthetic"
    data_seed: int | None = None
    classes: int = 10
    dim: int = 16
    per_class: int = 200
    spread: float = 0.15
    val_per_class: int = 50
    val_fraction: float = 0.2
    model: str = "mlp"
    hidden_dim: int = 32
    activation: str = "tanh"
    # Only 1 is valid; the field stays so configs that set workers=1 still load.
    workers: int = 1

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(f"unknown topology {self.topology!r}")
        if self.partition not in PARTITIONS:
            raise ConfigurationError(f"unknown partition {self.partition!r}")
        if self.model not in ("logistic", "mlp"):
            raise ConfigurationError(f"unknown model {self.model!r}")
        if self.model == "mlp" and self.hidden_dim < 1:
            raise ConfigurationError("mlp needs a positive hidden_dim")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        if self.workers != 1:
            raise ConfigurationError("workers must be 1: the round engine is serial")
        if self.seed < 0 or (self.data_seed is not None and self.data_seed < 0):
            raise ConfigurationError("seeds must be nonnegative")
        if self.dataset == "synthetic" and self.val_per_class < 1:
            raise ConfigurationError("val_per_class must be positive")
        if self.dataset != "synthetic" and not 0.0 < self.val_fraction < 1.0:
            raise ConfigurationError("val_fraction must lie in (0, 1)")
        self.hyper_params()  # range-checks alpha/beta/eta/gamma

    def hyper_params(self) -> HyperParams:
        return HyperParams(self.alpha, self.beta, self.eta, self.gamma, self.schedule)


@dataclass
class CommLedger:
    """Cumulative and per-round byte counts for all network traffic."""

    param_bytes: int = 0
    crossgrad_bytes: int = 0
    messages: int = 0
    round_param_bytes: list = field(default_factory=list)
    round_crossgrad_bytes: list = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.param_bytes + self.crossgrad_bytes

    def record_round(self, edges: int, param_msg_bytes: int, crossgrad_msg_bytes: int):
        """Add one round's traffic over `edges` directed peer links.

        Every link carries one parameter message and, when
        crossgrad_msg_bytes is nonzero, one cross-gradient message.
        """
        param_bytes, crossgrad_bytes = edges * param_msg_bytes, edges * crossgrad_msg_bytes
        self.param_bytes += param_bytes
        self.crossgrad_bytes += crossgrad_bytes
        self.messages += edges * (2 if crossgrad_msg_bytes else 1)
        self.round_param_bytes.append(param_bytes)
        self.round_crossgrad_bytes.append(crossgrad_bytes)


@dataclass(frozen=True)
class SeedStreams:
    """Independent RNG streams derived from one master seed.

    Derivation: numpy SeedSequence(master, spawn_key=(k,)) with k = 0 for
    partitioning, 1 for shared parameter init, (2, i) for agent i's batch
    shuffles, 3 for validation splitting. Streams are stable across runs
    and mutually independent.
    """

    partition_seed: int
    init_rng: np.random.Generator
    agent_rngs: list
    val_seed: int


def seed_streams(master_seed: int, num_agents: int) -> SeedStreams:
    """Spawn the per-purpose RNG streams for one run."""

    def sub(*key):
        return np.random.SeedSequence(master_seed, spawn_key=key)

    return SeedStreams(
        partition_seed=int(sub(0).generate_state(1)[0]),
        init_rng=np.random.default_rng(sub(1)),
        agent_rngs=[np.random.default_rng(sub(2, i)) for i in range(num_agents)],
        val_seed=int(sub(3).generate_state(1)[0]),
    )


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    rows: list
    ledger: CommLedger
    states: list
    spec: ModelSpec
    val_data: Dataset
    w: np.ndarray

    @property
    def final_row(self) -> MetricsRow:
        return self.rows[-1]

    @property
    def sqrt_rho(self) -> float:
        return spectral_gap(self.w).sqrt_rho


def _neighbor_tables(w: np.ndarray, dim: int) -> NeighborSlots:
    """W's slot tables, with blocks of max(1, BLOCK_ELEMS // dim) rows of one degree.

    A block's messages fill consecutive edge rows slot by slot, so each
    slot's model-variant rows are one contiguous run.
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

    def weight(values):
        """A float if every row agrees (numpy's fast path), else a (rows, 1) column."""
        values = [float(v) for v in values]
        return values[0] if len(set(values)) == 1 else np.array(values).reshape(-1, 1)

    blocks = []
    for start, m, first in spans:
        rows = range(start, start + m)
        k = len(peers[start])
        blocks.append(SlotBlock(
            rows=slice(start, start + m), edges=slice(first, first + k * m),
            self_w=weight([w[i, i] for i in rows]),
            peer_w=tuple(weight([w[i, peers[i][s]] for i in rows]) for s in range(k)),
            back=tuple(back[[links[i][s][1] for i in rows]] for s in range(k)),
            nbrs=tuple(np.array([nbrs[i][t] for i in rows]) for t in range(k + 1)),
            nbr_w=tuple(weight([w[i, nbrs[i][t]] for i in rows]) for t in range(k + 1)),
        ))
    uniform = all(len({w[i, j] for j in nb}) == 1 for i, nb in enumerate(nbrs))
    return NeighborSlots(w, links, back, tuple(blocks), uniform)


class StackedState:
    """A run's agent state as rows: params x and momenta v, both (N, d).

    Built from the agents, whose params and momentum become views of
    their rows. Also holds the round's gradient tables (self, and the
    (E, d) edge table once an ngc round needs it), a spare (N, d) array
    for the gossip pulls and three buffers of the largest block.
    """

    def __init__(self, states: list[AgentState], slots: NeighborSlots):
        self.slots = slots
        self.x = np.stack([s.params for s in states])
        self.v = np.stack([s.momentum for s in states])
        for state, x_i, v_i in zip(states, self.x, self.v):
            state.params, state.momentum = x_i, v_i
        self.pull = np.empty_like(self.x)
        self.grads = np.empty_like(self.x)
        self.cross = None
        rows = max(blk.size for blk in slots.blocks)
        self.scratch = np.empty((3, rows, self.x.shape[1]))


def exchange_params(x: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Deliver one gossip slot: row r of out becomes x[index[r]]."""
    # Indices are valid by construction; mode="raise" would buffer out.
    return np.take(x, index, axis=0, out=out, mode="clip")


def exchange_cross_gradients(cross: np.ndarray, messages, index: np.ndarray,
                             out: np.ndarray) -> np.ndarray:
    """Deliver one data-variant slot: row r of out is the message on edge index[r].

    Raw messages are rows of the edge table; compressed ones (messages,
    by edge) are decompressed by their receiver.
    """
    if messages is None:
        return np.take(cross, index, axis=0, out=out, mode="clip")
    for row, e in zip(out, index):
        decompress(messages[e], out=row)
    return out


def run_round(states: list[AgentState], w: np.ndarray, hp: HyperParams, algorithm: str,
              batch_size: int, ledger: CommLedger | None = None, tables=None):
    """One synchronous round, agents updated in place; returns (states, losses, grads).

    tables is the run's StackedState over these states; without it the
    round stacks the states' current params and momenta itself. grads is
    the round's RoundGradients (None for dpsgd).
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    stack = tables
    if stack is None:
        stack = StackedState(states, _neighbor_tables(w, states[0].params.size))
    slots, x, v, grads, pull = stack.slots, stack.x, stack.v, stack.grads, stack.pull
    spec = states[0].spec
    dim = x.shape[1]
    cross = None
    if algorithm != "dpsgd":
        if stack.cross is None:
            stack.cross = np.empty((slots.edges, dim))
        cross = stack.cross
    messages = [None] * slots.edges if algorithm == "compngc" else None

    losses = []
    for state, links, x_i, g_i in zip(states, slots.links, x, grads):
        batch = state.draw_batch(batch_size)
        losses.append(loss_and_gradient(spec, x_i, state.data, batch, g_i)[0])
        if cross is None:
            continue
        for j, e in links:
            cross_gradient(spec, x[j], state.data, batch, cross[e])
        if messages is not None:
            delta, state.err_self = feedback(g_i, state.err_self)
            decompress(delta, g_i)
            for j, e in links:
                messages[e], state.err_out[j] = feedback(cross[e], state.err_out.get(j))
                decompress(messages[e], cross[e])

    if cross is None:
        dpsgd_prepare(x, v, grads, hp)
    else:
        for blk in slots.blocks:
            def data_variant(s, out, blk=blk):
                return exchange_cross_gradients(cross, messages, blk.back[s], out)

            model = cross[blk.edges].reshape(len(blk.back), blk.size, dim)
            ngc_update(blk, grads[blk.rows], model, data_variant, v[blk.rows], hp,
                       stack.scratch)
    def neighbor(index, out):
        return exchange_params(x, index, out)

    for blk in slots.blocks:
        gossip_rows(blk, x[blk.rows], neighbor, pull[blk.rows], stack.scratch[2, :blk.size],
                    hp.gamma)

    if cross is None:
        dpsgd_finalize(x, pull)
        result, cross_msg_bytes = None, 0
    else:
        ngc_apply(x, v, pull)
        result = RoundGradients(slots, grads, cross, hp.alpha != 0.0, stack.scratch)
        cross_msg_bytes = 0
        if hp.alpha != 0.0:
            cross_msg_bytes = wire_size_bytes(dim) if messages is not None else 4 * dim
    if ledger is not None:
        ledger.record_round(slots.edges, 4 * dim, cross_msg_bytes)
    return states, losses, result


def _load_data(config: RunConfig, val_seed: int) -> tuple[Dataset, Dataset]:
    if config.dataset == "synthetic":
        base = config.seed if config.data_seed is None else config.data_seed
        train = generate_synthetic(config.classes, config.dim, config.per_class,
                                   config.spread, base)
        val = generate_synthetic(config.classes, config.dim, config.val_per_class,
                                 config.spread, base + _VAL_SEED_OFFSET)
        return train, val
    full = load_csv(config.dataset)
    rng = np.random.default_rng(val_seed)
    perm = rng.permutation(full.n)
    n_val = max(1, int(full.n * config.val_fraction))
    if n_val >= full.n:
        raise ConfigurationError("validation split leaves no training data")
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    train = Dataset(full.features[train_idx], full.labels[train_idx], full.num_classes)
    val = Dataset(full.features[val_idx], full.labels[val_idx], full.num_classes)
    return train, val


def initial_states(config: RunConfig) -> tuple[list[AgentState], np.ndarray, Dataset]:
    """Mixing matrix, data and freshly initialized agents, before any round.

    Builds W, checks and solves it (spectral_gap) and spawns the seed
    streams, each exactly once per run. Returns (states, w,
    validation_data); useful for diagnostics that probe the pre-training
    configuration directly.
    """
    config.validate()
    w = build_mixing_matrix(TopologySpec(config.topology, config.agents, config.torus_rows))
    if not spectral_gap(w).connected:
        raise ConfigurationError("topology is disconnected")

    streams = seed_streams(config.seed, config.agents)
    train, val = _load_data(config, streams.val_seed)
    if config.partition == "iid":
        shards = partition_iid(train, config.agents, streams.partition_seed)
    else:
        shards = partition_label_skew(train, w, streams.partition_seed)

    hidden = config.hidden_dim if config.model == "mlp" else 0
    spec = ModelSpec(train.dim, train.num_classes, hidden, config.activation)
    x0 = init_params(spec, streams.init_rng)
    states = [
        AgentState(agent_id=i, spec=spec, data=train, shard=shards[i], params=x0.copy(),
                   momentum=np.zeros(spec.param_count), rng=streams.agent_rngs[i])
        for i in range(config.agents)
    ]
    return states, w, val


def run(config: RunConfig) -> RunResult:
    """Execute one full training run; deterministic in config alone."""
    states, w, val = initial_states(config)
    hp = config.hyper_params()
    spec = states[0].spec
    train = states[0].data

    rounds_per_epoch = min(s.shard.size // config.batch_size for s in states)
    if rounds_per_epoch < 1:
        raise ConfigurationError("batch_size exceeds the smallest shard")

    stack = StackedState(states, _neighbor_tables(w, spec.param_count))
    ledger = CommLedger()
    bias_ok = stack.slots.uniform and config.algorithm in ("ngc", "compngc")

    rows: list[MetricsRow] = []

    def emit(round_idx, epoch_count, train_loss, eps_l1, omega_l1):
        center = consensus_model(stack.x)
        val_loss, val_acc = evaluate(spec, center, val)
        rows.append(MetricsRow(
            round=round_idx, epoch=epoch_count, train_loss=train_loss,
            val_loss=float(val_loss), val_acc=float(val_acc),
            consensus_error=consensus_error(stack.x, center),
            eps_l1=eps_l1, omega_l1=omega_l1,
            param_bytes=ledger.param_bytes, crossgrad_bytes=ledger.crossgrad_bytes,
        ))

    init_loss = float(np.mean([
        loss_and_gradient(spec, s.params, train, s.shard)[0] for s in states
    ]))
    emit(0, 0, init_loss, 0.0, 0.0)

    round_idx = 0
    for epoch in range(config.epochs):
        hp_eff = replace(hp, eta=apply_lr_schedule(hp, epoch, config.epochs))
        loss_accum = 0.0
        eps_accum = 0.0
        omega_accum = 0.0
        for _ in range(rounds_per_epoch):
            round_idx += 1
            _, losses, grads = run_round(
                states, w, hp_eff, config.algorithm, config.batch_size,
                ledger=ledger, tables=stack,
            )
            if not np.isfinite(stack.x).all():
                raise RunAbortError(round_idx)
            loss_accum += float(np.mean(losses))
            if bias_ok:
                eps_l1, omega_l1 = grads.bias_norms()
                eps_accum += eps_l1
                omega_accum += omega_l1
        emit(round_idx, epoch + 1, loss_accum / rounds_per_epoch,
             eps_accum / rounds_per_epoch, omega_accum / rounds_per_epoch)

    return RunResult(config, rows, ledger, states, spec, val, w)
