"""Synchronous round engine over stacked agent state, with byte-exact accounting.

A run owns its agents' state as one StackedState, built once per run
from the agents, W and the algorithm; `run_round` runs on it and on
nothing else. It holds the parameters x and momenta v as (N, d) arrays,
each AgentState's params and momentum being views of its rows. Under
compngc it also holds the error-feedback residuals, zero at the start:
err_self as (N, d) and err_out as (E, d), one row per directed edge in
the edge table's order, each AgentState's err_self and err_out[j] being
views of them. Every ef_step writes its residual back into its row. W's
neighborhoods become slot tables once per run (`_neighbor_tables`):
agent i's peers in ascending order, the edge rows of its messages, and
blocks of consecutive agents of one degree, max(1, 2**16 // d) rows
each. A slot whose rows run consecutively upward is read as a view, any
other is gathered.

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
the bias norms over the same blocks (`RoundGradients.bias_norms`). The
finite check and each emitted consensus error work in the spare (N, d)
rows, which are free between rounds.

Byte accounting models 32-bit wire floats: a parameter or raw gradient
message costs 4*d bytes per directed edge, a compressed cross-gradient
costs its serialized size. Self-loops are local and cost nothing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from .algorithms import (
    BLOCK_ELEMS,
    SCHEDULES,
    AgentState,
    HyperParams,
    NeighborSlots,
    RoundGradients,
    SlotBlock,
    apply_lr_schedule,
    dpsgd_finalize,
    dpsgd_prepare,
    gossip_rows,
    ngc_apply,
    ngc_update,
    slot_rows,
)
from .compression import decompress, ef_step, wire_size_bytes
from .errors import ConfigurationError, RunAbortError
from .metrics import MetricsRow, consensus_model
from .models import (
    ACTIVATIONS,
    Dataset,
    ModelSpec,
    batch_loss,
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
MODELS = ("logistic", "mlp")
# RunConfig's fields with fixed value sets; validate's one check of them.
CHOICES = {"algorithm": ALGORITHMS, "topology": TOPOLOGIES, "partition": PARTITIONS,
           "schedule": SCHEDULES, "model": MODELS, "activation": ACTIVATIONS}
# Config lines are `key=value`, stripped; `#` at a line start or after whitespace opens a comment.
COMMENT = re.compile(r"(?:^|\s)#")
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
        for key, allowed in CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigurationError(f"unknown {key} {getattr(self, key)!r} "
                                         f"(choose from {', '.join(allowed)})")
        if self.model == "mlp" and self.hidden_dim < 1:
            raise ConfigurationError("mlp needs a positive hidden_dim")
        value = self.dataset  # free text, so its echo line must read back unchanged
        if (value != value.strip() or COMMENT.search(f"dataset={value}")
                or any(c in "\n\r" or "\ud800" <= c <= "\udfff" for c in value)):
            raise ConfigurationError(f"dataset {value!r} cannot be echoed: config values hold "
                                     "no line break, edge whitespace, ' #' or non-UTF-8 text")
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
        blocks.append(SlotBlock(
            rows=slice(start, start + m), edges=slice(first, first + k * m),
            self_w=weight([w[i, i] for i in rows]),
            peer_w=tuple(weight([w[i, peers[i][s]] for i in rows]) for s in range(k)),
            back=tuple(slot(back[[links[i][s][1] for i in rows]]) for s in range(k)),
            nbrs=tuple(slot([nbrs[i][t] for i in rows]) for t in range(k + 1)),
            nbr_w=tuple(weight([w[i, nbrs[i][t]] for i in rows]) for t in range(k + 1)),
        ))
    uniform = all(len({w[i, j] for j in nb}) == 1 for i, nb in enumerate(nbrs))
    return NeighborSlots(w, links, back, tuple(blocks), uniform)


class StackedState:
    """A run's agent state as rows, and the tables a round of its algorithm needs.

    Built once per run from the agents, W and the algorithm: params x and
    momenta v, both (N, d), whose rows become the agents' params and
    momentum views; W's slot tables; the self-gradient rows and, for ngc
    and compngc, the (E, d) edge table; for compngc the zeroed
    error-feedback rows, err_self (N, d) and err_out (E, d) by edge, bound
    as each agent's err_self and err_out[j]; a spare (N, d) array for the
    gossip pulls and three buffers of the largest block. Between rounds the
    spare rows hold the finite check's flags and the consensus error's
    deviations.
    """

    def __init__(self, states: list[AgentState], w: np.ndarray, algorithm: str):
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {algorithm!r}")
        self.states = states
        self.x = np.stack([s.params for s in states])
        self.v = np.stack([s.momentum for s in states])
        for state, x_i, v_i in zip(states, self.x, self.v):
            state.params, state.momentum = x_i, v_i
        dim = self.x.shape[1]
        self.slots = slots = _neighbor_tables(w, dim)
        self.pull = np.empty_like(self.x)
        # The first N*d bytes of the spare rows, as one flag per element.
        self.finite = self.pull.reshape(-1).view(bool)[:self.x.size].reshape(self.x.shape)
        self.grads = np.empty_like(self.x)
        self.cross = self.err_self = self.err_out = None
        if algorithm != "dpsgd":
            self.cross = np.empty((slots.edges, dim))
        if algorithm == "compngc":
            self.err_self = np.zeros(self.x.shape)
            self.err_out = np.zeros((slots.edges, dim))
            for state, links, row in zip(states, slots.links, self.err_self):
                state.err_self = row
                state.err_out = {j: self.err_out[e] for j, e in links}
        rows = max(blk.size for blk in slots.blocks)
        self.scratch = np.empty((3, rows, dim))


def exchange_params(x: np.ndarray, index, out: np.ndarray) -> np.ndarray:
    """Deliver one gossip slot: the rows x[index], as a view or gathered into out."""
    return slot_rows(x, index, out)


def exchange_cross_gradients(cross: np.ndarray, messages, index,
                             out: np.ndarray) -> np.ndarray:
    """Deliver one data-variant slot: row r is the message on edge index[r].

    Raw messages are rows of the edge table, read as `exchange_params`
    reads x; compressed ones (messages, by edge) are decompressed by
    their receiver into out.
    """
    if messages is None:
        return slot_rows(cross, index, out)
    if isinstance(index, slice):
        index = range(index.start, index.stop)
    for row, e in zip(out, index):
        decompress(messages[e], out=row)
    return out


def run_round(stack: StackedState, hp: HyperParams, batch_size: int,
              ledger: CommLedger | None = None):
    """One synchronous round on the run's rows, in place; returns (losses, grads).

    grads is the round's RoundGradients (None for dpsgd).
    """
    states, slots, x, v, grads, pull = (stack.states, stack.slots, stack.x, stack.v,
                                        stack.grads, stack.pull)
    cross, err_self, err_out = stack.cross, stack.err_self, stack.err_out
    spec = states[0].spec
    dim = x.shape[1]
    messages = None if err_self is None else [None] * slots.edges

    losses = []
    for i, (state, links) in enumerate(zip(states, slots.links)):
        g_i = grads[i]
        batch = state.draw_batch(batch_size)
        losses.append(loss_and_gradient(spec, x[i], state.data, batch, g_i)[0])
        if cross is None:
            continue
        for j, e in links:
            cross_gradient(spec, x[j], state.data, batch, cross[e])
        if messages is not None:
            decompress(ef_step(g_i, err_self[i], out=err_self[i])[0], g_i)
            for j, e in links:
                messages[e] = ef_step(cross[e], err_out[e], out=err_out[e])[0]
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
    return losses, result


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
    configuration directly. The agents share one read-only params array
    and one read-only zero momentum until the run's StackedState stacks
    them.
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
    zero = np.zeros(spec.param_count)
    x0.flags.writeable = zero.flags.writeable = False
    states = [
        AgentState(agent_id=i, spec=spec, data=train, shard=shards[i], params=x0,
                   momentum=zero, rng=streams.agent_rngs[i])
        for i in range(config.agents)
    ]
    return states, w, val


def run(config: RunConfig) -> RunResult:
    """Execute one full training run; deterministic in config alone.

    eps_l1 and omega_l1 are written as 0 unless the algorithm is ngc or
    compngc and every neighbourhood of W weighs its members equally.
    """
    states, w, val = initial_states(config)
    hp = config.hyper_params()
    spec = states[0].spec
    train = states[0].data

    rounds_per_epoch = min(s.shard.size // config.batch_size for s in states)
    if rounds_per_epoch < 1:
        raise ConfigurationError("batch_size exceeds the smallest shard")

    stack = StackedState(states, w, config.algorithm)
    ledger = CommLedger()
    bias_ok = stack.slots.uniform and config.algorithm in ("ngc", "compngc")

    rows: list[MetricsRow] = []

    def emit(round_idx, epoch_count, train_loss, eps_l1, omega_l1):
        center = consensus_model(stack.x)
        val_loss, val_acc = evaluate(spec, center, val)
        # metrics.consensus_error, with the deviations in the spare rows.
        dev = np.subtract(stack.x, center, out=stack.pull)
        np.square(dev, out=dev)
        rows.append(MetricsRow(
            round=round_idx, epoch=epoch_count, train_loss=train_loss,
            val_loss=float(val_loss), val_acc=float(val_acc),
            consensus_error=float(dev.sum(axis=1).mean()),
            eps_l1=eps_l1, omega_l1=omega_l1,
            param_bytes=ledger.param_bytes, crossgrad_bytes=ledger.crossgrad_bytes,
        ))

    init_loss = float(np.mean([batch_loss(spec, s.params, train, s.shard) for s in states]))
    emit(0, 0, init_loss, 0.0, 0.0)

    round_idx = 0
    for epoch in range(config.epochs):
        hp_eff = replace(hp, eta=apply_lr_schedule(hp, epoch, config.epochs))
        loss_accum = 0.0
        eps_accum = 0.0
        omega_accum = 0.0
        for _ in range(rounds_per_epoch):
            round_idx += 1
            losses, grads = run_round(stack, hp_eff, config.batch_size, ledger=ledger)
            if not np.isfinite(stack.x, out=stack.finite).all():
                raise RunAbortError(round_idx)
            loss_accum += float(np.mean(losses))
            if bias_ok:
                eps_l1, omega_l1 = grads.bias_norms()
                eps_accum += eps_l1
                omega_accum += omega_l1
        emit(round_idx, epoch + 1, loss_accum / rounds_per_epoch,
             eps_accum / rounds_per_epoch, omega_accum / rounds_per_epoch)

    return RunResult(config, rows, ledger, states, spec, val, w)
