"""Synchronous round engine over stacked agent state, with byte-exact accounting.

Set-up (`initial_states`) builds W, the data and the agents, deriving each
seed stream where it is used from SeedSequence(seed, spawn_key=k).
A run owns its agents' state as one StackedState, built once per run
from the agents, W and the run's RunConfig; `run_round` runs on it and
on its config alone. It holds the parameters x and momenta v as (N, d) arrays,
each AgentState's params and momentum being views of its rows. Under
compngc it also holds the error-feedback residuals, zero at the start:
err_self as (N, d) and err_out as (E, d), one row per directed edge in
edge-row order, each AgentState's err_self and err_out[j] being views of
them. Every ef_step writes its residual back into its row. W's
neighborhoods become slot tables once per run (`algorithms.neighbor_slots`):
agent i's peers in ascending order, the edge rows of its messages, and
blocks of consecutive agents of one degree, max(1, BLOCK_ELEMS // d) rows
each. A slot of table rows that run consecutively upward is read as a
view, any other is gathered.

A round is a kernel pass, one block pass, then the apply. The kernel
pass, per agent in agent order, draws a batch and writes the self
gradient into row i of an (N, d) table, and for ngc the gradient at each
peer's params into that edge's row of an (E, d) table of messages. Under
compngc the self row goes through its error-feedback stream and takes
back the decompressed value, and each cross-gradient goes from a spare
row, scratch[0, 0], straight through its edge's stream; every ef_step
works in scratch[1, 0]. The round keeps only the E compressed messages,
each expanded into block scratch where it is read.
dpsgd steps momentum and params to x_tilde after the pass. The block
pass, per block, mixes and steps momentum (`ngc_update`, ngc and
compngc), taking the W-weighted bias norms from the same slot reads (a
sender's through `slot_rows` or `message_rows`, a receiver's through
`exchange_cross_gradients`), then writes the gossip pull (`gossip_rows`
over the rows `exchange_params` delivers) into the spent gradient rows.
No block reads another's gradient rows, and x changes only in the apply,
since each pull reads its neighbors' pre-round (for dpsgd, x_tilde) rows.
The block rules read every slot through a reader `read(index, out)`,
three of which the round builds once. They keep the per-agent rules'
order element for element (see `algorithms`), so a round is bitwise the
per-agent one. After each round, `run` checks x for non-finite values in
one reduction. The finite check and each emitted consensus error work in
the gradient rows, and each emission takes its centre in scratch[0, 0]:
both are free between rounds.

Byte accounting models 32-bit wire floats: a parameter or raw gradient
message costs 4*d bytes per directed edge, a compressed cross-gradient
costs its serialized size. Self-loops are local and cost nothing.
"""
from __future__ import annotations

import re
import typing
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .algorithms import (
    SCHEDULES,
    AgentState,
    apply_lr_schedule,
    dpsgd_finalize,
    dpsgd_prepare,
    gossip_rows,
    message_rows,
    neighbor_slots,
    ngc_apply,
    ngc_update,
    slot_rows,
)
from .compression import decompress, ef_step, wire_size_bytes
from .errors import ConfigurationError, RunAbortError
from .metrics import MetricsRow, consensus_error, consensus_model
from .models import (
    ACTIVATIONS,
    Dataset,
    ModelSpec,
    check_synthetic,
    cross_gradient,
    evaluate,
    generate_synthetic,
    init_params,
    load_csv,
    loss_and_gradient,
)
from .partition import partition_iid, partition_label_skew
from .topology import TOPOLOGIES, TopologySpec, build_mixing_matrix, spectral_gap

ALGORITHMS = ("dpsgd", "ngc", "compngc")
PARTITIONS = ("iid", "skew")
MODELS = ("logistic", "mlp")
# RunConfig's fields with fixed value sets; validate's one check of them.
CHOICES = {"algorithm": ALGORITHMS, "topology": TOPOLOGIES, "partition": PARTITIONS,
           "schedule": SCHEDULES, "model": MODELS, "activation": ACTIVATIONS}
# Config lines are `key=value`, stripped; `#` at a line start or after whitespace opens a comment.
COMMENT = re.compile(r"(?:^|\s)#")
_VAL_SEED_OFFSET = 10_000_019
_MAX_BYTES = np.iinfo(np.intp).max


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run depends on, checked when built; flat as config files are."""

    algorithm: str = "ngc"
    agents: int = 5
    topology: str = "ring"
    torus_rows: int | None = None
    partition: str = "skew"
    alpha: float = 1.0
    beta: float = 0.9
    eta: float = 0.01  # the base step, before the schedule (apply_lr_schedule)
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

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name, kind in FIELD_TYPES.items():  # a float field takes an int; none takes a bool
            value = getattr(self, name)
            if not ((value is None and name in _NULLABLE) or (not isinstance(value, bool)
                    and isinstance(value, (int, float) if kind is float else kind))):
                raise ConfigurationError(f"{name} must be {kind.__name__}, got {value!r}")
        for key, allowed in CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigurationError(f"unknown {key} {getattr(self, key)!r} "
                                         f"(choose from {', '.join(allowed)})")
        if self.algorithm == "dpsgd" and self.alpha != RunConfig.alpha:
            raise ConfigurationError("dpsgd takes no alpha: it mixes no cross-gradients")
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
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigurationError(f"beta {self.beta} outside [0, 1)")
        if not 0.0 <= self.eta < np.inf:
            raise ConfigurationError(f"eta {self.eta} must be finite and nonnegative")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError(f"gamma {self.gamma} outside (0, 1]")
        topology = TopologySpec(self.topology, self.agents, self.torus_rows)
        if self.dataset == "synthetic":
            check_synthetic(self.classes, self.dim, self.per_class, self.spread)
            # Set-up's arrays must fit numpy's index range, as the agent cap keeps W's:
            # the features, and the stack's (N, d) rows and any (E, d) edge rows.
            samples = self.classes * max(self.per_class, self.val_per_class)
            model = ModelSpec(self.dim, self.classes, self.hidden_dim if self.model == "mlp" else 0)
            rows = max(self.agents, 0 if self.algorithm == "dpsgd" else topology.edges)
            for what, shape in (("synthetic features", (samples, self.dim)),
                                ("parameter tables", (rows, model.param_count))):
                if 8 * shape[0] * shape[1] > _MAX_BYTES:
                    raise ConfigurationError(f"{what} of shape {shape} need more than the "
                                             f"{_MAX_BYTES} bytes a numpy array can hold")


_HINTS = typing.get_type_hints(RunConfig)
_NULLABLE = {name for name, hint in _HINTS.items() if type(None) in typing.get_args(hint)}
# Each field's type, int for `int | None`: its flag's, its config line's and validate's.
FIELD_TYPES = {n: typing.get_args(h)[0] if n in _NULLABLE else h for n, h in _HINTS.items()}


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


class StackedState:
    """A run's agent state as rows, and the tables a round of its algorithm needs.

    Built once per run from the agents, W and the run's config: params x and
    momenta v, both (N, d), whose rows become the agents' params and
    momentum views; W's slot tables; the (N, d) self-gradient rows, which
    a round mixes from and then fills with the gossip pulls; for ngc the
    (E, d) edge table of raw messages; for compngc, whose messages stay
    compressed, the zeroed error-feedback rows, err_self (N, d) and
    err_out (E, d) by edge, bound as each agent's err_self and err_out[j];
    and four buffers of the largest block (one for dpsgd, five when
    0 < alpha < 1), whose rows scratch[0, 0] and scratch[1, 0] the compngc
    kernel pass borrows for its cross-gradient and its ef_step work.
    Between rounds the gradient rows hold the finite check's flags and the
    consensus error's deviations, and scratch[0, 0] the emission's centre.
    """

    def __init__(self, states: list[AgentState], w: np.ndarray, config: RunConfig):
        self.config = config
        self.states = states
        self.x = np.stack([s.params for s in states])
        self.v = np.stack([s.momentum for s in states])
        for state, x_i, v_i in zip(states, self.x, self.v):
            state.params, state.momentum = x_i, v_i
        dim = self.x.shape[1]
        self.slots = slots = neighbor_slots(w, dim)
        self.grads = np.empty_like(self.x)
        # The first N*d bytes of the gradient rows, as one flag per element.
        self.finite = self.grads.reshape(-1).view(bool)[:self.x.size].reshape(self.x.shape)
        self.cross = self.err_self = self.err_out = None
        if config.algorithm == "ngc":
            self.cross = np.empty((slots.edges, dim))
        if config.algorithm == "compngc":
            self.err_self = np.zeros(self.x.shape)
            self.err_out = np.zeros((slots.edges, dim))
            for state, links, row in zip(states, slots.links, self.err_self):
                state.err_self = row
                state.err_out = {j: self.err_out[e] for j, e in links}
        rows = max(blk.size for blk in slots.blocks)
        buffers = 1 if config.algorithm == "dpsgd" else 5 if 0.0 < config.alpha < 1.0 else 4
        self.scratch = np.empty((buffers, rows, dim))


def exchange_params(x: np.ndarray, index, out: np.ndarray) -> np.ndarray:
    """Deliver one gossip slot: the rows x[index], as a view or gathered into out."""
    return slot_rows(x, index, out)


def exchange_cross_gradients(read, index, out: np.ndarray) -> np.ndarray:
    """Deliver one data-variant slot: row r is the message on edge index[r].

    read is the round's one message reader, `read(index, out)`: raw rows
    of the edge table, read as `exchange_params` reads x, or compressed
    messages, decompressed by their receiver into out.
    """
    return read(index, out)


def run_round(stack: StackedState, eta: float, ledger: CommLedger | None = None):
    """One synchronous round on the run's rows, in place; returns (losses, bias).

    stack.config, the run's, gives the algorithm, batch size, alpha, beta
    and gamma; eta is the round's step, config.eta after the schedule.
    bias is (eps_l1, omega_l1), the mean over agents of the l1 norms of the
    model- and data-variant clusters' W-weighted deviations from the self
    gradient (omega is 0 when alpha = 0); both are 0 for dpsgd.
    """
    config, states, slots, x, v = stack.config, stack.states, stack.slots, stack.x, stack.v
    grads, cross, err_self, err_out = stack.grads, stack.cross, stack.err_self, stack.err_out
    spec = states[0].spec
    dim = x.shape[1]
    # Under compngc the round keeps only the messages, by edge row; each cross-gradient
    # goes from one spare row straight through its stream, every ef_step working in a second.
    messages = None if err_out is None else [None] * slots.edges
    row, work = stack.scratch[:2, 0] if messages is not None else (None, None)

    losses = []
    for i, (state, links) in enumerate(zip(states, slots.links)):
        batch = state.draw_batch(config.batch_size)
        losses.append(loss_and_gradient(spec, x[i], state.data, batch, grads[i])[0])
        if messages is not None:
            decompress(ef_step(grads[i], err_self[i], out=err_self[i], work=work)[0], grads[i])
            for j, e in links:
                cross_gradient(spec, x[j], state.data, batch, row)
                messages[e] = ef_step(row, err_out[e], out=err_out[e], work=work)[0]
        elif cross is not None:
            for j, e in links:
                cross_gradient(spec, x[j], state.data, batch, cross[e])

    norms = np.zeros((2, len(x)))
    if config.algorithm == "dpsgd":
        dpsgd_prepare(x, v, grads, config, eta)
    read_sent = partial(slot_rows, cross) if messages is None else partial(message_rows, messages)
    read_back = partial(exchange_cross_gradients, read_sent)
    read_x = partial(exchange_params, x)
    for blk in slots.blocks:  # no block reads another's gradient rows; x waits for apply
        own = grads[blk.rows]
        if config.algorithm != "dpsgd":
            ngc_update(blk, own, read_sent, read_back, v[blk.rows], config, eta, stack.scratch,
                       norms[:, blk.rows])
        gossip_rows(blk, x[blk.rows], read_x, own, stack.scratch[0, :blk.size], config.gamma)

    cross_msg_bytes = 0
    if config.algorithm == "dpsgd":
        dpsgd_finalize(x, grads)
    else:
        ngc_apply(x, v, grads)
        if config.alpha != 0.0:
            cross_msg_bytes = wire_size_bytes(dim) if messages is not None else 4 * dim
    if ledger is not None:
        ledger.record_round(slots.edges, 4 * dim, cross_msg_bytes)
    return losses, tuple((np.add.reduce(norms, axis=1) / len(x)).tolist())


def _load_data(config: RunConfig) -> tuple[Dataset, Dataset]:
    if config.dataset == "synthetic":
        base = config.seed if config.data_seed is None else config.data_seed
        train = generate_synthetic(config.classes, config.dim, config.per_class,
                                   config.spread, base)
        val = generate_synthetic(config.classes, config.dim, config.val_per_class,
                                 config.spread, base + _VAL_SEED_OFFSET)
        return train, val
    full = load_csv(config.dataset)
    val_seed = np.random.SeedSequence(config.seed, spawn_key=(3,)).generate_state(1)[0]
    perm = np.random.default_rng(int(val_seed)).permutation(full.n)
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

    Builds W once and neither checks nor solves it: every W that
    build_mixing_matrix makes is connected and doubly stochastic. Each
    seed stream is derived once per run, where it is used, from
    SeedSequence(config.seed, spawn_key=k): k = (0,) seeds the partition,
    (1,) the shared parameter init, (2, i) agent i's batch shuffles and
    (3,) a CSV dataset's validation split. Returns (states, w,
    validation_data); useful for diagnostics that probe the pre-training
    configuration directly. The agents share one read-only params array
    and one read-only zero momentum until the run's StackedState stacks
    them.
    """
    w = build_mixing_matrix(TopologySpec(config.topology, config.agents, config.torus_rows))
    train, val = _load_data(config)
    stream = partial(np.random.SeedSequence, config.seed)
    partition_seed = int(stream(spawn_key=(0,)).generate_state(1)[0])
    if config.partition == "iid":
        shards = partition_iid(train, config.agents, partition_seed)
    else:
        shards = partition_label_skew(train, w, partition_seed)

    hidden = config.hidden_dim if config.model == "mlp" else 0
    spec = ModelSpec(train.dim, train.num_classes, hidden, config.activation)
    x0 = init_params(spec, np.random.default_rng(stream(spawn_key=(1,))))
    zero = np.zeros(spec.param_count)
    x0.flags.writeable = zero.flags.writeable = False
    states = [
        AgentState(agent_id=i, spec=spec, data=train, shard=shards[i], params=x0,
                   momentum=zero, rng=np.random.default_rng(stream(spawn_key=(2, i))))
        for i in range(config.agents)
    ]
    return states, w, val


def run(config: RunConfig) -> RunResult:
    """Execute one full training run; deterministic in config alone."""
    try:  # validate bounds every array by numpy's range, not by what this host can allocate
        states, w, val = initial_states(config)
        stack = StackedState(states, w, config)
    except MemoryError as exc:
        raise ConfigurationError(f"set-up cannot allocate its arrays: {exc}") from None
    spec = states[0].spec

    rounds_per_epoch = min(s.shard.size // config.batch_size for s in states)
    if rounds_per_epoch < 1:
        raise ConfigurationError("batch_size exceeds the smallest shard")
    ledger = CommLedger()

    rows: list[MetricsRow] = []

    def emit(round_idx, epoch_count, train_loss, eps_l1, omega_l1):
        center = consensus_model(stack.x, out=stack.scratch[0, 0])
        val_loss, val_acc = evaluate(spec, center, val)
        rows.append(MetricsRow(
            round=round_idx, epoch=epoch_count, train_loss=train_loss,
            val_loss=float(val_loss), val_acc=float(val_acc),
            consensus_error=consensus_error(stack.x, out=stack.grads, center=center),
            eps_l1=eps_l1, omega_l1=omega_l1,
            param_bytes=ledger.param_bytes, crossgrad_bytes=ledger.crossgrad_bytes,
        ))

    # Row 0's loss is each agent's shard scored at x0, as every row scores val.
    init_loss = float(np.mean([evaluate(spec, s.params, Dataset(
        s.data.features[s.shard], s.data.labels[s.shard], s.data.num_classes))[0]
        for s in states]))
    emit(0, 0, init_loss, 0.0, 0.0)

    round_idx = 0
    for epoch in range(config.epochs):
        eta = apply_lr_schedule(config, epoch)
        sums = np.zeros(3)  # train loss, eps_l1, omega_l1
        for _ in range(rounds_per_epoch):
            round_idx += 1
            losses, bias = run_round(stack, eta, ledger=ledger)
            if not np.isfinite(stack.x, out=stack.finite).all():
                raise RunAbortError(round_idx)
            sums += (np.add.reduce(losses) / len(losses), *bias)
        emit(round_idx, epoch + 1, *map(float, sums / rounds_per_epoch))

    return RunResult(config, rows, ledger, states, spec, val, w)
