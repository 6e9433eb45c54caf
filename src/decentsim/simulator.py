"""Synchronous round engine with byte-exact communication accounting.

Every round runs in phases, each a plain loop over the agents in agent
order: parameter exchange, local gradient work, optional cross-gradient
exchange, then update and gossip, which run back to back per agent. Each
AgentState is updated in place, so run_round hands back the list it was
given. The exchanged inboxes alias the senders' pre-round parameter
arrays; they stay valid for the whole round because no phase writes
into a parameter array, it assigns a new one. A later agent's gossip
therefore still sees its neighbours' pre-round parameters.

Byte accounting models 32-bit wire floats: a parameter or raw gradient
message costs 4*d bytes per directed edge, a compressed cross-gradient
costs its serialized size. Self-loops are local and cost nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algorithms import (
    AgentState,
    HyperParams,
    apply_lr_schedule,
    compngc_prepare,
    dpsgd_finalize,
    dpsgd_prepare,
    ngc_apply,
    ngc_prepare,
    ngc_update,
)
from .compression import wire_size_bytes
from .errors import ConfigurationError, RunAbortError
from .metrics import MetricsRow, bias_norms, consensus_error, consensus_model
from .models import (
    ACTIVATIONS,
    Dataset,
    ModelSpec,
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


def _neighbor_tables(w: np.ndarray):
    """Per-agent neighbor lists (excluding self) and weight maps (including)."""
    n = w.shape[0]
    peers = []
    weight_maps = []
    for i in range(n):
        nb = neighbors(w, i)
        peers.append([j for j in nb if j != i])
        weight_maps.append({j: float(w[i, j]) for j in nb})
    return peers, weight_maps


def exchange_params(states: list[AgentState], peers) -> list[dict]:
    """Deliver current params along every directed edge."""
    return [{j: states[j].params for j in peers[i]} for i in range(len(states))]


def exchange_cross_gradients(works, peers) -> list[dict]:
    """Deliver each agent's outgoing cross-gradients to their addressees."""
    return [{j: works[j].outgoing[i] for j in peers[i]} for i in range(len(works))]


def run_round(states: list[AgentState], w: np.ndarray, hp: HyperParams, algorithm: str,
              batch_size: int, ledger: CommLedger | None = None, tables=None):
    """One synchronous round, agents updated in place; returns (states, losses, bundles)."""
    peers, weight_maps = tables if tables is not None else _neighbor_tables(w)
    dim = states[0].params.size
    edges = sum(len(nb) for nb in peers)

    if algorithm == "dpsgd":
        works = [dpsgd_prepare(state, hp, batch_size) for state in states]
        for i, state in enumerate(states):
            tilde_in = {j: works[j].x_tilde for j in peers[i]}
            dpsgd_finalize(state, works[i], tilde_in, weight_maps[i], hp)
        if ledger is not None:
            ledger.record_round(edges, 4 * dim, 0)
        return states, [wk.batch_loss for wk in works], None

    if algorithm not in ("ngc", "compngc"):
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    compressed = algorithm == "compngc"
    prepare = compngc_prepare if compressed else ngc_prepare

    params_in = exchange_params(states, peers)
    works = [prepare(state, params_in[i], hp, batch_size) for i, state in enumerate(states)]

    if hp.alpha != 0.0:
        cross_in = exchange_cross_gradients(works, peers)
        cross_msg_bytes = wire_size_bytes(dim) if compressed else 4 * dim
    else:
        cross_in = [{} for _ in states]
        cross_msg_bytes = 0

    bundles = []
    for i, state in enumerate(states):
        x_tilde, v_next, bundle = ngc_update(state, works[i], cross_in[i], hp, weight_maps[i])
        ngc_apply(state, x_tilde, v_next, params_in[i], weight_maps[i], hp)
        bundles.append(bundle)
    if ledger is not None:
        ledger.record_round(edges, 4 * dim, cross_msg_bytes)
    return states, [wk.batch_loss for wk in works], bundles


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
    peers, weight_maps = _neighbor_tables(w)

    rounds_per_epoch = min(s.shard.size // config.batch_size for s in states)
    if rounds_per_epoch < 1:
        raise ConfigurationError("batch_size exceeds the smallest shard")

    ledger = CommLedger()
    uniform = all(max(wm.values()) == min(wm.values()) for wm in weight_maps)
    bias_ok = uniform and config.algorithm in ("ngc", "compngc")

    rows: list[MetricsRow] = []

    def emit(round_idx, epoch_count, train_loss, eps_l1, omega_l1):
        center = consensus_model(states)
        val_loss, val_acc = evaluate(spec, center, val)
        rows.append(MetricsRow(
            round=round_idx, epoch=epoch_count, train_loss=train_loss,
            val_loss=float(val_loss), val_acc=float(val_acc),
            consensus_error=consensus_error(states),
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
            _, losses, bundles = run_round(
                states, w, hp_eff, config.algorithm, config.batch_size,
                ledger=ledger, tables=(peers, weight_maps),
            )
            for s in states:
                if not np.isfinite(s.params).all():
                    raise RunAbortError(round_idx)
            loss_accum += float(np.mean(losses))
            if bias_ok:
                eps_l1, omega_l1 = bias_norms(bundles)
                eps_accum += eps_l1
                omega_accum += omega_l1
        emit(round_idx, epoch + 1, loss_accum / rounds_per_epoch,
             eps_accum / rounds_per_epoch, omega_accum / rounds_per_epoch)

    return RunResult(config, rows, ledger, states, spec, val, w)
