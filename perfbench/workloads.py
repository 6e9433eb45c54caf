"""The benchmark's workloads and the closed forms their outputs must meet.

A workload is a list of sweeps, each one `decentsim.cli.run_sweep` call
over consecutive seeds derived from the benchmark's --seed. One pass runs
every sweep once; the benchmark repeats passes for its measuring time.

Why these three: `skew-ring5` is the paper's reference experiment, small
kernels where per-call overhead in the gradient and metric emission
dominate; `wide-compngc` has d = 100,965 so the sign codec dominates;
`ring-many` has 160 agents, so per-agent message plumbing dominates and
the codec is never touched. An engine or codec change should move the
workload it targets and leave the others flat.
"""
from __future__ import annotations

from dataclasses import dataclass

from decentsim.benchmarks import SKEW_BENCHMARK
from decentsim.simulator import RunConfig


@dataclass(frozen=True)
class PerRound:
    """Exact per-round counts for one algorithm on one graph.

    decompress counts every call: one inside each ef_step, the sender's
    copy of its own messages, and the receiver's copy.
    """

    grad: int
    messages: int
    param_bytes: int
    crossgrad_bytes: int
    ef_step: int = 0
    decompress: int = 0

    @property
    def wire_bytes(self) -> int:
        return self.param_bytes + self.crossgrad_bytes


@dataclass(frozen=True)
class Sweep:
    label: str
    config: RunConfig
    seeds: tuple[int, ...]
    per_round: PerRound


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeds_per_sweep: int
    variants: tuple[tuple[str, dict, PerRound], ...]
    base: dict

    def sweeps(self, seed: int, **overrides) -> list[Sweep]:
        seeds = tuple(range(seed, seed + self.seeds_per_sweep))
        return [
            Sweep(label, RunConfig(**{**self.base, **extra, "seed": seed, **overrides}),
                  seeds, per_round)
            for label, extra, per_round in self.variants
        ]


# Skew reference ring: 5 agents, d = 874, 10 directed edges; a compressed
# cross-gradient costs wire_size_bytes(874) = 122 bytes.
_D_SKEW = 874
SKEW_RING5 = Workload(
    name="skew-ring5",
    why="the paper's reference experiment: 5-agent skewed ring, d=874, all four variants",
    seeds_per_sweep=3,
    base=SKEW_BENCHMARK,
    variants=(
        ("ngc", dict(algorithm="ngc", alpha=1.0),
         PerRound(grad=15, messages=20, param_bytes=10 * 4 * _D_SKEW,
                  crossgrad_bytes=10 * 4 * _D_SKEW)),
        ("ngc-a0", dict(algorithm="ngc", alpha=0.0),
         PerRound(grad=15, messages=10, param_bytes=10 * 4 * _D_SKEW, crossgrad_bytes=0)),
        ("compngc", dict(algorithm="compngc", alpha=1.0),
         PerRound(grad=15, messages=20, param_bytes=10 * 4 * _D_SKEW,
                  crossgrad_bytes=10 * 122, ef_step=15, decompress=40)),
        ("dpsgd", dict(algorithm="dpsgd"),
         PerRound(grad=5, messages=10, param_bytes=10 * 4 * _D_SKEW, crossgrad_bytes=0)),
    ),
)

# Criterion-6 model size: 320-305-10 MLP, d = 100,965; wire_size_bytes(d) =
# 12,633. 64 samples per agent at B=32 give 2 rounds per epoch, 40 in all.
_D_WIDE = 100_965
WIDE_COMPNGC = Workload(
    name="wide-compngc",
    why="compngc on a 5-agent IID ring at d=100,965, where the sign codec dominates",
    seeds_per_sweep=1,
    base=dict(agents=5, topology="ring", partition="iid", classes=10, dim=320,
              per_class=32, val_per_class=50, spread=0.03, model="mlp", hidden_dim=305,
              epochs=20, batch_size=32, eta=0.1, schedule="constant", workers=1),
    variants=(
        ("compngc", dict(algorithm="compngc", alpha=1.0),
         PerRound(grad=15, messages=20, param_bytes=10 * 4 * _D_WIDE,
                  crossgrad_bytes=10 * 12_633, ef_step=15, decompress=40)),
    ),
)

# 160 agents = 16 x 10 classes, each class split over 16 agents; 400
# samples per shard at B=32 give 12 rounds per epoch, 48 in all. The ring
# has 320 directed edges and n > 64 takes the power-iteration spectral gap.
_D_MANY = 874
RING_MANY = Workload(
    name="ring-many",
    why="ngc on a 160-agent skewed ring, d=874: per-agent plumbing dominates, codec unused",
    seeds_per_sweep=1,
    base=dict(agents=160, topology="ring", partition="skew", classes=10, dim=16,
              per_class=6400, val_per_class=200, spread=0.15, model="mlp", hidden_dim=32,
              epochs=4, batch_size=32, eta=0.1, schedule="constant", workers=1),
    variants=(
        ("ngc", dict(algorithm="ngc", alpha=1.0),
         PerRound(grad=480, messages=640, param_bytes=320 * 4 * _D_MANY,
                  crossgrad_bytes=320 * 4 * _D_MANY)),
    ),
)

WORKLOADS = {w.name: w for w in (SKEW_RING5, WIDE_COMPNGC, RING_MANY)}
