"""Desk-scale simulator for decentralized SGD over peer-to-peer graphs."""

from .algorithms import (
    AgentState,
    GradientBundle,
    apply_lr_schedule,
    bias_terms,
    gossip_step,
    momentum_update,
    ngc_mix,
)
from .compression import (
    CompressedTensor,
    compress,
    decode,
    decompress,
    ef_step,
    encode,
    wire_size_bytes,
)
from .errors import (
    ConfigurationError,
    DecentsimError,
    ParseError,
    PartitionError,
    ProtocolError,
    RunAbortError,
    ShapeError,
    UsageError,
)
from .metrics import (
    MetricsRow,
    consensus_error,
    consensus_model,
    variance_bound_check,
)
from .benchmarks import (
    BENCHMARK_SEEDS,
    iid_benchmark_config,
    skew_benchmark_config,
)
from .models import (
    Dataset,
    ModelSpec,
    class_centers,
    cross_gradient,
    evaluate,
    finite_difference_gradient,
    generate_synthetic,
    init_params,
    load_csv,
    loss_and_gradient,
    unflatten,
)
from .partition import partition_iid, partition_label_skew
from .simulator import (
    CommLedger,
    RunConfig,
    StackedState,
    initial_states,
    run,
    run_round,
)
from .topology import (
    TopologySpec,
    build_mixing_matrix,
    neighbors,
    spectral_gap,
    validate_doubly_stochastic,
)

__version__ = "0.1.0"
