"""IID sanity baseline: every variant should train cleanly without skew.

Runs the reference workload with the IID partition for each algorithm and
reports consensus accuracy plus whether the epoch-smoothed validation loss
is non-increasing over the last half of training.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from decentsim import (
    BENCHMARK_SEEDS,
    DecentsimError,
    RunAbortError,
    consensus_model,
    evaluate,
    iid_benchmark_config,
    run,
)
from decentsim.benchmarks import seed_list

VARIANTS = (
    ("ngc", dict(algorithm="ngc", alpha=1.0)),
    ("compngc", dict(algorithm="compngc", alpha=1.0)),
    ("dpsgd", dict(algorithm="dpsgd")),
)

SMOOTH_WINDOW = 5


def smoothed(series: np.ndarray, window: int = SMOOTH_WINDOW) -> np.ndarray:
    """Trailing moving average; entry k averages the window ending at k."""
    out = np.empty_like(series, dtype=float)
    for k in range(len(series)):
        lo = max(0, k - window + 1)
        out[k] = series[lo:k + 1].mean()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=seed_list,
                        default=",".join(map(str, BENCHMARK_SEEDS)))
    args = parser.parse_args()
    try:
        return report(args.seeds)
    except RunAbortError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    except DecentsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def report(seeds: list[int]) -> int:
    plan = [(seed, name, iid_benchmark_config(seed, **extra))
            for seed in seeds for name, extra in VARIANTS]
    for _, _, cfg in plan:
        cfg.validate()

    t0 = time.perf_counter()
    worst = 1.0
    for seed, name, cfg in plan:
        result = run(cfg)
        x_bar = consensus_model(result.states)
        _, acc = evaluate(result.spec, x_bar, result.val_data)
        worst = min(worst, acc)
        # rows: round 0 plus one per epoch
        losses = np.array([r.val_loss for r in result.rows[1:]])
        smooth = smoothed(losses)
        tail = smooth[len(smooth) // 2:]
        drift = float(np.max(np.diff(tail))) if len(tail) > 1 else 0.0
        mono = "non-increasing" if drift <= 1e-6 else f"RISES by {drift:.2e}"
        print(f"seed {seed:>3}  {name:<8} consensus_acc={acc:.4f}  "
              f"tail val-loss {mono}")
    print(f"\nworst consensus accuracy: {worst:.4f}")
    print(f"elapsed: {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
