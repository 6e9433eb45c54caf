"""IID sanity baseline: every variant should train cleanly without skew.

Runs the reference workload with the IID partition for each algorithm and
reports consensus accuracy plus whether the epoch-smoothed validation loss
is non-increasing over the last half of training.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from decentsim import BENCHMARK_SEEDS, iid_benchmark_config, run
from decentsim.benchmarks import VARIANTS, seed_list
from decentsim.cli import exit_code

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
    return exit_code(report, args.seeds)


def report(seeds: list[int]) -> int:
    # The alpha=0 variant is a non-IID claim; it has no IID baseline here.
    plan = [(seed, name, iid_benchmark_config(seed, **extra))
            for seed in seeds for name, extra in VARIANTS if name != "ngc-a0"]

    t0 = time.perf_counter()
    worst = 1.0
    for seed, name, cfg in plan:
        result = run(cfg)
        acc = result.final_row.val_acc
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
