"""Benchmark gradient-clustering variants against gossip SGD under label skew.

Runs the reference non-IID workload (5 agents on a ring, complete label
skew, 16-32-10 MLP on a 10-class Gaussian mixture) for each algorithm
variant and a set of seeds, then prints a paired table of consensus-model
accuracies and communication totals.
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
    run,
    skew_benchmark_config,
)
from decentsim.benchmarks import seed_list

VARIANTS = (
    ("ngc", dict(algorithm="ngc", alpha=1.0)),
    ("ngc-a0", dict(algorithm="ngc", alpha=0.0)),
    ("compngc", dict(algorithm="compngc", alpha=1.0)),
    ("dpsgd", dict(algorithm="dpsgd")),
)


def consensus_accuracy(result) -> float:
    x_bar = consensus_model(result.states)
    _, acc = evaluate(result.spec, x_bar, result.val_data)
    return acc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=seed_list,
                        default=",".join(map(str, BENCHMARK_SEEDS)),
                        help="comma-separated master seeds")
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the benchmark epoch count")
    args = parser.parse_args()
    try:
        return report(args.seeds, {} if args.epochs is None else {"epochs": args.epochs})
    except RunAbortError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    except DecentsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def report(seeds: list[int], overrides: dict) -> int:
    plan = [(seed, name, skew_benchmark_config(seed, **extra, **overrides))
            for seed in seeds for name, extra in VARIANTS]
    for _, _, cfg in plan:
        cfg.validate()

    accs: dict[str, list[float]] = {name: [] for name, _ in VARIANTS}
    bytes_per_agent: dict[str, float] = {}
    t0 = time.perf_counter()
    for seed, name, cfg in plan:
        result = run(cfg)
        acc = consensus_accuracy(result)
        accs[name].append(acc)
        bytes_per_agent[name] = result.ledger.total_bytes / cfg.agents
        print(f"seed {seed:>3}  {name:<8} consensus_acc={acc:.4f}  "
              f"bytes/agent={bytes_per_agent[name]:,.0f}")
    elapsed = time.perf_counter() - t0

    print()
    print(f"{'variant':<8} {'mean':>7} {'std':>7} {'min':>7}   per-seed")
    for name, _ in VARIANTS:
        a = np.array(accs[name])
        per_seed = " ".join(f"{v:.3f}" for v in a)
        print(f"{name:<8} {a.mean():>7.4f} {a.std():>7.4f} {a.min():>7.4f}"
              f"   {per_seed}")

    print()
    ngc = np.array(accs["ngc"])
    ngc0 = np.array(accs["ngc-a0"])
    comp = np.array(accs["compngc"])
    dpsgd = np.array(accs["dpsgd"])
    print(f"mean gap ngc    - dpsgd : {100 * (ngc - dpsgd).mean():+.2f} pts")
    print(f"mean gap ngc-a0 - dpsgd : {100 * (ngc0 - dpsgd).mean():+.2f} pts")
    print(f"mean gap compngc - ngc  : {100 * (comp - ngc).mean():+.2f} pts")
    ordered = int(np.sum((ngc >= ngc0) & (ngc0 >= dpsgd)))
    print(f"ordering ngc >= ngc-a0 >= dpsgd holds in {ordered}/{len(seeds)} seeds")
    print(f"elapsed: {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
