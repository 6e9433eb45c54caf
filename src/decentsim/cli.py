"""Command line front end: config resolution, sweeps, metric CSV files.

Option precedence is flags > config file > built-in defaults. Config
files are flat `key=value` lines of UTF-8 text whose keys are RunConfig
field names; unknown keys are rejected so typos fail loudly. A `#` at
the start of a line or after whitespace starts a comment, so a value
such as `dataset=runs/data#2.csv` keeps its `#`.
The resolved configuration is echoed into the output directory in the
same format, and a summary JSON aggregates final metrics across seeds.

Exit codes: 0 success, 2 usage or configuration problem, 3 runtime abort;
`exit_code` holds the mapping for the CLI and the experiment scripts.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import typing

import numpy as np

from .benchmarks import seed_list
from .compression import compress, decode, decompress, ef_step, encode, wire_size_bytes
from .errors import ConfigurationError, DecentsimError, ParseError, RunAbortError, UsageError
from .metrics import MetricsRow
from .models import evaluate
from .simulator import ALGORITHMS, PARTITIONS, RunConfig, run
from .topology import TOPOLOGIES

SCHEMA_LINE = "# decentsim metrics schema v1"
_ROW_HINTS = typing.get_type_hints(MetricsRow)
_COLUMNS = [(f.name, _ROW_HINTS[f.name]) for f in dataclasses.fields(MetricsRow)]
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def _scalar(hint):
    """The value type behind an annotation: int for `int | None`."""
    return next((a for a in typing.get_args(hint) if a is not type(None)), hint)


_FIELD_TYPES = {name: _scalar(hint) for name, hint in typing.get_type_hints(RunConfig).items()}
_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_file(path: str) -> dict:
    """Parse key=value lines into RunConfig field overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot open config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None
    overrides = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path} line {lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise UsageError(f"{path} line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = _FIELD_TYPES[key](raw)
        except ValueError as exc:
            raise UsageError(f"{path} line {lineno}: {exc}") from None
    return overrides


def write_config_file(config: RunConfig, path: str):
    """Echo the resolved configuration; readable back by read_config_file.

    dpsgd echoes carry no alpha line, since parse_config rejects alpha there.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(RunConfig):
            value = getattr(config, f.name)
            if value is None or (f.name == "alpha" and config.algorithm == "dpsgd"):
                continue
            fh.write(f"{f.name}={value}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="decentsim",
        description="Decentralized training simulator (dpsgd, ngc, compngc).",
    )
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--agents", type=int)
    p.add_argument("--topology", choices=TOPOLOGIES)
    p.add_argument("--partition", choices=PARTITIONS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--seeds", "--seed", help="comma-separated seed list")
    p.add_argument("--dataset", help="'synthetic' or a CSV path")
    p.add_argument("--out-dir", default="runs")
    p.add_argument("--compress-check", action="store_true",
                   help="run the compressor self-test and exit")
    p.add_argument("--verbose", action="store_true")
    return p


def parse_config(argv) -> tuple[RunConfig, list[int], argparse.Namespace]:
    """Resolve flags over config file over defaults; returns config and seeds."""
    args = _build_parser().parse_args(argv)
    overrides: dict = {}
    if args.config:
        overrides.update(read_config_file(args.config))

    overrides.update({key: val for key, val in vars(args).items()
                      if key in _FIELD_TYPES and val is not None})

    algorithm = overrides.get("algorithm", RunConfig.algorithm)
    if algorithm == "dpsgd" and "alpha" in overrides:
        raise UsageError("dpsgd does not take --alpha; it has no cross-gradient mixing")

    seeds = [overrides.get("seed", RunConfig.seed)]
    if args.seeds is not None:
        try:
            seeds = seed_list(args.seeds)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"--seeds: {exc}") from None

    try:
        config = RunConfig(**overrides)
        config.validate()
    except (TypeError, ConfigurationError) as exc:
        raise UsageError(str(exc)) from None
    return config, seeds, args


def emit_metrics_csv(rows: list[MetricsRow], path: str):
    """Write the metric table; floats carry 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SCHEMA_LINE + "\n")
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(
                str(getattr(r, name)) if kind is int else f"{getattr(r, name):.9g}"
                for name, kind in _COLUMNS
            ) + "\n")


def read_metrics_csv(path: str) -> list[MetricsRow]:
    """Inverse of emit_metrics_csv (up to float formatting)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header_seen = False
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != CSV_HEADER:
                    raise ParseError(f"line {lineno}: unexpected header {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != len(_COLUMNS):
                raise ParseError(f"line {lineno}: expected {len(_COLUMNS)} fields, "
                                 f"got {len(parts)}")
            try:
                rows.append(MetricsRow(*(kind(p) for (_, kind), p in zip(_COLUMNS, parts))))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
    if not header_seen:
        raise ParseError("no header line found")
    return rows


def run_sweep(config: RunConfig, seeds: list[int], out_dir: str,
              verbose: bool = False) -> dict:
    """Run one config across seeds; write per-seed CSVs plus a summary JSON.

    Every seed's config is validated before the first run, and a seed's
    directory is written only once its run has returned or aborted, so an
    error that set-up finds leaves nothing behind.
    """
    configs = [dataclasses.replace(config, seed=seed) for seed in seeds]
    for cfg in configs:
        cfg.validate()
    completed = []
    failed = []
    final_accs = []
    bytes_per_agent = []
    for seed, cfg in zip(seeds, configs):
        try:
            result = run(cfg)
        except RunAbortError as exc:
            result = None
            failed.append({"seed": seed, "error": str(exc)})
        seed_dir = os.path.join(out_dir, f"seed_{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        write_config_file(cfg, os.path.join(seed_dir, "config.txt"))
        if result is None:
            continue
        emit_metrics_csv(result.rows, os.path.join(seed_dir, "metrics.csv"))
        completed.append(seed)
        final_accs.append(result.final_row.val_acc)
        bytes_per_agent.append(result.ledger.total_bytes / cfg.agents)
        if verbose:
            for row in result.rows:
                print(f"seed {seed} epoch {row.epoch}: val_acc {row.val_acc:.4f} "
                      f"val_loss {row.val_loss:.6f} consensus_err {row.consensus_error:.3e}")
            per_agent = [
                evaluate(result.spec, s.params, result.val_data)[1] for s in result.states
            ]
            print(f"seed {seed} per-agent val_acc: "
                  + " ".join(f"{a:.4f}" for a in per_agent))
    summary = {
        "algorithm": config.algorithm,
        "topology": config.topology,
        "agents": config.agents,
        "seeds": seeds,
        "completed": completed,
        "failed": failed,
        "final_acc_mean": float(np.mean(final_accs)) if final_accs else None,
        "final_acc_std": float(np.std(final_accs)) if final_accs else None,
        "total_bytes_per_agent": float(np.mean(bytes_per_agent)) if bytes_per_agent else None,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def compress_self_check(dim: int = 100_000, calls: int = 1000, seed: int = 0) -> list[str]:
    """Exercise the compressor invariants; returns human-readable report lines."""
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    small_d = 64
    for _ in range(calls):
        g = rng.standard_normal(small_d) * 10.0 ** rng.integers(-3, 4)
        e = rng.standard_normal(small_d)
        ct, e_next = ef_step(g, e)
        lhs = decompress(ct) + e_next
        rel = float(np.abs(lhs - (g + e)).max() / max(np.abs(g + e).max(), 1e-300))
        worst_rel = max(worst_rel, rel)
    identity_ok = worst_rel <= 1e-12

    vec = rng.standard_normal(dim)
    ct = compress(vec)
    blob = encode(ct)
    size_ok = len(blob) == wire_size_bytes(dim) == (dim + 7) // 8 + 12
    back = decode(blob)
    roundtrip_ok = bool(
        (back.signs == ct.signs).all() and back.scale == float(np.float32(ct.scale))
    )
    ratio = 4.0 * dim / wire_size_bytes(dim)
    lines = [
        f"error-feedback identity over {calls} calls: worst rel dev {worst_rel:.3e} "
        f"-> {'PASS' if identity_ok else 'FAIL'}",
        f"wire size at d={dim}: {len(blob)} bytes -> {'PASS' if size_ok else 'FAIL'}",
        f"wire round-trip -> {'PASS' if roundtrip_ok else 'FAIL'}",
        f"raw/compressed ratio at d={dim}: {ratio:.2f}x -> "
        f"{'PASS' if ratio >= 31.5 else 'FAIL'}",
    ]
    if not (identity_ok and size_ok and roundtrip_ok and ratio >= 31.5):
        raise RunAbortError(0, "compressor self-check failed:\n" + "\n".join(lines))
    return lines


def exit_code(action, *args) -> int:
    """Return action(*args); RunAbortError gives 3, any other DecentsimError 2.

    The one error-to-exit-code map, for the CLI and both experiment scripts.
    """
    try:
        return action(*args)
    except RunAbortError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    except DecentsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return exit_code(_main, sys.argv[1:] if argv is None else argv)


def _main(argv) -> int:
    config, seeds, args = parse_config(argv)
    if args.compress_check:
        for line in compress_self_check():
            print(line)
        return 0
    summary = run_sweep(config, seeds, args.out_dir, verbose=args.verbose)
    print(f"wrote {os.path.join(args.out_dir, 'summary.json')}")
    if summary["final_acc_mean"] is not None:
        print(f"final_acc_mean={summary['final_acc_mean']:.4f} "
              f"final_acc_std={summary['final_acc_std']:.4f}")
    if summary["failed"]:
        print(f"failed seeds: {[f['seed'] for f in summary['failed']]}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
