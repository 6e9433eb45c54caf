"""Command line front end: config resolution, sweeps, metric CSV files.

RunConfig is the one schema: each config flag takes its field's type, and
RunConfig.validate, which every RunConfig runs when it is built, is the one
value check, so a bad value fails alike from a flag or a config file, as
validate's ConfigurationError. A UsageError only means that the command line,
a config file, the seed list or the out-dir could not be read. Flags override
config files, which override defaults. Config files are UTF-8 `key=value`
lines keyed by RunConfig fields; a `#` at a line start or after whitespace
starts a comment. Each seed's config.txt echoes every field that is not None
and must read back as the same config, so validate rejects a dataset with a
line break, edge whitespace, whitespace before `#` or non-UTF-8 text. Exit
codes: 0 success, 2 usage or configuration problem, 3 runtime abort
(`exit_code` is the map). A sweep checks its seeds and paths, then runs every
seed before it writes: exit 2 writes nothing.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from .benchmarks import distinct_seeds, seed_list
from .compression import compress, decode, decompress, ef_step, encode, wire_size_bytes
from .errors import DecentsimError, ParseError, RunAbortError, UsageError
from .metrics import MetricsRow
from .models import evaluate, numbered_lines
from .simulator import CHOICES, COMMENT, FIELD_TYPES, RunConfig, run

SCHEMA_LINE = "# decentsim metrics schema v1"
_ROW_HINTS = typing.get_type_hints(MetricsRow)
_COLUMNS = [(f.name, _ROW_HINTS[f.name]) for f in dataclasses.fields(MetricsRow)]
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def read_config_file(path: str) -> dict:
    """Parse key=value lines into RunConfig field overrides; a key may appear once."""
    overrides, seen = {}, {}
    for lineno, line in numbered_lines(path, "config file", UsageError, UsageError):
        stripped = COMMENT.split(line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path} line {lineno}: expected key=value")
        key, _, raw = map(str.strip, stripped.partition("="))
        if key not in FIELD_TYPES:
            raise UsageError(f"{path} line {lineno}: unknown key {key!r}")
        if seen.setdefault(key, lineno) != lineno:
            raise UsageError(f"{path} line {lineno}: key {key!r} repeats line {seen[key]}")
        try:
            overrides[key] = FIELD_TYPES[key](raw)
        except ValueError as exc:
            raise UsageError(f"{path} line {lineno}: {exc}") from None
    return overrides


def write_config_file(config: RunConfig, path: str):
    """Echo config as read_config_file reads it: one line per field that is not None."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(RunConfig):
            if getattr(config, f.name) is not None:
                fh.write(f"{f.name}={getattr(config, f.name)}\n")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise UsageError, so main returns 2 instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="decentsim",
        description="Decentralized training simulator (dpsgd, ngc, compngc).",
    )
    p.add_argument("--config", help="key=value config file")
    for name in ("algorithm", "agents", "topology", "partition", "alpha", "beta", "eta",
                 "gamma", "epochs", "batch_size", "dataset"):  # typed as in RunConfig
        choices = CHOICES.get(name)
        p.add_argument("--" + name.replace("_", "-"), type=FIELD_TYPES[name],
                       metavar=choices and "{" + ",".join(choices) + "}",
                       help="'synthetic' or a CSV path" if name == "dataset" else None)
    p.add_argument("--seeds", "--seed", help="comma-separated seed list")
    p.add_argument("--out-dir", default="runs")
    p.add_argument("--compress-check", action="store_true",
                   help="run the compressor self-test and exit")
    p.add_argument("--verbose", action="store_true")
    return p


def parse_config(argv) -> tuple[RunConfig, list[int], argparse.Namespace]:
    """Resolve flags over config file over defaults; returns config and seeds."""
    args = _build_parser().parse_args(argv)
    overrides = read_config_file(args.config) if args.config else {}
    overrides.update({key: val for key, val in vars(args).items()
                      if key in FIELD_TYPES and val is not None})

    seeds = [overrides.get("seed", RunConfig.seed)]
    if args.seeds is not None:
        try:
            seeds = seed_list(args.seeds)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"--seeds: {exc}") from None

    return RunConfig(**overrides), seeds, args


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
    """Inverse of emit_metrics_csv (up to float formatting); ParseError on a bad file."""
    rows = []
    header_seen = False
    for lineno, line in numbered_lines(path, "metrics file", ParseError, ParseError):
        if line.startswith("#"):
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


def _check_out_dir(out_dir: str, seeds: list[int]):
    """Raise UsageError unless every directory and file run_sweep writes can be written."""
    if not out_dir:
        raise UsageError("out-dir is empty; name a directory")
    dirs = [out_dir, *(os.path.join(out_dir, f"seed_{seed}") for seed in seeds)]
    files = [os.path.join(d, name) for d in dirs[1:] for name in ("config.txt", "metrics.csv")]
    for path in [*dirs, *files, os.path.join(out_dir, "summary.json")]:
        near = path
        while not os.path.lexists(near):
            near = os.path.dirname(near) or "."
        is_dir = near != path or path in dirs  # a missing path needs a directory to go in
        if os.path.isdir(near) != is_dir:
            raise UsageError(f"cannot write {path}: {near} is {'not ' * is_dir}a directory")
        if not os.access(near, os.W_OK):
            raise UsageError(f"cannot write {path}: {near} is not writable")


def run_sweep(config: RunConfig, seeds: list[int], out_dir: str,
              verbose: bool = False) -> dict:
    """Run one config across seeds, then write per-seed CSVs plus a summary JSON.

    The seed list (at least one seed, none repeated), every seed's config
    (checked as it is built) and every path to write are checked before
    the first run, and every seed runs before the first write, so any error
    but an abort leaves out_dir as it was, as does an interrupted sweep.
    """
    configs = [dataclasses.replace(config, seed=seed) for seed in distinct_seeds(seeds)]
    _check_out_dir(out_dir, seeds)
    completed, failed, final_accs, bytes_per_agent, rows = [], [], [], [], {}
    for cfg in configs:
        try:
            result = run(cfg)
        except RunAbortError as exc:
            failed.append({"seed": cfg.seed, "error": str(exc)})
            continue
        rows[cfg.seed] = result.rows
        completed.append(cfg.seed)
        final_accs.append(result.final_row.val_acc)
        bytes_per_agent.append(result.ledger.total_bytes / cfg.agents)
        if verbose:
            for row in result.rows:
                print(f"seed {cfg.seed} epoch {row.epoch}: val_acc {row.val_acc:.4f} "
                      f"val_loss {row.val_loss:.6f} consensus_err {row.consensus_error:.3e}")
            per_agent = [
                evaluate(result.spec, s.params, result.val_data)[1] for s in result.states
            ]
            print(f"seed {cfg.seed} per-agent val_acc: "
                  + " ".join(f"{a:.4f}" for a in per_agent))
    for cfg in configs:
        seed_dir = os.path.join(out_dir, f"seed_{cfg.seed}")
        os.makedirs(seed_dir, exist_ok=True)
        write_config_file(cfg, os.path.join(seed_dir, "config.txt"))
        if cfg.seed in rows:
            emit_metrics_csv(rows[cfg.seed], os.path.join(seed_dir, "metrics.csv"))
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
