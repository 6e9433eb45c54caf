"""Golden outputs: a fixed grid of runs must write the checked-in bytes.

Each run goes through `cli.run_sweep` into `tmp_path` and its
`summary.json`, `seed_<s>/config.txt` and `seed_<s>/metrics.csv` are
compared byte for byte with `tests/golden/<run>/`. The bits depend on
numpy and its BLAS, so `tests/golden/environment.json` records both; a
different environment fails the test and names the difference instead of
comparing.

A golden file changes only in a change that says why and shows the diff
is the intended one. To rewrite them:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from decentsim import RunConfig, skew_benchmark_config
from decentsim.cli import run_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"

_TINY = dict(agents=4, classes=4, dim=6, per_class=24, val_per_class=8, spread=0.3,
             hidden_dim=5, epochs=3, batch_size=8)
_CHAIN6 = dict(_TINY, agents=6, topology="chain", partition="iid", per_class=30,
               epochs=4, batch_size=5, eta=0.05, schedule="constant")
# wide-compngc's model (d = 100,965) for two rounds.
_WIDE = dict(agents=5, topology="ring", partition="iid", classes=10, dim=320, per_class=32,
             val_per_class=20, spread=0.03, hidden_dim=305, epochs=1, batch_size=32,
             eta=0.1, schedule="constant")


def _skew(**kw) -> RunConfig:
    return skew_benchmark_config(1, epochs=3, **kw)


# run name -> (config, seeds)
GRID = {
    "skew-ngc": (_skew(algorithm="ngc", alpha=1.0), [1, 2]),
    "skew-ngc-a0": (_skew(algorithm="ngc", alpha=0.0), [1]),
    "skew-ngc-a05": (_skew(algorithm="ngc", alpha=0.5), [1]),
    "skew-compngc": (_skew(algorithm="compngc", alpha=1.0), [1]),
    "skew-dpsgd": (_skew(algorithm="dpsgd"), [1]),
    "skew-ngc-logistic": (_skew(algorithm="ngc", model="logistic"), [1]),
    "chain6-compngc-relu": (RunConfig(algorithm="compngc", activation="relu", **_CHAIN6), [1]),
    "chain6-ngc-a05": (RunConfig(algorithm="ngc", alpha=0.5, **_CHAIN6), [1]),
    "chain6-dpsgd": (RunConfig(algorithm="dpsgd", **_CHAIN6), [1]),
    "torus8-ngc": (RunConfig(algorithm="ngc", topology="torus", partition="iid",
                             **dict(_TINY, agents=8)), [1]),
    "full4-ngc": (RunConfig(algorithm="ngc", alpha=0.5, topology="full", **_TINY), [1]),
    "wide-compngc": (RunConfig(algorithm="compngc", **_WIDE), [1]),
    "abort-dpsgd": (RunConfig(algorithm="dpsgd", eta=1e308, schedule="constant", **_TINY),
                    [1]),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def sweep_files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def first_difference(want: bytes, got: bytes) -> str:
    for k, (a, b) in enumerate(zip(want.splitlines(), got.splitlines())):
        if a != b:
            return f"line {k + 1}: golden {a!r}, got {b!r}"
    return f"golden has {len(want)} bytes, got {len(got)}"


def write_run(name: str, out_dir: Path):
    config, seeds = GRID[name]
    with np.errstate(over="ignore", invalid="ignore"):  # the aborting run overflows
        run_sweep(config, seeds, str(out_dir))


@pytest.mark.parametrize("name", sorted(GRID))
def test_run_writes_the_golden_bytes(name, tmp_path):
    recorded = json.loads((GOLDEN / "environment.json").read_text())
    here = environment()
    differ = {k: (recorded.get(k), here.get(k)) for k in recorded.keys() | here.keys()
              if recorded.get(k) != here.get(k)}
    assert not differ, f"golden files were made under another environment: {differ}"
    write_run(name, tmp_path)
    want, got = sweep_files(GOLDEN / name), sweep_files(tmp_path)
    assert sorted(got) == sorted(want), f"{name}: files {sorted(got)} != {sorted(want)}"
    for path in want:
        assert got[path] == want[path], (
            f"{name}/{path}: {first_difference(want[path], got[path])}")


def test_grid_covers_every_algorithm_and_topology():
    configs = [config for config, _ in GRID.values()]
    assert {c.algorithm for c in configs} == {"dpsgd", "ngc", "compngc"}
    assert {c.topology for c in configs} == {"ring", "chain", "torus", "full"}


if __name__ == "__main__":
    import shutil

    GOLDEN.mkdir(exist_ok=True)
    for run_name in sorted(GRID):
        shutil.rmtree(GOLDEN / run_name, ignore_errors=True)
        write_run(run_name, GOLDEN / run_name)
    (GOLDEN / "environment.json").write_text(json.dumps(environment(), indent=2) + "\n")
    sys.exit(0)
