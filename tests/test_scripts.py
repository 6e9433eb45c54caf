"""Experiment scripts: bad arguments end in exit code 2 before any run starts,
and a small run prints each variant's consensus accuracy as the run recorded it."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decentsim import (
    consensus_model,
    evaluate,
    iid_benchmark_config,
    run,
    skew_benchmark_config,
)

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("script, args, message", [
    ("run_skew_benchmark.py", ["--seeds", "x"], "comma-separated integers"),
    ("run_skew_benchmark.py", ["--seeds", "-1"], "seeds must be nonnegative"),
    ("run_skew_benchmark.py", ["--epochs", "0"], "epochs must be positive"),
    ("run_iid_sanity.py", ["--seeds", "1,,2"], "comma-separated integers"),
    ("run_iid_sanity.py", ["--seeds", "2,-1"], "seeds must be nonnegative"),
    ("run_skew_benchmark.py", ["--seeds", "1,1"], "seeds must not repeat"),
    ("run_iid_sanity.py", ["--seeds", "2,3,2"], "seeds must not repeat"),
])
def test_script_rejects_bad_arguments_with_exit_two(script, args, message):
    proc = run_script(script, *args)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # nothing ran


# The scripts' variants, restated here as the oracle.
SKEW_VARIANTS = {
    "ngc": dict(algorithm="ngc", alpha=1.0),
    "ngc-a0": dict(algorithm="ngc", alpha=0.0),
    "compngc": dict(algorithm="compngc", alpha=1.0),
    "dpsgd": dict(algorithm="dpsgd"),
}
IID_VARIANTS = {k: v for k, v in SKEW_VARIANTS.items() if k != "ngc-a0"}
ROW = re.compile(r"^seed +(\d+) +(\S+) +consensus_acc=(\d\.\d{4}) ", re.MULTILINE)


@pytest.mark.parametrize("script, args, make_config, variants", [
    ("run_skew_benchmark.py", ["--seeds", "1", "--epochs", "2"],
     lambda seed, **kw: skew_benchmark_config(seed, epochs=2, **kw), SKEW_VARIANTS),
    ("run_iid_sanity.py", ["--seeds", "1"], iid_benchmark_config, IID_VARIANTS),
], ids=["skew", "iid"])
def test_script_prints_each_variants_recorded_accuracy(script, args, make_config, variants):
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    printed = ROW.findall(proc.stdout)
    assert [name for _, name, _ in printed] == list(variants)
    for seed, name, acc in printed:
        result = run(make_config(int(seed), **variants[name]))
        center = consensus_model(np.stack([s.params for s in result.states]))
        _, recomputed = evaluate(result.spec, center, result.val_data)
        assert acc == f"{result.final_row.val_acc:.4f}" == f"{recomputed:.4f}", name
