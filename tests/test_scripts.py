"""Experiment scripts: bad arguments end in exit code 2 before any run starts."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
])
def test_script_rejects_bad_arguments_with_exit_two(script, args, message):
    proc = run_script(script, *args)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # nothing ran
