"""Smoke runs of the example scripts against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--width", "64", "--height", "32", "--frames", "3"]
SCRIPT_ARGS = {
    "camera_pipeline_demo.py": TINY,
    "run_block_compare.py": TINY + ["--block", "16x16"],
    "complexity_table.py": ["--sizes", "4"],
}


@pytest.mark.parametrize("script", sorted(SCRIPT_ARGS))
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPT_ARGS[script]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
