"""Smoke runs of the example scripts against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--width", "64", "--height", "32", "--frames", "3"]
SCRIPT_CASES = [
    pytest.param("camera_pipeline_demo.py", TINY, id="camera_pipeline_demo.py"),
    pytest.param("complexity_table.py", ["--sizes", "4"], id="complexity_table.py"),
    pytest.param("run_block_compare.py", TINY + ["--block", "16x16"], id="run_block_compare.py"),
    # compare strips the names of a spaced list, and the script's labels must match
    pytest.param(
        "run_block_compare.py", TINY + ["--block", "16x16", "--variants", "orig, gcg"],
        id="run_block_compare.py-spaced-variants",
    ),
]


@pytest.mark.parametrize("script, args", SCRIPT_CASES)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
