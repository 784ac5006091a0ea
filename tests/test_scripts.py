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


def _run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("script, args", SCRIPT_CASES)
def test_script_runs(script, args):
    proc = _run_script(script, args)
    assert proc.returncode == 0, proc.stderr


def _aggregates(stdout):
    """{model: aggregate SAD} from run_block_compare.py's table."""
    table = stdout.split("aggregate SAD (lower is better)\n", 1)[1].split("\n\n", 1)[0]
    return {
        label.strip(): float(value.split()[0])
        for label, value in (ln.split(":") for ln in table.splitlines())
    }


def test_block_compare_grid_step():
    # a half-pixel grid only adds candidates, so no model's aggregate rises,
    # and on a dolly some fall
    args = TINY + ["--block", "16x16", "--range", "2"]
    runs = [_run_script("run_block_compare.py", args + ["--grid-step", s]) for s in ("1", "0.5")]
    assert all(proc.returncode == 0 for proc in runs), [proc.stderr for proc in runs]
    whole, half = (_aggregates(proc.stdout) for proc in runs)
    assert list(whole) == list(half) == ["translational", "orig", "gcg"]
    assert all(half[m] <= whole[m] for m in whole)
    assert any(half[m] < whole[m] for m in whole)
