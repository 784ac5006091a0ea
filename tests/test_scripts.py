"""Smoke runs of the example scripts against the package in src/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geo360 import motion_model

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


def test_complexity_table_exits_1_on_a_tally_mismatch(monkeypatch, capsys):
    path = ROOT / "scripts" / "complexity_table.py"
    spec = importlib.util.spec_from_file_location("complexity_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--sizes", "4"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    monkeypatch.setattr(
        motion_model, "count_block_ops", lambda *args: motion_model.OpCount(0, 0, 0, 0)
    )
    assert script.main(["--sizes", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("MISMATCH") == len(motion_model.MODELS)
    assert "differ from op_count" in captured.err
