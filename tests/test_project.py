"""The package's exported names and the project's pytest settings."""

import subprocess
import sys
from pathlib import Path

import geo360

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in geo360.__all__ if not hasattr(geo360, name)]
    assert missing == []
    assert len(set(geo360.__all__)) == len(geo360.__all__)


def test_a_mistyped_marker_fails(tmp_path):
    # with an unregistered marker let through, `-m "not slow"` would run a
    # test marked `slwo` instead of deselecting it
    test = tmp_path / "test_marked.py"
    test.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "'slwo' not found in `markers`" in proc.stdout
