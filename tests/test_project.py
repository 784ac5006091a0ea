"""The package's exported names, its own use of its code, the names the
benchmark's tracer reads, and the project's pytest settings."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import geo360

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in geo360.__all__ if not hasattr(geo360, name)]
    assert missing == []
    assert len(set(geo360.__all__)) == len(geo360.__all__)


def test_src_holds_no_test_only_code():
    """Every function, class and method that src/geo360 defines is named,
    as a whole word, somewhere in src/, scripts/ or perfbench/ other than on
    its own def or class line.  Code that only tests run belongs in
    tests/oracles.py.  Dunder names are exempt.  The check goes by name, so
    a method named like another callable, as a `to_bytes` method would be
    by `int.to_bytes`, passes unseen."""
    texts = {
        path: path.read_text()
        for pattern in ("src/geo360/*.py", "scripts/*.py", "perfbench/*.py")
        for path in sorted(ROOT.glob(pattern))
    }
    everywhere = "\n".join(texts.values())
    unused = []
    for path in sorted(ROOT.glob("src/geo360/*.py")):
        lines = texts[path].splitlines()
        for node in ast.walk(ast.parse(texts[path])):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            uses = len(word.findall(everywhere)) - len(word.findall(lines[node.lineno - 1]))
            if not uses:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


# Traced names whose function left the package; the benchmark change of
# ROADMAP item 13 retargets them.
STALE_TRACED = {"cam_code.encode_record", "cam_code.predict_direction"}


def test_traced_names_resolve():
    """Every "layer.name" that perfbench/tracing.py reads spans or counts of
    names a function its Tracer wraps: a public function defined in
    geo360.<layer>.  A renamed function would read 0 in its metrics."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "run"
            and node.func.attr in ("calls", "inclusive", "count", "self_of")
        ):
            args = node.args[:1] if node.func.attr == "count" else node.args
            names.update(a.value for a in args if isinstance(a, ast.Constant))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "COUNTERS" for t in node.targets
        ):
            names.update(key.value for key in node.value.keys)
    assert "motion_model.prepare_block_geometry" in names
    unresolved = set()
    for name in names:
        layer, _, attr = name.partition(".")
        module = importlib.import_module(f"geo360.{layer}")
        fn = getattr(module, attr, None)
        if (
            attr.startswith("_")
            or not inspect.isfunction(fn)
            or fn.__module__ != module.__name__
        ):
            unresolved.add(name)
    assert unresolved == STALE_TRACED


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
