"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py     (about a minute)
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from checks import check_sads, compare_rows, read_camera, read_frames, sample_rows  # noqa: E402
from workloads import Paths, Workload, chain, run_cli, setup  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COMPUTED_COUNTS = (
    "mocomp.searches",
    "mocomp.taps_computed",
    "mocomp.bytes_gathered_computed",
    "motion_model.pixels_mapped",
    "motion_model.map_batch_calls",
    "camera_est.eight_point_rows",
    "cam_code.records",
    "cam_code.payload_bits",
    "video_io.bytes_read",
)


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced() -> list[dict]:
    """Two traced runs of the workload that exercises every layer."""
    return [_result(_bench("dolly_estq", 1)) for _ in range(2)]


def test_end_to_end_names_match_spec(spec):
    result = _result(_bench("camcode_trajectory", 0))
    assert result["correct"] and result["failed"] == 0
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_names_match_spec(spec, traced):
    others = [_result(_bench(w, 1)) for w in ("dolly_fixedq", "camcode_trajectory")]
    for result in traced + others:
        assert result["correct"]
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_names_use_allowed_characters(spec, traced):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + list(traced[0]["metrics"]))


def test_computed_counts_repeat_exactly(traced):
    first, second = ({n: r["metrics"][n]["value"] for n in COMPUTED_COUNTS} for r in traced)
    assert first == second
    assert all(v > 0 for v in first.values())


def test_self_times_cover_the_traced_chain(traced):
    for result in traced:
        m = {n: v["value"] for n, v in result["metrics"].items()}
        assert 0.0 <= m["trace.unattributed_s"] < 0.01 * m["trace.chain_s"]


def test_sad_check_counts_a_planted_wrong_value(tmp_path):
    one_pair = Workload("one_pair", ("compare",), frames=2)
    paths = Paths(tmp_path)
    assert setup(one_pair, 3, paths) == 0
    assert run_cli(chain(one_pair, paths)[0][1])[0] == 0
    rows, _ = compare_rows(paths.compare)
    frames, camera = read_frames(paths.yuv), read_camera(paths.truth)
    assert check_sads(sample_rows(rows, 3), frames, camera) == []

    for model in ("translational", "orig", "gcg"):
        row = list(next(r for r in rows if r[5] == model))
        row[8] = f"{float(row[8]) + 1e-6:.6f}"
        assert len(check_sads([row], frames, camera)) == 1, model


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("camcode_trajectory", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
