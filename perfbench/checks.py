"""Output checks of one chain iteration; each returns a list of problems.

The checks read the program's output files with the benchmark's own parsers
and recompute what they can through paths independent of the one that wrote
them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from geo360 import mocomp, motion_model

from workloads import BLOCK, HEIGHT, MODELS, WIDTH, Paths, Workload, run_cli

# Largest accepted angle between a camest estimate and the synth truth.
CAMEST_MAX_ERROR_DEG = 2.0
# Compare rows recomputed per model.
SAD_SAMPLES_PER_MODEL = 6
_CLI_VARIANTS = {"orig": ("original", "global"), "gcg": ("gc", "global")}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_camera(path: str) -> dict[int, np.ndarray]:
    """poc -> direction from a camera CSV (extra columns ignored)."""
    with open(path) as fh:
        rows = [ln.strip().split(",") for ln in fh if ln.strip()][1:]
    return {int(r[0]): np.array([float(c) for c in r[1:4]]) for r in rows}


def read_frames(path: str) -> list[mocomp.ErpFrame]:
    planes = np.fromfile(path, dtype=np.uint8).reshape(-1, HEIGHT, WIDTH)
    return [
        mocomp.ErpFrame(width=WIDTH, height=HEIGHT, bit_depth=8, y=p.copy()) for p in planes
    ]


def compare_rows(path: str) -> tuple[list[list[str]], dict[str, str]]:
    """Block rows and {model: aggregate SAD text} of a compare CSV."""
    blocks, aggregate = [], {}
    with open(path) as fh:
        next(fh)
        for ln in fh:
            cells = ln.rstrip("\n").split(",")
            if cells[0] == "block":
                blocks.append(cells)
            elif cells[0] == "aggregate":
                aggregate[cells[5]] = cells[8]
    return blocks, aggregate


def sample_rows(blocks: list[list[str]], seed: int) -> list[list[str]]:
    """A seeded sample of block rows, SAD_SAMPLES_PER_MODEL per model."""
    rng = np.random.default_rng(seed)
    picked = []
    for model in MODELS:
        rows = [r for r in blocks if r[5] == model]
        take = min(SAD_SAMPLES_PER_MODEL, len(rows))
        picked += [rows[i] for i in rng.choice(len(rows), size=take, replace=False)]
    return picked


def _translational_sad(ref, cur, x0, y0, tu, tv) -> float:
    """Integer shift, x wrapping and y clamped, summed exactly."""
    xs = (np.arange(x0, x0 + BLOCK) + int(tu)) % WIDTH
    ys = np.clip(np.arange(y0, y0 + BLOCK) + int(tv), 0, HEIGHT - 1)
    pred = ref.y[np.ix_(ys, xs)].astype(np.int64)
    return float(np.abs(pred - cur.y[y0 : y0 + BLOCK, x0 : x0 + BLOCK]).sum())


def check_sads(
    rows: list[list[str]], frames: list[mocomp.ErpFrame], camera: dict[int, np.ndarray]
) -> list[str]:
    """Recompute each row's SAD at its reported best t; text must match."""
    problems = []
    delta = motion_model.default_delta(HEIGHT)
    for row in rows:
        poc, x0, y0 = int(row[1]), int(row[2]), int(row[3])
        model, tu, tv = row[5], float(row[6]), float(row[7])
        ref, cur = frames[poc - 1], frames[poc]
        if model == "translational":
            if tu != int(tu) or tv != int(tv):
                problems.append(f"translational t ({tu}, {tv}) is not integer")
                continue
            sad = _translational_sad(ref, cur, x0, y0, tu, tv)
        else:
            variant, scaling = _CLI_VARIANTS[model]
            cfg = motion_model.GeodesicModelConfig(variant=variant, scaling=scaling, delta=delta)
            block = motion_model.BlockSpec(x0=x0, y0=y0, width=BLOCK, height=BLOCK)
            t = motion_model.MotionVector2D(tu, tv)
            sad = mocomp.predict_block(ref, cur, block, camera[poc], t, cfg).sad
        if f"{sad:.6f}" != row[8]:
            problems.append(
                f"poc {poc} block ({x0},{y0}) {model}: CSV SAD {row[8]} "
                f"!= recomputed {sad:.6f}"
            )
    return problems


def check_compare(w: Workload, paths: Paths, seed: int, reference: dict | None) -> list[str]:
    blocks, aggregate = compare_rows(paths.compare)
    if len(blocks) != w.searches or sorted(aggregate) != sorted(MODELS):
        return [f"{len(blocks)} block rows, aggregates {sorted(aggregate)}"]
    camera_csv = paths.truth if w.compare_camera == "truth" else paths.estimate
    problems = check_sads(
        sample_rows(blocks, seed), read_frames(paths.yuv), read_camera(camera_csv)
    )
    if reference is not None and aggregate != reference.get("aggregate_sad"):
        problems.append(
            f"aggregate SAD {aggregate} != reference {reference.get('aggregate_sad')}"
        )
    return problems


def check_camest(w: Workload, paths: Paths) -> list[str]:
    est, truth = read_camera(paths.estimate), read_camera(paths.truth)
    if sorted(est) != list(range(1, w.pairs + 1)):
        return [f"estimates for frames {sorted(est)}"]
    problems = []
    for poc, q in est.items():
        cos = np.dot(q, truth[poc]) / (np.linalg.norm(q) * np.linalg.norm(truth[poc]))
        err = math.degrees(math.acos(min(1.0, max(-1.0, cos))))
        if not err <= CAMEST_MAX_ERROR_DEG:
            problems.append(f"frame {poc} is {err:.4f} deg off the truth")
    return problems


def check_encode(w: Workload, paths: Paths, reference: dict | None) -> list[str]:
    digest = sha256(paths.code)
    if reference is not None and digest != reference.get("code_sha256"):
        return [f"stream sha256 {digest} != reference"]
    return []


def check_decode(w: Workload, paths: Paths) -> list[str]:
    """The decoded trajectory must re-encode to the identical stream."""
    if len(read_camera(paths.decoded)) != w.records:
        return [f"record count differs from {w.records}"]
    rc, _ = run_cli(["camcode", "encode", "--camera", paths.decoded, "--out", paths.recoded])
    if rc != 0 or sha256(paths.recoded) != sha256(paths.code):
        return ["decoded trajectory does not re-encode to the same bytes"]
    return []


def check_outputs(w: Workload, paths: Paths, seed: int, reference: dict | None) -> dict:
    """Problems per stage, from the files the chain just wrote."""
    checks = {
        "camest": lambda: check_camest(w, paths),
        "compare": lambda: check_compare(w, paths, seed, reference),
        "encode": lambda: check_encode(w, paths, reference),
        "decode": lambda: check_decode(w, paths),
    }
    problems = {}
    for op in w.stages:
        check = checks[op]
        try:
            problems[op] = check()
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            problems[op] = [f"output unreadable ({exc!r})"]
    return problems
