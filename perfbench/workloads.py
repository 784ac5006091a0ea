"""Workloads: seeded input generation and the CLI chain run on the inputs.

A workload's chain is a subset, in this order, of

    camest  -> est.csv       camera directions from the .flo files
    compare -> cmp.csv       per-block search over every frame pair
    camcode encode -> cam.bin
    camcode decode -> dec.csv

run as a user would. The program sees only the files written here: a
`geo360 synth` dolly clip, its flow fields with seeded noise added and the
ground-truth camera CSV, or a camera trajectory CSV.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from geo360 import cli

VARIANTS = ("orig", "gcg")
MODELS = ("translational",) + VARIANTS
WIDTH, HEIGHT = 256, 128
BLOCK = 16
SEARCH_RANGE = 4
CAMEST_STRIDE = 4
# Camera advance per frame on a unit-radius cylinder world.
DOLLY_STEP = 0.0245
# Gaussian noise (pixels) added to the synth flow, as a flow estimator would
# leave. It makes each frame's camest estimate differ, so compare on
# estimated directions cannot share a block mapping between pairs.
FLOW_NOISE_PX = 0.02
# Trajectory random walk: per-frame step and the rare large jump (radians).
WALK_STEP = 1e-3
JUMP_SIZE = 0.3
JUMP_RATE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    frames: int = 0  # 0: no clip
    finetune: bool = False
    # compare reads "truth" (one q for every pair) or "estimate" (camest's).
    compare_camera: str = "truth"
    # Length of a trajectory written for camcode; 0: camcode codes est.csv.
    trajectory: int = 0

    @property
    def pairs(self) -> int:
        return max(self.frames - 1, 0)

    @property
    def blocks(self) -> int:
        return (WIDTH // BLOCK) * (HEIGHT // BLOCK)

    @property
    def searches(self) -> int:
        """Block searches per compare: pairs x blocks x models."""
        return self.pairs * self.blocks * len(MODELS) if "compare" in self.stages else 0

    @property
    def geodesic_searches(self) -> int:
        return self.searches // len(MODELS) * len(VARIANTS)

    @property
    def candidates(self) -> int:
        return (2 * SEARCH_RANGE + 1) ** 2

    @property
    def taps(self) -> int:
        """Bilinear taps per compare: 4 per pixel per candidate per search."""
        return self.searches * self.candidates * BLOCK * BLOCK * 4

    @property
    def records(self) -> int:
        """Records camcode codes."""
        if "encode" not in self.stages:
            return 0
        return self.trajectory or self.pairs

    def sizes(self) -> dict:
        sizes = {"stages": list(self.stages), "camcode_records": self.records}
        if self.frames:
            sizes.update(
                frame=f"{WIDTH}x{HEIGHT}", frames=self.frames, pairs=self.pairs,
                camest_stride=CAMEST_STRIDE, finetune=self.finetune,
            )
        if self.searches:
            sizes.update(
                block=f"{BLOCK}x{BLOCK}", blocks=self.blocks, search_range=SEARCH_RANGE,
                candidates=self.candidates, models=list(MODELS), searches=self.searches,
                compare_camera=self.compare_camera,
            )
        return sizes


WORKLOADS = {
    w.name: w
    for w in (
        # One q for all pairs: each block mapping is built once and reused,
        # so the mocomp gather, SAD and tie-break are nearly all the cost.
        Workload("dolly_fixedq", ("compare",), frames=6),
        # Per-frame estimated q: every pair pays for block geometry, mapping
        # and sampler set-up; camest runs the eight-point solve and finetune.
        Workload(
            "dolly_estq", ("camest", "compare", "encode", "decode"),
            frames=4, finetune=True, compare_camera="estimate",
        ),
        # A long trajectory: the bit-at-a-time codec and per-record
        # prediction over the whole history are the whole cost.
        Workload("camcode_trajectory", ("encode", "decode"), trajectory=3000),
    )
}


class Paths:
    """The files of one run, all inside its work directory."""

    def __init__(self, root: Path):
        self.yuv = str(root / "seq.yuv")
        self.truth = str(root / "truth.csv")
        self.flow = str(root / "flow_%03d.flo")
        self.trajectory = str(root / "trajectory.csv")
        self.estimate = str(root / "est.csv")
        self.compare = str(root / "cmp.csv")
        self.code = str(root / "cam.bin")
        self.decoded = str(root / "dec.csv")
        self.recoded = str(root / "recoded.bin")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """geo360.cli.main in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _oblique_axis(rng: np.random.Generator) -> np.ndarray:
    """Unit dolly axis 40..140 degrees from +z, any azimuth."""
    theta = math.radians(rng.uniform(40.0, 140.0))
    phi = rng.uniform(-math.pi, math.pi)
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def _add_flow_noise(path: str, rng: np.random.Generator) -> None:
    with open(path, "rb") as fh:
        raw = fh.read()
    _, w, h = struct.unpack("<fii", raw[:12])
    flow = np.frombuffer(raw[12:], dtype="<f4").reshape(h, w, 2).astype(np.float64)
    flow += rng.normal(0.0, FLOW_NOISE_PX, size=flow.shape)
    with open(path, "wb") as fh:
        fh.write(raw[:12])
        fh.write(flow.astype("<f4").tobytes())


def _write_trajectory(path: str, n: int, rng: np.random.Generator) -> None:
    """Smooth random walk in (theta, phi) with rare large jumps."""
    jump = rng.random(n) < JUMP_RATE
    steps = rng.normal(0.0, 1.0, size=(n, 2)) * np.where(jump, JUMP_SIZE, WALK_STEP)[:, None]
    theta, phi = rng.uniform(0.8, math.pi - 0.8), rng.uniform(-math.pi, math.pi)
    lines = ["frame_index,qx,qy,qz"]
    for i in range(n):
        theta = min(max(theta + steps[i, 0], 0.3), math.pi - 0.3)
        phi = (phi + steps[i, 1] + math.pi) % (2.0 * math.pi) - math.pi
        q = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        lines.append(f"{i + 1},{q[0]:.10f},{q[1]:.10f},{q[2]:.10f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def setup(w: Workload, seed: int, paths: Paths) -> int:
    """Write the workload's input files; returns the synth exit code."""
    rng = np.random.default_rng(seed)
    if w.frames:
        q = _oblique_axis(rng)
        rc, _ = run_cli([
            "synth", "--out", paths.yuv, "--camera-out", paths.truth,
            "--flow-out", paths.flow,
            "--width", str(WIDTH), "--height", str(HEIGHT),
            "--frames", str(w.frames), "--step", str(DOLLY_STEP),
            "--depth-model", "cylinder", "--q=" + ",".join(repr(float(c)) for c in q),
            "--seed", str(seed),
        ])
        if rc != 0:
            return rc
        for i in range(w.pairs):
            _add_flow_noise(paths.flow % i, rng)
    if w.trajectory:
        _write_trajectory(paths.trajectory, w.trajectory, rng)
    return 0


def chain(w: Workload, paths: Paths) -> list[tuple[str, list[str]]]:
    """The timed commands, in order, as (stage, argv)."""
    camest = [
        "camest", "--flow", paths.flow, "--count", str(w.pairs),
        "--stride", str(CAMEST_STRIDE), "--out", paths.estimate,
    ] + (["--finetune"] if w.finetune else [])
    compare = [
        "compare", "--input", paths.yuv,
        "--width", str(WIDTH), "--height", str(HEIGHT), "--pixfmt", "yuv400",
        "--camera", paths.truth if w.compare_camera == "truth" else paths.estimate,
        "--block", f"{BLOCK}x{BLOCK}", "--range", str(SEARCH_RANGE),
        "--variants", ",".join(VARIANTS), "--out", paths.compare,
    ]
    coded = paths.trajectory if w.trajectory else paths.estimate
    commands = {
        "camest": camest,
        "compare": compare,
        "encode": ["camcode", "encode", "--camera", coded, "--out", paths.code],
        "decode": ["camcode", "decode", "--input", paths.code, "--out", paths.decoded],
    }
    return [(stage, commands[stage]) for stage in w.stages]


# The file each stage writes; later iterations must reproduce it.
OUTPUT_OF = {"camest": "estimate", "compare": "compare", "encode": "code", "decode": "decoded"}
