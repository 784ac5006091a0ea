"""Block motion compensation on equirectangular frames.

Blocks of the current frame are predicted by sampling the reference frame at
the continuous source coordinates produced by a geodesic motion model (or by
a plain translational shift, kept as the baseline).  Sampling is bilinear
with horizontal wrap-around and vertical clamping; the matching cost is the
sum of absolute luma differences.

Determinism: searches scan a fixed candidate grid and reduce with plain
row-major numpy sums on one thread, so results do not depend on block order
or machine parallelism.  SAD ties are broken by smaller |t_u| + |t_v|, then
smaller t_u, then smaller t_v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import math

import numpy as np

from . import motion_model
from .errors import DomainError
from .motion_model import (
    BlockGeometry,
    BlockSpec,
    GeodesicModelConfig,
    MotionVector2D,
)

# Source coordinates this close to an integer sample are snapped onto it, so
# identity mappings reproduce the reference bit-exactly.
SNAP_EPS = 1e-6


@dataclass(frozen=True, eq=False)
class ErpFrame:
    """One decoded ERP picture: luma plane plus optional 4:2:0 chroma."""

    width: int
    height: int
    bit_depth: int
    y: np.ndarray
    cb: np.ndarray | None = None
    cr: np.ndarray | None = None

    def __post_init__(self):
        if self.bit_depth not in (8, 10):
            raise DomainError(f"mocomp: bit depth {self.bit_depth} not in (8, 10)")
        if self.y.shape != (self.height, self.width):
            raise DomainError(
                f"mocomp: luma shape {self.y.shape} != "
                f"({self.height}, {self.width})"
            )
        if not np.issubdtype(self.y.dtype, np.integer):
            raise DomainError("mocomp: sample planes must be integer arrays")
        limit = (1 << self.bit_depth) - 1
        if self.y.size and int(self.y.max()) > limit:
            raise DomainError(f"mocomp: luma exceeds {self.bit_depth}-bit range")
        if (self.cb is None) != (self.cr is None):
            raise DomainError("mocomp: chroma planes must come in pairs")
        if self.cb is not None:
            if self.width % 2 or self.height % 2:
                raise DomainError("mocomp: 4:2:0 needs even luma dimensions")
            cshape = (self.height // 2, self.width // 2)
            if self.cb.shape != cshape or self.cr.shape != cshape:
                raise DomainError(f"mocomp: chroma shape is not {cshape}")

    @property
    def max_value(self) -> int:
        return (1 << self.bit_depth) - 1


@dataclass(frozen=True)
class PredictionResult:
    """Predicted samples for one block, cost, and mapping health."""

    block: np.ndarray
    sad: float
    degenerate: int
    cb: np.ndarray | None = None
    cr: np.ndarray | None = None


@dataclass(frozen=True)
class SearchOutcome:
    t: MotionVector2D
    sad: float


@dataclass(frozen=True)
class SearchResult:
    t: MotionVector2D
    prediction: PredictionResult


@dataclass(frozen=True)
class BlockComparison:
    """Best (t, SAD) of each model on one block; center_theta is the plain
    ERP latitude of the block center (not the epipole-frame angle)."""

    block: BlockSpec
    center_theta: float
    outcomes: dict[str, SearchOutcome]


class _PlaneSampler:
    """Bilinear taps for a fixed set of source coordinates.

    Flat indices into the raveled plane and the four weights are computed
    once, so the same mapping is applied to many reference planes (one per
    frame pair) by a plain gather.  x wraps, y clamps (pole rows extend as
    constants), and coordinates within SNAP_EPS of an integer snap onto it
    first.
    """

    def __init__(self, x, y, width: int, height: int):
        x, y = np.broadcast_arrays(x, y)
        self.shape = x.shape
        x, y = _snapped(x), _snapped(y)
        # np.mod is the identity on [0, width), so only the rest goes through it.
        # It returns width only for x within half an ulp below a multiple of
        # width, which snapping already moved onto it: every floor is a column.
        outside = (x < 0.0) | (x >= width)
        x[outside] = np.mod(x[outside], width)
        np.clip(y, 0.0, float(height - 1), out=y)
        x0, y0 = np.floor(x), np.floor(y)
        fx, fy = x - x0, y - y0

        c0 = x0.astype(np.intp)
        c1 = c0 + 1
        c1[c1 == width] = 0
        r0 = y0.astype(np.intp) * width
        r1 = np.minimum(r0 + width, (height - 1) * width)
        # Flat indices and weights of taps (y0, x0), (y0, x1), (y1, x0), (y1, x1).
        self.taps = np.stack([r0 + c0, r0 + c1, r1 + c0, r1 + c1])
        gx, gy = 1.0 - fx, 1.0 - fy
        self.weights = np.stack([gx * gy, fx * gy, gx * fy, fx * fy])

    def sample(self, plane: np.ndarray) -> np.ndarray:
        """Bilinear samples of a float64 plane, in the coordinates' shape."""
        g = plane.ravel().take(self.taps)
        g *= self.weights
        out = np.add(g[0], g[1], out=g[0])
        out += g[2]
        out += g[3]
        return out.reshape(self.shape)


def _snapped(v) -> np.ndarray:
    """A flat float64 copy of v, values within SNAP_EPS of an integer on it."""
    v = np.array(v, dtype=np.float64).reshape(-1)
    r = np.rint(v)
    np.copyto(v, r, where=np.abs(v - r) < SNAP_EPS)
    return v


def sample_bilinear(frame: ErpFrame, x, y):
    """Bilinear luma sample at continuous ERP coordinates (x, y)."""
    sampler = _PlaneSampler(x, y, frame.width, frame.height)
    out = sampler.sample(frame.y.astype(np.float64))
    if out.ndim == 0:
        return float(out)
    return out


def _check_pair(ref: ErpFrame, cur: ErpFrame):
    if (ref.width, ref.height, ref.bit_depth) != (cur.width, cur.height, cur.bit_depth):
        raise DomainError("mocomp: reference and current frame geometry differ")


def _block_view(frame: ErpFrame, block: BlockSpec) -> np.ndarray:
    if block.x0 + block.width > frame.width or block.y0 + block.height > frame.height:
        raise DomainError(f"mocomp: block {block} exceeds frame bounds")
    return frame.y[
        block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width
    ]


def predict_block(
    ref: ErpFrame,
    cur: ErpFrame,
    block: BlockSpec,
    q,
    t: MotionVector2D,
    cfg: GeodesicModelConfig,
) -> PredictionResult:
    """Predict one block of cur from ref under motion (q, t).

    Cost is luma-only.  When both frames carry 4:2:0 chroma and the block is
    even-aligned, chroma is predicted with the same mapping at half
    resolution (coordinates halved on the even-indexed luma grid).
    """
    _check_pair(ref, cur)
    mapping = motion_model.block_mapping(
        block, q, t, cfg, cur.width, cur.height
    )
    luma = _PlaneSampler(mapping.src_u, mapping.src_v, cur.width, cur.height)
    pred = luma.sample(ref.y.astype(np.float64))
    cur_block = _block_view(cur, block).astype(np.float64)
    sad = float(np.abs(pred - cur_block).sum())

    cb = cr = None
    even = (block.x0 | block.y0 | block.width | block.height) % 2 == 0
    if ref.cb is not None and cur.cb is not None and even:
        chroma = _PlaneSampler(
            mapping.src_u[0::2, 0::2] / 2.0, mapping.src_v[0::2, 0::2] / 2.0,
            cur.width // 2, cur.height // 2,
        )
        cb = chroma.sample(ref.cb.astype(np.float64))
        cr = chroma.sample(ref.cr.astype(np.float64))

    return PredictionResult(
        block=pred, sad=sad, degenerate=int(mapping.clamped.sum()), cb=cb, cr=cr
    )


class _SearchKernel:
    """The block search shared by every search entry point.

    One symmetric (t_u, t_v) candidate grid, flattened t_u-major.  A
    sampler maps the whole grid of one model for one block to reference
    coordinates; search() gathers a reference plane through it, scores
    every candidate by SAD against the current block and applies the
    tie-break.
    """

    def __init__(self, search_range: float, step: float):
        if search_range <= 0 or step <= 0:
            raise DomainError("mocomp: search range and step must be positive")
        n = int(round(search_range / step))
        if n < 1 or abs(n * step - search_range) > 1e-9:
            raise DomainError(
                f"mocomp: range {search_range} is not a multiple of step {step}"
            )
        self.offsets = np.arange(-n, n + 1, dtype=np.float64) * step
        tu, tv = np.meshgrid(self.offsets, self.offsets, indexing="ij")
        self.tu, self.tv = tu.ravel(), tv.ravel()
        # Candidates in tie-break order; the first minimal SAD in it wins.
        cost = np.abs(self.tu) + np.abs(self.tv)
        self.tie_order = np.lexsort((self.tv, self.tu, cost))

    def translational(self, block: BlockSpec, width: int, height: int) -> _PlaneSampler:
        """Whole-pixel shifts of the block, t in ERP pixels."""
        v, u = np.mgrid[
            block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width
        ]
        return _PlaneSampler(
            u + self.tu[:, None, None], v + self.tv[:, None, None], width, height
        )

    def geodesic(self, geom: BlockGeometry, cfg: GeodesicModelConfig) -> _PlaneSampler:
        """Every candidate of a geodesic model for the block of geom."""
        src_u, src_v, _ = motion_model.map_block_geometry_batch(
            geom, self.offsets, self.offsets, cfg
        )
        shape = (-1,) + geom.theta.shape
        return _PlaneSampler(
            src_u.reshape(shape), src_v.reshape(shape),
            geom.frame_width, geom.frame_height,
        )

    def search(
        self, sampler: _PlaneSampler, ref_plane: np.ndarray, cur_block: np.ndarray
    ) -> SearchOutcome:
        diff = sampler.sample(ref_plane)
        diff -= cur_block
        sad = np.abs(diff, out=diff).sum(axis=(-2, -1))
        best = self.tie_order[np.argmin(sad[self.tie_order])]
        return SearchOutcome(
            t=MotionVector2D(float(self.tu[best]), float(self.tv[best])),
            sad=float(sad[best]),
        )


def motion_search(
    ref: ErpFrame,
    cur: ErpFrame,
    block: BlockSpec,
    q,
    cfg: GeodesicModelConfig,
    search_range: float,
    step: float = 1.0,
) -> SearchResult:
    """Exhaustive search over the (t_u, t_v) grid for one block.

    The grid is symmetric, includes (0, 0), and halving the step only adds
    candidates, so a finer search never returns a larger SAD.
    """
    _check_pair(ref, cur)
    kernel = _SearchKernel(search_range, step)
    geom = motion_model.prepare_block_geometry(block, q, cur.width, cur.height)
    cur_block = _block_view(cur, block).astype(np.float64)
    outcome = kernel.search(
        kernel.geodesic(geom, cfg), ref.y.astype(np.float64), cur_block
    )
    return SearchResult(
        t=outcome.t, prediction=predict_block(ref, cur, block, q, outcome.t, cfg)
    )


def translational_search(
    ref: ErpFrame,
    cur: ErpFrame,
    block: BlockSpec,
    search_range: float,
    step: float = 1.0,
) -> SearchOutcome:
    """Baseline: shift the block by whole ERP pixels (t in pixel units)."""
    _check_pair(ref, cur)
    kernel = _SearchKernel(search_range, step)
    shifts = kernel.translational(block, cur.width, cur.height)
    cur_block = _block_view(cur, block).astype(np.float64)
    return kernel.search(shifts, ref.y.astype(np.float64), cur_block)


def compare_sequence(
    frames: list[ErpFrame],
    blocks: list[BlockSpec],
    q_per_pair: list[np.ndarray],
    model_configs: Mapping[str, GeodesicModelConfig],
    search_range: float,
    step: float = 1.0,
) -> list[list[BlockComparison]]:
    """compare_models over every consecutive pair of a sequence.

    q_per_pair[m] is the camera direction for the pair (m, m+1); result[m]
    holds that pair's block rows.  A block's candidate mapping depends only
    on (q, model), so it is computed once per distinct q and reused across
    pairs, which is what makes long sequences affordable.
    """
    if len(frames) < 2:
        raise DomainError("mocomp: sequence comparison needs >= 2 frames")
    if len(q_per_pair) != len(frames) - 1:
        raise DomainError(
            f"mocomp: {len(q_per_pair)} directions for {len(frames) - 1} pairs"
        )
    for f in frames[1:]:
        _check_pair(frames[0], f)
    width, height = frames[0].width, frames[0].height
    kernel = _SearchKernel(search_range, step)

    planes = [f.y.astype(np.float64) for f in frames]
    n_pairs = len(frames) - 1
    groups: dict[bytes, list[int]] = {}
    for m, q in enumerate(q_per_pair):
        groups.setdefault(np.asarray(q, dtype=np.float64).tobytes(), []).append(m)

    results: list[list[BlockComparison]] = [[] for _ in range(n_pairs)]
    for block in blocks:
        cur_blocks = [_block_view(frames[m + 1], block).astype(np.float64) for m in range(n_pairs)]
        _, vc = block.center()
        center_theta = math.pi * (vc + 0.5) / height

        shifts = kernel.translational(block, width, height)
        outcomes = [
            {"translational": kernel.search(shifts, planes[m], cur_blocks[m])}
            for m in range(n_pairs)
        ]
        for members in groups.values():
            q = np.asarray(q_per_pair[members[0]], dtype=np.float64)
            geom = motion_model.prepare_block_geometry(block, q, width, height)
            for label, cfg in model_configs.items():
                sampler = kernel.geodesic(geom, cfg)
                for m in members:
                    outcomes[m][label] = kernel.search(sampler, planes[m], cur_blocks[m])
        for m in range(n_pairs):
            results[m].append(
                BlockComparison(
                    block=block, center_theta=center_theta, outcomes=outcomes[m]
                )
            )
    return results


def compare_models(
    ref: ErpFrame,
    cur: ErpFrame,
    blocks: list[BlockSpec],
    q,
    model_configs: Mapping[str, GeodesicModelConfig],
    search_range: float,
    step: float = 1.0,
) -> list[BlockComparison]:
    """Best motion of every model (plus the translational baseline) per block."""
    return compare_sequence(
        [ref, cur], blocks, [np.asarray(q, dtype=np.float64)],
        model_configs, search_range, step,
    )[0]


def strict_winner(comparison: BlockComparison) -> str | None:
    """Model whose SAD is strictly below every other; None on any tie."""
    items = sorted(comparison.outcomes.items(), key=lambda kv: kv[1].sad)
    if len(items) > 1 and items[0][1].sad == items[1][1].sad:
        return None
    return items[0][0]


def tile_blocks(width: int, height: int, bw: int, bh: int) -> list[BlockSpec]:
    """Cover a frame with aligned bw x bh blocks; dimensions must divide."""
    if width % bw or height % bh:
        raise DomainError(
            f"mocomp: {bw}x{bh} blocks do not tile a {width}x{height} frame"
        )
    return [
        BlockSpec(x0=x, y0=y, width=bw, height=bh)
        for y in range(0, height, bh)
        for x in range(0, width, bw)
    ]
