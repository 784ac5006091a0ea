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
        if (self.cb is None) != (self.cr is None):
            raise DomainError("mocomp: chroma planes must come in pairs")
        planes = {"luma": self.y}
        if self.cb is not None:
            if self.width % 2 or self.height % 2:
                raise DomainError("mocomp: 4:2:0 needs even luma dimensions")
            cshape = (self.height // 2, self.width // 2)
            if self.cb.shape != cshape or self.cr.shape != cshape:
                raise DomainError(f"mocomp: chroma shape is not {cshape}")
            planes.update(cb=self.cb, cr=self.cr)
        peak = self.max_value
        for name, plane in planes.items():
            if not np.issubdtype(plane.dtype, np.integer):
                raise DomainError("mocomp: sample planes must be integer arrays")
            if plane.size and (int(plane.min()) < 0 or int(plane.max()) > peak):
                raise DomainError(
                    f"mocomp: {name} samples outside the {self.bit_depth}-bit "
                    f"range 0..{peak}"
                )

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
class BlockComparison:
    """Best (t, SAD) of each model on one block; center_theta is the plain
    ERP latitude of the block center (not the epipole-frame angle)."""

    block: BlockSpec
    center_theta: float
    outcomes: dict[str, SearchOutcome]


class _Buffers:
    """Named arrays reused from call to call.

    get() returns a view of the named storage in the asked shape; the
    storage is reallocated only when it is too small or of another dtype, so
    a loop over same-sized blocks allocates nothing after its first pass.
    A view stays valid until the next get() of the same name.
    """

    def __init__(self):
        self._store: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        store = self._store.get(name)
        if store is None or store.size < size or store.dtype != dtype:
            store = self._store[name] = np.empty(size, dtype)
        return store[:size].reshape(shape)


def _quads(plane: np.ndarray) -> np.ndarray:
    """The bilinear taps of every pixel of a plane, as (H*W, 4) rows.

    Row y*W + x holds the samples at (y, x), (y, x+1), (y+1, x) and
    (y+1, x+1), with x+1 wrapping to column 0 and y+1 clamped to the last
    row, in the plane's own dtype: 4 bytes per pixel for 8-bit video.
    """
    h, w = plane.shape
    quads = np.empty((h, w, 4), dtype=plane.dtype)
    quads[:, :, 0] = plane
    quads[:, :-1, 1] = plane[:, 1:]
    quads[:, -1, 1] = plane[:, 0]
    quads[:-1, :, 2:] = quads[1:, :, :2]
    quads[-1, :, 2:] = quads[-1, :, :2]
    return quads.reshape(h * w, 4)


class _PlaneSampler:
    """Bilinear taps for a fixed set of source coordinates.

    Each sample keeps one flat index r0*W + c0 into the _quads rows of a
    plane and the four weights of its taps, computed once, so the same
    mapping is applied to many reference planes (one per frame pair) by a
    plain gather.  x wraps, y clamps (pole rows extend as constants), and
    coordinates within SNAP_EPS of an integer snap onto it first.

    x and y only need broadcastable shapes: each axis is snapped, wrapped or
    clamped and split into whole and fractional parts at its own shape, and
    only the index and weights take the broadcast shape.  The sampler owns x
    and y and overwrites them when they are writable float64 arrays, so a
    caller that still needs its coordinates passes a copy.

    The index and the weights live in buffers, so a new sampler built on
    the buffers of an earlier one overwrites it.  When the fractional parts
    are zero everywhere (whole-pixel shifts) there are no weights and a
    sample gathers one value: the other three weights would be +0.0 and
    planes hold integers, so their products are signed zeros, and adding a
    signed zero to a sum that is never -0.0 leaves it unchanged.
    """

    def __init__(self, x, y, width: int, height: int, buffers: _Buffers | None = None):
        if buffers is None:
            buffers = _Buffers()
        x, x0 = _snapped(x)
        y, y0 = _snapped(y)
        self.shape = np.broadcast_shapes(x.shape, y.shape)
        # np.mod is the identity on [0, width), so only the rest goes through it.
        # It returns width only for x within half an ulp below a multiple of
        # width, which snapping already moved onto it: every floor is a column.
        if not (0.0 <= x.min() and x.max() < width):
            outside = (x < 0.0) | (x >= width)
            x[outside] = np.mod(x[outside], width)
        np.clip(y, 0.0, float(height - 1), out=y)
        np.floor(x, out=x0)
        np.floor(y, out=y0)
        fx, fy = np.subtract(x, x0, out=x), np.subtract(y, y0, out=y)

        # r0*W + c0 is exact in float64: whole numbers far below 2**53.
        self.index = buffers.get("index", self.shape, np.intp)
        np.add(np.multiply(y0, width, out=y0), x0, out=self.index, casting="unsafe")
        if not (fx.any() or fy.any()):
            self.weights = None
            self.index *= 4  # the (y0, x0) tap in the raveled quads
            return
        wx, wy = np.subtract(1.0, fx, out=x0), np.subtract(1.0, fy, out=y0)
        # Weights of taps (y0, x0), (y0, x1), (y1, x0), (y1, x1), last axis.
        self.weights = buffers.get("weights", self.shape + (4,))
        for i, (ty, tx) in enumerate(((wy, wx), (wy, fx), (fy, wx), (fy, fx))):
            np.multiply(tx, ty, out=self.weights[..., i])

    def sample(self, quads: np.ndarray, scratch: _Buffers | None = None) -> np.ndarray:
        """Bilinear samples of a plane given as _quads(plane), as float64 in
        the coordinates' shape.  The result lives in scratch when one is
        given, until the next sample through it."""
        if scratch is None:
            scratch = _Buffers()
        out = scratch.get("out", self.shape)
        if self.weights is None:
            taps = scratch.get("taps", self.shape, quads.dtype)
            quads.reshape(-1).take(self.index, out=taps, mode="clip")
            np.copyto(out, taps)
            return out
        taps = scratch.get("taps", self.shape + (4,), quads.dtype)
        quads.take(self.index, axis=0, out=taps, mode="clip")
        # Cast first: a mixed integer-float multiply is slower.
        products = scratch.get("products", self.shape + (4,))
        np.copyto(products, taps)
        products *= self.weights
        np.add(products[..., 0], products[..., 1], out=out)
        out += products[..., 2]
        out += products[..., 3]
        return out


def _snapped(v) -> tuple[np.ndarray, np.ndarray]:
    """v as a writable float64 array (v itself if it is one), values within
    SNAP_EPS of an integer moved onto it, and a spare array of its shape."""
    v = np.require(v, np.float64, "W")
    r, d = np.empty_like(v), np.empty_like(v)  # arrays even when v is 0-d
    np.rint(v, out=r)
    np.abs(np.subtract(v, r, out=d), out=d)
    np.copyto(v, r, where=d < SNAP_EPS)
    return v, r


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
    geom = motion_model.prepare_block_geometry(block, q, cur.width, cur.height)
    return _predict(_frame_quads(ref), cur, block, geom, t, cfg)


def _frame_quads(frame: ErpFrame) -> tuple:
    """_quads of the luma plane and, when the frame has them, of cb and cr."""
    if frame.cb is None:
        return _quads(frame.y), None, None
    return _quads(frame.y), _quads(frame.cb), _quads(frame.cr)


def _predict(
    ref_quads: tuple,
    cur: ErpFrame,
    block: BlockSpec,
    geom: BlockGeometry,
    t: MotionVector2D,
    cfg: GeodesicModelConfig,
) -> PredictionResult:
    """predict_block on a reference prepared by _frame_quads and the block's
    geometry, so callers that predict many blocks prepare it once."""
    y_quads, cb_quads, cr_quads = ref_quads
    src_u, src_v, clamped = motion_model.map_block_geometry_batch(
        geom, np.array([t.t_u]), np.array([t.t_v]), cfg
    )
    src_u, src_v, clamped = src_u[0, 0], src_v[0, 0], clamped[0, 0]

    cb = cr = None
    even = (block.x0 | block.y0 | block.width | block.height) % 2 == 0
    if cb_quads is not None and cur.cb is not None and even:
        # Built first: the luma sampler below overwrites src_u and src_v.
        chroma = _PlaneSampler(
            src_u[0::2, 0::2] / 2.0, src_v[0::2, 0::2] / 2.0,
            cur.width // 2, cur.height // 2,
        )
        cb = chroma.sample(cb_quads)
        cr = chroma.sample(cr_quads)

    luma = _PlaneSampler(src_u, src_v, cur.width, cur.height)
    pred = luma.sample(y_quads)
    cur_block = _block_view(cur, block).astype(np.float64)
    sad = float(np.abs(pred - cur_block).sum())

    return PredictionResult(
        block=pred, sad=sad, degenerate=int(clamped.sum()), cb=cb, cr=cr
    )


def _predict_blocks(ref: ErpFrame, cur: ErpFrame, blocks, q, t, cfg):
    """predict_block for each block in turn, with ref prepared once."""
    _check_pair(ref, cur)
    ref_quads = _frame_quads(ref)
    for block in blocks:
        geom = motion_model.prepare_block_geometry(block, q, cur.width, cur.height)
        yield _predict(ref_quads, cur, block, geom, t, cfg)


class _SearchKernel:
    """The block search of compare_sequence.

    One symmetric (t_u, t_v) candidate grid, flattened t_u-major.  A
    sampler maps the whole grid of one model for one block to reference
    coordinates; search() gathers a reference plane through it, scores
    every candidate by SAD against the current block and applies the
    tie-break.

    The kernel owns the samplers' arrays: the shifts sampler, the geodesic
    sampler and the gather of search() each reuse one set of buffers, so a
    new geodesic sampler overwrites the previous one, and over same-sized
    blocks none of these arrays is freed or allocated after the first block.
    """

    def __init__(self, search_range: float, step: float, width: int):
        if not (0 < search_range < math.inf and 0 < step < math.inf):
            raise DomainError("mocomp: range and step must be positive and finite")
        # A cap on the grid's size, and so on the search's memory: no more
        # candidates per axis than the frame has columns.  min() keeps a
        # ratio that overflowed to inf out of round().
        n = round(min(search_range / step, width))
        if 2 * n + 1 > width:
            raise DomainError(
                f"mocomp: range {search_range} at step {step} has more candidates "
                f"per axis than the frame's {width} columns"
            )
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
        self._shift_buffers = _Buffers()
        self._geodesic_buffers = _Buffers()
        self._scratch = _Buffers()

    def translational(self, block: BlockSpec, width: int, height: int) -> _PlaneSampler:
        """Shifts of the block by t in ERP pixels: x as (n, 1, 1, w) and y
        as (1, n, h, 1), broadcast to the (t_u, t_v, h, w) candidate grid."""
        u = np.arange(block.x0, block.x0 + block.width, dtype=np.float64)
        v = np.arange(block.y0, block.y0 + block.height, dtype=np.float64)
        return _PlaneSampler(
            self.offsets[:, None, None, None] + u,
            self.offsets[None, :, None, None] + v[:, None],
            width, height, self._shift_buffers,
        )

    def geodesic(self, geom: BlockGeometry, cfg: GeodesicModelConfig) -> _PlaneSampler:
        """Every candidate of a geodesic model for the block of geom."""
        src_u, src_v, _ = motion_model.map_block_geometry_batch(
            geom, self.offsets, self.offsets, cfg
        )
        return _PlaneSampler(
            src_u, src_v, geom.frame_width, geom.frame_height, self._geodesic_buffers
        )

    def search(
        self, sampler: _PlaneSampler, ref_quads: np.ndarray, cur_block: np.ndarray
    ) -> SearchOutcome:
        diff = sampler.sample(ref_quads, self._scratch)
        diff -= cur_block
        sad = np.abs(diff, out=diff).sum(axis=(-2, -1)).ravel()
        best = self.tie_order[np.argmin(sad[self.tie_order])]
        return SearchOutcome(
            t=MotionVector2D(float(self.tu[best]), float(self.tv[best])),
            sad=float(sad[best]),
        )


def compare_sequence(
    frames: list[ErpFrame],
    blocks: list[BlockSpec],
    q_per_pair: list[np.ndarray],
    model_configs: Mapping[str, GeodesicModelConfig],
    search_range: float,
    step: float = 1.0,
) -> list[list[BlockComparison]]:
    """Best motion of every model, plus the translational baseline, for
    every block of every consecutive pair of a sequence.

    q_per_pair[m] is the camera direction for the pair (m, m+1); result[m]
    holds that pair's block rows.  A block's candidate mapping depends only
    on (q, model), so it is computed once per distinct q and reused across
    pairs, which is what makes long sequences affordable.

    Every search scans the symmetric (t_u, t_v) grid of step `step` out to
    `search_range`, which includes (0, 0).  Halving the step only adds
    candidates, so a finer grid never gives a larger SAD, as long as it
    still has no more candidates per axis than the frame has columns; past
    that it raises DomainError.
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
    kernel = _SearchKernel(search_range, step, width)

    ref_quads = [_quads(f.y) for f in frames[:-1]]
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
            {"translational": kernel.search(shifts, ref_quads[m], cur_blocks[m])}
            for m in range(n_pairs)
        ]
        for members in groups.values():
            q = np.asarray(q_per_pair[members[0]], dtype=np.float64)
            geom = motion_model.prepare_block_geometry(block, q, width, height)
            for label, cfg in model_configs.items():
                sampler = kernel.geodesic(geom, cfg)
                for m in members:
                    outcomes[m][label] = kernel.search(sampler, ref_quads[m], cur_blocks[m])
        for m in range(n_pairs):
            results[m].append(
                BlockComparison(
                    block=block, center_theta=center_theta, outcomes=outcomes[m]
                )
            )
    return results


def strict_winner(comparison: BlockComparison) -> str | None:
    """Model whose SAD is strictly below every other; None on any tie."""
    items = sorted(comparison.outcomes.items(), key=lambda kv: kv[1].sad)
    if len(items) > 1 and items[0][1].sad == items[1][1].sad:
        return None
    return items[0][0]


def tile_blocks(width: int, height: int, bw: int, bh: int) -> list[BlockSpec]:
    """Cover a frame with aligned bw x bh blocks; dimensions must divide."""
    if bw < 1 or bh < 1:
        raise DomainError(f"mocomp: block size {bw}x{bh} is not at least 1x1")
    if width % bw or height % bh:
        raise DomainError(
            f"mocomp: {bw}x{bh} blocks do not tile a {width}x{height} frame"
        )
    return [
        BlockSpec(x0=x, y0=y, width=bw, height=bh)
        for y in range(0, height, bh)
        for x in range(0, width, bw)
    ]
