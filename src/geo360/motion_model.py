"""Geodesic motion models for translational camera motion on the sphere.

A camera translating along a unit direction q slides every scene point along
the great circle ("geodesic") through q and the point.  In the epipole frame
(q rotated onto +z) that motion only changes the polar angle theta, so a
block-level motion vector t = (t_u, t_v) is interpreted as

    t_u : displacement along the geodesic (scaled by the config's delta),
    t_v : azimuth shift, phi' = phi + delta * t_v.

Two polar-angle laws are implemented:

  * "original": a constant-depth model.  The block center moving by
    delta*t_u fixes the depth-to-shift ratio k, and every pixel moves by
    delta_theta = atan2(sin(theta), k - cos(theta)), carrying the sign of
    the motion.  Forward-then-reverse application does not return to the
    start except at the block center.
  * "gc" (geometry corrected): pixels move on a cylinder of radius r around
    the motion axis, p = r*cot(theta), p' = p - tan(delta)*t_u, giving
    theta' = arccot(cot(theta) - tan(delta)*t_u / r).  The same t_u with
    opposite sign undoes the mapping exactly, for any pixel.  The radius is
    r = 1 ("global" scaling) or r = sin(theta_c) of the block center
    ("local" scaling).

Everything here is pure geometry on angles; sampling lives in mocomp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import geometry
from .errors import DegenerateGeometryError, DomainError

# Pixels mapped closer to a pole than this are clamped and flagged.
POLE_EPS = 1e-6


def default_delta(height: int) -> float:
    """Default angular step per motion-vector unit: one ERP row."""
    if height < 1:
        raise DomainError(f"motion_model: frame height {height!r} must be >= 1")
    return math.pi / height


@dataclass(frozen=True)
class GeodesicModelConfig:
    """Which polar-angle law to apply and at what angular resolution.

    delta is the angle (radians) that one unit of t_u / t_v spans; with
    delta = pi/height a unit equals one ERP row, which keeps geodesic and
    translational search grids comparable.
    """

    variant: Literal["original", "gc"]
    scaling: Literal["global", "local"]
    delta: float

    def __post_init__(self):
        _check_model(self.variant, self.scaling)
        if not (0.0 < self.delta < math.pi / 2):
            raise DomainError(
                f"motion_model: delta {self.delta!r} outside (0, pi/2)"
            )


# The one table of the models: CLI name -> GeodesicModelConfig's (variant,
# scaling).  The constant-depth law has no radius, so it is global only.
MODELS = {
    "orig": ("original", "global"),
    "gcg": ("gc", "global"),
    "gcl": ("gc", "local"),
}


def _check_model(variant: str, scaling: str):
    """Refuse a (variant, scaling) that names none of the MODELS."""
    if (variant, scaling) not in MODELS.values():
        raise DomainError(f"motion_model: ({variant!r}, {scaling!r}) is none of the MODELS")


@dataclass(frozen=True)
class MotionVector2D:
    """Block motion vector in abstract units; fractional values allowed."""

    t_u: float
    t_v: float

    def __post_init__(self):
        if not (math.isfinite(self.t_u) and math.isfinite(self.t_v)):
            raise DomainError("motion_model: motion vector must be finite")


@dataclass(frozen=True)
class BlockSpec:
    """Axis-aligned pixel block: top-left corner (x0, y0), width x height."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DomainError("motion_model: block must be at least 1x1")
        if self.x0 < 0 or self.y0 < 0:
            raise DomainError("motion_model: block corner must be non-negative")

    def center(self) -> tuple[float, float]:
        return (self.x0 + (self.width - 1) / 2.0, self.y0 + (self.height - 1) / 2.0)


# ---------------------------------------------------------------------------
# Per-block pixel mapping


class Workspace:
    """Named arrays reused from call to call.

    get() returns a view of the named storage in the asked shape; the
    storage is reallocated only when it is too small or of another dtype, so
    a loop over same-sized blocks allocates nothing after its first pass.
    A view stays valid until the next get() of the same name.

    "slots" is the shared float64 scratch of the block search: the mapping
    and the sampler's build and gather each ask for it as an (n,) + shape
    array, use it, and leave in it only what the next step reads, so the
    steps take turns on five full-size arrays.
    """

    def __init__(self):
        self._store: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        store = self._store.get(name)
        if store is None or store.size < size or store.dtype != dtype:
            store = self._store[name] = np.empty(size, dtype)
        return store[:size].reshape(shape)


@dataclass(frozen=True)
class BlockGeometry:
    """Motion-independent part of a block's mapping, reusable across t.

    theta/phi are the pixel directions rotated into the epipole frame
    (theta already pole-clamped, clamps recorded), theta_c the rotated
    block-center polar angle.  The trig of theta and of each shifted azimuth
    grid is computed on first use and kept, so every model that maps the
    block shares it.
    """

    theta: np.ndarray
    phi: np.ndarray
    clamped_in: np.ndarray
    theta_c: float
    rotation: np.ndarray
    frame_width: int
    frame_height: int
    _trig: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _theta_trig(self) -> tuple[np.ndarray, np.ndarray]:
        """(cos, sin) of theta."""
        trig = self._trig.get("theta")
        if trig is None:
            trig = self._trig["theta"] = (np.cos(self.theta), np.sin(self.theta))
        return trig

    def _azimuth_trig(self, delta: float, t_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cos, sin) of phi + delta * t_v for every t_v: (nv, h, w) each."""
        key = (delta, t_v.tobytes())
        trig = self._trig.get(key)
        if trig is None:
            phi_m = self.phi + delta * t_v[:, None, None]
            trig = self._trig[key] = (np.cos(phi_m), np.sin(phi_m, out=phi_m))
        return trig


def prepare_block_geometry(
    blocks: list[BlockSpec], q, width: int, height: int
) -> list[BlockGeometry]:
    """Rotate the pixel directions of blocks that share y0, width and height
    into the epipole frame of q, with one rotation and one pass over the
    angles of all of them.

    The angles live in (n, h, w) arrays, block-major, so each block's
    geometry is a contiguous view of them and every operation runs on the
    values and shapes of the one-block case: a block has the same bits
    alone or in a row.
    """
    x0s = [block.x0 for block in blocks]
    y0, bw, bh = blocks[0].y0, blocks[0].width, blocks[0].height
    for block in blocks:
        if (block.y0, block.width, block.height) != (y0, bw, bh):
            raise DomainError(f"motion_model: block {block} is not in the row of {blocks[0]}")
        if block.x0 + bw > width or y0 + bh > height:
            raise DomainError(
                f"motion_model: block {block} exceeds {width}x{height} frame"
            )
    rot = geometry.rotation_to_epipole(q)

    # Pixel rows share a polar angle and columns an azimuth: the angles and
    # their trig are computed per row and per block column.
    u = np.add.outer(np.array(x0s, dtype=np.float64), np.arange(bw, dtype=np.float64))
    v = y0 + np.arange(bh, dtype=np.float64)[:, None]
    theta, phi = geometry.erp_grid_to_sphere(u[:, None, :], v, width, height)
    xyz = geometry.sphere_grid_to_cart(theta, phi) @ rot.T
    theta_r, phi_r = geometry.cart_grid_to_sphere(xyz)

    clamped_in = (theta_r < POLE_EPS) | (theta_r > math.pi - POLE_EPS)
    theta_r = np.clip(theta_r, POLE_EPS, math.pi - POLE_EPS)

    geoms = []
    for i, block in enumerate(blocks):
        uc, vc = block.center()
        tc, pc = geometry.erp_grid_to_sphere(np.float64(uc), np.float64(vc), width, height)
        center = geometry.sphere_grid_to_cart(tc, pc) @ rot.T
        geoms.append(BlockGeometry(
            theta=theta_r[i],
            phi=phi_r[i],
            clamped_in=clamped_in[i],
            theta_c=float(np.arccos(np.clip(center[2], -1.0, 1.0))),
            rotation=rot,
            frame_width=width,
            frame_height=height,
        ))
    return geoms


def _model_theta(
    geom: BlockGeometry, t_u: np.ndarray, cfg: GeodesicModelConfig
) -> np.ndarray:
    """Polar law of every t_u over the block's clamped polar angles: (nu, h, w).

    The gc law is arccot(cot(theta) - tan(delta) * t_u / r), through
    atan2(1, .) so every result is a polar angle in (0, pi), with the
    radius r = 1 (global) or sin(theta_c) (local).

    The constant-depth law adds atan2(sin(theta), k - cos(theta)) to theta,
    with k = sin(theta_c + delta*t_u) / sin(delta*t_u) fixed by the block
    center's displacement.  k alone loses the motion direction when the
    center is pushed past a pole, so t_u < 0 takes the reverse branch (less
    pi).  t_u = 0 has no finite k and is the identity; |delta*t_u| >= pi
    would move the center past the antipode and is refused.
    """
    theta = geom.theta
    cos_theta, sin_theta = geom._theta_trig()
    if cfg.variant == "gc":
        r = 1.0 if cfg.scaling == "global" else math.sin(geom.theta_c)
        if r < POLE_EPS:
            raise DegenerateGeometryError(f"motion_model: local radius {r!r} below POLE_EPS")
        return np.arctan2(
            1.0, cos_theta / sin_theta - math.tan(cfg.delta) * t_u[:, None, None] / r
        )
    k = []
    for tu in t_u.tolist():
        shift = cfg.delta * tu
        if abs(shift) >= math.pi:
            raise DomainError(f"motion_model: |delta*t_u| = {abs(shift)!r} must be < pi")
        k.append(math.sin(geom.theta_c + shift) / math.sin(shift) if tu != 0.0 else 0.0)
    theta_m = np.subtract(np.array(k)[:, None, None], cos_theta)
    np.arctan2(sin_theta, theta_m, out=theta_m)
    theta_m[t_u < 0.0] -= math.pi
    theta_m += theta
    theta_m[t_u == 0.0] = theta
    return theta_m


def map_block_geometry_batch(
    geom: BlockGeometry,
    t_u_values: np.ndarray,
    t_v_values: np.ndarray,
    cfg: GeodesicModelConfig,
    workspace: Workspace | None = None,
):
    """Source coordinates for every (t_u, t_v) candidate at once.

    Returns (src_u, src_v) with shape (len(t_u), len(t_v), h, w); a polar
    angle that comes closer to a pole than POLE_EPS on the way is clamped,
    and _clamped_count counts such pixels.  The polar law only depends on
    t_u and the azimuth shift only on t_v, so the trig passes stay at
    (nu, h, w) and (nv, h, w), and so do the
    rot[2, k] * cos(theta') terms of the rotation back.  The rotation back,
    arccos/arctan2 and the conversion to ERP coordinates run in place in
    five full-size buffers, with the operations and their order of the plain
    formulas, so the result has the same bits.

    The five buffers are the workspace's "slots", src_u and src_v slots 3
    and 4, so a caller that passes a workspace maps without allocating them,
    and its next use of the slots overwrites src_u and src_v.
    """
    if workspace is None:
        workspace = Workspace()
    t_u_values = np.asarray(t_u_values, dtype=np.float64)
    t_v_values = np.asarray(t_v_values, dtype=np.float64)
    h, w = geom.theta.shape
    nu, nv = len(t_u_values), len(t_v_values)
    full = (nu, nv, h, w)

    theta_m = _model_theta(geom, t_u_values, cfg)
    np.clip(theta_m, POLE_EPS, math.pi - POLE_EPS, out=theta_m)

    sin_t = np.sin(theta_m)[:, None, :, :]
    cos_t = np.cos(theta_m, out=theta_m)[:, None, :, :]
    cos_p, sin_p = geom._azimuth_trig(cfg.delta, t_v_values)

    # Rotate back to the world frame, world = R^T @ s', as
    # w_k = rot[0, k] * x + rot[1, k] * y + rot[2, k] * cos(theta').
    rot = geom.rotation
    slots = workspace.get("slots", (5,) + full)
    x = np.multiply(sin_t, cos_p, out=slots[0])
    y = np.multiply(sin_t, sin_p, out=slots[1])
    tmp = slots[2]
    z_term = np.empty_like(sin_t)

    def world(k, out, scratch):
        np.multiply(rot[0, k], x, out=out)
        out += np.multiply(rot[1, k], y, out=scratch)
        out += np.multiply(rot[2, k], cos_t, out=z_term)
        return out

    wz = world(2, slots[4], tmp)
    theta_w = np.arccos(np.clip(wz, -1.0, 1.0, out=wz), out=wz)
    wx = world(0, slots[3], tmp)
    # x and y are read before they are overwritten, and not needed after.
    wy = world(1, x, y)
    phi_w = np.arctan2(wy, wx, out=tmp)
    # arctan2 may return +pi; the wrap maps it to -pi exactly.
    return geometry._sphere_to_erp_inplace(
        theta_w, phi_w, geom.frame_width, geom.frame_height, wx
    )


def _clamped_count(geom: BlockGeometry, t_u: float, cfg: GeodesicModelConfig) -> int:
    """Pixels of the block that map_block_geometry_batch pole-clamps at
    t_u: on the rotation into the epipole frame (geom.clamped_in) or after
    the polar law."""
    theta_m = _model_theta(geom, np.array([t_u], dtype=np.float64), cfg)[0]
    clamped = (theta_m < POLE_EPS) | (theta_m > math.pi - POLE_EPS) | geom.clamped_in
    return int(np.count_nonzero(clamped))


# ---------------------------------------------------------------------------
# Arithmetic-complexity audit


@dataclass(frozen=True)
class OpCount:
    """Arithmetic tally of one block mapping: trig, multiply, divide, add."""

    trig: int
    mul: int
    div: int
    add: int

    @property
    def total(self) -> int:
        return self.trig + self.mul + self.div + self.add


def op_count(variant: str, scaling: str, width: int, height: int) -> OpCount:
    """Closed-form per-block op counts of the polar-angle pipeline.

    Counts cover the theta path only (the azimuth shift is one add for
    every variant and cancels in comparisons).  cot and arccot count as one
    trig evaluation each; tan(delta) is a per-sequence constant and is not
    charged to the block.
    """
    _check_model(variant, scaling)
    if width < 1 or height < 1:
        raise DomainError("motion_model: block must be at least 1x1")
    mn = width * height
    if variant == "original":
        return OpCount(trig=3 * mn + 2, mul=1, div=mn + 1, add=2 * mn + 1)
    if scaling == "global":
        return OpCount(trig=2 * mn, mul=mn, div=0, add=mn)
    return OpCount(trig=2 * mn + 1, mul=mn, div=mn, add=mn)
