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
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import geometry
from .errors import DegenerateGeometryError, DomainError, NoMotionError
from .geometry import SphericalPoint

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
    scaling: Literal["global", "local"] = "global"
    delta: float = 0.01227184630308513  # pi/256, the 512x256 default

    def __post_init__(self):
        if self.variant not in ("original", "gc"):
            raise DomainError(f"motion_model: unknown variant {self.variant!r}")
        if self.scaling not in ("global", "local"):
            raise DomainError(f"motion_model: unknown scaling {self.scaling!r}")
        if not (0.0 < self.delta < math.pi / 2):
            raise DomainError(
                f"motion_model: delta {self.delta!r} outside (0, pi/2)"
            )


@dataclass(frozen=True)
class MotionVector2D:
    """Block motion vector in abstract units; fractional values allowed."""

    t_u: float
    t_v: float

    def __post_init__(self):
        if not (math.isfinite(self.t_u) and math.isfinite(self.t_v)):
            raise DomainError("motion_model: motion vector must be finite")


@dataclass(frozen=True)
class GeodesicKFactor:
    """Depth-to-shift ratio of the constant-depth model.

    k alone loses the motion direction when the block center is pushed past
    a pole, so the sign of t_u travels alongside it.
    """

    k: float
    reverse: bool = False


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


def k_factor(theta_c: float, t_u: float, delta: float) -> GeodesicKFactor:
    """Constant-depth ratio fixed by the block center's displacement.

    k = sin(theta_c + delta*t_u) / sin(delta*t_u).  Zero t_u has no finite
    k (no motion); |delta*t_u| >= pi would move the center past the
    antipode.
    """
    if t_u == 0.0:
        raise NoMotionError("motion_model: k factor undefined for t_u = 0")
    shift = delta * t_u
    if abs(shift) >= math.pi:
        raise DomainError(
            f"motion_model: |delta*t_u| = {abs(shift)!r} must be < pi"
        )
    k = math.sin(theta_c + shift) / math.sin(shift)
    return GeodesicKFactor(k=k, reverse=t_u < 0.0)


def ged_orig_theta(theta, kf: GeodesicKFactor):
    """Polar displacement under the constant-depth model (scalar or array).

    Two-argument arctangent of (sin(theta), k - cos(theta)); reverse motion
    lands on the opposite branch, shifting the result by -pi so the
    displacement carries the sign of t_u.
    """
    dt = np.arctan2(np.sin(theta), kf.k - np.cos(theta))
    if kf.reverse:
        dt = dt - math.pi
    return dt


def clamp_theta(theta):
    """Keep a polar angle strictly inside (0, pi) for cot/ratio forms."""
    return np.clip(theta, POLE_EPS, math.pi - POLE_EPS)


def ged_orig_map(
    s: SphericalPoint,
    theta_c: float,
    t: MotionVector2D,
    cfg: GeodesicModelConfig,
) -> SphericalPoint:
    """Move one spherical point by t under the constant-depth model.

    t_u = 0 is the identity in theta (the k factor is singular there).
    The output theta is clamped to [POLE_EPS, pi - POLE_EPS].
    """
    if cfg.variant != "original":
        raise DomainError(f"motion_model: config variant {cfg.variant!r} is not 'original'")
    if t.t_u == 0.0:
        theta_m = s.theta
    else:
        kf = k_factor(theta_c, t.t_u, cfg.delta)
        theta_m = s.theta + ged_orig_theta(s.theta, kf)
    phi_m = geometry.wrap_angle(s.phi + cfg.delta * t.t_v)
    return SphericalPoint(theta=float(clamp_theta(theta_m)), phi=float(phi_m))


def delta_z(delta: float) -> float:
    """Cylinder-height step per unit t_u: tan(delta)."""
    if not (0.0 < delta < math.pi / 2):
        raise DomainError(f"motion_model: delta {delta!r} outside (0, pi/2)")
    return math.tan(delta)


def cyl_radius(scaling: str, theta_c: float) -> float:
    """Cylinder radius for a block: 1 (global) or sin(theta_c) (local)."""
    if scaling == "global":
        return 1.0
    if scaling == "local":
        r = math.sin(theta_c)
        if r < POLE_EPS:
            raise DegenerateGeometryError(
                f"motion_model: local radius degenerate at theta_c = {theta_c!r}"
            )
        return r
    raise DomainError(f"motion_model: unknown scaling {scaling!r}")


def ged_gc_theta(theta, t_u: float, dz: float, r: float):
    """Geometry-corrected polar law: arccot(cot(theta) - dz*t_u/r).

    arccot maps all reals into (0, pi) via atan2(1, .), so the result is a
    valid polar angle for any shift, and applying -t_u with the same r is
    an exact inverse.  Scalar or array theta.
    """
    if r <= 0.0:
        raise DomainError(f"motion_model: cylinder radius {r!r} must be positive")
    th = clamp_theta(theta)
    cot = np.cos(th) / np.sin(th)
    return np.arctan2(1.0, cot - dz * t_u / r)


def ged_gc_map(
    s: SphericalPoint,
    theta_c: float,
    t: MotionVector2D,
    cfg: GeodesicModelConfig,
) -> SphericalPoint:
    """Move one spherical point by t under the geometry-corrected model."""
    if cfg.variant != "gc":
        raise DomainError(f"motion_model: config variant {cfg.variant!r} is not 'gc'")
    r = cyl_radius(cfg.scaling, theta_c)
    theta_m = ged_gc_theta(s.theta, t.t_u, delta_z(cfg.delta), r)
    phi_m = geometry.wrap_angle(s.phi + cfg.delta * t.t_v)
    return SphericalPoint(theta=float(clamp_theta(theta_m)), phi=float(phi_m))


def map_point(
    s: SphericalPoint,
    theta_c: float,
    t: MotionVector2D,
    cfg: GeodesicModelConfig,
) -> SphericalPoint:
    """Variant dispatch for single points; block paths use block_mapping."""
    if cfg.variant == "original":
        return ged_orig_map(s, theta_c, t, cfg)
    return ged_gc_map(s, theta_c, t, cfg)


# ---------------------------------------------------------------------------
# Per-block pixel mapping


@dataclass(frozen=True)
class BlockGeometry:
    """Motion-independent part of a block's mapping, reusable across t.

    theta/phi are the pixel directions rotated into the epipole frame
    (theta already pole-clamped, clamps recorded), theta_c the rotated
    block-center polar angle.
    """

    theta: np.ndarray
    phi: np.ndarray
    clamped_in: np.ndarray
    theta_c: float
    rotation: np.ndarray
    frame_width: int
    frame_height: int


@dataclass(frozen=True)
class BlockMapping:
    """Continuous ERP source coordinates for every pixel of a block."""

    src_u: np.ndarray
    src_v: np.ndarray
    clamped: np.ndarray
    theta_c: float


def prepare_block_geometry(
    block: BlockSpec, q, width: int, height: int
) -> BlockGeometry:
    """Rotate a block's pixel directions into the epipole frame of q."""
    if block.x0 + block.width > width or block.y0 + block.height > height:
        raise DomainError(
            f"motion_model: block {block} exceeds {width}x{height} frame"
        )
    rot = geometry.rotation_to_epipole(q)

    u = block.x0 + np.arange(block.width, dtype=np.float64)
    v = block.y0 + np.arange(block.height, dtype=np.float64)
    uu, vv = np.meshgrid(u, v)
    theta, phi = geometry.erp_grid_to_sphere(uu, vv, width, height)
    xyz = geometry.sphere_grid_to_cart(theta, phi) @ rot.T
    theta_r, phi_r = geometry.cart_grid_to_sphere(xyz)

    clamped_in = (theta_r < POLE_EPS) | (theta_r > math.pi - POLE_EPS)
    theta_r = np.clip(theta_r, POLE_EPS, math.pi - POLE_EPS)

    uc, vc = block.center()
    tc, pc = geometry.erp_grid_to_sphere(np.float64(uc), np.float64(vc), width, height)
    center = geometry.sphere_grid_to_cart(tc, pc) @ rot.T
    theta_c = float(np.arccos(np.clip(center[2], -1.0, 1.0)))

    return BlockGeometry(
        theta=theta_r,
        phi=phi_r,
        clamped_in=clamped_in,
        theta_c=theta_c,
        rotation=rot,
        frame_width=width,
        frame_height=height,
    )


def _model_theta_array(
    theta: np.ndarray, theta_c: float, t_u: float, cfg: GeodesicModelConfig
) -> np.ndarray:
    """Vectorized polar law over an array of (clamped) polar angles."""
    if cfg.variant == "original":
        if t_u == 0.0:
            return theta.copy()
        kf = k_factor(theta_c, t_u, cfg.delta)
        return theta + ged_orig_theta(theta, kf)
    r = cyl_radius(cfg.scaling, theta_c)
    return ged_gc_theta(theta, t_u, delta_z(cfg.delta), r)


def map_block_geometry_batch(
    geom: BlockGeometry,
    t_u_values: np.ndarray,
    t_v_values: np.ndarray,
    cfg: GeodesicModelConfig,
):
    """Source coordinates for every (t_u, t_v) candidate at once.

    Returns (src_u, src_v, clamped) with shape (len(t_u), len(t_v), h, w).
    The polar law only depends on t_u and the azimuth shift only on t_v, so
    the two trig passes stay one-dimensional before combining.
    """
    t_u_values = np.asarray(t_u_values, dtype=np.float64)
    t_v_values = np.asarray(t_v_values, dtype=np.float64)
    h, w = geom.theta.shape
    nu, nv = len(t_u_values), len(t_v_values)

    theta_m = np.empty((nu, h, w))
    for i, tu in enumerate(t_u_values):
        theta_m[i] = _model_theta_array(geom.theta, geom.theta_c, float(tu), cfg)
    clamped_out = (theta_m < POLE_EPS) | (theta_m > math.pi - POLE_EPS)
    theta_m = np.clip(theta_m, POLE_EPS, math.pi - POLE_EPS)

    phi_m = geom.phi[None, :, :] + cfg.delta * t_v_values[:, None, None]

    sin_t = np.sin(theta_m)[:, None, :, :]
    cos_t = np.cos(theta_m)[:, None, :, :]
    cos_p = np.cos(phi_m)[None, :, :, :]
    sin_p = np.sin(phi_m)[None, :, :, :]

    # Rotate back to the world frame: world = R^T @ s'.
    rot = geom.rotation
    x = sin_t * cos_p
    y = sin_t * sin_p
    z = np.broadcast_to(cos_t, (nu, nv, h, w))
    wx = rot[0, 0] * x + rot[1, 0] * y + rot[2, 0] * z
    wy = rot[0, 1] * x + rot[1, 1] * y + rot[2, 1] * z
    wz = rot[0, 2] * x + rot[1, 2] * y + rot[2, 2] * z

    theta_w = np.arccos(np.clip(wz, -1.0, 1.0))
    phi_w = np.arctan2(wy, wx)
    phi_w = np.where(phi_w >= math.pi, -math.pi, phi_w)
    src_u, src_v = geometry.sphere_grid_to_erp(
        theta_w, phi_w, geom.frame_width, geom.frame_height
    )
    clamped = clamped_out[:, None, :, :] | geom.clamped_in[None, None, :, :]
    clamped = np.broadcast_to(clamped, (nu, nv, h, w))
    return src_u, src_v, clamped


def map_block_geometry(
    geom: BlockGeometry, t: MotionVector2D, cfg: GeodesicModelConfig
):
    """Source coordinates of one motion candidate; shape (h, w)."""
    src_u, src_v, clamped = map_block_geometry_batch(
        geom, np.array([t.t_u]), np.array([t.t_v]), cfg
    )
    return src_u[0, 0], src_v[0, 0], clamped[0, 0]


def block_mapping(
    block: BlockSpec,
    q,
    t: MotionVector2D,
    cfg: GeodesicModelConfig,
    width: int,
    height: int,
) -> BlockMapping:
    """Per-pixel ERP source coordinates of a block under motion t.

    Pipeline per pixel: ERP -> sphere -> epipole frame of q -> variant polar
    law with theta_c from the rotated block center -> back -> ERP.  Pixels
    whose polar angle was pole-clamped on the way are flagged.
    """
    geom = prepare_block_geometry(block, q, width, height)
    src_u, src_v, clamped = map_block_geometry(geom, t, cfg)
    return BlockMapping(
        src_u=src_u, src_v=src_v, clamped=clamped, theta_c=geom.theta_c
    )


# ---------------------------------------------------------------------------
# Arithmetic-complexity audit


@dataclass(frozen=True)
class OpCount:
    """Arithmetic tally of one block mapping: trig, multiply, divide, add."""

    trig: int
    mul: int
    div: int
    add: int

    def __post_init__(self):
        for name in ("trig", "mul", "div", "add"):
            if getattr(self, name) < 0:
                raise DomainError(f"motion_model: negative op count {name}")

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
    if width < 1 or height < 1:
        raise DomainError("motion_model: block must be at least 1x1")
    mn = width * height
    if variant == "original":
        return OpCount(trig=3 * mn + 2, mul=1, div=mn + 1, add=2 * mn + 1)
    if variant != "gc":
        raise DomainError(f"motion_model: unknown variant {variant!r}")
    if scaling == "global":
        return OpCount(trig=2 * mn, mul=mn, div=0, add=mn)
    if scaling != "local":
        raise DomainError(f"motion_model: unknown scaling {scaling!r}")
    return OpCount(trig=2 * mn + 1, mul=mn, div=mn, add=mn)


class _Tally:
    """Arithmetic wrapper that counts as it computes."""

    def __init__(self):
        self.trig = 0
        self.mul = 0
        self.div = 0
        self.add = 0

    def sin(self, x):
        self.trig += 1
        return math.sin(x)

    def cos(self, x):
        self.trig += 1
        return math.cos(x)

    def atan(self, x):
        self.trig += 1
        return math.atan(x)

    def cot(self, x):
        self.trig += 1
        return math.cos(x) / math.sin(x)

    def acot(self, x):
        self.trig += 1
        return math.atan2(1.0, x)

    def multiply(self, a, b):
        self.mul += 1
        return a * b

    def divide(self, a, b):
        self.div += 1
        return a / b

    def addsub(self, a, b):
        self.add += 1
        return a + b


def count_block_ops(
    variant: str, scaling: str, width: int, height: int
) -> OpCount:
    """Instrumented evaluation of one block's polar pipeline.

    Actually runs the arithmetic on a dummy block through counting wrappers
    so the closed-form table in op_count stays honest.  Returns the tally;
    the computed angles themselves are discarded.
    """
    tally = _Tally()
    theta_c = 1.1
    t_u = 2.5
    delta = 0.01
    thetas = np.linspace(0.4, 2.7, width * height)

    if variant == "original":
        shift = tally.multiply(delta, t_u)
        k = tally.divide(
            tally.sin(tally.addsub(theta_c, shift)), tally.sin(shift)
        )
        for th in thetas:
            num = tally.sin(th)
            den = tally.addsub(k, -tally.cos(th))
            tally.addsub(th, tally.atan(tally.divide(num, den)))
    elif variant == "gc":
        dz = delta_z(delta)  # per-sequence constant, not charged
        if scaling == "global":
            for th in thetas:
                shift = tally.multiply(dz, t_u)
                tally.acot(tally.addsub(tally.cot(th), -shift))
        else:
            r = tally.sin(theta_c)
            for th in thetas:
                shift = tally.divide(tally.multiply(dz, t_u), r)
                tally.acot(tally.addsub(tally.cot(th), -shift))
    else:
        raise DomainError(f"motion_model: unknown variant {variant!r}")

    return OpCount(trig=tally.trig, mul=tally.mul, div=tally.div, add=tally.add)
