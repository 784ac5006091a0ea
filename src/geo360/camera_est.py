"""Camera translation direction from spherical correspondences or dense flow.

Two estimation paths live here.  The algebraic path runs the classic
eight-point system on unit bearing vectors: each correspondence (s, s_m)
contributes one row of the epipolar constraint, the essential matrix comes
out of the null space, and the translation direction is its left null
vector, sign-disambiguated by a forward-motion vote.  The refinement path
polishes any initial direction against a dense optical-flow field by
minimizing the mean angle between observed flow and the direction field a
pure dolly along the candidate axis would induce.

Bearing vectors are unit vectors in the camera frame; no intrinsic
calibration is involved (bearings already are the calibrated rays).
Normalizing rows before the linear solve is therefore a no-op and is left
out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (
    AmbiguousSignError,
    DegenerateGeometryError,
    DomainError,
    NoFlowInformationError,
)

# Ratio of extreme singular values of the stacked constraint matrix above
# which the correspondence set is treated as rank deficient.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class BearingPair:
    """One correspondence: unit ray s in the reference view, s_m in the
    displaced view."""

    s: np.ndarray
    s_m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", geometry.as_unit_vector(self.s, tol=1e-6))
        object.__setattr__(self, "s_m", geometry.as_unit_vector(self.s_m, tol=1e-6))


@dataclass(frozen=True, eq=False)
class FlowField:
    """Dense per-pixel displacement on the ERP raster, in pixels."""

    du: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        if self.du.shape != self.dv.shape or self.du.ndim != 2:
            raise DomainError("camera_est: flow planes must share one 2-D shape")

    @property
    def width(self) -> int:
        return self.du.shape[1]

    @property
    def height(self) -> int:
        return self.du.shape[0]


@dataclass(frozen=True, eq=False)
class EssentialMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (3, 3):
            raise DomainError("camera_est: essential matrix must be 3x3")


@dataclass(frozen=True)
class FinetuneConfig:
    """Coarse-to-fine search cap for flow_finetune.

    grid_radius is the half-width (radians) of the first tangent-plane grid;
    each of `levels` passes evaluates a grid_size x grid_size grid around the
    running best and then halves the radius.
    """

    grid_radius: float = 0.3
    levels: int = 8
    grid_size: int = 5
    stride: int = 4
    min_flow: float = 0.1

    def __post_init__(self):
        if self.grid_radius <= 0 or not np.isfinite(self.grid_radius):
            raise DomainError("camera_est: grid_radius must be positive")
        if self.levels < 1 or self.grid_size < 2 or self.stride < 1:
            raise DomainError("camera_est: bad finetune search shape")
        if self.min_flow < 0:
            raise DomainError("camera_est: min_flow must be non-negative")


def _stack_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    s = np.stack([p.s for p in pairs])
    s_m = np.stack([p.s_m for p in pairs])
    return s, s_m


def eight_point(pairs) -> EssentialMatrix:
    """Least-squares essential matrix from >= 8 bearing correspondences.

    The stacked system must be well conditioned (extreme singular value
    ratio below CONDITION_LIMIT); the raw null-space solution is projected
    onto the essential manifold by equalizing the top two singular values
    and zeroing the third.
    """
    pairs = list(pairs)
    if len(pairs) < 8:
        raise DomainError(
            f"camera_est: eight_point needs >= 8 pairs, got {len(pairs)}"
        )
    s, s_m = _stack_pairs(pairs)
    # Row i is the outer product s_m s^T flattened row-major, so that
    # row . vec(E) == s_m^T E s.
    a = (s_m[:, :, None] * s[:, None, :]).reshape(len(pairs), 9)
    # Thin SVD (memory linear in N) unless N == 8, where vh lacks the null row.
    _, sing, vh = np.linalg.svd(a, full_matrices=len(pairs) < 9)
    if sing[7] == 0.0 or sing[0] / sing[7] > CONDITION_LIMIT:
        raise DegenerateGeometryError(
            "camera_est: correspondences are rank deficient "
            "(coplanar rays or duplicated points)"
        )
    e_raw = vh[-1].reshape(3, 3)

    u, d, vt = np.linalg.svd(e_raw)
    mean_top = (d[0] + d[1]) / 2.0
    e = u @ np.diag([mean_top, mean_top, 0.0]) @ vt
    return EssentialMatrix(matrix=e)


def epipole_from_essential(ess: EssentialMatrix) -> np.ndarray:
    """Unit left null vector of E (the translation axis, sign unresolved)."""
    e = ess.matrix
    norm = np.linalg.norm(e)
    if norm < 1e-12:
        raise DegenerateGeometryError("camera_est: essential matrix is zero")
    u, d, _ = np.linalg.svd(e)
    if d[1] <= 1e-8 * d[0]:
        raise DegenerateGeometryError(
            "camera_est: essential matrix has no unique null direction"
        )
    return geometry.as_unit_vector(u[:, 2])


def disambiguate_sign(q: np.ndarray, pairs) -> np.ndarray:
    """Pick +q or -q so that points flow away from the epipole.

    Moving the camera toward +q pushes scene rays toward larger polar angle
    in the epipole frame; the majority vote over all pairs decides.  An
    exact tie carries no information and raises AmbiguousSignError.
    """
    pairs = list(pairs)
    if not pairs:
        raise DomainError("camera_est: sign vote needs at least one pair")
    q = geometry.as_unit_vector(q)
    rot = geometry.rotation_to_epipole(q)
    s, s_m = _stack_pairs(pairs)
    z = (s @ rot.T)[:, 2]
    z_m = (s_m @ rot.T)[:, 2]
    # theta = arccos(z) is decreasing, so theta_m > theta  <=>  z_m < z.
    forward = int(np.count_nonzero(z_m < z))
    backward = int(np.count_nonzero(z_m > z))
    if forward == backward:
        raise AmbiguousSignError(
            "camera_est: equal forward/backward votes, translation sign "
            "cannot be resolved"
        )
    return q if forward > backward else -q


def estimate_camera_motion(pairs) -> np.ndarray:
    """Full algebraic path: pairs -> essential matrix -> signed unit q."""
    ess = eight_point(pairs)
    q = epipole_from_essential(ess)
    return disambiguate_sign(q, pairs)


def pixel_pairs_to_bearings(
    quads: np.ndarray, width: int, height: int
) -> list[BearingPair]:
    """Turn an (N, 4) array of (u1, v1, u2, v2) ERP pixels into bearings."""
    quads = np.asarray(quads, dtype=np.float64)
    if quads.ndim != 2 or quads.shape[1] != 4:
        raise DomainError("camera_est: correspondence array must be (N, 4)")
    th1, ph1 = geometry.erp_grid_to_sphere(quads[:, 0], quads[:, 1], width, height)
    th2, ph2 = geometry.erp_grid_to_sphere(quads[:, 2], quads[:, 3], width, height)
    v1 = geometry.sphere_grid_to_cart(th1, ph1)
    v2 = geometry.sphere_grid_to_cart(th2, ph2)
    return [BearingPair(s=a, s_m=b) for a, b in zip(v1, v2)]


def flow_to_pairs(
    flow: FlowField,
    stride: int,
    width: int,
    height: int,
    pole_margin: float = 0.05,
) -> list[BearingPair]:
    """Subsample a dense flow field into bearing correspondences.

    Rows within pole_margin radians of either pole are skipped (bearings
    there are nearly parallel and the azimuth is ill conditioned), and so
    are samples whose displaced row leaves the picture.
    """
    if stride < 1:
        raise DomainError("camera_est: stride must be >= 1")
    if (flow.width, flow.height) != (width, height):
        raise DomainError("camera_est: flow dimensions disagree with frame")
    us = np.arange(0, width, stride, dtype=np.float64)
    vs = np.arange(0, height, stride, dtype=np.float64)
    theta_rows = np.pi * (vs + 0.5) / height
    vs = vs[(theta_rows >= pole_margin) & (theta_rows <= np.pi - pole_margin)]
    if vs.size == 0 or us.size == 0:
        raise DegenerateGeometryError("camera_est: no usable flow samples")

    uu, vv = np.meshgrid(us, vs)
    du = flow.du[vv.astype(int), uu.astype(int)]
    dv = flow.dv[vv.astype(int), uu.astype(int)]
    u2 = (uu + du).ravel()
    v2 = (vv + dv).ravel()
    u1 = uu.ravel()
    v1 = vv.ravel()
    keep = (v2 >= -0.5) & (v2 <= height - 0.5)
    if not keep.any():
        raise DegenerateGeometryError("camera_est: no usable flow samples")
    quads = np.stack([u1[keep], v1[keep], u2[keep], v2[keep]], axis=1)
    return pixel_pairs_to_bearings(quads, width, height)


# ---------------------------------------------------------------------------
# Flow-alignment refinement


def _flow_samples(flow: FlowField, stride: int, min_flow: float):
    """Pixels with usable flow: positions, unit flow directions, bearings."""
    us = np.arange(0, flow.width, stride, dtype=np.int64)
    vs = np.arange(0, flow.height, stride, dtype=np.int64)
    uu, vv = np.meshgrid(us, vs)
    du = flow.du[vv, uu].astype(np.float64).ravel()
    dv = flow.dv[vv, uu].astype(np.float64).ravel()
    u = uu.ravel().astype(np.float64)
    v = vv.ravel().astype(np.float64)
    mag = np.hypot(du, dv)
    keep = mag >= min_flow
    u, v, du, dv, mag = u[keep], v[keep], du[keep], dv[keep], mag[keep]
    dirs = np.stack([du / mag, dv / mag], axis=1) if mag.size else np.empty((0, 2))
    theta = np.pi * (v + 0.5) / flow.height
    phi = 2.0 * np.pi * (u + 0.5) / flow.width - np.pi
    bearings = geometry.sphere_grid_to_cart(theta, phi)
    return u, v, dirs, bearings


# Finite-difference arc used to project the geodesic tangent onto the raster.
_FD_STEP = 1e-3


def _direction_field(q: np.ndarray, u, v, bearings, width: int, height: int):
    """Unit ERP directions of geodesics through the samples, oriented away
    from the epipole q."""
    rot = geometry.rotation_to_epipole(q)
    local = bearings @ rot.T
    z = np.clip(local[:, 2], -1.0, 1.0)
    theta = np.arccos(z)
    phi = np.arctan2(local[:, 1], local[:, 0])
    # Step along the meridian away from whichever pole is nearer, then flip
    # the resulting raster vector when the step ran toward the epipole.
    sign = np.where(theta <= np.pi / 2.0, 1.0, -1.0)
    theta2 = theta + sign * _FD_STEP
    moved = np.stack(
        [
            np.sin(theta2) * np.cos(phi),
            np.sin(theta2) * np.sin(phi),
            np.cos(theta2),
        ],
        axis=1,
    )
    world = moved @ rot
    th_w, ph_w = geometry.cart_grid_to_sphere(world)
    u2, v2 = geometry.sphere_grid_to_erp(th_w, ph_w, width, height)
    du = u2 - u
    du = du - width * np.round(du / width)
    dv = v2 - v
    du *= sign
    dv *= sign
    mag = np.hypot(du, dv)
    mag = np.where(mag == 0.0, 1.0, mag)
    return np.stack([du / mag, dv / mag], axis=1)


def flow_alignment_objective(
    q: np.ndarray,
    flow: FlowField,
    stride: int = 4,
    min_flow: float = 0.1,
) -> float:
    """Mean angle (radians) between observed flow and the dolly field of q."""
    u, v, dirs, bearings = _flow_samples(flow, stride, min_flow)
    if dirs.shape[0] == 0:
        raise NoFlowInformationError(
            "camera_est: no flow samples above the magnitude threshold",
            q_init=geometry.as_unit_vector(q),
        )
    return _objective_on_samples(
        geometry.as_unit_vector(q), u, v, dirs, bearings, flow.width, flow.height
    )


def _objective_on_samples(q, u, v, dirs, bearings, width, height) -> float:
    field = _direction_field(q, u, v, bearings, width, height)
    dots = np.clip((dirs * field).sum(axis=1), -1.0, 1.0)
    return float(np.arccos(dots).mean())


def flow_finetune(
    q_init: np.ndarray,
    flow: FlowField,
    cfg: FinetuneConfig = FinetuneConfig(),
) -> np.ndarray:
    """Refine a translation direction against dense flow.

    Coarse-to-fine grid descent on the sphere: each level lays a tangent
    grid of half-width r around the running best direction, keeps the best
    scoring candidate (the center is always a candidate, so the objective
    never increases), and halves r.  Deterministic given its inputs.
    """
    q = geometry.as_unit_vector(q_init)
    u, v, dirs, bearings = _flow_samples(flow, cfg.stride, cfg.min_flow)
    if dirs.shape[0] == 0:
        raise NoFlowInformationError(
            "camera_est: no flow samples above the magnitude threshold",
            q_init=q,
        )
    width, height = flow.width, flow.height

    best_q = q
    best_j = _objective_on_samples(q, u, v, dirs, bearings, width, height)
    radius = cfg.grid_radius
    offsets = np.linspace(-1.0, 1.0, cfg.grid_size)
    for _ in range(cfg.levels):
        e1, e2 = geometry.tangent_basis(best_q)
        center = best_q
        for a in offsets * radius:
            for b in offsets * radius:
                r_off = np.hypot(a, b)
                if r_off == 0.0:
                    continue
                axis = (a * e1 + b * e2) / r_off
                cand = center * np.cos(r_off) + axis * np.sin(r_off)
                cand = geometry.as_unit_vector(cand)
                j = _objective_on_samples(
                    cand, u, v, dirs, bearings, width, height
                )
                if j < best_j:
                    best_j = j
                    best_q = cand
        radius /= 2.0
    return best_q
