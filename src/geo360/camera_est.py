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
)

# Ratio of extreme singular values of the stacked constraint matrix above
# which the correspondence set is treated as rank deficient.
CONDITION_LIMIT = 1e12

# Largest accepted deviation of a bearing's norm from 1.
_BEARING_TOL = 1e-6

# flow_to_pairs skips rows within this many radians of either pole.
_POLE_MARGIN = 0.05

# Flow samples that move less than this many pixels carry no direction and
# are left out of the finetune objective.
_MIN_FLOW = 0.1

# flow_finetune's coarse-to-fine search: each of _LEVELS passes scores a
# _GRID_SIZE x _GRID_SIZE tangent-plane grid of half-width radius (radians,
# _GRID_RADIUS at first) around the running best, then halves the radius.
_GRID_RADIUS = 0.3
_LEVELS = 8
_GRID_SIZE = 5


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


def _checked_bearings(s, s_m) -> tuple[np.ndarray, np.ndarray]:
    """Validate a correspondence set and return it renormalized.

    s and s_m must be (N, 3) arrays of equal shape whose rows are finite
    and of unit norm within _BEARING_TOL.
    """
    s = np.asarray(s, dtype=np.float64)
    s_m = np.asarray(s_m, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != 3 or s.shape != s_m.shape:
        raise DomainError(
            f"camera_est: bearings must be two (N, 3) arrays, got "
            f"{s.shape} and {s_m.shape}"
        )
    n, n_m = np.linalg.norm(s, axis=1), np.linalg.norm(s_m, axis=1)
    bad = ~((np.abs(n - 1.0) <= _BEARING_TOL) & (np.abs(n_m - 1.0) <= _BEARING_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"camera_est: correspondence {i} has bearing norms "
            f"{float(n[i])!r}, {float(n_m[i])!r}, not 1 within {_BEARING_TOL}"
        )
    return s / n[:, None], s_m / n_m[:, None]


def eight_point(s, s_m) -> np.ndarray:
    """Least-squares (3, 3) essential matrix from >= 8 bearing correspondences.

    Row i of the (N, 3) arrays s and s_m is one correspondence: the unit ray
    in the reference view and in the displaced view.  The stacked system
    must be well conditioned (extreme singular value ratio below
    CONDITION_LIMIT); the raw null-space solution is projected onto the
    essential manifold by equalizing the top two singular values and
    zeroing the third.
    """
    s, s_m = _checked_bearings(s, s_m)
    n = len(s)
    if n < 8:
        raise DomainError(f"camera_est: eight_point needs >= 8 pairs, got {n}")
    # Row i is the outer product s_m s^T flattened row-major, so that
    # row . vec(E) == s_m^T E s.
    a = (s_m[:, :, None] * s[:, None, :]).reshape(n, 9)
    # Thin SVD (memory linear in N) unless N == 8, where vh lacks the null row.
    _, sing, vh = np.linalg.svd(a, full_matrices=n < 9)
    if sing[7] == 0.0 or sing[0] / sing[7] > CONDITION_LIMIT:
        raise DegenerateGeometryError(
            "camera_est: correspondences are rank deficient "
            "(coplanar rays or duplicated points)"
        )
    e_raw = vh[-1].reshape(3, 3)

    u, d, vt = np.linalg.svd(e_raw)
    mean_top = (d[0] + d[1]) / 2.0
    return u @ np.diag([mean_top, mean_top, 0.0]) @ vt


def epipole_from_essential(e) -> np.ndarray:
    """Unit left null vector of the (3, 3) essential matrix e (the
    translation axis, sign unresolved)."""
    if np.shape(e) != (3, 3):
        raise DomainError(f"camera_est: essential matrix must be 3x3, got {np.shape(e)}")
    norm = np.linalg.norm(e)
    if norm < 1e-12:
        raise DegenerateGeometryError("camera_est: essential matrix is zero")
    u, d, _ = np.linalg.svd(e)
    if d[1] <= 1e-8 * d[0]:
        raise DegenerateGeometryError(
            "camera_est: essential matrix has no unique null direction"
        )
    return geometry.as_unit_vector(u[:, 2])


def disambiguate_sign(q: np.ndarray, s, s_m) -> np.ndarray:
    """Pick +q or -q so that points flow away from the epipole.

    Moving the camera toward +q pushes scene rays toward larger polar angle
    in the epipole frame; the majority vote over all correspondences
    (rows of s, s_m) decides.  An exact tie carries no information and
    raises AmbiguousSignError.
    """
    s, s_m = _checked_bearings(s, s_m)
    if len(s) == 0:
        raise DomainError("camera_est: sign vote needs at least one pair")
    q = geometry.as_unit_vector(q)
    rot = geometry.rotation_to_epipole(q)
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


def estimate_camera_motion(s, s_m) -> np.ndarray:
    """Full algebraic path: bearings -> essential matrix -> signed unit q."""
    ess = eight_point(s, s_m)
    q = epipole_from_essential(ess)
    return disambiguate_sign(q, s, s_m)


def _erp_bearings(u, v, width: int, height: int) -> np.ndarray:
    """Unit rays of ERP pixel coordinates, shape (N, 3)."""
    theta, phi = geometry.erp_grid_to_sphere(u, v, width, height)
    return geometry.sphere_grid_to_cart(theta, phi)


def pixel_pairs_to_bearings(
    quads: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray]:
    """Turn an (N, 4) array of (u1, v1, u2, v2) ERP pixels into bearing
    arrays (s, s_m), each (N, 3)."""
    quads = np.asarray(quads, dtype=np.float64)
    if quads.ndim != 2 or quads.shape[1] != 4:
        raise DomainError("camera_est: correspondence array must be (N, 4)")
    if width < 1 or height < 1:
        raise DomainError(f"camera_est: frame size {width}x{height} is not positive")
    return (
        _erp_bearings(quads[:, 0], quads[:, 1], width, height),
        _erp_bearings(quads[:, 2], quads[:, 3], width, height),
    )


def _strided_flow(flow: FlowField, stride: int):
    """Flow at every stride-th row and column, flattened row-major.

    Returns float64 arrays (u, v, du, dv): sample position and displacement.
    """
    if stride < 1:
        raise DomainError("camera_est: stride must be >= 1")
    uu, vv = np.meshgrid(
        np.arange(0, flow.width, stride, dtype=np.float64),
        np.arange(0, flow.height, stride, dtype=np.float64),
    )
    du = flow.du[::stride, ::stride].astype(np.float64)
    dv = flow.dv[::stride, ::stride].astype(np.float64)
    return uu.ravel(), vv.ravel(), du.ravel(), dv.ravel()


def flow_to_pairs(flow: FlowField, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Subsample a dense flow field into bearing arrays (s, s_m).

    Rows within _POLE_MARGIN radians of either pole are skipped (bearings
    there are nearly parallel and the azimuth is ill conditioned), and so
    are samples whose displacement is not finite (unknown flow) or whose
    displaced row leaves the picture.
    """
    width, height = flow.width, flow.height
    u, v, du, dv = _strided_flow(flow, stride)
    theta, _ = geometry.erp_grid_to_sphere(u, v, width, height)
    v2 = v + dv
    keep = (
        (theta >= _POLE_MARGIN) & (theta <= np.pi - _POLE_MARGIN)
        & np.isfinite(du) & np.isfinite(dv)
        & (v2 >= -0.5) & (v2 <= height - 0.5)
    )
    if not keep.any():
        raise DegenerateGeometryError("camera_est: no usable flow samples")
    u, v, du, v2 = u[keep], v[keep], du[keep], v2[keep]
    return _erp_bearings(u, v, width, height), _erp_bearings(u + du, v2, width, height)


# ---------------------------------------------------------------------------
# Flow-alignment refinement


def _flow_samples(flow: FlowField, stride: int):
    """Pixels with usable flow: positions, unit flow directions, bearings.

    Samples with a non-finite displacement are dropped.  Raises
    DegenerateGeometryError when no strided sample moves by at least
    _MIN_FLOW pixels.
    """
    u, v, du, dv = _strided_flow(flow, stride)
    mag = np.hypot(du, dv)
    # hypot(inf, dv) is inf, which passes the threshold and then divides
    # to nan
    keep = np.isfinite(mag) & (mag >= _MIN_FLOW)
    if not keep.any():
        raise DegenerateGeometryError(
            "camera_est: no flow samples above the magnitude threshold"
        )
    u, v, mag = u[keep], v[keep], mag[keep]
    dirs = np.stack([du[keep] / mag, dv[keep] / mag], axis=1)
    return u, v, dirs, _erp_bearings(u, v, flow.width, flow.height)


# Finite-difference arc used to project the geodesic tangent onto the raster.
_FD_STEP = 1e-3

# Candidate directions times flow samples scored in one batched pass: the
# pass's temporaries are a few arrays of this many 3-vectors.
_BATCH_SAMPLES = 1 << 13


def _direction_field(qs, u, v, bearings, width: int, height: int):
    """Unit ERP directions of geodesics through the samples, oriented away
    from each epipole of qs: shape (len(qs), N, 2).

    Every candidate runs the same per-sample arithmetic, and each matrix
    product is one (N, 3) @ (3, 3) product of the stack, so a candidate's
    field has the bits it has when it is computed alone.
    """
    rot = np.stack([geometry.rotation_to_epipole(q) for q in qs])
    local = bearings @ rot.transpose(0, 2, 1)
    z = np.clip(local[..., 2], -1.0, 1.0)
    theta = np.arccos(z)
    phi = np.arctan2(local[..., 1], local[..., 0])
    # Step along the meridian away from whichever pole is nearer, then flip
    # the resulting raster vector when the step ran toward the epipole.
    sign = np.where(theta <= np.pi / 2.0, 1.0, -1.0)
    theta2 = theta + sign * _FD_STEP
    world = geometry.sphere_grid_to_cart(theta2, phi) @ rot
    th_w, ph_w = geometry.cart_grid_to_sphere(world)
    u2, v2 = geometry.sphere_grid_to_erp(th_w, ph_w, width, height)
    du = u2 - u
    du = du - width * np.round(du / width)
    dv = v2 - v
    du *= sign
    dv *= sign
    mag = np.hypot(du, dv)
    mag = np.where(mag == 0.0, 1.0, mag)
    return np.stack([du / mag, dv / mag], axis=-1)


def flow_alignment_objective(q: np.ndarray, flow: FlowField, stride: int = 4) -> float:
    """Mean angle (radians) between observed flow and the dolly field of q."""
    q = geometry.as_unit_vector(q)
    u, v, dirs, bearings = _flow_samples(flow, stride)
    return _objectives([q], u, v, dirs, bearings, flow.width, flow.height)[0]


def _objectives(qs, u, v, dirs, bearings, width, height) -> list[float]:
    """flow_alignment_objective of every direction of qs on the same samples.

    Directions are scored in batches of about _BATCH_SAMPLES direction
    samples, so a batch's temporaries keep one size whatever the flow size.
    """
    step = max(1, _BATCH_SAMPLES // len(u))
    scores = []
    for i in range(0, len(qs), step):
        field = _direction_field(qs[i:i + step], u, v, bearings, width, height)
        dots = np.clip((dirs * field).sum(axis=-1), -1.0, 1.0)
        scores += np.arccos(dots).mean(axis=-1).tolist()
    return scores


def flow_finetune(q_init: np.ndarray, flow: FlowField, stride: int = 4) -> np.ndarray:
    """Refine a translation direction against dense flow.

    Coarse-to-fine grid descent on the sphere: each level lays a tangent
    grid of half-width r around the running best direction, keeps the best
    scoring candidate (the center is always a candidate, so the objective
    never increases), and halves r.  Deterministic given its inputs.

    A candidate already scored is not scored again: it scored no lower
    than the best then, and the best only falls, so under strict < it
    cannot win.  When a level keeps its center, the next level's inner
    ring repeats it bit for bit (-1 * (r / 2) is -0.5 * r).
    """
    q = geometry.as_unit_vector(q_init)
    u, v, dirs, bearings = _flow_samples(flow, stride)
    width, height = flow.width, flow.height

    best_q = q
    (best_j,) = _objectives([q], u, v, dirs, bearings, width, height)
    scored = {q.tobytes()}
    radius = _GRID_RADIUS
    offsets = np.linspace(-1.0, 1.0, _GRID_SIZE)
    for _ in range(_LEVELS):
        e1, e2 = geometry.tangent_basis(best_q)
        cands = []
        for a in offsets * radius:
            for b in offsets * radius:
                r_off = np.hypot(a, b)
                if r_off == 0.0:
                    continue
                axis = (a * e1 + b * e2) / r_off
                cand = geometry.as_unit_vector(best_q * np.cos(r_off) + axis * np.sin(r_off))
                key = cand.tobytes()
                if key not in scored:
                    scored.add(key)
                    cands.append(cand)
        # The level is scored in batches; the winner is taken in grid order
        # with strict <, as a one-by-one scan would.
        scores = _objectives(cands, u, v, dirs, bearings, width, height)
        for cand, j in zip(cands, scores):
            if j < best_j:
                best_j = j
                best_q = cand
        radius /= 2.0
    return best_q
