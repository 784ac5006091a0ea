"""Spherical geometry for equirectangular (ERP) video.

Conventions, fixed once so every module agrees bit-for-bit:

  * ERP pixel coordinates (u, v): u grows to the right, v grows downward,
    and integer coordinates sit on pixel centers.  The half-sample offset
    lives inside the mapping itself:

        phi   = 2*pi*(u + 0.5)/width - pi       azimuth  in [-pi, pi)
        theta =   pi*(v + 0.5)/height           polar    in (0, pi)

    so azimuth increases with u and the polar angle increases with v.
  * Cartesian unit vectors: x = sin(theta)*cos(phi), y = sin(theta)*sin(phi),
    z = cos(theta).
  * At the poles (|z| = 1) the azimuth is fixed to phi = 0.
  * The epipole frame rotates the camera translation direction q onto +z by
    the minimal rotation about q x z.  For q = -z the tie-break is a half
    turn about x.  Downstream code only consumes the polar angle and azimuth
    differences, so the residual in-plane orientation is arbitrary but must
    stay deterministic.

Scalar functions work on the small frozen dataclasses below; the *_grid
variants take numpy arrays and are what the per-pixel pipelines use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

_Z_AXIS = np.array([0.0, 0.0, 1.0])


def wrap_angle(phi):
    """Wrap an angle (scalar or array) into [-pi, pi)."""
    return phi - TWO_PI * np.floor((phi + math.pi) / TWO_PI)


@dataclass(frozen=True)
class SphericalPoint:
    """Direction on the unit sphere: polar angle theta, azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise DomainError(f"geometry: theta {self.theta!r} outside [0, pi]")
        if not (-math.pi <= self.phi < math.pi):
            raise DomainError(f"geometry: phi {self.phi!r} outside [-pi, pi)")


@dataclass(frozen=True)
class ErpCoord:
    """Continuous ERP coordinate tied to a frame geometry.

    Width/height are sample counts.  True ERP has width == 2 * height; other
    aspect ratios are accepted with a warning so partial panoramas still work.
    """

    u: float
    v: float
    width: int
    height: int

    def __post_init__(self):
        if self.width < 2 or self.height < 1:
            raise DomainError(
                f"geometry: ERP raster {self.width}x{self.height} too small"
            )
        if self.width != 2 * self.height:
            warnings.warn(
                f"geometry: {self.width}x{self.height} is not a 2:1 ERP raster",
                stacklevel=3,
            )


def erp_to_sphere(c: ErpCoord) -> SphericalPoint:
    """Map an ERP coordinate to its direction on the sphere.

    Raises DomainError when (u, v) lies outside [0, width) x [0, height).
    """
    if not (0.0 <= c.u < c.width) or not (0.0 <= c.v < c.height):
        raise DomainError(
            f"geometry: ERP coordinate ({c.u}, {c.v}) outside "
            f"[0, {c.width}) x [0, {c.height})"
        )
    phi = TWO_PI * (c.u + 0.5) / c.width - math.pi
    theta = math.pi * (c.v + 0.5) / c.height
    # u < width keeps phi < pi only up to rounding; wrap the boundary case.
    if phi >= math.pi:
        phi = -math.pi
    return SphericalPoint(theta=theta, phi=phi)


def sphere_to_erp(p: SphericalPoint, width: int, height: int) -> ErpCoord:
    """Inverse of erp_to_sphere for the same raster."""
    phi = wrap_angle(p.phi)
    u = (phi + math.pi) * width / TWO_PI - 0.5
    v = p.theta * height / math.pi - 0.5
    return ErpCoord(u=float(u), v=float(v), width=width, height=height)


def erp_grid_to_sphere(u, v, width: int, height: int):
    """Vectorized erp_to_sphere on coordinate arrays; returns (theta, phi)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    phi = TWO_PI * (u + 0.5) / width - math.pi
    theta = math.pi * (v + 0.5) / height
    return theta, phi

def sphere_grid_to_erp(theta, phi, width: int, height: int):
    """Vectorized sphere_to_erp; returns continuous (u, v) arrays."""
    phi = wrap_angle(np.asarray(phi, dtype=np.float64))
    u = (phi + math.pi) * width / TWO_PI - 0.5
    v = np.asarray(theta, dtype=np.float64) * height / math.pi - 0.5
    return u, v


def as_unit_vector(v, tol: float = 1e-9) -> np.ndarray:
    """Validate and return v as a float64 unit 3-vector.

    Rejects vectors whose norm deviates from 1 by more than tol; small
    deviations are renormalized so downstream trig stays clean.
    """
    v = np.asarray(v, dtype=np.float64).reshape(3)
    n = float(np.linalg.norm(v))
    if not math.isfinite(n) or abs(n - 1.0) > tol:
        raise DomainError(f"geometry: vector norm {n!r} is not 1 within {tol}")
    return v / n


def sphere_to_cart(p: SphericalPoint) -> np.ndarray:
    st = math.sin(p.theta)
    return np.array([st * math.cos(p.phi), st * math.sin(p.phi), math.cos(p.theta)])


def cart_to_sphere(v, tol: float = 1e-9) -> SphericalPoint:
    """Unit vector -> (theta, phi); phi fixed to 0 at the poles."""
    v = as_unit_vector(v, tol=tol)
    z = min(1.0, max(-1.0, float(v[2])))
    theta = math.acos(z)
    if abs(z) >= 1.0:
        phi = 0.0
    else:
        phi = math.atan2(float(v[1]), float(v[0]))
        if phi >= math.pi:  # atan2 may return +pi exactly
            phi = -math.pi
    return SphericalPoint(theta=theta, phi=phi)


def sphere_grid_to_cart(theta, phi) -> np.ndarray:
    """Angles -> stacked unit vectors, shape (..., 3)."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def cart_grid_to_sphere(xyz):
    """Unit vectors (..., 3) -> (theta, phi) arrays with the pole rule."""
    xyz = np.asarray(xyz, dtype=np.float64)
    z = np.clip(xyz[..., 2], -1.0, 1.0)
    theta = np.arccos(z)
    phi = np.arctan2(xyz[..., 1], xyz[..., 0])
    phi = np.where(np.abs(z) >= 1.0, 0.0, phi)
    phi = np.where(phi >= math.pi, -math.pi, phi)
    return theta, phi


def _skew(k: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -k[2], k[1]],
            [k[2], 0.0, -k[0]],
            [-k[1], k[0], 0.0],
        ]
    )


def rotation_to_epipole(q) -> np.ndarray:
    """Rotation R with R @ q == +z, minimal-angle about q x z.

    q == +z returns the identity; q == -z returns the half turn about x
    (a documented tie-break, any axis in the xy-plane would do).
    """
    q = as_unit_vector(q)
    axis = np.cross(q, _Z_AXIS)
    s = float(np.linalg.norm(axis))  # sin of the rotation angle
    c = float(q[2])                  # cos of the rotation angle
    if s < 1e-15:
        if c > 0.0:
            return np.eye(3)
        return np.diag([1.0, -1.0, -1.0])
    k = _skew(axis / s)
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def tangent_basis(q) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis (e1, e2) of the plane normal to q."""
    q = as_unit_vector(q)
    ref = _Z_AXIS if abs(q[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(q, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(q, e1)
    return e1, e2


def angle_between(u, v) -> float:
    """Angle in radians between two unit vectors, stable for small angles."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    chord = float(np.linalg.norm(u - v))
    if chord >= 2.0:
        return math.pi
    return 2.0 * math.asin(chord / 2.0)
