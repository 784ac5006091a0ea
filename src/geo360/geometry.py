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

The *_grid functions take numpy arrays and are what the per-pixel pipelines
use; the camera codec converts one direction at a time on Python floats,
with the same conventions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

_Z_AXIS = np.array([0.0, 0.0, 1.0])

# Largest accepted deviation from 1 of the norm of a direction passed in as
# a unit vector.
_UNIT_TOL = 1e-9


def wrap_angle(phi):
    """Wrap an angle (scalar or array) into [-pi, pi)."""
    return phi - TWO_PI * np.floor((phi + math.pi) / TWO_PI)


def erp_grid_to_sphere(u, v, width: int, height: int):
    """ERP coordinates -> angles on arrays: theta from v, phi from u;
    returns (theta, phi)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    phi = TWO_PI * (u + 0.5) / width - math.pi
    theta = math.pi * (v + 0.5) / height
    return theta, phi

def sphere_grid_to_erp(theta, phi, width: int, height: int):
    """Angles -> continuous ERP coordinates on arrays, phi wrapped first;
    returns (u, v)."""
    phi = np.asarray(phi, dtype=np.float64)
    theta = np.array(theta, dtype=np.float64)
    return _sphere_to_erp_inplace(theta, phi, width, height, np.empty_like(phi))


def _sphere_to_erp_inplace(theta, phi, width: int, height: int, out):
    """sphere_grid_to_erp on float64 buffers: v is written into theta and u
    into out, which has phi's shape; phi is only read.

    The operations and their order are those of
    u = (wrap_angle(phi) + pi) * width / 2pi - 0.5 and
    v = theta * height / pi - 0.5.  wrap_angle subtracts 2pi times the turn
    count floor((phi + pi) / 2pi); when that is 0 for the smallest and the
    largest phi + pi it is 0 everywhere and the wrap is the identity, which
    holds for arctan2 output except within an ulp of pi.
    """
    shifted = np.add(phi, math.pi, out=out)
    if shifted.size and not (
        np.floor(shifted.min() / TWO_PI) == 0 == np.floor(shifted.max() / TWO_PI)
    ):
        np.add(wrap_angle(phi), math.pi, out=shifted)
    u = np.multiply(shifted, width, out=shifted)
    u /= TWO_PI
    u -= 0.5
    v = np.multiply(theta, height, out=theta)
    v /= math.pi
    v -= 0.5
    return u, v


def as_unit_vector(v) -> np.ndarray:
    """Validate and return v as a float64 unit 3-vector.

    Rejects vectors whose norm deviates from 1 by more than _UNIT_TOL; small
    deviations are renormalized so downstream trig stays clean.  A float64
    (3,) array is used as it is.  np.linalg.norm of a 1-D vector is
    sqrt(v.dot(v)); calling the parts directly skips its dispatch and gives
    the same bits.  The dot stays a numpy dot: x*x + y*y + z*z differs from
    it in the last bit for about one unit vector in five.  Anything that is
    not three numbers raises DomainError.
    """
    if type(v) is not np.ndarray or v.shape != (3,) or v.dtype != np.float64:
        try:
            v = np.asarray(v, dtype=np.float64)
        except (TypeError, ValueError):
            raise DomainError("geometry: vector is not numeric") from None
        if v.size != 3:
            raise DomainError(f"geometry: vector has size {v.size}, not 3")
        v = v.reshape(3)
    n = math.sqrt(v.dot(v))
    if not abs(n - 1.0) <= _UNIT_TOL:  # also false for nan and inf
        raise DomainError(f"geometry: vector norm {n!r} is not 1 within {_UNIT_TOL}")
    return v / n


def sphere_grid_to_cart(theta, phi) -> np.ndarray:
    """Angles -> stacked unit vectors, shape (..., 3); theta and phi
    broadcast, and the trig runs at their own shapes."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    st = np.sin(theta)
    xyz = np.empty(np.broadcast_shapes(theta.shape, phi.shape) + (3,))
    np.multiply(st, np.cos(phi), out=xyz[..., 0])
    np.multiply(st, np.sin(phi), out=xyz[..., 1])
    xyz[..., 2] = np.cos(theta)
    return xyz


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
    x, y, c = q.tolist()  # c is the cos of the rotation angle
    # np.cross(q, +z) term for term, signed zeros included, without its
    # dispatch; s is np.linalg.norm(axis), the sin of the rotation angle.
    axis = np.array([y * 1.0 - c * 0.0, c * 0.0 - x * 1.0, x * 0.0 - y * 0.0])
    s = math.sqrt(float(axis.dot(axis)))
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
