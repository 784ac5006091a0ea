import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geo360 import geometry
from geo360.errors import DomainError
from oracles import (
    ErpCoord,
    SphericalPoint,
    cart_to_sphere,
    erp_to_sphere,
    sphere_to_cart,
    sphere_to_erp,
)


def test_wrap_angle_range():
    vals = np.array([-7.0, -math.pi, 0.0, math.pi, 9.5, 100.0])
    wrapped = geometry.wrap_angle(vals)
    assert np.all(wrapped >= -math.pi)
    assert np.all(wrapped < math.pi)
    assert geometry.wrap_angle(math.pi) == -math.pi


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_wrap_angle_preserves_direction(phi):
    w = float(geometry.wrap_angle(phi))
    assert math.isclose(math.cos(w), math.cos(phi), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(phi), abs_tol=1e-9)


def test_erp_sphere_round_trip_64x32():
    width, height = 64, 32
    worst = 0.0
    for v in range(height):
        for u in range(width):
            p = erp_to_sphere(
                ErpCoord(u=float(u), v=float(v), width=width, height=height)
            )
            c = sphere_to_erp(p, width, height)
            worst = max(worst, abs(c.u - u), abs(c.v - v))
    assert worst < 1e-9


def test_erp_grid_matches_scalar_path():
    width, height = 16, 8
    u, v = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    theta, phi = geometry.erp_grid_to_sphere(u, v, width, height)
    for j in (0, 3, 7):
        for i in (0, 5, 15):
            p = erp_to_sphere(
                ErpCoord(u=float(i), v=float(j), width=width, height=height)
            )
            assert math.isclose(theta[j, i], p.theta, abs_tol=1e-12)
            assert math.isclose(phi[j, i], p.phi, abs_tol=1e-12)
    u2, v2 = geometry.sphere_grid_to_erp(theta, phi, width, height)
    np.testing.assert_allclose(u2, u, atol=1e-9)
    np.testing.assert_allclose(v2, v, atol=1e-9)



@pytest.mark.parametrize(
    "phi",
    [
        [-math.pi, -1.0, 0.0, -0.0, 2.5],  # the wrap is the identity
        [math.pi, np.nextafter(math.pi, 0.0), 0.5],  # phi + pi rounds to 2pi
        [-7.0, 3.0 * math.pi, 9.5, 0.25],
        [np.nan, 1.0],
        [],
    ],
)
def test_sphere_grid_to_erp_matches_the_wrap_formula(phi):
    # the plain formula bit for bit, whether or not the wrap is skipped
    phi = np.array(phi, dtype=np.float64)
    theta = np.linspace(0.0, math.pi, len(phi))
    given_phi, given_theta = phi.copy(), theta.copy()
    u, v = geometry.sphere_grid_to_erp(theta, phi, 64, 32)
    u_ref = (geometry.wrap_angle(phi) + math.pi) * 64 / geometry.TWO_PI - 0.5
    v_ref = theta * 32 / math.pi - 0.5
    assert np.array_equal(u, u_ref, equal_nan=True)
    assert np.array_equal(np.signbit(u), np.signbit(u_ref))
    assert np.array_equal(v, v_ref)
    assert np.array_equal(phi, given_phi, equal_nan=True)
    assert np.array_equal(theta, given_theta)


def test_pole_azimuth_is_zero():
    # deterministic convention at the poles: phi := 0 when |z| = 1
    assert cart_to_sphere(np.array([0.0, 0.0, 1.0])).phi == 0.0
    assert cart_to_sphere(np.array([0.0, 0.0, -1.0])).phi == 0.0


def test_cart_sphere_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = cart_to_sphere(v)
        back = sphere_to_cart(p)
        assert np.linalg.norm(back - v) < 1e-12


def test_as_unit_vector_rejects_off_norm():
    with pytest.raises(DomainError):
        geometry.as_unit_vector(np.array([1.0, 1.0, 1.0]))
    v = geometry.as_unit_vector(np.array([0.0, 0.0, 1.0]))
    assert v.shape == (3,)


def test_rotation_to_epipole_sends_q_to_z():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        rot = geometry.rotation_to_epipole(q)
        assert np.linalg.norm(rot @ q - np.array([0.0, 0.0, 1.0])) < 1e-12


def test_rotation_orthonormal_det_plus_one():
    rng = np.random.default_rng(11)
    for _ in range(300):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        rot = geometry.rotation_to_epipole(q)
        assert np.linalg.norm(rot @ rot.T - np.eye(3)) < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_rotation_near_antipode():
    rot = geometry.rotation_to_epipole(np.array([0.0, 0.0, -1.0]))
    assert np.linalg.norm(rot @ np.array([0.0, 0.0, -1.0]) - np.array([0.0, 0.0, 1.0])) < 1e-12
    assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_tangent_basis_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        e1, e2 = geometry.tangent_basis(q)
        for a, b in ((e1, e2), (e1, q), (e2, q)):
            assert abs(np.dot(a, b)) < 1e-12
        assert abs(np.linalg.norm(e1) - 1.0) < 1e-12
        assert abs(np.linalg.norm(e2) - 1.0) < 1e-12


@settings(max_examples=200)
@given(
    st.floats(min_value=0.01, max_value=math.pi - 0.01),
    st.floats(min_value=-math.pi, max_value=math.pi - 1e-9),
)
def test_angle_between_matches_construction(theta, phi):
    v = sphere_to_cart(SphericalPoint(theta=theta, phi=phi))
    z = np.array([0.0, 0.0, 1.0])
    assert math.isclose(geometry.angle_between(v, z), theta, abs_tol=1e-9)
