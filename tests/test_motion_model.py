import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geo360 import motion_model as mm
from geo360 import video_io
from geo360.errors import DegenerateGeometryError, DomainError
from geo360.motion_model import BlockSpec, GeodesicModelConfig, MotionVector2D
from oracles import (
    SphericalPoint,
    cart_to_sphere,
    count_block_ops,
    gc_radius,
    gc_row_theta,
    ged_corrected_theta,
    ged_orig_map,
    ged_orig_theta,
    map_point,
    pole_clamp,
    sphere_to_cart,
)

ORIG = GeodesicModelConfig(variant="original", scaling="global", delta=0.01)
GCG = GeodesicModelConfig(variant="gc", scaling="global", delta=0.01)
GCL = GeodesicModelConfig(variant="gc", scaling="local", delta=0.01)


# --- constant-depth (original) model -------------------------------------


def test_center_identity_grid():
    # the block center must travel by exactly delta * t_u
    worst = 0.0
    for theta_c in np.linspace(0.2, 2.9, 30):
        for shift in np.linspace(-0.3, 0.3, 30):
            if abs(shift) < 1e-4 or not 1e-4 < theta_c + shift < math.pi - 1e-4:
                continue
            t_u = shift / ORIG.delta
            s = SphericalPoint(theta=float(theta_c), phi=0.0)
            moved = ged_orig_map(s, float(theta_c), MotionVector2D(t_u, 0.0), ORIG)
            worst = max(worst, abs(moved.theta - (theta_c + shift)))
    assert worst < 1e-9


def test_orig_refuses_the_half_turn():
    # delta * t_u = pi would move the block center past the antipode: the
    # constant-depth law has no k there, the cylinder law has no such limit
    width, height = 64, 32
    delta = mm.default_delta(height)
    (geom,) = mm.prepare_block_geometry(
        [BlockSpec(x0=16, y0=8, width=8, height=8)], np.array([0.0, 0.0, 1.0]), width, height
    )
    orig = GeodesicModelConfig(variant="original", scaling="global", delta=delta)
    gcg = GeodesicModelConfig(variant="gc", scaling="global", delta=delta)
    for t_u in (float(height), -float(height)):
        assert abs(delta * t_u) == math.pi
        with pytest.raises(DomainError, match=r"\|delta\*t_u\| = .* must be < pi"):
            mm.map_block_geometry_batch(geom, np.array([0.0, t_u]), np.array([0.0]), orig)
        src_u, src_v = mm.map_block_geometry_batch(geom, np.array([t_u]), np.array([0.0]), gcg)
        assert np.isfinite(src_u).all() and np.isfinite(src_v).all()
    mm.map_block_geometry_batch(geom, np.array([height - 1.0]), np.array([0.0]), orig)


def test_orig_zero_tu_is_identity():
    s = SphericalPoint(theta=0.8, phi=-1.0)
    out = ged_orig_map(s, 0.8, MotionVector2D(0.0, 3.0), ORIG)
    assert out.theta == s.theta
    assert math.isclose(out.phi, s.phi + ORIG.delta * 3.0, abs_tol=1e-15)


def test_orig_round_trip_breaks_off_center():
    # forward then reverse with the recentred k: fine at the center, broken
    # away from it -- the constant-depth assumption changes between legs.
    t_u = 10.0  # delta * t_u = 0.1
    worst_off = 0.0
    for theta_c in (0.6, 1.0, 1.4):
        for off in (-0.2, -0.05, 0.05, 0.2):
            s = SphericalPoint(theta=theta_c + off, phi=0.0)
            fwd = ged_orig_map(s, theta_c, MotionVector2D(t_u, 0.0), ORIG)
            back = ged_orig_map(
                fwd, theta_c + 0.1, MotionVector2D(-t_u, 0.0), ORIG
            )
            worst_off = max(worst_off, abs(back.theta - s.theta))
    assert worst_off > 1e-3


# --- geometry-corrected model ---------------------------------------------
# The paper's claims about the gc law are checked on the package's own law,
# run through gc_row_theta; a radius r < 1 is local scaling at
# theta_c = asin(r).


def test_gc_exact_invertibility_dense():
    thetas = np.linspace(0.05, math.pi - 0.05, 400)
    for scaling, theta_c in (("global", math.pi / 2), ("local", 0.7)):
        for t_u in (-64.0, -7.5, -1.0, 0.5, 12.0, 64.0):
            fwd = gc_row_theta(thetas, t_u, 0.01, scaling, theta_c)
            back = gc_row_theta(fwd, -t_u, 0.01, scaling, theta_c)
            assert np.max(np.abs(back - thetas)) < 1e-12


@settings(max_examples=300)
@given(
    st.floats(min_value=0.05, max_value=math.pi - 0.05),
    st.floats(min_value=-64.0, max_value=64.0),
    st.floats(min_value=0.1, max_value=1.0),
)
def test_gc_invertibility_property(theta, t_u, r):
    theta_c = math.asin(r)
    fwd = gc_row_theta(theta, t_u, 0.01, "local", theta_c)
    back = gc_row_theta(fwd, -t_u, 0.01, "local", theta_c)
    assert abs(back - theta) < 1e-12


def test_gc_monotone_in_theta():
    thetas = np.linspace(0.01, math.pi - 0.01, 2000)
    for t_u in (-30.0, -2.0, 0.7, 15.0):
        out = gc_row_theta(thetas, t_u, 0.02, "local", math.asin(0.8))
        assert np.all(np.diff(out) > 0.0)


def test_gc_output_always_valid_polar():
    thetas = np.linspace(0.001, math.pi - 0.001, 500)
    out = gc_row_theta(thetas, 200.0, 0.3)
    assert np.all(out > 0.0) and np.all(out < math.pi)


def test_gc_radius():
    # global scaling is r = 1 at any block centre, local r = sin(theta_c),
    # and a local radius below the pole clamp is refused
    thetas = np.linspace(0.1, 3.0, 30)
    for scaling, theta_c, r in (("global", 0.3, 1.0), ("local", 0.7, math.sin(0.7))):
        got = gc_row_theta(thetas, 5.0, 0.01, scaling, theta_c)
        assert np.array_equal(got, ged_corrected_theta(thetas, 5.0, 0.01, r))
    with pytest.raises(DegenerateGeometryError):
        gc_row_theta(thetas, 5.0, 0.01, "local", 1e-9)


def test_local_equals_global_at_equator():
    thetas = np.linspace(0.1, 3.0, 30)
    a = gc_row_theta(thetas, 3.0, 0.01)
    b = gc_row_theta(thetas, 3.0, 0.01, "local", math.pi / 2)
    assert np.array_equal(a, b)


# --- both variants ----------------------------------------------------------


@pytest.mark.parametrize("cfg", [ORIG, GCG, GCL])
def test_azimuth_linearity_exact(cfg):
    s = SphericalPoint(theta=1.1, phi=0.25)
    for t_v in (-17.0, -0.5, 0.0, 3.0, 40.0):
        out = map_point(s, 1.0, MotionVector2D(1.0, t_v), cfg)
        expect = s.phi + cfg.delta * t_v
        expect = (expect + math.pi) % (2 * math.pi) - math.pi
        assert math.isclose(out.phi, expect, abs_tol=1e-12)


def test_config_validation():
    with pytest.raises(DomainError):
        GeodesicModelConfig(variant="original", scaling="global", delta=0.0)
    with pytest.raises(DomainError):
        GeodesicModelConfig(variant="original", scaling="global", delta=2.0)
    with pytest.raises(DomainError):
        GeodesicModelConfig(variant="spline", scaling="global", delta=0.01)


@pytest.mark.parametrize(
    "variant, scaling",
    [("original", "local"), ("original", "bogus"), ("gc", "bogus"), ("bogus", "global")],
)
def test_only_the_three_models_are_accepted(variant, scaling):
    # the constant-depth law has no radius: ("original", "local") mapped
    # exactly as ("original", "global") and op counts took any scaling
    with pytest.raises(DomainError):
        GeodesicModelConfig(variant=variant, scaling=scaling, delta=0.01)
    with pytest.raises(DomainError):
        mm.op_count(variant, scaling, 8, 8)
    with pytest.raises(DomainError):
        count_block_ops(variant, scaling, 2, 2)


def test_default_delta():
    assert math.isclose(mm.default_delta(256), math.pi / 256)
    with pytest.raises(DomainError):
        mm.default_delta(0)


# --- block mapping -----------------------------------------------------------


def test_block_identity_at_zero_motion():
    block = BlockSpec(x0=40, y0=24, width=8, height=8)
    q = np.array([0.2, -0.4, 0.89])
    q /= np.linalg.norm(q)
    for cfg in (ORIG, GCG, GCL):
        (geom,) = mm.prepare_block_geometry([block], q, 128, 64)
        src_u, src_v = mm.map_block_geometry_batch(
            geom, np.array([0.0]), np.array([0.0]), cfg
        )
        uu, vv = np.meshgrid(
            np.arange(40, 48, dtype=float), np.arange(24, 32, dtype=float)
        )
        assert np.max(np.abs(src_u[0, 0] - uu)) < 1e-6
        assert np.max(np.abs(src_v[0, 0] - vv)) < 1e-6


def test_block_mapping_matches_scalar_path():
    # the vectorized batch mapper must agree with map_point one pixel at a time
    block = BlockSpec(x0=100, y0=20, width=4, height=4)
    width, height = 256, 128
    q = np.array([0.1, 0.5, 0.86])
    q /= np.linalg.norm(q)
    t = MotionVector2D(2.0, -1.0)
    from geo360 import geometry

    rot = geometry.rotation_to_epipole(q)
    (geom,) = mm.prepare_block_geometry([block], q, width, height)
    for cfg in (ORIG, GCG, GCL):
        src_u, src_v = mm.map_block_geometry_batch(
            geom, np.array([t.t_u]), np.array([t.t_v]), cfg
        )
        src_u, src_v = src_u[0, 0], src_v[0, 0]
        for j in range(4):
            for i in range(4):
                u, v = block.x0 + i, block.y0 + j
                th, ph = geometry.erp_grid_to_sphere(
                    float(u), float(v), width, height
                )
                vec = rot @ sphere_to_cart(
                    SphericalPoint(theta=float(th), phi=float(ph))
                )
                s_rot = cart_to_sphere(vec)
                s_rot = SphericalPoint(
                    theta=float(pole_clamp(s_rot.theta)), phi=s_rot.phi
                )
                moved = map_point(s_rot, geom.theta_c, t, cfg)
                back = rot.T @ sphere_to_cart(moved)
                s_out = cart_to_sphere(back)
                u2, v2 = geometry.sphere_grid_to_erp(
                    s_out.theta, s_out.phi, width, height
                )
                assert abs(float(u2) - src_u[j, i]) < 1e-9
                assert abs(float(v2) - src_v[j, i]) < 1e-9


def test_block_out_of_bounds():
    with pytest.raises(DomainError):
        mm.prepare_block_geometry(
            [BlockSpec(x0=120, y0=60, width=16, height=16)],
            np.array([0.0, 0.0, 1.0]),
            128,
            64,
        )


def test_batch_motion_grid_consistent_with_single():
    block = BlockSpec(x0=60, y0=30, width=4, height=4)
    q = np.array([0.0, 0.0, 1.0])
    (geom,) = mm.prepare_block_geometry([block], q, 128, 64)
    tus = np.array([-2.0, 0.0, 1.0])
    tvs = np.array([-1.0, 3.0])
    su, sv = mm.map_block_geometry_batch(geom, tus, tvs, GCG)
    assert su.shape == (3, 2, 4, 4)
    for a, tu in enumerate(tus):
        for b, tv in enumerate(tvs):
            one_u, one_v = mm.map_block_geometry_batch(
                geom, np.array([tu]), np.array([tv]), GCG
            )
            np.testing.assert_allclose(su[a, b], one_u[0, 0], atol=1e-12)
            np.testing.assert_allclose(sv[a, b], one_v[0, 0], atol=1e-12)


def reference_map_batch(geom, t_u_values, t_v_values, cfg):
    """The per-t_u mapping formula the batch mapper must reproduce bit for
    bit: the oracles' polar laws one t_u at a time, full-size temporaries
    throughout.  Returns src_u, src_v and the mask of pole-clamped pixels,
    whose count mm._clamped_count gives per t_u."""
    t_u_values = np.asarray(t_u_values, dtype=np.float64)
    t_v_values = np.asarray(t_v_values, dtype=np.float64)
    h, w = geom.theta.shape
    nu, nv = len(t_u_values), len(t_v_values)
    theta_m = np.empty((nu, h, w))
    for i, tu in enumerate(t_u_values):
        tu = float(tu)
        if cfg.variant == "gc":
            r = gc_radius(cfg.scaling, geom.theta_c)
            theta_m[i] = ged_corrected_theta(geom.theta, tu, cfg.delta, r)
        elif tu == 0.0:
            theta_m[i] = geom.theta.copy()
        else:
            theta_m[i] = geom.theta + ged_orig_theta(geom.theta, geom.theta_c, tu, cfg.delta)
    clamped_out = (theta_m < mm.POLE_EPS) | (theta_m > math.pi - mm.POLE_EPS)
    theta_m = np.clip(theta_m, mm.POLE_EPS, math.pi - mm.POLE_EPS)
    phi_m = geom.phi[None, :, :] + cfg.delta * t_v_values[:, None, None]
    sin_t = np.sin(theta_m)[:, None, :, :]
    cos_t = np.cos(theta_m)[:, None, :, :]
    cos_p = np.cos(phi_m)[None, :, :, :]
    sin_p = np.sin(phi_m)[None, :, :, :]
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
    phi_w = phi_w - 2.0 * math.pi * np.floor((phi_w + math.pi) / (2.0 * math.pi))
    src_u = (phi_w + math.pi) * geom.frame_width / (2.0 * math.pi) - 0.5
    src_v = theta_w * geom.frame_height / math.pi - 0.5
    clamped = clamped_out[:, None, :, :] | geom.clamped_in[None, None, :, :]
    return src_u, src_v, np.broadcast_to(clamped, (nu, nv, h, w))


def test_batch_mapping_matches_reference_bit_for_bit():
    width, height = 128, 64
    delta = math.pi / height
    cfgs = [
        GeodesicModelConfig(variant="original", scaling="global", delta=delta),
        GeodesicModelConfig(variant="gc", scaling="global", delta=delta),
        GeodesicModelConfig(variant="gc", scaling="local", delta=delta),
    ]
    rng = np.random.default_rng(5)
    qs = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    qs += [v / np.linalg.norm(v) for v in rng.normal(size=(3, 3))]
    # mid-latitude, and blocks on the top and bottom pole rows, where the
    # rotated and the moved polar angles both get pole-clamped
    blocks = [
        BlockSpec(x0=40, y0=24, width=8, height=8),
        BlockSpec(x0=0, y0=0, width=16, height=4),
        BlockSpec(x0=120, y0=60, width=8, height=4),
    ]
    steps = [np.arange(-4, 5) * 1.0, np.arange(-8, 9) * 0.5]
    touched = 0
    for q in qs:
        for block in blocks:
            (geom,) = mm.prepare_block_geometry([block], q, width, height)
            for cfg in cfgs:
                for offsets in steps:
                    tv = offsets[::-1] * 1.5
                    try:
                        want = reference_map_batch(geom, offsets, tv, cfg)
                    except DegenerateGeometryError:
                        with pytest.raises(DegenerateGeometryError):
                            mm.map_block_geometry_batch(geom, offsets, tv, cfg)
                        continue
                    got = mm.map_block_geometry_batch(geom, offsets, tv, cfg)
                    assert len(got) == 2
                    for a, b in zip(got, want):
                        assert a.shape == b.shape
                        assert np.array_equal(a, b)
                    clamped = want[2]
                    for i, tu in enumerate(offsets.tolist()):
                        count = mm._clamped_count(geom, tu, cfg)
                        assert count == clamped[i, 0].sum()
                    touched += bool(clamped.any())
    assert touched  # the pole cases really clamp


def test_batch_mapping_at_the_half_turn_matches_reference():
    # Rotated back by a half turn about z, a pixel at phi' = 0 lands on
    # azimuth +pi exactly (arctan2(+0, -x)), and one at phi' = -5e-16 lands
    # an ulp below pi, where phi + pi rounds up to 2pi: the two cases in
    # which sphere_grid_to_erp's wrap is not the identity.
    assert np.arctan2(0.0, -1.0) == math.pi
    tie = float(np.arctan2(5e-16, -1.0))
    assert tie < math.pi and np.floor((tie + math.pi) / (2 * math.pi)) == 1.0
    phi = np.array([[0.0, -5e-16, -3e-16, 0.25], [-5e-16, 0.0, 1e-3, -2.0]])
    theta = np.array([[math.pi / 2] * 4, [1.0, 2.0, math.pi / 2, 0.5]])
    geom = mm.BlockGeometry(
        theta=theta, phi=phi, clamped_in=np.zeros(phi.shape, dtype=bool),
        theta_c=math.pi / 2, rotation=np.diag([-1.0, -1.0, 1.0]),
        frame_width=64, frame_height=32,
    )
    tu = np.array([0.0, 1.0])
    tv = np.array([0.0, -1.0])
    for cfg in (ORIG, GCG, GCL):
        got = mm.map_block_geometry_batch(geom, tu, tv, cfg)
        want = reference_map_batch(geom, tu, tv, cfg)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert got[0][0, 0, 0, 0] == -0.5  # azimuth pi read as -pi


def reference_rotation(q):
    """rotation_to_epipole through np.cross and np.linalg.norm."""
    q = np.asarray(q, dtype=np.float64)
    q = q / np.linalg.norm(q)
    axis = np.cross(q, np.array([0.0, 0.0, 1.0]))
    s = float(np.linalg.norm(axis))
    c = float(q[2])
    if s < 1e-15:
        return np.eye(3) if c > 0.0 else np.diag([1.0, -1.0, -1.0])
    k = axis / s
    k = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def reference_prepare(block, q, width, height):
    """prepare_block_geometry on full (h, w) grids: the angles of every
    pixel, their trig and the rays, each computed per pixel."""
    rot = reference_rotation(q)
    u = block.x0 + np.arange(block.width, dtype=np.float64)
    v = block.y0 + np.arange(block.height, dtype=np.float64)
    uu, vv = np.meshgrid(u, v)
    phi = 2.0 * math.pi * (uu + 0.5) / width - math.pi
    theta = math.pi * (vv + 0.5) / height
    st = np.sin(theta)
    rays = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    xyz = rays @ rot.T
    z = np.clip(xyz[..., 2], -1.0, 1.0)
    theta_r = np.arccos(z)
    phi_r = np.arctan2(xyz[..., 1], xyz[..., 0])
    phi_r = np.where(np.abs(z) >= 1.0, 0.0, phi_r)
    phi_r = np.where(phi_r >= math.pi, -math.pi, phi_r)
    clamped_in = (theta_r < mm.POLE_EPS) | (theta_r > math.pi - mm.POLE_EPS)
    theta_r = np.clip(theta_r, mm.POLE_EPS, math.pi - mm.POLE_EPS)
    uc, vc = block.center()
    tc = math.pi * (np.float64(vc) + 0.5) / height
    pc = 2.0 * math.pi * (np.float64(uc) + 0.5) / width - math.pi
    center = np.stack([np.sin(tc) * np.cos(pc), np.sin(tc) * np.sin(pc), np.cos(tc)])
    theta_c = float(np.arccos(np.clip((center @ rot.T)[2], -1.0, 1.0)))
    return theta_r, phi_r, clamped_in, theta_c, rot


def _assert_matches_reference(geom, block, q, width, height):
    theta, phi, clamped_in, theta_c, rot = reference_prepare(block, q, width, height)
    for got, want in ((geom.theta, theta), (geom.phi, phi), (geom.rotation, rot)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(geom.clamped_in, clamped_in)
    assert geom.theta_c == theta_c


def test_prepare_matches_reference_bit_for_bit():
    # the q and block set of test_batch_mapping_matches_reference_bit_for_bit
    width, height = 128, 64
    rng = np.random.default_rng(5)
    qs = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    qs += [v / np.linalg.norm(v) for v in rng.normal(size=(3, 3))]
    blocks = [
        BlockSpec(x0=40, y0=24, width=8, height=8),
        BlockSpec(x0=0, y0=0, width=16, height=4),
        BlockSpec(x0=120, y0=60, width=8, height=4),
    ]
    for q in qs:
        for block in blocks:
            (geom,) = mm.prepare_block_geometry([block], q, width, height)
            _assert_matches_reference(geom, block, q, width, height)
        # every block of every row of three tilings, each row prepared at once
        for bw, bh, w, h in ((1, 1, 32, 16), (8, 4, width, height), (16, 16, width, height)):
            tiles = [
                BlockSpec(x0=x, y0=y, width=bw, height=bh)
                for y in range(0, h, bh) for x in range(0, w, bw)
            ]
            per_row = w // bw
            for start in range(0, len(tiles), per_row):
                row = tiles[start : start + per_row]
                geoms = mm.prepare_block_geometry(row, q, w, h)
                assert len(geoms) == len(row)
                for block, geom in zip(row, geoms):
                    assert geom.theta.flags.c_contiguous
                    _assert_matches_reference(geom, block, q, w, h)


def test_prepare_row_refuses_blocks_of_another_row():
    q = np.array([0.0, 0.0, 1.0])
    row = [BlockSpec(x0=0, y0=8, width=8, height=8), BlockSpec(x0=8, y0=8, width=8, height=8)]
    assert len(mm.prepare_block_geometry(row, q, 64, 32)) == 2
    for other in (
        BlockSpec(x0=16, y0=0, width=8, height=8),
        BlockSpec(x0=16, y0=8, width=4, height=8),
        BlockSpec(x0=16, y0=8, width=8, height=4),
    ):
        with pytest.raises(DomainError):
            mm.prepare_block_geometry(row + [other], q, 64, 32)
    with pytest.raises(DomainError):
        mm.prepare_block_geometry(row + [BlockSpec(x0=60, y0=8, width=8, height=8)], q, 64, 32)


def _cylinder_flow_errors(q, flow, cfg, step):
    """|r + flow(round(r)) - p| in ERP pixels, over every pixel p of the
    16x16 blocks of a 256x128 frame whose centers lie within 30 degrees of
    the epipole frame's equator, with r the reference point cfg maps p to
    at the t_u of a cylinder dolly by step along q, t_u = -step / tan(delta)."""
    width, height = 256, 128
    t_u = np.array([-step / math.tan(cfg.delta)])
    errors = []
    for y0 in range(0, height, 16):
        row = [BlockSpec(x0=x0, y0=y0, width=16, height=16) for x0 in range(0, width, 16)]
        for block, geom in zip(row, mm.prepare_block_geometry(row, q, width, height)):
            if abs(geom.theta_c - math.pi / 2) > math.pi / 6:
                continue
            src_u, src_v = mm.map_block_geometry_batch(geom, t_u, np.array([0.0]), cfg)
            src_u, src_v = src_u[0, 0], src_v[0, 0]
            iu = np.rint(src_u).astype(int) % width
            iv = np.clip(np.rint(src_v).astype(int), 0, height - 1)
            pu, pv = np.meshgrid(block.x0 + np.arange(16.0), block.y0 + np.arange(16.0))
            du = src_u + flow.du[iv, iu] - pu
            du -= width * np.round(du / width)
            errors.append(np.hypot(du, src_v + flow.dv[iv, iu] - pv).ravel())
    return np.concatenate(errors)


def test_gc_law_is_synth_cylinder_motion():
    # A dolly of s along a unit cylinder's axis maps cot(theta) to
    # cot(theta) - s, which is gcg's law at t_u = -s / tan(delta), so the
    # mapping lands every pixel where synth's exact flow says; orig at the
    # same t_u does not.  The two oblique q are tilted 40 degrees from an
    # axis pole: further over, the band reaches the world poles, where ERP
    # columns crowd and a nearest-pixel flow lookup is pixels off for any
    # law.
    delta = mm.default_delta(128)
    step = 0.0245  # the benchmark's dolly step: |t_u| = 0.998
    gcg = GeodesicModelConfig(variant="gc", scaling="global", delta=delta)
    orig = GeodesicModelConfig(variant="original", scaling="global", delta=delta)
    tilt = math.radians(40.0)
    cases = [(np.array([0.0, 0.0, 1.0]), 0)] + [
        (np.array([math.sin(tilt) * math.cos(az), math.sin(tilt) * math.sin(az), z]), seed)
        for az, z, seed in ((0.5, math.cos(tilt), 1), (3.0, -math.cos(tilt), 2))
    ]
    for q, seed in cases:
        (flow,) = video_io.synth_dolly(video_io.SynthConfig(
            width=256, height=128, frames=2, step=step, depth_model="cylinder",
            direction=tuple(q), seed=seed,
        )).flows
        gc_err = _cylinder_flow_errors(q, flow, gcg, step)
        orig_err = _cylinder_flow_errors(q, flow, orig, step)
        assert gc_err.size >= 8192
        assert gc_err.max() < 0.05
        assert np.median(orig_err) >= 5 * np.median(gc_err)


# --- arithmetic cost ---------------------------------------------------------


def test_op_count_closed_forms():
    for m in (4, 8, 16, 32, 64):
        for n in (4, 8, 16, 32, 64):
            mn = m * n
            assert mm.op_count("original", "global", m, n).total == 6 * mn + 5
            assert mm.op_count("gc", "global", m, n).total == 4 * mn
            assert mm.op_count("gc", "local", m, n).total == 5 * mn + 1


def test_op_count_8x8_reference_values():
    assert mm.op_count("original", "global", 8, 8).total == 389
    assert mm.op_count("gc", "global", 8, 8).total == 256
    assert mm.op_count("gc", "local", 8, 8).total == 321


def test_op_count_total_is_component_sum():
    for m in (1, 2, 5, 17, 63, 128):
        for n in (1, 3, 8, 31, 128):
            for variant, scaling in (
                ("original", "global"),
                ("gc", "global"),
                ("gc", "local"),
            ):
                c = mm.op_count(variant, scaling, m, n)
                assert c.total == c.trig + c.mul + c.div + c.add


def test_instrumented_kernel_matches_table():
    for m, n in ((1, 1), (3, 5), (8, 8), (16, 4)):
        for variant, scaling in (
            ("original", "global"),
            ("gc", "global"),
            ("gc", "local"),
        ):
            measured = count_block_ops(variant, scaling, m, n)
            stated = mm.op_count(variant, scaling, m, n)
            assert measured == stated
