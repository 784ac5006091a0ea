import math
import tracemalloc

import numpy as np
import pytest

from geo360 import camera_est, geometry, video_io
from geo360.camera_est import FlowField
from geo360.errors import (
    AmbiguousSignError,
    DegenerateGeometryError,
    DomainError,
)


def synthetic_pairs(rng, q, n=50, length=0.1, depth_range=(1.0, 10.0), noise=0.0):
    """Bearing arrays (s, s_m) seen before/after translating the camera by
    length * q."""
    pairs = []
    while len(pairs) < n:
        s = rng.normal(size=3)
        s /= np.linalg.norm(s)
        d = rng.uniform(*depth_range)
        moved = d * s - length * q
        dist = np.linalg.norm(moved)
        if dist < 1e-6:
            continue
        s_m = moved / dist
        if noise:
            for vec in (s, s_m):
                step = rng.normal(size=3) * noise
                step -= vec * np.dot(step, vec)
                vec += step
            s = s / np.linalg.norm(s)
            s_m = s_m / np.linalg.norm(s_m)
        pairs.append((s, s_m))
    s, s_m = zip(*pairs)
    return np.array(s), np.array(s_m)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# --- eight-point -----------------------------------------------------------


def test_noise_free_recovery():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = random_unit(rng)
        est = camera_est.estimate_camera_motion(*synthetic_pairs(rng, q))
        assert geometry.angle_between(est, q) < 1e-6


def test_noise_free_recovery_from_exactly_eight_pairs():
    rng = np.random.default_rng(13)
    for _ in range(10):
        q = random_unit(rng)
        e = camera_est.eight_point(*synthetic_pairs(rng, q, n=8))
        assert np.linalg.norm(e @ q) < 1e-8


def test_epipolar_residual_noise_free():
    rng = np.random.default_rng(1)
    q = random_unit(rng)
    s, s_m = synthetic_pairs(rng, q)
    e = camera_est.eight_point(s, s_m)
    res = np.abs(((s_m @ e) * s).sum(axis=1))
    assert np.median(res) <= 1e-10


def test_essential_matrix_is_a_plain_array():
    rng = np.random.default_rng(5)
    q = random_unit(rng)
    s, s_m = synthetic_pairs(rng, q)
    e = camera_est.eight_point(s, s_m)
    assert type(e) is np.ndarray and e.shape == (3, 3)
    axis = camera_est.epipole_from_essential(e)
    assert np.array_equal(camera_est.disambiguate_sign(axis, s, s_m),
                          camera_est.estimate_camera_motion(s, s_m))
    for bad in (e[:2], e.ravel(), e[None]):
        with pytest.raises(DomainError, match="essential matrix must be 3x3"):
            camera_est.epipole_from_essential(bad)


def test_pixel_pairs_need_a_positive_frame_size():
    # a zero width divided by zero, with warnings, before the bearings failed
    quads = np.array([[3.0, 5.0, 4.0, 5.5]] * 8)
    for width, height in ((0, 32), (64, 0), (-1, 32)):
        with pytest.raises(DomainError, match="frame size"):
            camera_est.pixel_pairs_to_bearings(quads, width, height)


def test_epipolar_residual_with_noise():
    rng = np.random.default_rng(2)
    sigma = 1e-3
    q = random_unit(rng)
    s, s_m = synthetic_pairs(rng, q, noise=sigma)
    e = camera_est.eight_point(s, s_m)
    res = np.abs(((s_m @ e) * s).sum(axis=1))
    assert np.median(res) <= 3 * sigma


def test_noisy_recovery_median_under_one_degree():
    rng = np.random.default_rng(3)
    errs = []
    for _ in range(20):
        q = random_unit(rng)
        est = camera_est.estimate_camera_motion(*synthetic_pairs(rng, q, noise=1e-3))
        errs.append(math.degrees(geometry.angle_between(est, q)))
    assert np.median(errs) < 1.0


def test_rotation_invariance():
    rng = np.random.default_rng(4)
    q = random_unit(rng)
    s, s_m = synthetic_pairs(rng, q)
    base = camera_est.estimate_camera_motion(s, s_m)
    rot = geometry.rotation_to_epipole(random_unit(rng))
    est = camera_est.estimate_camera_motion(s @ rot.T, s_m @ rot.T)
    assert np.linalg.norm(est - rot @ base) < 1e-8


def test_eight_point_memory_is_linear_in_pairs():
    # a full SVD of the N x 9 system would also build an N x N U: 128 MB here
    rng = np.random.default_rng(12)
    q = random_unit(rng)
    s, s_m = synthetic_pairs(rng, q, n=4000)
    tracemalloc.start()
    try:
        e = camera_est.eight_point(s, s_m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.linalg.norm(e @ q) < 1e-9


def test_too_few_pairs():
    rng = np.random.default_rng(5)
    s, s_m = synthetic_pairs(rng, random_unit(rng), n=7)
    with pytest.raises(DomainError):
        camera_est.eight_point(s, s_m)


def test_degenerate_configuration():
    # one repeated correspondence carries rank 1: no unique solution
    s = np.tile([1.0, 0.0, 0.0], (9, 1))
    s_m = np.tile([0.0, 1.0, 0.0], (9, 1))
    with pytest.raises(DegenerateGeometryError):
        camera_est.eight_point(s, s_m)


def test_sign_vote_is_stable_under_flip():
    rng = np.random.default_rng(6)
    q = random_unit(rng)
    s, s_m = synthetic_pairs(rng, q)
    picked = camera_est.disambiguate_sign(q, s, s_m)
    flipped = camera_est.disambiguate_sign(-q, s, s_m)
    assert np.allclose(picked, flipped)


def test_sign_vote_tie():
    q = np.array([0.0, 0.0, 1.0])
    a = np.array([math.sin(0.5), 0.0, math.cos(0.5)])
    b = np.array([math.sin(0.6), 0.0, math.cos(0.6)])
    with pytest.raises(AmbiguousSignError):
        camera_est.disambiguate_sign(q, np.stack([a, b]), np.stack([b, a]))


def test_bearing_pair_normalizes_loose_input():
    # rows within 1e-6 of unit norm are accepted and renormalized; the check
    # runs once on the whole arrays in both array entry points
    rng = np.random.default_rng(7)
    q = random_unit(rng)
    s, s_m = synthetic_pairs(rng, q, n=9, noise=1e-2)
    # per-row scales reweight the least-squares rows of noisy data, so E
    # only stays put if every row is brought back to unit norm
    scale = 1.0 + rng.uniform(-1e-6, 1e-6, size=(9, 1))
    exact = camera_est.eight_point(s, s_m)
    for loose in ((s * scale, s_m), (s, s_m / scale)):
        diff = camera_est.eight_point(*loose) - exact
        assert np.abs(diff).max() <= 1e-12
    # one pair whose ray moves 1e-9 rad away from +z votes forward; a 1e-7
    # longer s_m (or shorter s) would flip the vote unless renormalized
    z = np.array([0.0, 0.0, 1.0])
    a = np.array([[math.sin(0.5), 0.0, math.cos(0.5)]])
    b = np.array([[math.sin(0.5 + 1e-9), 0.0, math.cos(0.5 + 1e-9)]])
    assert np.array_equal(camera_est.disambiguate_sign(z, a, b), z)
    assert np.array_equal(camera_est.disambiguate_sign(z, a, b * (1.0 + 1e-7)), z)
    assert np.array_equal(camera_est.disambiguate_sign(z, a * (1.0 - 1e-7), b), z)
    long_row = s.copy()
    long_row[4] *= 2.0
    for call in (
        camera_est.eight_point,
        lambda a, b: camera_est.disambiguate_sign(q, a, b),
    ):
        with pytest.raises(DomainError):
            call(long_row, s_m)
        with pytest.raises(DomainError):
            call(s, long_row)
        with pytest.raises(DomainError):
            call(s, s_m[:8])
        with pytest.raises(DomainError):
            call(s[:, :2], s_m[:, :2])
        nan_row = s.copy()
        nan_row[2, 0] = np.nan
        with pytest.raises(DomainError):
            call(nan_row, s_m)


def test_pixel_pairs_to_bearings_arity():
    with pytest.raises(DomainError):
        camera_est.pixel_pairs_to_bearings(np.zeros((4, 3)), 64, 32)
    quads = np.array([[10.0, 10.0, 11.0, 10.0]])
    s, s_m = camera_est.pixel_pairs_to_bearings(quads, 64, 32)
    assert s.shape == s_m.shape == (1, 3)


# --- flow handling -----------------------------------------------------------


@pytest.fixture(scope="module")
def synth_flow():
    cfg = video_io.SynthConfig(width=128, height=64, frames=2, step=0.02, seed=2)
    result = video_io.synth_dolly(cfg)
    return result.flows[0], np.asarray(cfg.direction, dtype=float)


def test_flow_to_pairs_drops_pole_margin(synth_flow):
    flow, _ = synth_flow
    s, _ = camera_est.flow_to_pairs(flow, 4)
    theta = np.arccos(np.clip(s[:, 2], -1.0, 1.0))
    assert len(s) > 0
    assert np.all((0.05 <= theta) & (theta <= math.pi - 0.05))


def test_flow_to_pairs_empty_is_degenerate():
    # the only strided row sits inside the polar margin
    flow = FlowField(du=np.zeros((200, 16)), dv=np.zeros((200, 16)))
    with pytest.raises(DegenerateGeometryError):
        camera_est.flow_to_pairs(flow, 1000)


def test_flow_to_pairs_drops_non_finite_flow(synth_flow):
    # one unknown vector on the strided grid must cost one sample, not the
    # whole frame
    flow, _ = synth_flow
    clean = camera_est.estimate_camera_motion(
        *camera_est.flow_to_pairs(flow, 4)
    )
    for bad in (np.nan, np.inf):
        du = flow.du.copy()
        du[32, 64] = bad
        s, s_m = camera_est.flow_to_pairs(FlowField(du=du, dv=flow.dv), 4)
        assert np.isfinite(s_m).all()
        est = camera_est.estimate_camera_motion(s, s_m)
        assert math.degrees(geometry.angle_between(est, clean)) < 1e-6


def test_flow_estimate_recovers_truth(synth_flow):
    flow, q_true = synth_flow
    s, s_m = camera_est.flow_to_pairs(flow, 4)
    est = camera_est.estimate_camera_motion(s, s_m)
    assert math.degrees(geometry.angle_between(est, q_true)) < 0.2


# --- flow finetuning -----------------------------------------------------------


def perturb(q, angle, rng):
    e1, e2 = geometry.tangent_basis(q)
    a = rng.uniform(0.0, 2.0 * math.pi)
    axis = math.cos(a) * e1 + math.sin(a) * e2
    return math.cos(angle) * q + math.sin(angle) * axis


def test_finetune_recovers_perturbed_direction(synth_flow):
    flow, q_true = synth_flow
    rng = np.random.default_rng(8)
    q0 = perturb(q_true, math.radians(3.0), rng)
    refined = camera_est.flow_finetune(q0, flow)
    assert math.degrees(geometry.angle_between(refined, q_true)) < 0.2


def test_finetune_never_increases_objective(synth_flow):
    flow, q_true = synth_flow
    rng = np.random.default_rng(9)
    for _ in range(5):
        q0 = perturb(q_true, math.radians(3.0), rng)
        j0 = camera_est.flow_alignment_objective(q0, flow)
        refined = camera_est.flow_finetune(q0, flow)
        j1 = camera_est.flow_alignment_objective(refined, flow)
        assert j1 <= j0 + 1e-15


def reference_objective(q, u, v, dirs, bearings, width, height):
    """The flow objective of one direction, one sample array at a time."""
    rot = geometry.rotation_to_epipole(q)
    local = bearings @ rot.T
    z = np.clip(local[:, 2], -1.0, 1.0)
    theta = np.arccos(z)
    phi = np.arctan2(local[:, 1], local[:, 0])
    sign = np.where(theta <= np.pi / 2.0, 1.0, -1.0)
    world = geometry.sphere_grid_to_cart(theta + sign * 1e-3, phi) @ rot
    th_w, ph_w = geometry.cart_grid_to_sphere(world)
    u2, v2 = geometry.sphere_grid_to_erp(th_w, ph_w, width, height)
    du = u2 - u
    du = (du - width * np.round(du / width)) * sign
    dv = (v2 - v) * sign
    mag = np.hypot(du, dv)
    mag = np.where(mag == 0.0, 1.0, mag)
    field = np.stack([du / mag, dv / mag], axis=1)
    return float(np.arccos(np.clip((dirs * field).sum(axis=1), -1.0, 1.0)).mean())


def reference_finetune(q_init, flow):
    """flow_finetune at its default stride, scoring one candidate at a time."""
    q = geometry.as_unit_vector(q_init)
    samples = camera_est._flow_samples(flow, 4)
    args = samples + (flow.width, flow.height)
    best_q, best_j = q, reference_objective(q, *args)
    radius = camera_est._GRID_RADIUS
    offsets = np.linspace(-1.0, 1.0, camera_est._GRID_SIZE)
    for _ in range(camera_est._LEVELS):
        e1, e2 = geometry.tangent_basis(best_q)
        center = best_q
        for a in offsets * radius:
            for b in offsets * radius:
                r_off = np.hypot(a, b)
                if r_off == 0.0:
                    continue
                axis = (a * e1 + b * e2) / r_off
                cand = geometry.as_unit_vector(
                    center * np.cos(r_off) + axis * np.sin(r_off)
                )
                j = reference_objective(cand, *args)
                if j < best_j:
                    best_j, best_q = j, cand
        radius /= 2.0
    return best_q


@pytest.mark.parametrize("per_batch", [1, 5, 24])
def test_batched_finetune_matches_one_at_a_time(synth_flow, monkeypatch, per_batch):
    # every batch size gives each direction the bits it gets alone, and so
    # the same refined direction
    flow, q_true = synth_flow
    q = geometry.as_unit_vector(q_true)
    samples = camera_est._flow_samples(flow, 4)
    monkeypatch.setattr(camera_est, "_BATCH_SAMPLES", per_batch * len(samples[0]))
    rng = np.random.default_rng(11)
    qs = [geometry.as_unit_vector(perturb(q_true, math.radians(a), rng))
          for a in (0.5, 3.0, 40.0, 120.0, 179.0)]
    qs += [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    args = samples + (flow.width, flow.height)
    assert camera_est._objectives(qs, *args) == [reference_objective(q, *args) for q in qs]
    for q0 in qs[:3]:
        assert np.array_equal(
            camera_est.flow_finetune(q0, flow), reference_finetune(q0, flow)
        )


def test_finetune_scores_each_candidate_once(synth_flow, monkeypatch):
    # A level that keeps its center hands its inner ring to the next level
    # bit for bit; those repeats are not scored again, and the refined
    # direction is the one scoring every candidate gives.
    flow, q_true = synth_flow
    objectives = camera_est._objectives
    scored = []

    def counted(qs, *args):
        scored.extend(q.tobytes() for q in qs)
        return objectives(qs, *args)

    monkeypatch.setattr(camera_est, "_objectives", counted)
    rng = np.random.default_rng(12)
    full = 1 + camera_est._LEVELS * (camera_est._GRID_SIZE ** 2 - 1)
    for q0 in (q_true, perturb(q_true, math.radians(3.0), rng)):
        scored.clear()
        refined = camera_est.flow_finetune(q0, flow)
        assert np.array_equal(refined, reference_finetune(q0, flow))
        assert len(set(scored)) == len(scored) < full


def test_finetune_keeps_the_first_of_tied_candidates(synth_flow, monkeypatch):
    # scores as the grid scan sees them: the start scores 1, two candidates
    # of the first level tie at 0.5 and nothing later does better; the
    # second level keeps its center, so the third scores only the 16 new
    # candidates of its grid
    flow, q_true = synth_flow
    levels = []

    def scores(qs, *args):
        levels.append(qs)
        if len(levels) == 1:
            return [1.0]
        return [0.5 if i in (3, 7) else 0.75 for i in range(len(qs))]

    monkeypatch.setattr(camera_est, "_objectives", scores)
    monkeypatch.setattr(camera_est, "_LEVELS", 3)
    refined = camera_est.flow_finetune(q_true, flow)
    assert [len(qs) for qs in levels] == [1, 24, 24, 16]
    assert np.array_equal(refined, levels[1][3])


def test_finetune_drops_infinite_flow():
    cfg = video_io.SynthConfig(width=120, height=60, frames=2, step=0.02, seed=5)
    flow = video_io.synth_dolly(cfg).flows[0]
    q_true = np.asarray(cfg.direction, dtype=float)
    q0 = perturb(q_true, math.radians(3.0), np.random.default_rng(6))
    clean = camera_est.flow_finetune(q0, flow)
    du = flow.du.copy()
    du[::4, ::4][7, 15] = np.inf
    bad = FlowField(du=du, dv=flow.dv)
    assert math.isfinite(camera_est.flow_alignment_objective(q_true, bad))
    refined = camera_est.flow_finetune(q0, bad)
    assert math.degrees(geometry.angle_between(refined, clean)) < 1e-6


def test_objective_without_usable_flow_is_degenerate():
    flow = FlowField(du=np.zeros((16, 32)), dv=np.zeros((16, 32)))
    q = np.array([0.0, 0.0, 1.0])
    with pytest.raises(
        DegenerateGeometryError, match="no flow samples above the magnitude threshold"
    ):
        camera_est.flow_alignment_objective(q, flow)
