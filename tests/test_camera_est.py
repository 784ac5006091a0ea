import math
import tracemalloc

import numpy as np
import pytest

from geo360 import camera_est, geometry, video_io
from geo360.camera_est import BearingPair, FinetuneConfig, FlowField
from geo360.errors import (
    AmbiguousSignError,
    DegenerateGeometryError,
    DomainError,
    NoFlowInformationError,
)


def synthetic_pairs(rng, q, n=50, length=0.1, depth_range=(1.0, 10.0), noise=0.0):
    """Bearings seen before/after translating the camera by length * q."""
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
        pairs.append(BearingPair(s=s, s_m=s_m))
    return pairs


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# --- eight-point -----------------------------------------------------------


def test_noise_free_recovery():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = random_unit(rng)
        pairs = synthetic_pairs(rng, q)
        est = camera_est.estimate_camera_motion(pairs)
        assert geometry.angle_between(est, q) < 1e-6


def test_noise_free_recovery_from_exactly_eight_pairs():
    rng = np.random.default_rng(13)
    for _ in range(10):
        q = random_unit(rng)
        pairs = synthetic_pairs(rng, q, n=8)
        e = camera_est.eight_point(pairs).matrix
        assert np.linalg.norm(e @ q) < 1e-8


def test_epipolar_residual_noise_free():
    rng = np.random.default_rng(1)
    q = random_unit(rng)
    pairs = synthetic_pairs(rng, q)
    e = camera_est.eight_point(pairs).matrix
    res = [abs(p.s_m @ e @ p.s) for p in pairs]
    assert np.median(res) <= 1e-10


def test_epipolar_residual_with_noise():
    rng = np.random.default_rng(2)
    sigma = 1e-3
    q = random_unit(rng)
    pairs = synthetic_pairs(rng, q, noise=sigma)
    e = camera_est.eight_point(pairs).matrix
    res = [abs(p.s_m @ e @ p.s) for p in pairs]
    assert np.median(res) <= 3 * sigma


def test_noisy_recovery_median_under_one_degree():
    rng = np.random.default_rng(3)
    errs = []
    for _ in range(20):
        q = random_unit(rng)
        pairs = synthetic_pairs(rng, q, noise=1e-3)
        est = camera_est.estimate_camera_motion(pairs)
        errs.append(math.degrees(geometry.angle_between(est, q)))
    assert np.median(errs) < 1.0


def test_rotation_invariance():
    rng = np.random.default_rng(4)
    q = random_unit(rng)
    pairs = synthetic_pairs(rng, q)
    base = camera_est.estimate_camera_motion(pairs)
    rot = geometry.rotation_to_epipole(random_unit(rng))
    rotated = [BearingPair(s=rot @ p.s, s_m=rot @ p.s_m) for p in pairs]
    est = camera_est.estimate_camera_motion(rotated)
    assert np.linalg.norm(est - rot @ base) < 1e-8


def test_eight_point_memory_is_linear_in_pairs():
    # a full SVD of the N x 9 system would also build an N x N U: 128 MB here
    rng = np.random.default_rng(12)
    q = random_unit(rng)
    pairs = synthetic_pairs(rng, q, n=4000)
    tracemalloc.start()
    try:
        e = camera_est.eight_point(pairs).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.linalg.norm(e @ q) < 1e-9


def test_too_few_pairs():
    rng = np.random.default_rng(5)
    pairs = synthetic_pairs(rng, random_unit(rng), n=7)
    with pytest.raises(DomainError):
        camera_est.eight_point(pairs)


def test_degenerate_configuration():
    # one repeated correspondence carries rank 1: no unique solution
    s = np.array([1.0, 0.0, 0.0])
    s_m = np.array([0.0, 1.0, 0.0])
    pairs = [BearingPair(s=s, s_m=s_m)] * 9
    with pytest.raises(DegenerateGeometryError):
        camera_est.eight_point(pairs)


def test_sign_vote_is_stable_under_flip():
    rng = np.random.default_rng(6)
    q = random_unit(rng)
    pairs = synthetic_pairs(rng, q)
    picked = camera_est.disambiguate_sign(q, pairs)
    flipped = camera_est.disambiguate_sign(-q, pairs)
    assert np.allclose(picked, flipped)


def test_sign_vote_tie():
    q = np.array([0.0, 0.0, 1.0])
    a = np.array([math.sin(0.5), 0.0, math.cos(0.5)])
    b = np.array([math.sin(0.6), 0.0, math.cos(0.6)])
    pairs = [BearingPair(s=a, s_m=b), BearingPair(s=b, s_m=a)]
    with pytest.raises(AmbiguousSignError):
        camera_est.disambiguate_sign(q, pairs)


def test_bearing_pair_normalizes_loose_input():
    p = BearingPair(s=np.array([1.0 + 1e-7, 0.0, 0.0]), s_m=np.array([0.0, 1.0, 0.0]))
    assert math.isclose(np.linalg.norm(p.s), 1.0, abs_tol=1e-12)
    with pytest.raises(DomainError):
        BearingPair(s=np.array([2.0, 0.0, 0.0]), s_m=np.array([0.0, 1.0, 0.0]))


def test_pixel_pairs_to_bearings_arity():
    with pytest.raises(DomainError):
        camera_est.pixel_pairs_to_bearings(np.zeros((4, 3)), 64, 32)
    quads = np.array([[10.0, 10.0, 11.0, 10.0]])
    pairs = camera_est.pixel_pairs_to_bearings(quads, 64, 32)
    assert len(pairs) == 1


# --- flow handling -----------------------------------------------------------


@pytest.fixture(scope="module")
def synth_flow():
    cfg = video_io.SynthConfig(width=128, height=64, frames=2, step=0.02, seed=2)
    result = video_io.synth_dolly(cfg)
    return result.flows[0], np.asarray(cfg.direction, dtype=float)


def test_flow_to_pairs_drops_pole_margin(synth_flow):
    flow, _ = synth_flow
    pairs = camera_est.flow_to_pairs(flow, 4, flow.width, flow.height)
    for p in pairs:
        theta = math.acos(np.clip(p.s[2], -1.0, 1.0))
        assert 0.05 <= theta <= math.pi - 0.05


def test_flow_to_pairs_empty_is_degenerate():
    # the only strided row sits inside the polar margin
    flow = FlowField(du=np.zeros((200, 16)), dv=np.zeros((200, 16)))
    with pytest.raises(DegenerateGeometryError):
        camera_est.flow_to_pairs(flow, 1000, 16, 200)


def test_flow_estimate_recovers_truth(synth_flow):
    flow, q_true = synth_flow
    pairs = camera_est.flow_to_pairs(flow, 4, flow.width, flow.height)
    est = camera_est.estimate_camera_motion(pairs)
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
    cfg = FinetuneConfig()
    refined = camera_est.flow_finetune(q0, flow, cfg)
    assert math.degrees(geometry.angle_between(refined, q_true)) < 0.2


def test_finetune_never_increases_objective(synth_flow):
    flow, q_true = synth_flow
    rng = np.random.default_rng(9)
    cfg = FinetuneConfig()
    for _ in range(5):
        q0 = perturb(q_true, math.radians(3.0), rng)
        j0 = camera_est.flow_alignment_objective(q0, flow, cfg.stride, cfg.min_flow)
        refined = camera_est.flow_finetune(q0, flow, cfg)
        j1 = camera_est.flow_alignment_objective(
            refined, flow, cfg.stride, cfg.min_flow
        )
        assert j1 <= j0 + 1e-15


def test_objective_without_usable_flow_carries_q_init():
    flow = FlowField(du=np.zeros((16, 32)), dv=np.zeros((16, 32)))
    q = np.array([0.0, 0.0, 1.0])
    with pytest.raises(NoFlowInformationError) as info:
        camera_est.flow_alignment_objective(q, flow, min_flow=0.5)
    assert info.value.q_init is not None


def test_finetune_config_validation():
    with pytest.raises(DomainError):
        FinetuneConfig(grid_radius=0.0)
    with pytest.raises(DomainError):
        FinetuneConfig(levels=0)
    with pytest.raises(DomainError):
        FinetuneConfig(min_flow=-1.0)
