import math

import numpy as np
import pytest

from geo360 import mocomp, video_io
from geo360.errors import DomainError
from geo360.mocomp import ErpFrame
from geo360.motion_model import BlockSpec, GeodesicModelConfig, MotionVector2D

GCG = GeodesicModelConfig(variant="gc", scaling="global", delta=math.pi / 128)
ORIG = GeodesicModelConfig(variant="original", scaling="global", delta=math.pi / 128)
Z = np.array([0.0, 0.0, 1.0])


def luma_frame(y, bit_depth=8):
    h, w = y.shape
    return ErpFrame(width=w, height=h, bit_depth=bit_depth, y=y)


@pytest.fixture(scope="module")
def cylinder_pair():
    # dolly step chosen so the exact geodesic answer is t_u = -2 integers
    delta = math.pi / 128
    cfg = video_io.SynthConfig(
        width=256, height=128, frames=2, step=2.0 * math.tan(delta),
        depth_model="cylinder", seed=9,
    )
    return video_io.synth_dolly(cfg).frames


# --- frame validation -------------------------------------------------------


def test_frame_rejects_bad_bit_depth():
    with pytest.raises(DomainError):
        luma_frame(np.zeros((4, 8), dtype=np.uint8), bit_depth=12)


def test_frame_rejects_float_samples():
    with pytest.raises(DomainError):
        luma_frame(np.zeros((4, 8), dtype=np.float32))


def test_frame_rejects_out_of_range():
    y = np.full((4, 8), 300, dtype=np.int32)
    with pytest.raises(DomainError):
        luma_frame(y, bit_depth=8)
    luma_frame(y, bit_depth=10)  # fine at 10 bits


def test_frame_rejects_half_chroma():
    y = np.zeros((4, 8), dtype=np.uint8)
    c = np.zeros((2, 4), dtype=np.uint8)
    with pytest.raises(DomainError):
        ErpFrame(width=8, height=4, bit_depth=8, y=y, cb=c)


def test_frame_rejects_odd_dims_with_chroma():
    y = np.zeros((3, 8), dtype=np.uint8)
    c = np.zeros((1, 4), dtype=np.uint8)
    with pytest.raises(DomainError):
        ErpFrame(width=8, height=3, bit_depth=8, y=y, cb=c, cr=c)


# --- bilinear sampling --------------------------------------------------------


def test_bilinear_quarter_weights():
    f = luma_frame(np.array([[0, 10], [20, 30]], dtype=np.int32))
    out = mocomp.sample_bilinear(f, np.array([0.5]), np.array([0.5]))
    assert math.isclose(float(out[0]), 15.0)
    out = mocomp.sample_bilinear(f, np.array([0.25]), np.array([0.0]))
    assert math.isclose(float(out[0]), 2.5)


def test_bilinear_snaps_near_integers():
    f = luma_frame(np.array([[1, 2], [3, 4]], dtype=np.int32))
    assert mocomp.sample_bilinear(f, 1.0 - 1e-9, 1.0 + 1e-9) == 4.0


def test_bilinear_wraps_horizontally():
    f = luma_frame(np.array([[10, 0, 0, 40]], dtype=np.int32))
    # halfway between the last and first column, both directions
    assert math.isclose(mocomp.sample_bilinear(f, 3.5, 0.0), 25.0)
    assert math.isclose(mocomp.sample_bilinear(f, -0.5, 0.0), 25.0)


def test_bilinear_clamps_vertically():
    f = luma_frame(np.array([[5], [9]], dtype=np.int32))
    out = mocomp.sample_bilinear(f, np.array([0.0, 0.0]), np.array([-2.0, 5.0]))
    assert float(out[0]) == 5.0
    assert float(out[1]) == 9.0


def reference_bilinear(plane, x, y):
    """The 2-D-index bilinear formula the flat-index sampler must reproduce
    bit for bit."""
    h, w = plane.shape
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x = np.where(np.abs(x - np.rint(x)) < mocomp.SNAP_EPS, np.rint(x), x)
    y = np.where(np.abs(y - np.rint(y)) < mocomp.SNAP_EPS, np.rint(y), y)
    x = np.mod(x, w)
    y = np.clip(y, 0.0, float(h - 1))
    x0 = np.floor(x).astype(np.int64) % w
    fx = x - np.floor(x)
    y0 = np.floor(y).astype(np.int64)
    fy = y - y0
    x1 = (x0 + 1) % w
    y1 = np.minimum(y0 + 1, h - 1)
    return (
        plane[y0, x0] * ((1.0 - fx) * (1.0 - fy))
        + plane[y0, x1] * (fx * (1.0 - fy))
        + plane[y1, x0] * ((1.0 - fx) * fy)
        + plane[y1, x1] * (fx * fy)
    )


@pytest.mark.parametrize("shape", [(), (37,), (81, 6, 5)])
def test_sampler_matches_reference_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape) + 1)
    h, w = 12, 20
    plane = rng.integers(0, 1024, size=(h, w)).astype(np.float64)
    # wraps past both edges, rows past both poles, and offsets around the
    # snap distance; the tiny negatives are where np.mod alone returns w
    near = np.array([0.0, 3e-7, -3e-7, 2e-6, -2e-6, 1e-17, -1e-17, -1e-15, 0.5])
    cases = [
        (rng.uniform(-3 * w, 3 * w, shape), rng.uniform(-4.0, h + 4.0, shape)),
        (
            rng.integers(-2 * w, 2 * w, shape) + rng.choice(near, shape),
            rng.integers(-2, h + 2, shape) + rng.choice(near, shape),
        ),
        (
            rng.choice([-w, 0, w, 2 * w], shape) + rng.choice(near, shape),
            rng.choice([-1.5, 0.0, h - 1.0, h - 0.5, h + 3.0], shape),
        ),
    ]
    for x, y in cases:
        got = mocomp._PlaneSampler(x, y, w, h).sample(plane)
        want = reference_bilinear(plane, x, y)
        assert got.shape == np.shape(want)
        assert np.array_equal(got, want)


# --- prediction ---------------------------------------------------------------


def test_identity_prediction_zero_sad():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 256, size=(64, 128), dtype=np.int32)
    f = luma_frame(y)
    block = BlockSpec(x0=48, y0=16, width=16, height=16)
    pred = mocomp.predict_block(f, f, block, Z, MotionVector2D(0.0, 0.0), GCG)
    assert pred.sad == 0.0
    assert pred.degenerate == 0


def test_geometry_mismatch_rejected():
    a = luma_frame(np.zeros((4, 8), dtype=np.uint8))
    b = luma_frame(np.zeros((8, 16), dtype=np.uint8))
    with pytest.raises(DomainError):
        mocomp.predict_block(
            a, b, BlockSpec(x0=0, y0=0, width=4, height=4), Z,
            MotionVector2D(0.0, 0.0), GCG,
        )


def test_chroma_predicted_for_even_aligned_blocks():
    rng = np.random.default_rng(1)
    def frame():
        return ErpFrame(
            width=32, height=16, bit_depth=8,
            y=rng.integers(0, 256, size=(16, 32), dtype=np.int32),
            cb=rng.integers(0, 256, size=(8, 16), dtype=np.int32),
            cr=rng.integers(0, 256, size=(8, 16), dtype=np.int32),
        )
    ref, cur = frame(), frame()
    block = BlockSpec(x0=8, y0=4, width=8, height=8)
    pred = mocomp.predict_block(ref, cur, block, Z, MotionVector2D(1.0, 0.0), GCG)
    assert pred.cb is not None and pred.cb.shape == (4, 4)
    odd = BlockSpec(x0=9, y0=4, width=8, height=8)
    pred = mocomp.predict_block(ref, cur, odd, Z, MotionVector2D(1.0, 0.0), GCG)
    assert pred.cb is None


def test_exact_model_warp_has_small_residual(cylinder_pair):
    # the cylinder world makes the gc-global mapping exact; what is left is
    # resampling noise, far below any wrong candidate
    ref, cur = cylinder_pair
    true_t = MotionVector2D(-2.0, 0.0)
    # mid-latitude rows only: near the poles the cylinder texture aliases
    for block in mocomp.tile_blocks(256, 128, 32, 32)[8:24:3]:
        npix = block.width * block.height
        good = mocomp.predict_block(ref, cur, block, Z, true_t, GCG).sad / npix
        assert good < 3.0
        for tu in (-4.0, 0.0, 2.0):
            bad = (
                mocomp.predict_block(
                    ref, cur, block, Z, MotionVector2D(tu, 0.0), GCG
                ).sad
                / npix
            )
            assert bad > good


# --- search --------------------------------------------------------------------


def test_search_recovers_true_motion(cylinder_pair):
    ref, cur = cylinder_pair
    for block in mocomp.tile_blocks(256, 128, 32, 32)[8:24:3]:
        r = mocomp.motion_search(ref, cur, block, Z, GCG, 4.0, 1.0)
        assert r.t == MotionVector2D(-2.0, 0.0)


def test_search_prefers_smallest_offset_on_ties():
    y = np.full((16, 32), 50, dtype=np.int32)  # constant: every SAD ties
    f = luma_frame(y)
    block = BlockSpec(x0=8, y0=4, width=8, height=8)
    r = mocomp.motion_search(f, f, block, Z, GCG, 2.0, 1.0)
    assert r.t == MotionVector2D(0.0, 0.0)
    out = mocomp.translational_search(f, f, block, 2.0, 1.0)
    assert out.t == MotionVector2D(0.0, 0.0)


def test_halving_step_never_hurts(cylinder_pair):
    ref, cur = cylinder_pair
    for block in mocomp.tile_blocks(256, 128, 32, 32)[4:28:6]:
        coarse = mocomp.motion_search(ref, cur, block, Z, GCG, 2.0, 1.0)
        fine = mocomp.motion_search(ref, cur, block, Z, GCG, 2.0, 0.5)
        assert fine.prediction.sad <= coarse.prediction.sad + 1e-9


def test_candidate_grid_validation():
    f = luma_frame(np.zeros((16, 32), dtype=np.uint8))
    block = BlockSpec(x0=0, y0=0, width=8, height=8)
    with pytest.raises(DomainError):
        mocomp.motion_search(f, f, block, Z, GCG, 2.0, 0.3)
    with pytest.raises(DomainError):
        mocomp.motion_search(f, f, block, Z, GCG, -1.0, 1.0)


def test_gc_swap_invariance(cylinder_pair):
    # predicting forward with t matches predicting backward with -t, up to
    # resampling: per-pixel gap stays under one 8-bit step
    ref, cur = cylinder_pair
    for block in mocomp.tile_blocks(256, 128, 32, 32)[9:29:7]:
        npix = block.width * block.height
        for tu in (-2.0, 1.0):
            t = MotionVector2D(tu, 0.5)
            a = mocomp.predict_block(ref, cur, block, Z, t, GCG).sad
            b = mocomp.predict_block(
                cur, ref, block, Z, MotionVector2D(-t.t_u, -t.t_v), GCG
            ).sad
            assert abs(a - b) / npix <= 1.0


def test_horizontal_wrap_equivariance(cylinder_pair):
    ref, cur = cylinder_pair
    w = ref.width
    c = 64
    ang = 2.0 * math.pi * c / w
    rot_z = np.array(
        [
            [math.cos(ang), -math.sin(ang), 0.0],
            [math.sin(ang), math.cos(ang), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    q = np.array([0.3, -0.2, 0.93])
    q /= np.linalg.norm(q)
    q_rot = rot_z @ q

    def rolled(f):
        return luma_frame(np.roll(f.y, c, axis=1))

    ref2, cur2 = rolled(ref), rolled(cur)
    for block in (
        BlockSpec(x0=32, y0=32, width=16, height=16),
        BlockSpec(x0=128, y0=64, width=16, height=16),
    ):
        shifted = BlockSpec(
            x0=(block.x0 + c) % w, y0=block.y0,
            width=block.width, height=block.height,
        )
        r1 = mocomp.motion_search(ref, cur, block, q, GCG, 3.0, 1.0)
        r2 = mocomp.motion_search(ref2, cur2, shifted, q_rot, GCG, 3.0, 1.0)
        assert r1.t == r2.t
        assert math.isclose(r1.prediction.sad, r2.prediction.sad, rel_tol=1e-9)


# --- model comparison ------------------------------------------------------------


def test_compare_models_structure(cylinder_pair):
    ref, cur = cylinder_pair
    blocks = mocomp.tile_blocks(256, 128, 32, 32)[:4]
    rows = mocomp.compare_models(
        ref, cur, blocks, Z, {"orig": ORIG, "gcg": GCG}, 2.0, 1.0
    )
    assert len(rows) == 4
    for row in rows:
        assert set(row.outcomes) == {"translational", "orig", "gcg"}
        assert 0.0 < row.center_theta < math.pi


def test_compare_sequence_matches_pairwise(cylinder_pair):
    ref, cur = cylinder_pair
    blocks = mocomp.tile_blocks(256, 128, 32, 32)[10:14]
    seq = mocomp.compare_sequence(
        [ref, cur], blocks, [Z], {"gcg": GCG}, 2.0, 1.0
    )
    pair = mocomp.compare_models(ref, cur, blocks, Z, {"gcg": GCG}, 2.0, 1.0)
    assert seq[0] == pair
    for row in seq[0]:
        found = mocomp.motion_search(ref, cur, row.block, Z, GCG, 2.0, 1.0)
        assert found.t == row.outcomes["gcg"].t
        assert found.prediction.sad == row.outcomes["gcg"].sad
        shifted = mocomp.translational_search(ref, cur, row.block, 2.0, 1.0)
        assert shifted == row.outcomes["translational"]


def test_compare_sequence_arity_checks(cylinder_pair):
    ref, cur = cylinder_pair
    blocks = mocomp.tile_blocks(256, 128, 32, 32)[:1]
    with pytest.raises(DomainError):
        mocomp.compare_sequence([ref], blocks, [], {"gcg": GCG}, 2.0, 1.0)
    with pytest.raises(DomainError):
        mocomp.compare_sequence([ref, cur], blocks, [Z, Z], {"gcg": GCG}, 2.0, 1.0)


def test_strict_winner():
    block = BlockSpec(x0=0, y0=0, width=8, height=8)
    row = mocomp.BlockComparison(
        block=block,
        center_theta=1.0,
        outcomes={
            "translational": mocomp.SearchOutcome(MotionVector2D(0, 0), 10.0),
            "gcg": mocomp.SearchOutcome(MotionVector2D(0, 0), 7.0),
        },
    )
    assert mocomp.strict_winner(row) == "gcg"
    tied = mocomp.BlockComparison(
        block=block,
        center_theta=1.0,
        outcomes={
            "translational": mocomp.SearchOutcome(MotionVector2D(0, 0), 7.0),
            "gcg": mocomp.SearchOutcome(MotionVector2D(0, 0), 7.0),
        },
    )
    assert mocomp.strict_winner(tied) is None


def test_tile_blocks():
    blocks = mocomp.tile_blocks(64, 32, 16, 16)
    assert len(blocks) == 8
    assert blocks[0] == BlockSpec(x0=0, y0=0, width=16, height=16)
    with pytest.raises(DomainError):
        mocomp.tile_blocks(60, 32, 16, 16)
