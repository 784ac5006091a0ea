import math
import tracemalloc

import numpy as np
import pytest

from geo360 import mocomp, motion_model, video_io
from geo360.errors import DomainError
from geo360.mocomp import ErpFrame
from geo360.motion_model import BlockSpec, GeodesicModelConfig, MotionVector2D
from oracles import sample_bilinear

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


def _planes():
    """Zero int32 planes of an 8x4 4:2:0 frame, by ErpFrame field name."""
    return {"y": np.zeros((4, 8), np.int32), "cb": np.zeros((2, 4), np.int32),
            "cr": np.zeros((2, 4), np.int32)}


@pytest.mark.parametrize("plane", ["y", "cb", "cr"])
def test_frame_rejects_negative_samples(plane):
    planes = _planes()
    planes[plane][1, 2] = -5
    with pytest.raises(DomainError):
        ErpFrame(width=8, height=4, bit_depth=8, **planes)


@pytest.mark.parametrize("plane", ["cb", "cr"])
@pytest.mark.parametrize("bit_depth", [8, 10])
def test_frame_rejects_chroma_above_bit_depth(plane, bit_depth):
    peak = (1 << bit_depth) - 1
    for value in (peak + 1, 4000):
        planes = _planes()
        planes[plane][1, 2] = value
        with pytest.raises(DomainError):
            ErpFrame(width=8, height=4, bit_depth=bit_depth, **planes)
    planes[plane][1, 2] = peak
    ErpFrame(width=8, height=4, bit_depth=bit_depth, **planes)  # the peak is fine


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
    out = sample_bilinear(f, np.array([0.5]), np.array([0.5]))
    assert math.isclose(float(out[0]), 15.0)
    out = sample_bilinear(f, np.array([0.25]), np.array([0.0]))
    assert math.isclose(float(out[0]), 2.5)


def test_bilinear_snaps_near_integers():
    f = luma_frame(np.array([[1, 2], [3, 4]], dtype=np.int32))
    assert sample_bilinear(f, 1.0 - 1e-9, 1.0 + 1e-9) == 4.0


def test_bilinear_wraps_horizontally():
    f = luma_frame(np.array([[10, 0, 0, 40]], dtype=np.int32))
    # halfway between the last and first column, both directions
    assert math.isclose(sample_bilinear(f, 3.5, 0.0), 25.0)
    assert math.isclose(sample_bilinear(f, -0.5, 0.0), 25.0)


def test_bilinear_clamps_vertically():
    f = luma_frame(np.array([[5], [9]], dtype=np.int32))
    out = sample_bilinear(f, np.array([0.0, 0.0]), np.array([-2.0, 5.0]))
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


@pytest.mark.parametrize(
    "shape",
    [((), ()), ((37,), (37,)), ((81, 6, 5),) * 2, ((9, 1, 1, 16), (1, 9, 16, 1))],
)
def test_sampler_matches_reference_bit_for_bit(shape):
    xs, ys = shape
    rng = np.random.default_rng(sum(xs) + 1)
    h, w = 12, 20
    plane = rng.integers(0, 1024, size=(h, w))
    quads = mocomp._quads(plane)
    # wraps past both edges, rows past both poles, and offsets around the
    # snap distance; the tiny negatives are where np.mod alone returns w
    near = np.array([0.0, 3e-7, -3e-7, 2e-6, -2e-6, 1e-17, -1e-17, -1e-15, 0.5])
    cases = [
        (rng.uniform(-3 * w, 3 * w, xs), rng.uniform(-4.0, h + 4.0, ys)),
        (
            rng.integers(-2 * w, 2 * w, xs) + rng.choice(near, xs),
            rng.integers(-2, h + 2, ys) + rng.choice(near, ys),
        ),
        (
            rng.choice([-w, 0, w, 2 * w], xs) + rng.choice(near, xs),
            rng.choice([-1.5, 0.0, h - 1.0, h - 0.5, h + 3.0], ys),
        ),
    ]
    # whole x, whole y, both whole (once snapped): zero-weight taps dropped
    snap = np.array([0.0, 3e-7, -3e-7, 1e-17, -1e-17, -1e-15])
    whole_x = rng.integers(-2 * w, 2 * w, xs) + rng.choice(snap, xs)
    whole_y = rng.integers(-2, h + 2, ys) + rng.choice(snap, ys)
    cases += [
        (whole_x, rng.uniform(-4.0, h + 4.0, ys)),
        (rng.uniform(-3 * w, 3 * w, xs), whole_y),
        (whole_x, whole_y),
    ]
    for x, y in cases:
        # the sampler overwrites its coordinates, so it gets copies
        got = mocomp._PlaneSampler(
            np.array(x, dtype=np.float64), np.array(y, dtype=np.float64), w, h
        ).sample(quads)
        want = reference_bilinear(plane, x, y)
        assert got.shape == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "dtype, peak", [(np.uint8, 255), ("<u2", 1023), (np.int32, 2**31 - 1)]
)
def test_sampler_plane_dtypes_and_edges(dtype, peak):
    # planes of video sample types, peak values included, sampled on the
    # wrap column, both clamp rows and at 0-d coordinates
    rng = np.random.default_rng(3)
    h, w = 6, 10
    plane = rng.integers(0, peak, size=(h, w), endpoint=True).astype(dtype)
    plane[0, w - 1] = plane[h - 1, 0] = peak
    quads = mocomp._quads(plane)
    assert quads.dtype == np.dtype(dtype) and quads.shape == (h * w, 4)
    x = np.array([w - 0.75, w - 1.0, -0.25, 2.5, w - 0.5, 0.0, 7.125])
    y = np.array([-1.5, 0.25, 0.0, h - 1.0, h - 1.25, h + 2.0, h - 1.5])
    got = mocomp._PlaneSampler(x.copy(), y.copy(), w, h).sample(quads)
    assert np.array_equal(got, reference_bilinear(plane, x, y))
    for xi, yi, want in zip(x, y, got):
        one = mocomp._PlaneSampler(xi, yi, w, h).sample(quads)
        assert one.shape == () and one == want
    # halfway across the wrap on the clamped bottom row
    edge = mocomp._PlaneSampler(w - 0.5, h + 1.0, w, h).sample(quads)
    assert edge == (float(plane[h - 1, w - 1]) + float(plane[h - 1, 0])) * 0.5


def test_whole_pixel_shifts_gather_one_tap():
    # the block touches the right edge and the top pole row
    block = BlockSpec(x0=240, y0=0, width=16, height=16)
    rng = np.random.default_rng(4)
    plane = rng.integers(0, 256, size=(128, 256), dtype=np.uint8)
    quads = mocomp._quads(plane)
    shifts = mocomp._SearchKernel(4, 1.0, 256).translational(block, 256, 128)
    assert shifts.weights is None
    offsets = np.arange(-4, 5)
    cols = (240 + offsets[:, None, None, None] + np.arange(16)) % 256
    rows = np.clip(offsets[None, :, None, None] + np.arange(16)[:, None], 0, 127)
    assert np.array_equal(shifts.sample(quads), plane[rows, cols].astype(np.float64))
    half = mocomp._SearchKernel(4, 0.5, 256).translational(block, 256, 128)
    assert half.weights.shape == (4,) + half.shape
    half_x = mocomp._PlaneSampler(np.array([0.5, 3.0]), np.array([2.0]), 8, 4)
    assert half_x.weights is not None


def test_geodesic_samplers_share_kernel_buffers(cylinder_pair):
    ref, cur = cylinder_pair
    block = mocomp.tile_blocks(256, 128, 32, 32)[9]
    (geom,) = motion_model.prepare_block_geometry([block], Z, 256, 128)
    quads = mocomp._quads(ref.y)
    cur_block = cur.y[block.y0 : block.y0 + 32, block.x0 : block.x0 + 32].astype(np.float64)
    kernel = mocomp._SearchKernel(2.0, 1.0, 256)
    first = kernel.geodesic(geom, ORIG)
    found = kernel.search(first, quads, cur_block)
    second = kernel.geodesic(geom, GCG)
    assert np.shares_memory(first.weights, second.weights)
    assert np.shares_memory(first.index, second.index)
    fresh = mocomp._SearchKernel(2.0, 1.0, 256)
    assert found == fresh.search(fresh.geodesic(geom, ORIG), quads, cur_block)


def test_mapping_in_a_used_workspace_matches_a_new_one(cylinder_pair):
    # each mapping and sampler overwrites the kernel workspace's slots; a
    # mapping made after another block, model and block size, and after a
    # search, has the bits of one made in a workspace of its own
    ref, cur = cylinder_pair
    quads = mocomp._quads(ref.y)
    q = np.array([0.3, -0.2, 0.93])
    q /= np.linalg.norm(q)
    gcl = GeodesicModelConfig(variant="gc", scaling="local", delta=math.pi / 96)
    kernel = mocomp._SearchKernel(2.0, 0.5, 256)
    cases = [
        (BlockSpec(x0=0, y0=0, width=16, height=16), ORIG),
        (BlockSpec(x0=248, y0=60, width=8, height=4), gcl),
        (BlockSpec(x0=96, y0=112, width=16, height=16), GCG),
        (BlockSpec(x0=96, y0=112, width=16, height=16), ORIG),
    ]
    for block, cfg in cases:
        (geom,) = motion_model.prepare_block_geometry([block], q, 256, 128)
        want = motion_model.map_block_geometry_batch(geom, kernel.offsets, kernel.offsets, cfg)
        got = motion_model.map_block_geometry_batch(
            geom, kernel.offsets, kernel.offsets, cfg, kernel._workspace
        )
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        cur_block = cur.y[block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width]
        kernel.search(kernel.geodesic(geom, cfg), quads, cur_block)
        kernel.search(kernel.translational(block, 256, 128), quads, cur_block)


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


def search(ref, cur, block, q, cfg, search_range, step=1.0):
    """compare_sequence's t, shape (2, 2), and SAD, shape (2,), on one block
    of one pair: row 0 is the translational baseline and row 1 is cfg."""
    t, sad = mocomp.compare_sequence(
        [ref, cur], [block], [q], {"gcg": cfg}, search_range, step
    )
    return t[0, 0], sad[0, 0]


def test_search_recovers_true_motion(cylinder_pair):
    ref, cur = cylinder_pair
    for block in mocomp.tile_blocks(256, 128, 32, 32)[8:24:3]:
        t, sad = search(ref, cur, block, Z, GCG, 4.0, 1.0)
        assert t[1].tolist() == [-2.0, 0.0]
        found = MotionVector2D(*t[1].tolist())
        assert mocomp.predict_block(ref, cur, block, Z, found, GCG).sad == sad[1]


def test_search_prefers_smallest_offset_on_ties():
    y = np.full((16, 32), 50, dtype=np.int32)  # constant: every SAD ties
    f = luma_frame(y)
    block = BlockSpec(x0=8, y0=4, width=8, height=8)
    t, _ = search(f, f, block, Z, GCG, 2.0, 1.0)
    assert t.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_halving_step_never_hurts(cylinder_pair):
    ref, cur = cylinder_pair
    for block in mocomp.tile_blocks(256, 128, 32, 32)[4:28:6]:
        _, coarse = search(ref, cur, block, Z, GCG, 2.0, 1.0)
        _, fine = search(ref, cur, block, Z, GCG, 2.0, 0.5)
        assert (fine <= coarse + 1e-9).all()


def test_candidate_grid_validation():
    f = luma_frame(np.zeros((16, 32), dtype=np.uint8))
    block = BlockSpec(x0=0, y0=0, width=8, height=8)
    with pytest.raises(DomainError):
        search(f, f, block, Z, GCG, 2.0, 0.3)
    with pytest.raises(DomainError):
        search(f, f, block, Z, GCG, -1.0, 1.0)
    with pytest.raises(DomainError):  # 33 candidates per axis, 32 columns
        search(f, f, block, Z, GCG, 8.0, 0.5)


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
        t1, sad1 = search(ref, cur, block, q, GCG, 3.0, 1.0)
        t2, sad2 = search(ref2, cur2, shifted, q_rot, GCG, 3.0, 1.0)
        assert t1[1].tolist() == t2[1].tolist()
        assert math.isclose(sad1[1], sad2[1], rel_tol=1e-9)


# --- model comparison ------------------------------------------------------------


def test_compare_models_structure(cylinder_pair):
    ref, cur = cylinder_pair
    blocks = mocomp.tile_blocks(256, 128, 32, 32)[:4]

    def compare(cfgs):
        return mocomp.compare_sequence([ref, cur], blocks, [Z], cfgs, 2.0, 1.0)

    t, sad = compare({"orig": ORIG, "gcg": GCG})
    assert t.shape == (1, 4, 3, 2) and sad.shape == (1, 4, 3)
    # model 0 is the translational baseline, then model_configs in order
    t0, sad0 = compare({})
    assert np.array_equal(t0[..., 0, :], t[..., 0, :])
    assert np.array_equal(sad0[..., 0], sad[..., 0])
    t_swapped, sad_swapped = compare({"gcg": GCG, "orig": ORIG})
    assert np.array_equal(t_swapped, t[:, :, [0, 2, 1]])
    assert np.array_equal(sad_swapped, sad[:, :, [0, 2, 1]])
    assert not np.array_equal(sad[..., 1], sad[..., 2])


def _tie_order(search_range, step):
    """The (t_u, t_v) grid in tie-break order: |t_u| + |t_v|, then t_u,
    then t_v."""
    n = round(search_range / step)
    grid = [(i * step, j * step) for i in range(-n, n + 1) for j in range(-n, n + 1)]
    return sorted(grid, key=lambda t: (abs(t[0]) + abs(t[1]), t[0], t[1]))


def _first_minimum(scored):
    """The first (t, sad) with the smallest sad."""
    best = None
    for t, sad in scored:
        if best is None or sad < best[1]:
            best = (t, sad)
    return best


def _shift_sad(ref, cur, block, t_u, t_v):
    """SAD of the block shifted by (t_u, t_v) ERP pixels, x wrapping and y
    clamping.  At whole and half pixels every bilinear weight is a multiple
    of 1/4, so each sum is exact."""
    h, w = ref.y.shape
    x = np.arange(block.x0, block.x0 + block.width) + t_u
    y = np.arange(block.y0, block.y0 + block.height) + t_v
    x0, y0 = np.floor(x), np.floor(y)
    fx, fy = x - x0, (y - y0)[:, None]
    c0 = x0.astype(int) % w
    c1 = (c0 + 1) % w
    r0 = np.clip(y0, 0, h - 1).astype(int)[:, None]
    r1 = np.clip(y0 + 1, 0, h - 1).astype(int)[:, None]
    plane = ref.y.astype(np.float64)
    pred = (
        (1 - fy) * ((1 - fx) * plane[r0, c0] + fx * plane[r0, c1])
        + fy * ((1 - fx) * plane[r1, c0] + fx * plane[r1, c1])
    )
    cur_block = cur.y[block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width]
    return float(np.abs(pred - cur_block).sum())


def _reference_outcomes(ref, cur, block, q, cfgs, search_range, step):
    """Every model's best t, shape (models, 2), and SAD, shape (models,),
    in compare_sequence's model order: the translational one from
    _shift_sad, then each of cfgs from one predict_block per candidate.  No
    search kernel involved."""
    order = _tie_order(search_range, step)
    best = [_first_minimum((t, _shift_sad(ref, cur, block, *t)) for t in order)]
    best += [
        _first_minimum(
            (t, mocomp.predict_block(ref, cur, block, q, MotionVector2D(*t), cfg).sad)
            for t in order
        )
        for cfg in cfgs.values()
    ]
    return np.array([t for t, _ in best]), np.array([sad for _, sad in best])


def _assert_matches_reference(t, sad, ref, cur, blocks, q, cfgs, search_range, step):
    """t and sad, one pair's rows of compare_sequence, equal
    _reference_outcomes exactly on every block."""
    assert t.shape == (len(blocks), 1 + len(cfgs), 2)
    for i, block in enumerate(blocks):
        ref_t, ref_sad = _reference_outcomes(ref, cur, block, q, cfgs, search_range, step)
        assert np.array_equal(t[i], ref_t)
        assert np.array_equal(sad[i], ref_sad)


def test_compare_sequence_matches_pairwise(cylinder_pair):
    # three pairs on two distinct q's, the first one repeated; three models,
    # one of them at another delta; blocks on both wrap edges and both poles
    ref, cur = cylinder_pair
    q2 = np.array([0.3, -0.2, 0.93])
    q2 /= np.linalg.norm(q2)
    frames, qs = [ref, cur, ref, cur], [Z, q2, Z]
    cfgs = {
        "orig": ORIG,
        "gcg": GCG,
        "gcl": GeodesicModelConfig(variant="gc", scaling="local", delta=math.pi / 96),
    }
    blocks = [mocomp.tile_blocks(256, 128, 32, 32)[i] for i in (0, 7, 10, 13, 31)]
    t, sad = mocomp.compare_sequence(frames, blocks, qs, cfgs, 2.0, 1.0)
    assert t.shape == (3, 5, 4, 2) and sad.shape == (3, 5, 4)
    for m in range(3):
        a, b, q = frames[m], frames[m + 1], qs[m]
        t_pair, sad_pair = mocomp.compare_sequence([a, b], blocks, [q], cfgs, 2.0, 1.0)
        assert np.array_equal(t[m], t_pair[0]) and np.array_equal(sad[m], sad_pair[0])
        _assert_matches_reference(t[m], sad[m], a, b, blocks, q, cfgs, 2.0, 1.0)

    # half-pixel steps, with the oblique q2
    t, sad = mocomp.compare_sequence([cur, ref], blocks, [q2], cfgs, 1.0, 0.5)
    _assert_matches_reference(t[0], sad[0], cur, ref, blocks, q2, cfgs, 1.0, 0.5)

    # a zero frame: every SAD of every model is exactly 0, so the tie-break
    # alone decides
    flat = luma_frame(np.zeros((128, 256), dtype=np.uint8))
    t, sad = mocomp.compare_sequence([flat, flat], blocks, [q2], cfgs, 2.0, 1.0)
    _assert_matches_reference(t[0], sad[0], flat, flat, blocks, q2, cfgs, 2.0, 1.0)
    assert not t.any() and not sad.any()

    # diagonal stripes moved one column: every shift with t_u + t_v = 1
    # matches, and of the two nearest, (0, 1) has the smaller t_u
    yy, xx = np.mgrid[0:128, 0:256]
    stripes = luma_frame((60 * ((xx + yy) % 4)).astype(np.uint8))
    moved = luma_frame(np.roll(stripes.y, -1, axis=1))
    t, sad = mocomp.compare_sequence([stripes, moved], blocks, [q2], cfgs, 2.0, 1.0)
    _assert_matches_reference(t[0], sad[0], stripes, moved, blocks, q2, cfgs, 2.0, 1.0)
    for i, block in enumerate(blocks):
        if 0 < block.y0 < 96:  # clear of the clamped rows
            assert t[0, i, 0].tolist() == [0.0, 1.0]


def test_one_preparation_per_direction_and_row(monkeypatch):
    # compare prepares each block row once per distinct q, the whole row in
    # one call, whatever the number of pairs and models; predict_block
    # prepares its one block, and warp's predictions each block row once
    rng = np.random.default_rng(8)
    frames = [luma_frame(rng.integers(0, 256, size=(32, 64), dtype=np.uint8)) for _ in range(4)]
    q2 = np.array([0.3, -0.2, 0.93])
    q2 /= np.linalg.norm(q2)
    calls = []
    prepare = motion_model.prepare_block_geometry

    def spy(blocks, q, width, height):
        calls.append((list(blocks), np.asarray(q).tobytes()))
        return prepare(blocks, q, width, height)

    monkeypatch.setattr(motion_model, "prepare_block_geometry", spy)
    blocks = mocomp.tile_blocks(64, 32, 16, 16)
    rows = [blocks[:4], blocks[4:]]
    mocomp.compare_sequence(frames, blocks, [Z, q2, Z], {"orig": ORIG, "gcg": GCG}, 1.0, 1.0)
    assert len(calls) == 4
    assert all(row in rows for row, _ in calls)
    assert {(row[0].y0, q) for row, q in calls} == {
        (y0, q.tobytes()) for y0 in (0, 16) for q in (Z, q2)
    }

    calls.clear()
    t = MotionVector2D(1.0, 0.0)
    mocomp.predict_block(frames[0], frames[1], blocks[5], Z, t, GCG)
    assert calls == [([blocks[5]], Z.tobytes())]

    # warp's predictions prepare each block row once, with the bits of a
    # block prepared alone
    calls.clear()
    preds = list(mocomp._predict_blocks(frames[0], frames[1], blocks, q2, t, GCG))
    assert calls == [(row, q2.tobytes()) for row in rows]
    for block, pred in zip(blocks, preds):
        alone = mocomp.predict_block(frames[0], frames[1], block, q2, t, GCG)
        assert pred.block.tobytes() == alone.block.tobytes()
        assert (pred.sad, pred.degenerate) == (alone.sad, alone.degenerate)


def test_compare_sequence_memory_per_frame():
    # compare keeps the _quads of each reference frame, 4 bytes per 8-bit
    # pixel; a float64 copy of every frame would add 8
    w, h = 256, 128
    rng = np.random.default_rng(6)
    frames = [
        luma_frame(rng.integers(0, 256, size=(h, w), dtype=np.uint8)) for _ in range(32)
    ]
    blocks = [BlockSpec(x0=112, y0=48, width=16, height=16)]

    def peak(n):
        tracemalloc.start()
        try:
            mocomp.compare_sequence(
                frames[:n], blocks, [Z] * (n - 1), {"gcg": GCG}, 2.0, 1.0
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = peak(32) - peak(8)
    assert growth <= 4 * w * h * (32 - 8) + 128 * 1024


def _compare_peak(frames, qs, bw=16):
    h, w = frames[0].y.shape
    blocks = mocomp.tile_blocks(w, h, bw, 16)
    tracemalloc.start()
    try:
        mocomp.compare_sequence(frames, blocks, qs, {"orig": ORIG, "gcg": GCG}, 2.0, 1.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_sequence_memory_is_flat_in_rows_and_directions():
    # the geometry of one row of blocks within one direction is alive at a
    # time: peak memory grows by the quads of the larger frame (4 bytes a
    # pixel) and the per-block results, not with the rows or the directions
    rng = np.random.default_rng(7)
    w = 128

    def frames(rows, n):
        shape = (16 * rows, w)
        return [luma_frame(rng.integers(0, 256, size=shape, dtype=np.uint8)) for _ in range(n)]

    one_row, eight_rows = _compare_peak(frames(1, 2), [Z]), _compare_peak(frames(8, 2), [Z])
    blocks_added = (w // 16) * 7
    assert eight_rows - one_row <= 4 * w * 16 * 7 + 1024 * blocks_added + 32 * 1024

    qs = [q / np.linalg.norm(q) for q in rng.normal(size=(8, 3))]
    clip = frames(2, 9)
    two_qs = _compare_peak(clip, [qs[m % 2] for m in range(8)])
    eight_qs = _compare_peak(clip, qs)
    assert eight_qs - two_qs <= 32 * 1024


def test_compare_sequence_arity_checks(cylinder_pair):
    ref, cur = cylinder_pair
    blocks = mocomp.tile_blocks(256, 128, 32, 32)[:1]
    with pytest.raises(DomainError):
        mocomp.compare_sequence([ref], blocks, [], {"gcg": GCG}, 2.0, 1.0)
    with pytest.raises(DomainError):
        mocomp.compare_sequence([ref, cur], blocks, [Z, Z], {"gcg": GCG}, 2.0, 1.0)


def test_tile_blocks():
    blocks = mocomp.tile_blocks(64, 32, 16, 16)
    assert len(blocks) == 8
    assert blocks[0] == BlockSpec(x0=0, y0=0, width=16, height=16)
    with pytest.raises(DomainError):
        mocomp.tile_blocks(60, 32, 16, 16)
