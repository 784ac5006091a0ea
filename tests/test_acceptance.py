"""End-to-end checks that pin the numbers this package must reproduce.

Each test covers one headline behaviour at its stated tolerance and prints
a single PASS/FAIL line (visible even under capture) so a full run reads
as a checklist.  These are deliberately slower and broader than the unit
suites next to them.
"""

import math
import time

import numpy as np
import pytest

from geo360 import cam_code, camera_est, cli, geometry, metrics, video_io
from geo360 import motion_model as mm
from geo360.mocomp import ErpFrame
from geo360.motion_model import GeodesicModelConfig, MotionVector2D
from oracles import (
    SphericalPoint,
    count_block_ops,
    eg_encode,
    gc_row_theta,
    ged_orig_map,
    ged_orig_theta,
    pack_bits,
    pole_clamp,
)


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# --- geodesic displacement models -----------------------------------------


def test_center_displacement_exact(capsys):
    cfg = GeodesicModelConfig(variant="original", scaling="global", delta=0.01)
    t0 = time.perf_counter()
    worst = 0.0
    for theta_c in np.linspace(0.3, 2.8, 30):
        for shift in np.linspace(-0.25, 0.25, 30):  # grid avoids exact zero
            s = SphericalPoint(theta=float(theta_c), phi=0.0)
            moved = ged_orig_map(
                s, float(theta_c), MotionVector2D(shift / cfg.delta, 0.0), cfg
            )
            worst = max(worst, abs(moved.theta - (theta_c + shift)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    _report(
        capsys, "center-displacement",
        ok, f"max err {worst:.3e} rad over 30x30 grid, {elapsed:.2f}s",
    )


def test_corrected_model_exact_inverse(capsys):
    thetas = np.linspace(0.01, math.pi - 0.01, 500)
    t_units = np.linspace(-64.0, 64.0, 65)
    delta = math.pi / 256
    # the global radius, and the local radius sin(theta_c) of four centres
    models = [("global", math.pi / 2)] + [("local", c) for c in (0.15, 0.7, 1.2, 2.6)]
    t0 = time.perf_counter()
    worst = 0.0
    for scaling, theta_c in models:
        for t_u in t_units:
            fwd = gc_row_theta(thetas, float(t_u), delta, scaling, theta_c)
            back = gc_row_theta(fwd, -float(t_u), delta, scaling, theta_c)
            worst = max(worst, float(np.max(np.abs(back - thetas))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(
        capsys, "corrected-inverse",
        ok, f"max round-trip err {worst:.3e} rad, both scalings, {elapsed:.2f}s",
    )


def test_round_trip_witness(capsys):
    # same displacement both models, recentred reverse leg; only the
    # cotangent form survives the round trip away from the block center
    delta, t_u, theta_c = 0.01, 10.0, 1.0
    thetas = math.pi * (np.arange(256) + 0.5) / 256
    mask = np.abs(thetas - theta_c) >= 0.05
    mid = pole_clamp(thetas + ged_orig_theta(thetas, theta_c, t_u, delta))
    back = pole_clamp(
        mid + ged_orig_theta(mid, theta_c + delta * t_u, -t_u, delta)
    )
    err_orig = np.abs(back - thetas)[mask]

    gc_back = gc_row_theta(gc_row_theta(thetas, t_u, delta), -t_u, delta)
    err_gc = np.abs(gc_back - thetas)[mask]

    ok = float(err_orig.max()) > 1e-3 and float(err_gc.max()) < 1e-12
    _report(
        capsys, "round-trip-witness",
        ok,
        f"constant-depth worst {err_orig.max():.3e} rad vs "
        f"corrected worst {err_gc.max():.3e} rad on {mask.sum()} pixels",
    )


def test_operation_count_table(capsys):
    sizes = (4, 8, 16, 32, 64)
    checked = 0
    ok = True
    for m in sizes:
        for n in sizes:
            expect = {
                ("original", "global"): 6 * m * n + 5,
                ("gc", "global"): 4 * m * n,
                ("gc", "local"): 5 * m * n + 1,
            }
            for (variant, scaling), total in expect.items():
                table = mm.op_count(variant, scaling, m, n)
                ran = count_block_ops(variant, scaling, m, n)
                ok = ok and table.total == total and ran == table
                checked += 1
    eight = tuple(
        mm.op_count(v, s, 8, 8).total
        for v, s in (("original", "global"), ("gc", "global"), ("gc", "local"))
    )
    ok = ok and eight == (389, 256, 321)
    _report(
        capsys, "operation-count",
        ok, f"{checked} closed-form vs scalar-transcription tallies, 8x8 = {eight}",
    )


# --- direction coding ------------------------------------------------------


@pytest.mark.slow
def test_entropy_coder_sweep(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    orders = (0, 1, 18, 24)
    worst_len = 0
    for k in orders:
        for values in (
            np.arange(2**20 + 1, dtype=np.int64),
            rng.integers(0, 2**26, size=10**6, dtype=np.int64),
        ):
            expected_len = (
                2 * np.floor(np.log2(values + 2**k)).astype(np.int64) - k + 1
            )
            lengths = np.empty(values.shape[0], dtype=np.int64)
            # one stream per chunk keeps each packed string a few MB; each
            # record codes two values as residuals, the second negated, and
            # the codec's record parser reads them back
            for start in range(0, len(values), 1 << 16):
                chunk = values[start : start + (1 << 16)].tolist()
                codes = [eg_encode(n, k) for n in chunk]
                lengths[start : start + len(chunk)] = [len(c) for c in codes]
                if len(chunk) % 2:  # a zero code ends an odd chunk
                    chunk.append(0)
                    codes.append(eg_encode(0, k))
                # the sign bits follow nonzero magnitudes: 0 for +a, 1 for -b
                records = [
                    format(j, "032b") + codes[j] + "0" * (chunk[j] > 0)
                    + codes[j + 1] + "1" * (chunk[j + 1] > 0)
                    for j in range(0, len(chunk), 2)
                ]
                data, pos = pack_bits([r + "0" * (-len(r) % 8) for r in records]), 0
                for j in range(0, len(chunk), 2):
                    poc, a, b, pos = cam_code._read_record(data, pos, k)
                    if (poc, a, b) != (j, chunk[j], -chunk[j + 1]):
                        _report(
                            capsys, "entropy-coder", False,
                            f"k={k}: record {j} of {chunk[j]}, {-chunk[j + 1]} "
                            f"decoded as {poc}, {a}, {b}",
                        )
                if pos != len(data):
                    _report(capsys, "entropy-coder", False, f"k={k}: {len(data) - pos} bytes left")
            bad = int(np.count_nonzero(lengths != expected_len))
            if bad:
                _report(capsys, "entropy-coder", False, f"k={k}: {bad} bad lengths")
            worst_len = max(worst_len, int(lengths.max()))
    elapsed = time.perf_counter() - t0
    _report(
        capsys, "entropy-coder", True,
        f"exhaustive 2^20 + 1e6 random < 2^26 for k in {orders}, "
        f"max code {worst_len} bits, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_direction_codec_closed_loop(capsys):
    bound = math.sqrt(2.0) * 2.0**-24 + 1e-12
    rng = np.random.default_rng(31)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dirs = rng.normal(size=(32, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pocs = np.arange(1, len(dirs) + 1)
        enc = cam_code.encode_stream(pocs, dirs)
        dec = cam_code.decode_stream(enc.data)
        for d, q in zip(dirs, dec.directions):
            worst = max(worst, geometry.angle_between(d, q))
        again = cam_code.encode_stream(dec.records["poc"], dec.directions)
        if again.data != enc.data:
            _report(capsys, "direction-codec", False, "re-encode not byte-identical")
    const = cam_code.encode_stream(np.arange(1, 33), np.tile([0.0, 0.0, 1.0], (32, 1)))
    payload_bytes = {(b - 32) // 8 for b in const.record_bits.tolist()}
    elapsed = time.perf_counter() - t0
    ok = worst <= bound and payload_bytes == {5} and len(const.data) == 298
    _report(
        capsys, "direction-codec",
        ok,
        f"1000 trajectories, worst angle {worst:.3e} <= {bound:.3e} rad, "
        f"constant-direction payload {sorted(payload_bytes)} bytes/frame, "
        f"{elapsed:.1f}s",
    )


# --- camera motion estimation ----------------------------------------------


def _synthetic_pairs(rng, q, n=50, length=0.1, depth_range=(1.0, 10.0), noise=0.0):
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


def test_direction_estimation_accuracy(capsys):
    rng = np.random.default_rng(17)
    t0 = time.perf_counter()
    clean_errs, noisy_errs = [], []
    for _ in range(100):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        est = camera_est.estimate_camera_motion(*_synthetic_pairs(rng, q))
        clean_errs.append(geometry.angle_between(est, q))
        est = camera_est.estimate_camera_motion(
            *_synthetic_pairs(rng, q, noise=1e-3)
        )
        noisy_errs.append(geometry.angle_between(est, q))
    elapsed = time.perf_counter() - t0
    clean_max = max(clean_errs)
    noisy_med = math.degrees(float(np.median(noisy_errs)))
    ok = clean_max < 1e-6 and noisy_med < 1.0 and elapsed < 10.0
    _report(
        capsys, "direction-estimation",
        ok,
        f"100 trials x 50 bearings: noise-free max {clean_max:.3e} rad, "
        f"sigma 1e-3 median {noisy_med:.4f} deg, {elapsed:.2f}s",
    )


def test_flow_refinement_recovery(capsys):
    res = video_io.synth_dolly(
        video_io.SynthConfig(
            width=128, height=64, frames=2, step=0.02,
            depth_model="cylinder", seed=21,
        )
    )
    flow = res.flows[0]
    truth = np.array([0.0, 0.0, 1.0])
    e1, e2 = geometry.tangent_basis(truth)
    rng = np.random.default_rng(8)
    tilt = math.radians(3.0)
    hits = 0
    never_worse = True
    for _ in range(100):
        a = rng.uniform(0.0, 2.0 * math.pi)
        axis = math.cos(a) * e1 + math.sin(a) * e2
        q_init = math.cos(tilt) * truth + math.sin(tilt) * axis
        q_est = camera_est.flow_finetune(q_init, flow)
        if math.degrees(geometry.angle_between(q_est, truth)) < 0.2:
            hits += 1
        before = camera_est.flow_alignment_objective(q_init, flow)
        after = camera_est.flow_alignment_objective(q_est, flow)
        never_worse = never_worse and after <= before + 1e-12
    ok = hits >= 95 and never_worse
    _report(
        capsys, "flow-refinement",
        ok, f"{hits}/100 within 0.2 deg of truth, objective never increased: "
        f"{never_worse}",
    )


# --- quality metrics --------------------------------------------------------


def _luma(y):
    h, w = y.shape
    return ErpFrame(width=w, height=h, bit_depth=8, y=y)


def test_weighted_distortion_anchor(capsys):
    ref = np.full((32, 64), 100, dtype=np.uint8)
    score = metrics.ws_psnr(_luma(ref), _luma(ref + 1))
    anchor_ok = abs(score - 48.1308) < 1e-3

    polar, equatorial = ref.copy(), ref.copy()
    polar[0, :] += 6
    polar[-1, :] += 6
    equatorial[15, :] += 6
    equatorial[16, :] += 6
    s_pole = metrics.ws_psnr(_luma(ref), _luma(polar))
    s_eq = metrics.ws_psnr(_luma(ref), _luma(equatorial))
    ok = anchor_ok and s_pole > s_eq
    _report(
        capsys, "weighted-distortion",
        ok,
        f"uniform 1-LSB {score:.6f} dB (want 48.1308 +- 0.001), "
        f"polar {s_pole:.3f} > equatorial {s_eq:.3f} dB at equal error mass",
    )


def test_rate_overhead_reference_points(capsys):
    rates = [100.0, 200.0, 400.0, 800.0]
    quals = [30.0, 33.0, 36.0, 39.0]
    base = metrics.RDCurve(rates, quals)
    same = metrics.bd_rate(base, metrics.RDCurve(rates, quals))
    doubled = metrics.bd_rate(base, metrics.RDCurve([2 * r for r in rates], quals))

    anchor = metrics.RDCurve(
        [1358.24, 2486.44, 4593.60, 9487.76], [34.851, 36.845, 38.615, 40.037]
    )
    test = metrics.RDCurve(
        [1356.24, 2451.52, 4469.00, 9787.80], [34.987, 36.970, 38.651, 40.121]
    )
    published = metrics.bd_rate(anchor, test)
    ok = (
        abs(same) < 5e-4
        and abs(doubled - 100.0) < 0.01
        and abs(published - (-4.420463)) < 0.01
    )
    _report(
        capsys, "rate-overhead",
        ok,
        f"identical {same:.6f}%, doubled {doubled:.6f}%, "
        f"4-point reference {published:.6f}% (want -4.420463 +- 0.01)",
    )


# --- whole-pipeline block compensation --------------------------------------


@pytest.mark.slow
def test_block_compensation_showdown(capsys, tmp_path):
    t0 = time.perf_counter()
    step = 2.0 * math.tan(math.pi / 256)
    rc = cli.main(
        [
            "synth", "--out", str(tmp_path / "seq.yuv"),
            "--camera-out", str(tmp_path / "cam.csv"),
            "--width", "512", "--height", "256", "--frames", "64",
            "--step", repr(step), "--depth-model", "cylinder", "--seed", "11",
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "compare", "--input", str(tmp_path / "seq.yuv"),
            "--width", "512", "--height", "256", "--pixfmt", "yuv400",
            "--camera", str(tmp_path / "cam.csv"), "--block", "32x32",
            "--range", "4", "--step", "1", "--variants", "orig,gcg",
            "--out", str(tmp_path / "cmp.csv"),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - t0

    agg = {}
    off_equator = wins = 0
    for line in (tmp_path / "cmp.csv").read_text().strip().split("\n")[1:]:
        cells = line.split(",")
        if cells[0] == "aggregate":
            agg[cells[5]] = float(cells[8])
        elif cells[5] == "gcg":
            if abs(float(cells[4]) - math.pi / 2) > math.pi / 6:
                off_equator += 1
                wins += cells[9] == "gcg"
    share = wins / off_equator
    ok = (
        agg["gcg"] < agg["orig"]
        and agg["gcg"] < agg["translational"]
        and share >= 0.60
        and elapsed < 120.0
    )
    _report(
        capsys, "block-compensation",
        ok,
        f"aggregate SAD gcg {agg['gcg']:.0f} < orig {agg['orig']:.0f} and "
        f"translational {agg['translational']:.0f}; off-equator win share "
        f"{share:.3f} over {off_equator} blocks; {elapsed:.1f}s",
    )
