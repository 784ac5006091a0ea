import argparse
import contextlib
import io
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geo360 import cam_code, cli, metrics, mocomp, video_io
from geo360.errors import Geo360Error


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("seq")
    rc = run(
        [
            "synth", "--out", root / "seq.yuv", "--camera-out", root / "cam.csv",
            "--flow-out", root / "flow_%03d.flo", "--width", 128, "--height", 64,
            "--frames", 4, "--step", "0.02", "--depth-model", "cylinder",
            "--seed", 3,
        ]
    )
    assert rc == 0
    return root


def test_synth_outputs(synth_dir):
    spec = video_io.SequenceSpec(width=128, height=64, bit_depth=8, chroma=False)
    frames = video_io.read_yuv(synth_dir / "seq.yuv", spec)
    assert len(frames) == 4
    pocs, _ = video_io.read_camera_csv(synth_dir / "cam.csv")
    assert pocs.tolist() == [1, 2, 3]
    assert (synth_dir / "flow_002.flo").exists()


_BAD_FLOW_PATTERNS = [
    ("flow.flo", 2), ("flow_%d_%d.flo", 2), ("flow_%.0s.flo", 2), ("flow_%.1s.flo", 12)
]


@pytest.mark.parametrize(
    "command, pattern, frames",
    [pytest.param("synth", p, n, id=f"{p}-{n}") for p, n in _BAD_FLOW_PATTERNS]
    + [
        pytest.param("camest", p, n, id=f"camest-{p}-{n}")
        # --count always means a pattern, so a plain name is refused even at 1
        for p, n in _BAD_FLOW_PATTERNS + [("x.flo", 1)]
    ],
)
def test_synth_rejects_flow_pattern_without_frame_number(
    tmp_path, capsys, command, pattern, frames
):
    # synth --flow-out writes, camest --flow --count reads one file per frame
    if command == "synth":
        flag = "--flow-out"
        argv = [
            "synth", "--out", tmp_path / "seq.yuv", "--flow-out", tmp_path / pattern,
            "--width", 32, "--height", 16, "--frames", frames,
        ]
    else:
        flag = "--flow"
        argv = ["camest", "--flow", tmp_path / pattern, "--count", frames]
    rc = run(argv)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cli: {flag} needs one integer placeholder such as %03d\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "pattern, ok",
    [("f_%03d.flo", True), ("f_%%_%-+5.3x.flo", True), ("%%%d", True), ("f_%#o", True),
     ("f_%255d", True), ("f_%0255d", True), ("f_%.000255x", True),
     ("f_%%d.flo", False), ("f_%ld.flo", False), ("f_%*d.flo", False),
     ("f_%(i)d.flo", False), ("f_%d%%%s.flo", False), ("f_%c.flo", False)],
)
def test_flow_pattern_is_checked_by_its_conversion(pattern, ok):
    # one integer conversion and no other % but %%; names come one at a time
    if not ok:
        with pytest.raises(Geo360Error, match="one integer placeholder"):
            cli._pattern_names(pattern, 3, "--flow")
        return
    names = cli._pattern_names(pattern, 3, "--flow")
    assert not isinstance(names, list)
    names = list(names)
    assert names == [pattern % i for i in range(3)] and len(set(names)) == 3


def test_camest_count_costs_no_memory_before_the_first_read(tmp_path, capsys):
    # every name used to be formatted, and put in a set, first: about 150 MB
    tracemalloc.start()
    try:
        rc = run(["camest", "--flow", tmp_path / "absent_%07d.flo", "--count", 1_000_000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cli: ")
    assert peak < 1e6


@pytest.mark.parametrize("field", ["%999999d", "%.999999d", "%0256x", "%.0000256d"])
@pytest.mark.parametrize("command", ["synth", "camest"])
def test_pattern_width_is_bounded_before_a_name_is_made(tmp_path, capsys, command, field):
    # a million-column field made a million-character name, 3 MB of memory
    # and a million-character error line
    pattern = tmp_path / f"x_{field}.flo"
    flag, argv = {
        "synth": ("--flow-out", ["synth", "--out", tmp_path / "seq.yuv", "--flow-out",
                                 pattern, "--width", 32, "--height", 16, "--frames", 2]),
        "camest": ("--flow", ["camest", "--flow", pattern, "--count", 1]),
    }[command]
    tracemalloc.start()
    try:
        rc = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: cli: {flag} width or precision is above 255, the longest file name\n"
    assert peak < 1e6
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags",
    [["--seed", -1], ["--depth", "1e300"], ["--depth", "1e-310", "--depth-model", "cylinder"],
     ["--step", "1e300", "--depth-model", "cylinder"]],
    ids=["seed-minus-1", "depth-1e300", "cylinder-depth-1e-310", "cylinder-step-1e300"],
)
def test_synth_settings_outside_their_range_exit_1(tmp_path, capsys, flags):
    # a negative seed ended in a ValueError traceback; the others wrote
    # non-finite flow after a RuntimeWarning
    argv = ["synth", "--out", tmp_path / "seq.yuv", "--flow-out", tmp_path / "f_%d.flo",
            "--width", 32, "--height", 16]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(argv + flags)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: video_io: ")
    assert [str(w.message) for w in caught] == []
    assert list(tmp_path.iterdir()) == []


def test_vector_flags_take_any_finite_scale(synth_dir, tmp_path, capsys):
    # 1e300 overflowed the norm: a RuntimeWarning, then a zero vector
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q = cli._parse_vec3("1e300,0,1")
        tiny = cli._parse_vec3("0,-1e-320,0")
    assert [str(w.message) for w in caught] == []
    assert np.array_equal(q, [1.0, 0.0, 1e-300])
    assert np.array_equal(tiny, [0.0, -1.0, 0.0])
    argv = ["warp", "--input", synth_dir / "seq.yuv", "--out", tmp_path / "p.yuv",
            "--stats", tmp_path / "s.csv", "--width", 128, "--height", 64,
            "--pixfmt", "yuv400", "--t", "1,0"]
    for text in ("1e300,0,1", "1,0,0"):
        assert run(argv + ["--q", text]) == 0
        capsys.readouterr()
    for text in ("nan,0,1", "0,inf,1", "0,0,-inf", "0,0,0"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_vec3(text)
        with pytest.raises(SystemExit) as info:
            run(argv + ["--q", text])
        assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("count", [0, -2])
def test_camest_count_below_1_exits_1(synth_dir, tmp_path, capsys, count):
    # it used to exit 0 having estimated nothing, with a header-only CSV
    out = tmp_path / "est.csv"
    argv = ["camest", "--flow", synth_dir / "flow_%03d.flo", "--count", count, "--out", out]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: cli: --count {count} is below 1\n"
    assert not out.exists()


def test_warp_zero_motion_identical_frames(synth_dir, tmp_path, capsys):
    rc = run(
        [
            "warp", "--input", synth_dir / "seq.yuv", "--out", tmp_path / "p.yuv",
            "--stats", tmp_path / "s.csv", "--width", 128, "--height", 64,
            "--pixfmt", "yuv400", "--ref-index", 0, "--cur-index", 0,
            "--q", "0,0,1", "--t", "0,0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "total sad: 0.000000" in out
    lines = (tmp_path / "s.csv").read_text().strip().split("\n")
    assert lines[0] == "block_x0,block_y0,center_theta,sad,clamped"
    assert len(lines) == 1 + (128 // 16) * (64 // 16)
    assert all(ln.split(",")[3] == "0.000000" for ln in lines[1:])


def test_warp_gc_scalings_agree_on_equator_band(tmp_path, capsys):
    rc = run(
        [
            "synth", "--out", tmp_path / "eq.yuv", "--width", 64, "--height", 16,
            "--frames", 2, "--step", "0.004", "--seed", 1,
        ]
    )
    assert rc == 0
    outputs = []
    for variant in ("gcg", "gcl"):
        rc = run(
            [
                "warp", "--input", tmp_path / "eq.yuv", "--out",
                tmp_path / f"p_{variant}.yuv", "--stats", tmp_path / f"{variant}.csv",
                "--width", 64, "--height", 16, "--pixfmt", "yuv400",
                "--q", "0,0,1", "--t", "1,0", "--block", "16x16",
                "--variant", variant,
            ]
        )
        assert rc == 0
        outputs.append((tmp_path / f"{variant}.csv").read_text())
    capsys.readouterr()
    # one block row centered exactly on the equator: r = 1 either way
    assert outputs[0] == outputs[1]


def test_warp_prepares_reference_once(tmp_path, capsys, monkeypatch):
    # 4:2:0 frames, so the reference has three planes to prepare
    rng = np.random.default_rng(11)

    def plane(h, w):
        return rng.integers(0, 256, size=(h, w), dtype=np.uint8)

    frames = [
        mocomp.ErpFrame(
            width=64, height=32, bit_depth=8,
            y=plane(32, 64), cb=plane(16, 32), cr=plane(16, 32),
        )
        for _ in range(2)
    ]
    video_io.write_yuv(tmp_path / "c.yuv", frames)

    def warp(tag):
        rc = run(
            [
                "warp", "--input", tmp_path / "c.yuv", "--out", tmp_path / f"{tag}.yuv",
                "--stats", tmp_path / f"{tag}.csv", "--width", 64, "--height", 32,
                "--q", "0.3,-0.2,0.93", "--t", "1.5,-0.5", "--block", "8x8",
                "--variant", "orig",
            ]
        )
        assert rc == 0
        return (tmp_path / f"{tag}.yuv").read_bytes(), (tmp_path / f"{tag}.csv").read_bytes()

    quads, shapes = mocomp._quads, []

    def counted(p):
        shapes.append(p.shape)
        return quads(p)

    monkeypatch.setattr(mocomp, "_quads", counted)
    once = warp("once")
    assert shapes == [(32, 64), (16, 32), (16, 32)]

    def per_block(ref, cur, blocks, q, t, cfg):
        return (mocomp.predict_block(ref, cur, b, q, t, cfg) for b in blocks)

    monkeypatch.setattr(mocomp, "_predict_blocks", per_block)
    shapes.clear()
    assert warp("per_block") == once
    assert len(shapes) == 3 * (64 // 8) * (32 // 8)
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flags, module",
    [
        pytest.param("warp", ["--block", "0x16"], "mocomp", id="warp-block-0x16"),
        pytest.param("warp", ["--block", "16x0"], "mocomp", id="warp-block-16x0"),
        pytest.param("compare", ["--block", "0x16"], "mocomp", id="compare-block-0x16"),
        pytest.param("compare", ["--block", "16x0"], "mocomp", id="compare-block-16x0"),
        pytest.param("wspsnr", ["--max-frames", 0], "video_io", id="wspsnr-max-frames-0"),
        pytest.param("warp", ["--ref-index", -1], "cli", id="warp-ref-index-minus-1"),
        pytest.param("warp", ["--cur-index", -1], "cli", id="warp-cur-index-minus-1"),
        pytest.param("compare", ["--range", "nan"], "mocomp", id="compare-range-nan"),
        pytest.param("compare", ["--range", "inf"], "mocomp", id="compare-range-inf"),
        pytest.param("compare", ["--range=-inf"], "mocomp", id="compare-range-minus-inf"),
        pytest.param("compare", ["--step", "nan"], "mocomp", id="compare-step-nan"),
        pytest.param("compare", ["--range", "1e300"], "mocomp", id="compare-range-1e300"),
    ],
)
def test_bad_flag_values_exit_1(synth_dir, tmp_path, capsys, command, flags, module):
    # each of these ended in a ZeroDivisionError, a ValueError or an
    # OverflowError, or predicted from a frame counted from the end of the
    # file; a range of 1e300 asked np.arange for more candidates than exist
    seq = synth_dir / "seq.yuv"
    yuv = ["--width", 128, "--height", 64, "--pixfmt", "yuv400"]
    argv = {
        "warp": ["warp", "--input", seq, "--out", tmp_path / "p.yuv", "--q", "0,0,1",
                 "--t", "1,0"],
        "compare": ["compare", "--input", seq, "--camera", synth_dir / "cam.csv",
                    "--out", tmp_path / "cmp.csv"],
        "wspsnr": ["metrics", "wspsnr", "--ref", seq, "--test", seq],
    }[command]
    assert run(argv + yuv + flags) == 1
    assert capsys.readouterr().err.startswith(f"error: {module}: ")


def test_warp_rejects_chroma_above_bit_depth(tmp_path, capsys):
    # a 10-bit 4:2:0 file whose chroma holds 4000; its luma is in range
    luma = np.full(32 * 16, 512, dtype="<u2")
    chroma = np.full(2 * 16 * 8, 4000, dtype="<u2")
    (tmp_path / "c.yuv").write_bytes(2 * (luma.tobytes() + chroma.tobytes()))
    rc = run(
        [
            "warp", "--input", tmp_path / "c.yuv", "--out", tmp_path / "p.yuv",
            "--width", 32, "--height", 16, "--bitdepth", 10,
            "--q", "0,0,1", "--t", "1,0", "--block", "8x8",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: mocomp: ")


def test_compare_over_sequence(synth_dir, tmp_path, capsys):
    args = [
        "compare", "--input", synth_dir / "seq.yuv", "--width", 128,
        "--height", 64, "--pixfmt", "yuv400", "--camera", synth_dir / "cam.csv",
        "--block", "32x32", "--range", 2, "--step", 1,
        "--variants", "orig,gcg", "--out", tmp_path / "cmp.csv",
    ]
    assert run(args) == 0
    first = (tmp_path / "cmp.csv").read_text()
    lines = first.strip().split("\n")
    assert lines[0] == (
        "kind,poc,block_x0,block_y0,center_theta,model,t_u,t_v,sad,winner"
    )
    block_rows = [ln for ln in lines if ln.startswith("block,")]
    agg_rows = [ln for ln in lines if ln.startswith("aggregate,")]
    assert len(block_rows) == 3 * 8 * 3  # pairs x blocks x models
    assert len(agg_rows) == 3
    pocs = {ln.split(",")[1] for ln in block_rows}
    assert pocs == {"1", "2", "3"}
    # winner column is one of the models or "tie"
    winners = {ln.split(",")[9] for ln in block_rows}
    assert winners <= {"translational", "orig", "gcg", "tie"}
    capsys.readouterr()
    # deterministic across repeated runs
    assert run(args) == 0
    assert (tmp_path / "cmp.csv").read_text() == first


def test_compare_static_sequence_all_ties(tmp_path, capsys):
    assert (
        run(
            [
                "synth", "--out", tmp_path / "still.yuv", "--camera-out",
                tmp_path / "cam.csv", "--width", 64, "--height", 32,
                "--frames", 3, "--step", 0, "--seed", 2,
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "compare", "--input", tmp_path / "still.yuv", "--width", 64,
                "--height", 32, "--pixfmt", "yuv400", "--camera",
                tmp_path / "cam.csv", "--block", "16x16", "--range", 2,
                "--step", 1, "--out", tmp_path / "cmp.csv",
            ]
        )
        == 0
    )
    capsys.readouterr()
    lines = (tmp_path / "cmp.csv").read_text().strip().split("\n")
    block_rows = [ln.split(",") for ln in lines if ln.startswith("block,")]
    assert block_rows
    for cells in block_rows:
        assert cells[9] == "tie"
        assert cells[6] == "0.000000" and cells[7] == "0.000000"
        assert cells[8] == "0.000000"


def test_compare_missing_camera_row(synth_dir, tmp_path, capsys):
    (tmp_path / "cam.csv").write_text("frame_index,qx,qy,qz\n1,0,0,1\n")
    rc = run(
        [
            "compare", "--input", synth_dir / "seq.yuv", "--width", 128,
            "--height", 64, "--pixfmt", "yuv400",
            "--camera", tmp_path / "cam.csv", "--block", "32x32",
        ]
    )
    assert rc == 1
    assert "no row for frame 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "camest", "camcode"])
def test_camera_csv_with_a_repeated_frame_exits_1(synth_dir, tmp_path, capsys, command):
    # compare and camest --truth used the later row of frame 2
    rows = (synth_dir / "cam.csv").read_text().splitlines()
    cam = tmp_path / "cam.csv"
    cam.write_text("\n".join(rows + [rows[2]]) + "\n")
    argv = {
        "compare": ["compare", "--input", synth_dir / "seq.yuv", "--width", 128,
                    "--height", 64, "--pixfmt", "yuv400", "--camera", cam,
                    "--block", "32x32", "--range", 1, "--out", tmp_path / "cmp.csv"],
        "camest": ["camest", "--flow", synth_dir / "flow_%03d.flo", "--count", 3,
                   "--truth", cam, "--out", tmp_path / "est.csv"],
        "camcode": ["camcode", "encode", "--camera", cam, "--out", tmp_path / "cam.bin"],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: video_io: ") and "frame 2 twice" in err


def test_camest_pattern_with_truth(synth_dir, tmp_path, capsys):
    rc = run(
        [
            "camest", "--flow", synth_dir / "flow_%03d.flo", "--count", 3,
            "--truth", synth_dir / "cam.csv", "--out", tmp_path / "est.csv",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "est.csv").read_text().strip().split("\n")
    assert lines[0] == "frame_index,qx,qy,qz,angular_error_deg"
    assert len(lines) == 4
    for ln in lines[1:]:
        assert float(ln.split(",")[4]) < 0.2


def test_camest_single_flow(synth_dir, tmp_path, capsys):
    rc = run(
        [
            "camest", "--flow", synth_dir / "flow_000.flo", "--poc", 7,
            "--out", tmp_path / "one.csv",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    pocs, q = video_io.read_camera_csv(tmp_path / "one.csv")
    assert pocs.tolist() == [7]
    assert abs(np.linalg.norm(q[0]) - 1.0) < 1e-6


@pytest.mark.parametrize("finetune", [[], ["--finetune"]], ids=["plain", "finetune"])
def test_camest_ignores_unknown_flow_vectors(tmp_path, capsys, finetune):
    # planted Middlebury unknown-flow vectors (|flow| > 1e9) must not move
    # the estimate; 1e10 is not a multiple of the 120-pixel width, so a
    # planted du read as flow would point somewhere else entirely
    cfg = video_io.SynthConfig(
        width=120, height=60, frames=2, step=0.02, seed=6, direction=(0.2, -0.3, 0.93)
    )
    flow = video_io.synth_dolly(cfg).flows[0]
    du, dv = flow.du.copy(), flow.dv.copy()
    # on camest's default stride-4 sample grid, clear of the pole margin
    rng = np.random.default_rng(4)
    rows = 4 * rng.integers(2, 13, 24)
    cols = 4 * rng.integers(0, 30, 24)
    du[rows[:16], cols[:16]] = 1e10
    dv[rows[16:], cols[16:]] = -1e10
    video_io.write_flo(tmp_path / "clean.flo", flow)
    video_io.write_flo(tmp_path / "planted.flo", video_io.FlowField(du=du, dv=dv))
    estimates = []
    for name in ("clean", "planted"):
        out = tmp_path / f"{name}.csv"
        argv = ["camest", "--flow", tmp_path / f"{name}.flo", "--out", out]
        assert run(argv + finetune) == 0
        estimates.append(video_io.read_camera_csv(out)[1][0])
    capsys.readouterr()
    clean, planted = estimates
    angle = np.degrees(np.arccos(np.clip(clean @ planted, -1.0, 1.0)))
    assert angle < 0.01


def test_camest_missing_flow_file(tmp_path, capsys):
    rc = run(["camest", "--flow", tmp_path / "absent.flo"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_camest_forged_flo_header_exits_1(tmp_path, capsys):
    # width * height * 8 bytes does not even fit an index for this header
    path = tmp_path / "forged.flo"
    path.write_bytes(
        struct.pack("<fii", video_io.FLO_MAGIC, 2**31 - 1, 2**31 - 1) + b"\x00" * 8
    )
    rc = run(["camest", "--flow", path])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cli: frame 1: video_io: ")
    assert "Traceback" not in err


def test_camest_pairs_rejects_non_finite_row(tmp_path, capsys):
    rows = [f"{u} {v} {u + 1} {v + 0.5}" for u, v in
            [(3, 5), (10, 8), (17, 12), (25, 20), (33, 24), (41, 9), (50, 14), (58, 27)]]
    rows.insert(4, "nan 10 11 10")
    (tmp_path / "p.txt").write_text("\n".join(rows) + "\n")
    rc = run(["camest", "--pairs", tmp_path / "p.txt", "--width", 64, "--height", 32])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_camest_pairs_needs_geometry(tmp_path, capsys):
    (tmp_path / "p.txt").write_text("1 2 3 4\n")
    rc = run(["camest", "--pairs", tmp_path / "p.txt"])
    assert rc == 1
    assert "--width" in capsys.readouterr().err


def test_camcode_round_trip(synth_dir, tmp_path, capsys):
    rc = run(
        [
            "camcode", "encode", "--camera", synth_dir / "cam.csv",
            "--out", tmp_path / "cam.gcmh",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("frame ") == 3  # per-frame bit lines
    assert "total:" in out
    rc = run(
        [
            "camcode", "decode", "--input", tmp_path / "cam.gcmh",
            "--out", tmp_path / "rec.csv",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    truth_pocs, truth = video_io.read_camera_csv(synth_dir / "cam.csv")
    pocs, rec = video_io.read_camera_csv(tmp_path / "rec.csv")
    assert pocs.tolist() == truth_pocs.tolist()
    assert np.max(np.abs(truth - rec)) < 1e-6


def test_camcode_decode_repeated_frame_exits_1(synth_dir, tmp_path, capsys):
    # the second record's poc patched to the first one's; a decoded CSV
    # listing that frame twice is one camcode encode refuses
    pocs, directions = video_io.read_camera_csv(synth_dir / "cam.csv")
    enc = cam_code.encode_stream(pocs, directions)
    assert len(pocs) == 3
    second = 10 + enc.record_bits[0] // 8
    data = bytearray(enc.data)
    data[second : second + 4] = struct.pack(">I", pocs[0])
    (tmp_path / "twice.gcmh").write_bytes(bytes(data))
    rc = run(
        ["camcode", "decode", "--input", tmp_path / "twice.gcmh", "--out",
         tmp_path / "dec.csv"]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cam_code: ") and f"frame {pocs[0]} " in err
    assert not (tmp_path / "dec.csv").exists()


def test_camcode_decode_bad_magic(tmp_path, capsys):
    (tmp_path / "bad.gcmh").write_bytes(b"NOPE" + b"\x00" * 8)
    rc = run(
        ["camcode", "decode", "--input", tmp_path / "bad.gcmh", "--out",
         tmp_path / "x.csv"]
    )
    assert rc == 1
    assert "error: cam_code:" in capsys.readouterr().err


def test_camcode_decode_truncated_stream(synth_dir, tmp_path, capsys):
    rc = run(
        ["camcode", "encode", "--camera", synth_dir / "cam.csv", "--out",
         tmp_path / "cam.gcmh"]
    )
    assert rc == 0
    data = (tmp_path / "cam.gcmh").read_bytes()
    (tmp_path / "cut.gcmh").write_bytes(data[:-3])
    capsys.readouterr()
    rc = run(
        ["camcode", "decode", "--input", tmp_path / "cut.gcmh", "--out",
         tmp_path / "x.csv"]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cam_code: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["encode", "decode"])
@pytest.mark.parametrize(
    "flag, value",
    [("--frac-bits", -1), ("--frac-bits", 53), ("--frac-bits", 2000),
     ("--eg-order", -1), ("--eg-order", 65)],
)
def test_camcode_rejects_codec_parameters(synth_dir, tmp_path, capsys, command, flag, value):
    if command == "encode":
        argv = ["camcode", "encode", "--camera", synth_dir / "cam.csv",
                "--out", tmp_path / "cam.gcmh"]
    else:
        assert run(["camcode", "encode", "--camera", synth_dir / "cam.csv",
                    "--out", tmp_path / "ok.gcmh"]) == 0
        capsys.readouterr()
        argv = ["camcode", "decode", "--input", tmp_path / "ok.gcmh",
                "--out", tmp_path / "x.csv"]
    rc = run(argv + [flag, value])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cam_code: ")
    assert "Traceback" not in err
    assert not (tmp_path / ("cam.gcmh" if command == "encode" else "x.csv")).exists()


def test_file_errors_name_the_cli(tmp_path, capsys):
    rc = run(
        ["synth", "--out", tmp_path / "seq.yuv", "--flow-out",
         tmp_path / "missing_dir" / "f_%d.flo", "--width", 32, "--height", 16,
         "--frames", 2]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cli: ")
    assert "missing_dir" in err and "Traceback" not in err

    (tmp_path / "cam.csv").write_text("frame_index,qx,qy,qz\n1,0,0,1\n")
    rc = run(
        ["compare", "--input", tmp_path / "missing.yuv", "--width", 32,
         "--height", 16, "--camera", tmp_path / "cam.csv"]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cli: ")
    assert "missing.yuv" in err and "Traceback" not in err


@pytest.mark.parametrize("reader", ["camcode", "camest", "bdrate"])
def test_undecodable_text_exits_1(tmp_path, capsys, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"frame_index,qx,qy,qz\n1,0,0,1\xff\n")
    argv = {
        "camcode": ["camcode", "encode", "--camera", bad, "--out", tmp_path / "x.bin"],
        "camest": ["camest", "--pairs", bad, "--width", 64, "--height", 32],
        "bdrate": ["metrics", "bdrate", "--anchor", bad, "--test", bad],
    }[reader]
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert "bad.txt" in err and "Traceback" not in err


def test_metrics_wspsnr_identical(synth_dir, capsys):
    rc = run(
        [
            "metrics", "wspsnr", "--ref", synth_dir / "seq.yuv", "--test",
            synth_dir / "seq.yuv", "--width", 128, "--height", 64,
            "--pixfmt", "yuv400", "--max-frames", 2,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "average: 999.990000 dB" in out


def test_metrics_bdrate(tmp_path, capsys):
    a = "rate,quality\n100,30\n200,33\n400,36\n800,39\n"
    b = "\n".join(f"qp{i},{r},{q}" for i, (r, q) in enumerate(
        [(200, 30), (400, 33), (800, 36), (1600, 39)])) + "\n"
    (tmp_path / "a.csv").write_text(a)
    (tmp_path / "b.csv").write_text(b)
    rc = run(["metrics", "bdrate", "--anchor", tmp_path / "a.csv", "--test", tmp_path / "b.csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bd-rate: 100.000000 %" in out
    rc = run(["metrics", "bdrate", "--anchor", tmp_path / "a.csv", "--test", tmp_path / "a.csv"])
    assert rc == 0
    assert "bd-rate: 0.000000 %" in capsys.readouterr().out


def test_metrics_bdrate_refuses_a_malformed_data_row(tmp_path, capsys):
    # only the first row may be a header; "38O" (a letter O) was skipped as
    # one, and the BD-rate came from 4 of the 5 points
    a = _write_rd(tmp_path, "a.csv", [(100, 30), (200, 33), (400, 36), (800, 39), (1600, 42)])
    b = tmp_path / "b.csv"
    b.write_text("rate,quality\n105,30\n210,33\n38O,36\n840,39\n1680,42\n")
    rc = run(["metrics", "bdrate", "--anchor", a, "--test", b])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == f"error: cli: malformed RD row '38O,36' in {b}\n"
    # a header is still optional, and the first row may be one
    b.write_text("105,30\n210,33\n420,36\n840,39\n1680,42\n")
    assert run(["metrics", "bdrate", "--anchor", a, "--test", b]) == 0
    assert capsys.readouterr().out == "bd-rate: 5.000000 %\n"


def _write_rd(tmp_path, name, points):
    path = tmp_path / name
    path.write_text("rate,quality\n" + "".join(f"{r},{q}\n" for r, q in points))
    return path


ANCHOR_RD = [(100.0, 30.0), (200.0, 33.0), (400.0, 36.0), (800.0, 39.0)]
TEST_RD = [(110.0, 30.0), (206.0, 33.0), (409.0, 36.0), (820.0, 39.0)]


def _rd_curve(points):
    return metrics.RDCurve(tuple(metrics.RDPoint(r, q) for r, q in points))


def test_metrics_bdrate_camera_rate(tmp_path, capsys):
    # the second line takes the side-channel rate out of every test point
    a = _write_rd(tmp_path, "a.csv", ANCHOR_RD)
    b = _write_rd(tmp_path, "b.csv", TEST_RD)
    assert run(["metrics", "bdrate", "--anchor", a, "--test", b, "--camera-rate", 6]) == 0
    plain, without = capsys.readouterr().out.splitlines()
    anchor, test = _rd_curve(ANCHOR_RD), _rd_curve(TEST_RD)
    with_bits = metrics.bd_rate(anchor, test)
    expect = metrics.bd_rate(anchor, test.shifted(-6.0))
    assert plain == f"bd-rate: {with_bits:.6f} %"
    assert without == f"bd-rate w/o camera bits: {expect:.6f} %"
    assert expect < with_bits


def test_metrics_bdrate_negative_camera_rate_exits_1(tmp_path, capsys):
    a = _write_rd(tmp_path, "a.csv", ANCHOR_RD)
    b = _write_rd(tmp_path, "b.csv", TEST_RD)
    assert run(["metrics", "bdrate", "--anchor", a, "--test", b, "--camera-rate=-5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cli: ")


def test_metrics_opcount(capsys):
    assert run(["metrics", "opcount", "--variant", "orig", "--block", "8x8"]) == 0
    assert "total=389" in capsys.readouterr().out
    assert run(["metrics", "opcount", "--variant", "gcg", "--block", "8x8"]) == 0
    assert "total=256" in capsys.readouterr().out
    assert run(["metrics", "opcount", "--variant", "gcl", "--block", "8x8"]) == 0
    assert "total=321" in capsys.readouterr().out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        run(["nonsense"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["warp", "--q", "1,2"])  # malformed vector
    assert info.value.code == 2


def test_unknown_compare_variant(synth_dir, tmp_path, capsys):
    rc = run(
        [
            "compare", "--input", synth_dir / "seq.yuv", "--width", 128,
            "--height", 64, "--pixfmt", "yuv400",
            "--camera", synth_dir / "cam.csv", "--variants", "orig,warp9",
        ]
    )
    assert rc == 1
    assert "unknown variants" in capsys.readouterr().err


def test_repeated_compare_variant_exits_1(synth_dir, tmp_path, capsys):
    # a repeated name wrote its rows twice and doubled its aggregate
    rc = run(
        [
            "compare", "--input", synth_dir / "seq.yuv", "--width", 128,
            "--height", 64, "--pixfmt", "yuv400", "--camera", synth_dir / "cam.csv",
            "--variants", "orig,orig,gcg", "--out", tmp_path / "cmp.csv",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: cli: variant orig listed twice\n"
    assert list(tmp_path.iterdir()) == []


# --- numeric flags under a fuzzer --------------------------------------------------

# Values that broke flags before, or sit at an edge of a type: each numeric
# flag also draws small valid values of its own.  Integer flags of the
# frame commands draw only the integer edges.
_INT_EDGES = ["0", "1", "-1", str(-(2**31))]
_EDGE_VALUES = _INT_EDGES + ["nan", "inf", "-inf", "1e300"]


def _flag_value(valid, edges=_EDGE_VALUES):
    return st.one_of(st.sampled_from(edges), valid.map(str))


def _int_value(lo, hi):
    return _flag_value(st.integers(lo, hi), _INT_EDGES)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    _write_rd(root, "a.csv", ANCHOR_RD)
    _write_rd(root, "b.csv", TEST_RD)
    (root / "cam.csv").write_text("frame_index,qx,qy,qz\n1,0,0,1\n2,0.6,0,0.8\n3,0,-0.6,0.8\n")
    assert run(["camcode", "encode", "--camera", root / "cam.csv", "--out", root / "cam.gcmh"]) == 0
    # a 32x16 clip of three frames, its two flows, and a second clip
    for name, seed in (("seq", 0), ("seq2", 1)):
        assert run(["synth", "--out", root / f"{name}.yuv", "--flow-out", root / "flow_%d.flo",
                    "--width", 32, "--height", 16, "--frames", 3, "--step", "0.02",
                    "--depth-model", "cylinder", "--seed", seed]) == 0
    rows = [f"{u} {v} {u + 1} {v + 0.5}" for u, v in
            [(3, 5), (10, 8), (17, 12), (25, 10), (29, 4), (7, 11), (20, 6), (14, 9)]]
    (root / "pairs.txt").write_text("\n".join(rows) + "\n")
    return root


def _frame_flags(draw):
    """--width, --height and --bitdepth of the 32x16 luma-only clip."""
    return [f"--width={draw(_flag_value(st.sampled_from([16, 32]), _INT_EDGES))}",
            f"--height={draw(_flag_value(st.sampled_from([8, 16]), _INT_EDGES))}",
            f"--bitdepth={draw(_flag_value(st.sampled_from([8, 10]), _INT_EDGES))}",
            "--pixfmt", draw(st.sampled_from(["yuv400", "yuv420p"]))]


def _vector(draw, n):
    return ",".join(draw(_flag_value(st.floats(-2.0, 2.0))) for _ in range(n))


def _block(draw, lo):
    side = _flag_value(st.integers(lo, 16), _INT_EDGES)
    return f"--block={draw(side)}x{draw(side)}"


def _frame_argv(command, root, draw):
    seq = root / "seq.yuv"
    if command == "synth":
        return ["synth", "--out", root / "s.yuv", "--camera-out", root / "s.csv",
                "--flow-out", root / "s_%d.flo",
                f"--width={draw(_int_value(4, 32))}", f"--height={draw(_int_value(2, 16))}",
                f"--frames={draw(_int_value(1, 3))}",
                f"--step={draw(_flag_value(st.floats(0.0, 0.05)))}",
                f"--depth={draw(_flag_value(st.floats(0.5, 10.0)))}",
                "--depth-model", draw(st.sampled_from(["sphere", "cylinder"])),
                f"--q={_vector(draw, 3)}",
                f"--bitdepth={draw(_flag_value(st.sampled_from([8, 10]), _INT_EDGES))}",
                f"--seed={draw(_int_value(0, 100))}"]
    if command == "warp":
        return ["warp", "--input", seq, "--out", root / "w.yuv", "--stats", root / "w.csv",
                *_frame_flags(draw),
                f"--ref-index={draw(_int_value(0, 2))}", f"--cur-index={draw(_int_value(0, 2))}",
                f"--q={_vector(draw, 3)}", f"--t={_vector(draw, 2)}", _block(draw, 1),
                "--variant", draw(st.sampled_from(["orig", "gcg", "gcl"]))]
    if command == "compare":
        return ["compare", "--input", seq, "--camera", root / "cam.csv", "--out", root / "c.csv",
                *_frame_flags(draw), f"--max-frames={draw(_int_value(2, 3))}", _block(draw, 8),
                f"--range={draw(_flag_value(st.floats(0.5, 2.0)))}",
                f"--step={draw(_flag_value(st.floats(0.5, 2.0)))}"]
    if command == "camest":
        source = draw(st.sampled_from(["pattern", "single", "pairs"]))
        flags = {
            "pattern": ["--flow", root / "flow_%d.flo", f"--count={draw(_int_value(1, 2))}"],
            "single": ["--flow", root / "flow_1.flo", f"--poc={draw(_int_value(0, 9))}"],
            "pairs": ["--pairs", root / "pairs.txt", f"--width={draw(_int_value(8, 64))}",
                      f"--height={draw(_int_value(4, 32))}"],
        }[source]
        finetune = draw(st.sampled_from([[], ["--finetune"]]))
        return ["camest", *flags, f"--stride={draw(_int_value(1, 8))}", *finetune,
                "--out", root / "e.csv"]
    return ["metrics", "wspsnr", "--ref", seq, "--test", root / "seq2.yuv",
            *_frame_flags(draw), f"--max-frames={draw(_int_value(1, 3))}",
            *draw(st.sampled_from([[], ["--chroma"]]))]


def _argv(command, root, draw):
    if command in ("synth", "warp", "compare", "camest", "wspsnr"):
        return _frame_argv(command, root, draw)
    if command == "bdrate":
        rate = draw(_flag_value(st.floats(0.0, 50.0)))
        return ["metrics", "bdrate", "--anchor", root / "a.csv", "--test", root / "b.csv",
                f"--camera-rate={rate}"]
    if command == "opcount":
        side = _flag_value(st.integers(1, 64))
        variant = draw(st.sampled_from(["orig", "gcg", "gcl"]))
        return ["metrics", "opcount", "--variant", variant,
                f"--block={draw(side)}x{draw(side)}"]
    files = {
        "encode": ["--camera", root / "cam.csv", "--out", root / "out.gcmh"],
        "decode": ["--input", root / "cam.gcmh", "--out", root / "out.csv"],
    }[command]
    return ["camcode", command, *files,
            f"--frac-bits={draw(_flag_value(st.integers(0, 52)))}",
            f"--eg-order={draw(_flag_value(st.integers(0, 64)))}"]


@pytest.mark.parametrize(
    "command",
    ["bdrate", "opcount", "encode", "decode", "synth", "warp", "compare", "camest", "wspsnr"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_numeric_flags_give_a_result_or_exit_1(fuzz_dir, command, data):
    argv = [str(a) for a in _argv(command, fuzz_dir, data.draw)]
    err = io.StringIO()
    # pytest would capture warnings away from stderr, so they are recorded here
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    err = err.getvalue()
    assert rc in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if rc == 1:
        assert re.match(r"error: \w+: ", err), (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
