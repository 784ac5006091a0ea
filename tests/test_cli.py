import argparse
import contextlib
import hashlib
import io
import math
import os
import re
import shlex
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geo360 import cam_code, cli, geometry, metrics, mocomp, video_io
from geo360.errors import Geo360Error


def run(argv):
    return cli.main([str(a) for a in argv])


README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_session_runs(tmp_path, monkeypatch, capsys):
    # the session used a flow that synth never wrote, and camest --truth
    # wrote a CSV that camcode encode refused
    block = README.read_text().split("A typical session:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(ln) for ln in block.replace("\\\n", " ").splitlines()]
    assert [ln[1] for ln in lines] == ["synth", "compare", "camest", "camcode", "metrics"]
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert argv[0] == "geo360"
        assert run(argv[1:]) == 0, argv
    capsys.readouterr()


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
    [["--seed", -1], ["--step", "1e300", "--depth-model", "cylinder"]],
    ids=["seed-minus-1", "cylinder-step-1e300"],
)
def test_synth_settings_outside_their_range_exit_1(tmp_path, capsys, flags):
    # a negative seed ended in a ValueError traceback; a travel past 1e100
    # wrote non-finite flow after a RuntimeWarning
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

    predict_blocks = mocomp._predict_blocks

    def per_block(ref, cur, blocks, q, t, cfg):
        return (next(predict_blocks(ref, cur, [b], q, t, cfg)) for b in blocks)

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


def test_warp_refuses_odd_blocks_on_chroma(tmp_path, capsys):
    # 5x5 blocks on 4:2:0 frames wrote a cb plane of all zeros, exit 0
    frame = np.concatenate([np.full(30 * 10, 90), np.full(15 * 5, 128), np.full(15 * 5, 100)])
    (tmp_path / "c.yuv").write_bytes(2 * frame.astype(np.uint8).tobytes())
    argv = ["warp", "--input", tmp_path / "c.yuv", "--out", tmp_path / "p.yuv",
            "--stats", tmp_path / "s.csv", "--width", 30, "--height", 10,
            "--q", "0,0,1", "--t", "0,0"]
    assert run(argv + ["--block", "5x5"]) == 1
    assert capsys.readouterr().err == (
        "error: cli: 4:2:0 chroma needs even --block sides, got 5x5\n"
    )
    assert not (tmp_path / "p.yuv").exists()
    # even sides predict the chroma; luma-only frames take any side
    assert run(argv + ["--block", "6x10"]) == 0
    assert (tmp_path / "p.yuv").read_bytes() == frame.astype(np.uint8).tobytes()
    assert run(argv + ["--block", "5x5", "--pixfmt", "yuv400"]) == 0
    capsys.readouterr()


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
    assert all(0.0 < float(ln.split(",")[4]) < math.pi for ln in block_rows)
    capsys.readouterr()
    # deterministic across repeated runs
    assert run(args) == 0
    assert (tmp_path / "cmp.csv").read_text() == first


def test_warp_and_compare_write_the_same_center_theta(synth_dir, tmp_path, capsys):
    frame = ["--input", synth_dir / "seq.yuv", "--width", 128, "--height", 64,
             "--pixfmt", "yuv400", "--block", "16x8"]
    assert run(["warp", *frame, "--out", tmp_path / "p.yuv", "--stats", tmp_path / "s.csv",
                "--q", "0,0,1", "--t", "1,0"]) == 0
    assert run(["compare", *frame, "--camera", synth_dir / "cam.csv", "--max-frames", 2,
                "--range", 1, "--variants", "gcg", "--out", tmp_path / "c.csv"]) == 0
    capsys.readouterr()
    warp = [ln.split(",")[:3] for ln in (tmp_path / "s.csv").read_text().splitlines()[1:]]
    rows = [ln.split(",") for ln in (tmp_path / "c.csv").read_text().splitlines()]
    compare = [row[2:5] for row in rows if row[0] == "block" and row[5] == "translational"]
    assert len(warp) == (128 // 16) * (64 // 8)
    assert compare == warp
    # the polar angle of the block's centre row, y0 + 3.5
    assert {theta for _, y0, theta in warp} == {
        f"{math.pi * (int(y0) + 4.0) / 64:.6f}" for _, y0, _ in warp
    }


# sha256 of the cmp.csv below: the bits of every search, mapping and sampler
# of compare on two distinct camera directions, one of them repeated.
COMPARE_DIGEST = "4e1b2048116351bfd410515d74679d7aca6597cdd81660ba7503828bbcb2fd12"


def test_compare_output_is_pinned(tmp_path, capsys):
    q = "0.48,-0.36,0.8"
    assert run([
        "synth", "--out", tmp_path / "seq.yuv", "--width", 128, "--height", 64,
        "--frames", 4, "--step", "0.03", "--depth-model", "cylinder",
        "--q=" + q, "--seed", 5,
    ]) == 0
    (tmp_path / "cam.csv").write_text(
        f"frame_index,qx,qy,qz\n1,{q}\n2,0.0,0.6,-0.8\n3,{q}\n"
    )
    assert run([
        "compare", "--input", tmp_path / "seq.yuv", "--width", 128, "--height", 64,
        "--pixfmt", "yuv400", "--camera", tmp_path / "cam.csv", "--block", "16x16",
        "--range", 2, "--step", "0.5", "--variants", "orig,gcg,gcl",
        "--out", tmp_path / "cmp.csv",
    ]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "cmp.csv").read_bytes()).hexdigest()
    assert digest == COMPARE_DIGEST


def test_compare_prints_what_out_writes(synth_dir, tmp_path, capsys):
    args = [
        "compare", "--input", synth_dir / "seq.yuv", "--width", 128,
        "--height", 64, "--pixfmt", "yuv400", "--camera", synth_dir / "cam.csv",
        "--block", "32x32", "--range", 1,
    ]
    assert run(args) == 0
    printed = capsys.readouterr().out
    assert run(args + ["--out", tmp_path / "cmp.csv"]) == 0
    capsys.readouterr()
    written = (tmp_path / "cmp.csv").read_bytes()
    table, sep, aggregates = printed.partition("aggregate sad ")
    assert sep and table.encode() == written
    assert (sep + aggregates).count("\n") == 3


def test_compare_aggregates_and_winners(synth_dir, tmp_path, capsys, monkeypatch):
    # 3 pairs x 8 blocks of (translational, orig, gcg) SADs whose totals
    # print differently when summed left to right, pairwise (np.sum) or
    # exactly (math.fsum); the CLI sums left to right in (pair, block) order
    sad = np.ones((24, 3))
    sad[0] = 2.0**53
    sad[1] = [1.0, 1.0, 2.0]  # two-way tie at the minimum
    sad[2] = [3.0, 3.0, 2.0]  # a unique minimum under a tie
    sad[3] = [2.0, 3.0, 3.0]
    sad = sad.reshape(3, 8, 3)

    def fake_compare(frames, blocks, q_per_pair, model_configs, search_range, step):
        assert sad.shape == (len(frames) - 1, len(blocks), 1 + len(model_configs))
        return np.zeros(sad.shape + (2,)), sad

    monkeypatch.setattr(mocomp, "compare_sequence", fake_compare)
    assert run([
        "compare", "--input", synth_dir / "seq.yuv", "--width", 128,
        "--height", 64, "--pixfmt", "yuv400", "--camera", synth_dir / "cam.csv",
        "--block", "32x32", "--out", tmp_path / "cmp.csv",
    ]) == 0
    out = capsys.readouterr().out
    rows = [ln.split(",") for ln in (tmp_path / "cmp.csv").read_text().splitlines()]
    winners = [cells[9] for cells in rows if cells[0] == "block"][::3]
    assert winners[:4] == ["tie", "tie", "gcg", "translational"]
    assert set(winners[4:]) == {"tie"}
    for k, label in enumerate(("translational", "orig", "gcg")):
        column = sad[..., k].ravel()
        total = 0.0
        for value in column.tolist():
            total += value
        printed = f"{total:.6f}"
        assert len({printed, f"{np.sum(column):.6f}", f"{math.fsum(column):.6f}"}) == 3
        assert ["aggregate", "", "", "", "", label, "", "", printed, ""] in rows
        assert f"aggregate sad {label}: {printed}\n" in out


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


def test_compare_refuses_orig_at_the_half_turn(tmp_path, capsys):
    # at delta = pi/128 the grid's t_u = +-128 moves a block center by pi,
    # where the constant-depth law has no k
    assert run([
        "synth", "--out", tmp_path / "seq.yuv", "--camera-out", tmp_path / "cam.csv",
        "--width", 256, "--height", 128, "--frames", 2, "--seed", 0,
    ]) == 0
    rc = run([
        "compare", "--input", tmp_path / "seq.yuv", "--width", 256, "--height", 128,
        "--pixfmt", "yuv400", "--camera", tmp_path / "cam.csv", "--block", "64x64",
        "--variants", "orig", "--range", 128, "--step", 8, "--out", tmp_path / "cmp.csv",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: motion_model: \|delta\*t_u\| = \S+ must be < pi\n", err)
    assert not (tmp_path / "cmp.csv").exists()


def _run_with_cpus(monkeypatch, capsys, cpus, argv):
    """(exit code, stdout, stderr) of one command as on a machine with cpus
    CPUs."""
    monkeypatch.setattr(mocomp, "_cpu_count", lambda: cpus)
    rc = run(argv)
    return (rc, *capsys.readouterr())


def test_compare_writes_the_same_bytes_in_one_process_and_two(
    tmp_path, capsys, monkeypatch, forks
):
    assert run([
        "synth", "--out", tmp_path / "seq.yuv", "--camera-out", tmp_path / "cam.csv",
        "--width", 128, "--height", 64, "--frames", 4, "--step", "0.1",
        "--depth-model", "cylinder", "--q=0.48,-0.36,0.8", "--seed", 3,
    ]) == 0
    capsys.readouterr()
    args = [
        "compare", "--input", tmp_path / "seq.yuv", "--width", 128, "--height", 64,
        "--pixfmt", "yuv400", "--camera", tmp_path / "cam.csv", "--block", "32x32",
        "--range", 2, "--step", "0.5", "--variants", "orig,gcg,gcl",
        "--out", tmp_path / "cmp.csv",
    ]
    outputs = []
    for cpus in (1, 2):
        outcome = _run_with_cpus(monkeypatch, capsys, cpus, args)
        outputs.append((outcome, (tmp_path / "cmp.csv").read_bytes()))
    assert forks == [os.getpid()]
    assert outputs[0] == outputs[1] and outputs[0][0][0] == 0
    # four different aggregates: the models did not all pick the same motion
    assert len({ln.split(": ")[1] for ln in outputs[0][0][1].splitlines()[1:]}) == 4


def test_compare_refuses_gcl_at_the_epipole_in_the_child_rows(
    tmp_path, capsys, monkeypatch, forks
):
    # q is the centre of the first block of the second block row, which
    # the child searches, and no block centre is at its antipode; the
    # local radius there is below POLE_EPS, and the error is the one a
    # single process raises
    assert run([
        "synth", "--out", tmp_path / "seq.yuv", "--width", 96, "--height", 32,
        "--frames", 2, "--seed", 1,
    ]) == 0
    capsys.readouterr()
    theta, phi = geometry.erp_grid_to_sphere(np.float64(15.5), np.float64(23.5), 96, 32)
    q = geometry.sphere_grid_to_cart(theta, phi).tolist()
    (tmp_path / "cam.csv").write_text("frame_index,qx,qy,qz\n1,%r,%r,%r\n" % tuple(q))
    args = [
        "compare", "--input", tmp_path / "seq.yuv", "--width", 96, "--height", 32,
        "--pixfmt", "yuv400", "--camera", tmp_path / "cam.csv", "--block", "32x16",
        "--range", 1, "--variants", "gcl", "--out", tmp_path / "cmp.csv",
    ]
    outcomes, searched, passed = [], [], []
    search_in_two, search_rows = mocomp._search_in_two, mocomp._search_rows

    def in_two(*args):
        outcomes.append(search_in_two(*args))
        return outcomes[-1]

    def rows(*args):
        searched.append(args[6])
        search_rows(*args)
        passed.append(args[6])

    monkeypatch.setattr(mocomp, "_search_in_two", in_two)
    monkeypatch.setattr(mocomp, "_search_rows", rows)
    one = _run_with_cpus(monkeypatch, capsys, 1, args)
    searched.clear()
    two = _run_with_cpus(monkeypatch, capsys, 2, args)
    # here, the parent's row passed, the helper reported the child's
    # failure, and the rerun of every row raised
    assert forks == [os.getpid()] and outcomes == [False]
    assert searched == [[[0, 1, 2]], [[0, 1, 2], [3, 4, 5]]] and passed == [[[0, 1, 2]]]
    assert one == two
    assert one[0] == 1 and re.fullmatch(
        r"error: motion_model: local radius \S+ below POLE_EPS\n", one[2]
    )
    assert not (tmp_path / "cmp.csv").exists()


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
    # the error ends each frame's stdout line; est.csv is a plain camera CSV
    lines = capsys.readouterr().out.splitlines()
    pocs, q = video_io.read_camera_csv(tmp_path / "est.csv")
    assert pocs.tolist() == [1, 2, 3]
    for ln, poc, row in zip(lines, pocs, q, strict=True):
        cells = ln.removeprefix(f"frame {poc}: ").split(",")
        assert cells[:3] == [f"{x:.10f}" for x in row]
        assert float(cells[3]) < 0.2


def test_every_camera_csv_writer_feeds_every_reader(synth_dir, tmp_path, capsys):
    # camest --truth wrote an extra column that every reader refused
    flows = ["--flow", synth_dir / "flow_%03d.flo", "--count", 3]
    written = {
        "synth": synth_dir / "cam.csv",
        "camest": tmp_path / "est.csv",
        "camest-truth": tmp_path / "est_truth.csv",
        "decode": tmp_path / "dec.csv",
    }
    assert run(["camest", *flows, "--out", written["camest"]]) == 0
    assert run(["camest", *flows, "--truth", written["synth"],
                "--out", written["camest-truth"]]) == 0
    assert run(["camcode", "encode", "--camera", written["synth"],
                "--out", tmp_path / "cam.bin"]) == 0
    assert run(["camcode", "decode", "--input", tmp_path / "cam.bin",
                "--out", written["decode"]]) == 0
    for name, path in written.items():
        pocs, _ = video_io.read_camera_csv(path)
        assert pocs.tolist() == [1, 2, 3], name
        assert run(["camcode", "encode", "--camera", path,
                    "--out", tmp_path / f"{name}.bin"]) == 0, name
        assert run(["compare", "--input", synth_dir / "seq.yuv", "--width", 128,
                    "--height", 64, "--pixfmt", "yuv400", "--camera", path,
                    "--block", "32x32", "--range", 1, "--out", tmp_path / f"{name}.cmp"]) == 0
    assert written["camest"].read_bytes() == written["camest-truth"].read_bytes()
    capsys.readouterr()


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


def test_camest_refuses_flow_with_pairs(synth_dir, tmp_path, capsys):
    # it used to estimate from the pairs alone and drop the flow unsaid
    (tmp_path / "p.txt").write_text("1 2 3 4\n")
    with pytest.raises(SystemExit) as info:
        run([
            "camest", "--flow", synth_dir / "flow_%03d.flo", "--count", 2,
            "--pairs", tmp_path / "p.txt", "--width", 64, "--height", 32,
        ])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, flag",
    [("pairs", ["--count", 5]), ("pairs", ["--stride", 9]), ("pairs", ["--finetune"]),
     ("flow", ["--width", 64]), ("flow", ["--height", 32]), ("pattern", ["--poc", 7])],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_camest_refuses_a_flag_its_source_does_not_read(synth_dir, tmp_path, capsys,
                                                        source, flag):
    # each flag was dropped without a word, exit 0
    (tmp_path / "p.txt").write_text("1 2 3 4\n")
    argv, name = {
        "pairs": (["--pairs", tmp_path / "p.txt", "--width", 64, "--height", 32], "--pairs"),
        "flow": (["--flow", synth_dir / "flow_000.flo"], "--flow"),
        "pattern": (["--flow", synth_dir / "flow_%03d.flo", "--count", 2],
                    "--flow with --count"),
    }[source]
    out = tmp_path / "est.csv"
    assert run(["camest", *argv, *flag, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: cli: {flag[0]} does not apply to {name}\n"
    assert not out.exists()


def test_camest_needs_flow_or_pairs(capsys):
    with pytest.raises(SystemExit) as info:
        run(["camest", "--width", 64, "--height", 32])
    assert info.value.code == 2
    assert "one of the arguments --flow --pairs is required" in capsys.readouterr().err


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


def test_camcode_round_trip_out_of_order(tmp_path, capsys):
    # frames in a hierarchical coding order: poc 4 ties between the
    # antipodal pocs 0 and 8, and poc 2 between pocs 0 and 4
    order = [0, 8, 4, 2, 6, 1, 3, 5, 7]
    theta, phi = 1.0 + 0.05 * np.arange(9), -2.0 + 0.3 * np.arange(9)
    directions = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1
    )
    directions[8] = -directions[0]
    video_io.write_camera_csv(tmp_path / "cam.csv", order, directions[order])
    for argv in (["encode", "--camera", tmp_path / "cam.csv", "--out", tmp_path / "cam.gcmh"],
                 ["decode", "--input", tmp_path / "cam.gcmh", "--out", tmp_path / "dec.csv"],
                 ["encode", "--camera", tmp_path / "dec.csv", "--out", tmp_path / "again.gcmh"]):
        assert run(["camcode", *argv]) == 0, argv
    capsys.readouterr()
    pocs, decoded = video_io.read_camera_csv(tmp_path / "dec.csv")
    assert pocs.tolist() == order
    assert np.max(np.abs(decoded - directions[order])) < 1e-6
    assert (tmp_path / "again.gcmh").read_bytes() == (tmp_path / "cam.gcmh").read_bytes()


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
     ("--eg-order", -1), ("--eg-order", 65),
     ("--frac-bits", 12), ("--frac-bits", 24), ("--eg-order", 5), ("--eg-order", 18)],
)
def test_camcode_rejects_codec_parameters(synth_dir, tmp_path, capsys, command, flag, value):
    # The stream records neither the EG order nor the precision, and a
    # decoder must use its encoder's values, so camcode codes at the
    # defaults and has no flag for either, in or out of the library's range.
    if command == "encode":
        argv = ["camcode", "encode", "--camera", synth_dir / "cam.csv",
                "--out", tmp_path / "cam.gcmh"]
    else:
        assert run(["camcode", "encode", "--camera", synth_dir / "cam.csv",
                    "--out", tmp_path / "ok.gcmh"]) == 0
        capsys.readouterr()
        argv = ["camcode", "decode", "--input", tmp_path / "ok.gcmh",
                "--out", tmp_path / "x.csv"]
    with pytest.raises(SystemExit) as info:
        run(argv + [flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / ("cam.gcmh" if command == "encode" else "x.csv")).exists()


@pytest.mark.parametrize("command", ["synth", "compare"])
def test_abbreviated_flags_exit_2(synth_dir, tmp_path, capsys, command):
    # a flag is taken only by its whole name: `synth --depth` is not
    # `--depth-model`, and `compare --var` is not `--variants`
    out = tmp_path / "out"
    if command == "synth":
        argv, unknown = ["synth", "--depth", "cylinder", "--out", out], "--depth cylinder"
    else:
        argv = ["compare", "--input", synth_dir / "seq.yuv", "--width", 128, "--height", 64,
                "--pixfmt", "yuv400", "--camera", synth_dir / "cam.csv", "--var", "orig",
                "--out", out]
        unknown = "--var orig"
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err
    assert not out.exists()


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
    return metrics.RDCurve(*zip(*points))


def test_metrics_bdrate_camera_rate(tmp_path, capsys):
    # the second line takes the side-channel rate out of every test point
    a = _write_rd(tmp_path, "a.csv", ANCHOR_RD)
    b = _write_rd(tmp_path, "b.csv", TEST_RD)
    assert run(["metrics", "bdrate", "--anchor", a, "--test", b, "--camera-rate", 6]) == 0
    plain, without = capsys.readouterr().out.splitlines()
    anchor, test = _rd_curve(ANCHOR_RD), _rd_curve(TEST_RD)
    with_bits = metrics.bd_rate(anchor, test)
    expect = metrics.bd_rate(anchor, metrics.RDCurve(test.rates - 6.0, test.qualities))
    assert plain == f"bd-rate: {with_bits:.6f} %"
    assert without == f"bd-rate w/o camera bits: {expect:.6f} %"
    assert expect < with_bits


# The 4-point pair of tests/test_metrics.py::test_external_reference_vector.
REFERENCE_ANCHOR_RD = [(1358.24, 34.851), (2486.44, 36.845), (4593.60, 38.615),
                       (9487.76, 40.037)]
REFERENCE_TEST_RD = [(1356.24, 34.987), (2451.52, 36.970), (4469.00, 38.651),
                     (9787.80, 40.121)]


@pytest.mark.parametrize(
    "camera_rate, expect",
    [([], "bd-rate: -4.420463 %\n"),
     (["--camera-rate", "37.5"],
      "bd-rate: -4.420463 %\nbd-rate w/o camera bits: -5.743150 %\n")],
    ids=["plain", "camera-rate"],
)
def test_metrics_bdrate_reference_lines(tmp_path, capsys, camera_rate, expect):
    a = _write_rd(tmp_path, "a.csv", REFERENCE_ANCHOR_RD)
    b = _write_rd(tmp_path, "b.csv", REFERENCE_TEST_RD)
    assert run(["metrics", "bdrate", "--anchor", a, "--test", b, *camera_rate]) == 0
    assert capsys.readouterr().out == expect


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


@pytest.mark.parametrize("message", ["", "Unable to allocate 3.64 TiB for an array"])
def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, message):
    # a huge synth --width/--height ended in a MemoryError traceback; the
    # command is replaced by one that raises, so nothing large is allocated
    def no_memory(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_cmd_synth", no_memory)
    assert run(["synth", "--out", tmp_path / "seq.yuv"]) == 1
    want = "error: cli: out of memory" + (f": {message}" if message else "")
    assert capsys.readouterr().err == want + "\n"
    assert list(tmp_path.iterdir()) == []


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
        if source != "pairs":  # --pairs reads neither
            flags += [f"--stride={draw(_int_value(1, 8))}",
                      *draw(st.sampled_from([[], ["--finetune"]]))]
        return ["camest", *flags, "--out", root / "e.csv"]
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
    side = _flag_value(st.integers(1, 64))
    variant = draw(st.sampled_from(["orig", "gcg", "gcl"]))
    return ["metrics", "opcount", "--variant", variant, f"--block={draw(side)}x{draw(side)}"]


@pytest.mark.parametrize(
    "command", ["bdrate", "opcount", "synth", "warp", "compare", "camest", "wspsnr"]
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
