import numpy as np
import pytest

from geo360 import cli, video_io


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
    cam = video_io.read_camera_csv(synth_dir / "cam.csv")
    assert [p for p, _ in cam] == [1, 2, 3]
    assert (synth_dir / "flow_002.flo").exists()


@pytest.mark.parametrize(
    "pattern, frames",
    [("flow.flo", 2), ("flow_%d_%d.flo", 2), ("flow_%.0s.flo", 2), ("flow_%.1s.flo", 12)],
)
def test_synth_rejects_flow_pattern_without_frame_number(tmp_path, capsys, pattern, frames):
    rc = run(
        [
            "synth", "--out", tmp_path / "seq.yuv", "--flow-out", tmp_path / pattern,
            "--width", 32, "--height", 16, "--frames", frames,
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: cli: --flow-out needs one integer placeholder such as %03d\n"
    )
    assert list(tmp_path.iterdir()) == []


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
    for scaling in ("global", "local"):
        rc = run(
            [
                "warp", "--input", tmp_path / "eq.yuv", "--out",
                tmp_path / f"p_{scaling}.yuv", "--stats", tmp_path / f"{scaling}.csv",
                "--width", 64, "--height", 16, "--pixfmt", "yuv400",
                "--q", "0,0,1", "--t", "1,0", "--block", "16x16",
                "--variant", "gc", "--scaling", scaling,
            ]
        )
        assert rc == 0
        outputs.append((tmp_path / f"{scaling}.csv").read_text())
    capsys.readouterr()
    # one block row centered exactly on the equator: r = 1 either way
    assert outputs[0] == outputs[1]


def test_warp_variant_scaling_contradiction(synth_dir, tmp_path, capsys):
    rc = run(
        [
            "warp", "--input", synth_dir / "seq.yuv", "--out", tmp_path / "x.yuv",
            "--width", 128, "--height", 64, "--pixfmt", "yuv400",
            "--q", "0,0,1", "--t", "1,0", "--variant", "gcg",
            "--scaling", "local",
        ]
    )
    assert rc == 1
    assert "error: cli:" in capsys.readouterr().err


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
    rows = video_io.read_camera_csv(tmp_path / "one.csv")
    assert rows[0][0] == 7
    assert abs(np.linalg.norm(rows[0][1]) - 1.0) < 1e-6


def test_camest_missing_flow_file(tmp_path, capsys):
    rc = run(["camest", "--flow", tmp_path / "absent.flo"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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
    truth = video_io.read_camera_csv(synth_dir / "cam.csv")
    rec = video_io.read_camera_csv(tmp_path / "rec.csv")
    for (pa, qa), (pb, qb) in zip(truth, rec):
        assert pa == pb
        assert np.max(np.abs(qa - qb)) < 1e-6


def test_camcode_decode_bad_magic(tmp_path, capsys):
    (tmp_path / "bad.gcmh").write_bytes(b"NOPE" + b"\x00" * 8)
    rc = run(
        ["camcode", "decode", "--input", tmp_path / "bad.gcmh", "--out",
         tmp_path / "x.csv"]
    )
    assert rc == 1
    assert "error: cam_code:" in capsys.readouterr().err


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
